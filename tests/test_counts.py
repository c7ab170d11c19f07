import io
import json
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalci import counts
from causalci.counts import (CountTable, Observation, ObservationParseError,
                             dyadic_floor, read_csv, read_jsonl)
from causalci.effects import EffectQuery, effect_interval
from causalci.simulator import sample_iid
from helpers import binary_table, dyadic_rows, eight_obs_stream, naive_count, \
    naive_dyadic_estimate, naive_dyadic_floor, random_table, reference_read_jsonl, \
    three_valued_model


def test_dyadic_floor_examples():
    assert dyadic_floor(5) == 4
    assert dyadic_floor(1) == 1
    assert dyadic_floor(0) == 1
    assert dyadic_floor(1024) == 1024
    assert dyadic_floor(2) == 2
    assert dyadic_floor(3) == 2


@given(st.integers(min_value=0, max_value=10**9))
def test_dyadic_floor_properties(n):
    k = dyadic_floor(n)
    assert k == naive_dyadic_floor(n)
    assert dyadic_floor(k) == k  # idempotent
    assert k & (k - 1) == 0  # a power of two
    if n >= 1:
        assert k <= n
    if n >= 2:
        assert k > n / 2


def test_single_insert():
    table = binary_table()
    table.ingest(Observation(0, 1, (0,)))
    assert table.n == 1
    assert table.count(x=0) == 1
    assert table.count(z=(0,)) == 1
    assert table.count(x=0, z=(0,)) == 1
    assert table.count(x=0, y=1, z=(0,)) == 1
    assert table.count(x=1) == 0


def test_eight_obs_tallies():
    table = binary_table(eight_obs_stream())
    assert table.n == 8
    assert table.count(z=(0,)) == 4
    assert table.count(z=(1,)) == 4
    assert table.count(x=1, z=(0,)) == 3
    assert table.count(x=1, z=(1,)) == 3
    assert table.count(x=1, y=1, z=(0,)) == 2
    assert table.count(x=1, y=1, z=(1,)) == 2
    # count over the first four observations
    assert binary_table(eight_obs_stream()[:4]).count(x=1, z=(1,)) == 1


def test_double_ingest_doubles_counts():
    table = binary_table()
    obs = Observation(1, 0, (1,))
    table.ingest(obs)
    table.ingest(obs)
    assert table.count(x=1, y=0, z=(1,)) == 2
    assert table.count(x=1) == 2
    assert table.count(x=0) == 0
    assert table.n == 2


def test_out_of_domain_rejected():
    table = binary_table()
    with pytest.raises(ValueError):
        table.ingest(Observation(2, 0, (0,)))
    with pytest.raises(ValueError):
        table.ingest(Observation(0, 0, (0, 1)))  # wrong arity


@pytest.mark.parametrize('obs, message', [
    (([1], 0, (0,)), "x value [1] not in declared domain"),
    ((1, {}, (0,)), "y value {} not in declared domain"),
    ((1, 0, [[0]]), "z[0] value [0] not in declared domain"),
])
def test_unhashable_value_is_a_domain_error(obs, message):
    for add in (CountTable.ingest, lambda table, row: table.ingest_all([row])):
        table = binary_table()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            add(table, obs)
        assert table == binary_table()


def _estimate(leaf):
    """A leaf's (count, hits) as the frequency it stands for; None with no
    occurrences, as the naive oracle has it."""
    count, hits = leaf
    return hits / count if count else None


def test_untracked_patterns_raise():
    # only the patterns some estimator reads are tracked
    table = binary_table(eight_obs_stream())
    for pattern in ({'x': 1, 'y': 1}, {'y': 1}, {'y': 1, 'z': (0,)}):
        with pytest.raises(ValueError, match="not tracked"):
            table.count(**pattern)
    for m in (None, table.n):
        with pytest.raises(ValueError, match="not tracked"):
            table.leaf({'y': 1}, {'x': 1}, m)
        with pytest.raises(ValueError, match="not tracked"):
            table.leaf({'x': 1}, {'z': (0,)}, m)
        for event in ({'y': 7}, {'z': (7,)}, {'x': 7}, {'y': [1]}, {'x': {}}):
            given = {'x': 1, 'z': (0,)} if 'y' in event else {}
            with pytest.raises(ValueError, match="^leaf value .* not in declared domain$"):
                table.leaf(event, given, m)
        # a condition outside the domains, unhashable ones too, has never occurred
        for given in ({'x': 7, 'z': (0,)}, {'x': [1], 'z': (0,)}, {'x': 1, 'z': [[0]]}):
            assert table.leaf({'y': 1}, given, m) == (0, 0)
    assert table.count(x=7) == table.count(x=[1]) == table.count(x=1, z=[[0]]) == 0


@pytest.mark.parametrize("m", [0, 1, 5, 8])
def test_prefix_dyadic_estimate_refuses_untracked_pairs(m):
    # at every prefix, m < n and m == n alike
    table = binary_table(eight_obs_stream())
    for event, given in (({'x': 1}, {'z': (0,)}), ({'y': 1}, {'x': 1}),
                         ({'y': 1}, {})):
        with pytest.raises(ValueError, match="not tracked"):
            table.leaf(event, given, m)
    # a tracked pair still answers at every prefix
    assert _estimate(table.leaf({'x': 1}, {}, m)) == \
        naive_dyadic_estimate(eight_obs_stream(), lambda o: o.x == 1,
                              lambda o: True, upto=m)


def test_empirical_estimate():
    table = binary_table(eight_obs_stream())
    assert table.leaf({'y': 1}, {'x': 1, 'z': (0,)}) == (3, 2)  # 2/3
    assert table.leaf({'z': (0,)}, {}) == (8, 4)  # 0.5
    # no condition has occurred in an empty table
    empty = binary_table()
    for event, given in (({'y': 1}, {'x': 1, 'z': (0,)}), ({'z': (0,)}, {'x': 1}),
                         ({'z': (0,)}, {}), ({'x': 1}, {})):
        assert empty.leaf(event, given) == (0, 0)


def test_empirical_estimate_sums_to_one():
    table = binary_table(eight_obs_stream())
    for z in table.z_values:
        total = sum(_estimate(table.leaf({'y': y}, {'x': 1, 'z': z}))
                    for y in table.y_domain)
        assert total == pytest.approx(1.0)
    for event, given in (('z', {'x': 1}), ('z', {}), ('x', {})):
        values = table.z_values if event == 'z' else table.x_domain
        total = sum(_estimate(table.leaf({event: v}, given)) for v in values)
        assert total == pytest.approx(1.0)


def test_dyadic_estimate_prefix_trace():
    # condition occurrences carry Y-values [1,0,1,1,0]; floor(5)=4, first
    # four contain three successes
    ys = [1, 0, 1, 1, 0]
    stream = []
    for y in ys:
        stream.append(Observation(1, y, (0,)))
        stream.append(Observation(0, 0, (1,)))  # filler
    table = binary_table(stream)
    assert table.leaf({'y': 1}, {'x': 1, 'z': (0,)}, table.n) == (4, 3)  # 3/4


def test_dyadic_estimate_saturated_and_single():
    table = binary_table([Observation(1, 1, (0,))] * 4)
    assert table.leaf({'y': 1}, {'x': 1, 'z': (0,)}, 4) == (4, 4)  # 1.0
    single = binary_table([Observation(1, 1, (1,))])
    assert single.leaf({'y': 1}, {'x': 1, 'z': (1,)}, 1) == (1, 1)  # 1.0
    assert single.leaf({'y': 1}, {'x': 0, 'z': (1,)}, 1) == (0, 0)  # no estimate


def test_dyadic_levels_monotone():
    rng = __import__('numpy').random.default_rng(7)
    table, _ = random_table(rng, min_n=200, max_n=400)
    for z in table.z_values:
        for y in table.y_domain:
            given = {'x': table.x_domain[0], 'z': z}
            # the event tally at each level j: where the count reaches 2**j
            trace = [table.leaf({'y': y}, given, m) for m in range(table.n + 1)]
            levels = [hits for (count, hits), (before, _) in zip(trace[1:], trace)
                      if count != before]
            assert list(dict.fromkeys(count for count, _ in trace)) == \
                [0] + [2 ** j for j in range(len(levels))]
            for j, tally in enumerate(levels):
                assert 0 <= tally <= 2 ** j
            assert levels == sorted(levels)


def test_dyadic_estimates_match_naive_oracle():
    rng = __import__('numpy').random.default_rng(11)
    table, obs = random_table(rng, min_n=100, max_n=600)
    xt = table.x_domain[0]
    for z in table.z_values:
        for y in table.y_domain:
            got = _estimate(table.leaf({'y': y}, {'x': xt, 'z': z}, table.n))
            want = naive_dyadic_estimate(obs, lambda o: o.y == y,
                                         lambda o: o.x == xt and o.z == z)
            assert got == want
    for m in (1, 7, len(obs) // 2, len(obs)):
        got = _estimate(table.leaf({'z': table.z_values[0]}, {}, m))
        want = naive_dyadic_estimate(obs, lambda o: o.z == table.z_values[0],
                                     lambda o: True, upto=m)
        assert got == want
        got = _estimate(table.leaf({'y': table.y_domain[0]},
                                   {'x': xt, 'z': table.z_values[0]}, m))
        want = naive_dyadic_estimate(obs, lambda o: o.y == table.y_domain[0],
                                     lambda o: o.x == xt and o.z == table.z_values[0],
                                     upto=m)
        assert got == want


def test_replay_determinism():
    stream = eight_obs_stream() * 3
    a = binary_table(stream)
    b = binary_table(stream)
    assert a == b
    b.ingest(Observation(0, 0, (0,)))
    assert a != b


def _entries(value) -> int:
    """Entries of the dicts, lists and arrays in ``value``, nested ones included."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, dict):
        return len(value) + sum(map(_entries, value.values()))
    if isinstance(value, list):
        return len(value) + sum(map(_entries, value))
    return 0


def test_table_state_is_logarithmic_in_the_stream():
    # what the table holds: every tracked cell's count, and per condition
    # pattern (x, z), x and the whole stream one entry plus its levels
    model = three_valued_model()
    table = model.count_table()
    table.ingest_all(sample_iid(model, 20_000, 5))
    nx, ny, nz = len(table.x_domain), len(table.y_domain), len(table.z_values)
    cells = nx * ny * nz + nx * nz + nx + nz
    conditions = nx * nz + nx + 1
    indexes = nx + ny + nz  # the value -> domain index maps
    held = sum(_entries(v) for v in vars(table).values())
    assert held <= cells + conditions * (table.n.bit_length() + 1) + indexes


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                max_size=40))
def test_marginals_sum_to_n(rows):
    table = binary_table(Observation(x, y, (z,)) for x, y, z in rows)
    assert sum(table.count(x=x) for x in table.x_domain) == table.n
    assert sum(table.count(z=z) for z in table.z_values) == table.n
    for x in table.x_domain:
        for z in table.z_values:
            joint = sum(table.count(x=x, y=y, z=z) for y in table.y_domain)
            assert joint == table.count(x=x, z=z)
            assert table.count(x=x, z=z) <= min(table.count(x=x), table.count(z=z))


def test_read_jsonl_roundtrip():
    lines = ['{"format_version": 1, "kind": "observations"}',
             '{"x": 0, "y": 1, "z": [0]}',
             '{"x": 1, "y": 0, "z": [1]}']
    obs = list(read_jsonl(lines))
    assert obs == [Observation(0, 1, (0,)), Observation(1, 0, (1,))]


def test_read_jsonl_reports_line_number():
    lines = ['{"x": 0, "y": 1, "z": [0]}', '{not json']
    with pytest.raises(ObservationParseError) as err:
        list(read_jsonl(lines))
    assert err.value.lineno == 2
    with pytest.raises(ObservationParseError):
        list(read_jsonl(['{"x": 0, "y": 1, "z": 0}']))  # z must be an array


HEADER = '{"format_version": 1, "kind": "observations"}'
# lines that yield a row, or are skipped: repeats, whitespace and key-order
# variants, true/1/1.0 for one value, and unhashable values, which the
# reader yields but never shares between rows
ROW_LINES = [
    '{"x": 1, "y": 0, "z": [1]}', '{"x":1,"y":0,"z":[1]}',
    '  {"x": 1, "y": 0, "z": [1]}\t', '{"z": [1], "y": 0, "x": 1}',
    '{"x": true, "y": 0, "z": [1]}', '{"x": 1.0, "y": 0, "z": [1]}',
    '{"x": 0, "y": "a", "z": [0, null]}', '{"x": 0, "y": 1, "z": [], "t": 2}',
    '{"x": 1, "y": 0, "z": [1], "format_version": 1}',
    '{"x": [1], "y": 0, "z": [1]}', '{"x": 1, "y": 0, "z": [[0]]}',
    '{"x": 1, "y": {}, "z": [0]}', '', '   ',
]
# lines the reader refuses; a header is one after line 1
BAD_LINES = ['[1, 2]', '3', '"text"', 'null', '{oops', '{"x": 1, "y": 0}',
             '{"x": 1, "y": 0, "z": 1}', '{"x": 1, "y": 0, "z": {}}', HEADER]


@st.composite
def jsonl_streams(draw):
    lines = draw(st.lists(st.sampled_from(ROW_LINES), max_size=40))
    if draw(st.booleans()):
        lines.insert(0, HEADER)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    ends = draw(st.lists(st.sampled_from(['', '\n']), min_size=len(lines),
                         max_size=len(lines)))
    return [line + end for line, end in zip(lines, ends)]


def _read_all(reader, lines):
    rows = []
    try:
        for obs in reader(lines):
            rows.append(obs)
    except ObservationParseError as exc:
        return rows, (type(exc), str(exc), exc.lineno)
    return rows, None


def _types(obs):
    return type(obs.x), type(obs.y), tuple(map(type, obs.z))


@pytest.mark.parametrize("cap", [0, 1, 2, 4096])
@settings(max_examples=150, deadline=None)
@given(jsonl_streams())
def test_read_jsonl_equals_the_reader_without_a_cache(cap, lines):
    with mock.patch.object(counts, '_LINE_CACHE', cap):
        rows, error = _read_all(read_jsonl, lines)
    want_rows, want_error = _read_all(reference_read_jsonl, lines)
    assert rows == want_rows
    assert list(map(_types, rows)) == list(map(_types, want_rows))
    assert error == want_error
    # only rows of immutable values are shared between identical lines
    for i, obs in enumerate(rows):
        if any(obs is other for other in rows[:i]):
            assert counts._hashable(obs)


@pytest.mark.parametrize("cap", [0, 2, counts._LINE_CACHE])
def test_read_jsonl_caches_at_most_its_cap(cap):
    lines = [json.dumps({"x": 1, "y": 0, "z": [i]}) for i in range(cap + 5)]
    with mock.patch.object(counts, '_LINE_CACHE', cap):
        rows = list(read_jsonl(lines + lines))
    first, again = rows[:len(lines)], rows[len(lines):]
    assert first == again
    # a repeated line yields its cached row: only the first cap lines are kept
    assert [a is b for a, b in zip(first, again)] == [True] * cap + [False] * 5


def test_readers_refuse_invalid_utf8_naming_the_line():
    # streams are decoded with surrogateescape: byte 0xff arrives as U+DCFF
    good = '{"x": 1, "y": 0, "z": [1]}\n'
    for bad, character in (('\udcff\n', 1),
                           ('{"x": 1, "y": 0, "z": [1], "s": "\udcff"}', 34)):
        with pytest.raises(ObservationParseError) as err:
            list(read_jsonl([good, good, bad]))
        assert str(err.value) == f"line 3: not valid UTF-8 (character {character})"
    with pytest.raises(ObservationParseError) as err:
        list(read_csv(['x,y,z,s\n', '1,0,1,a\n', '1,0,1,\udcff\n'],
                      {'x': 'x', 'y': 'y', 'z': ['z']}))
    assert str(err.value) == "line 3: not valid UTF-8 (character 7)"


def test_read_csv_with_mapping():
    text = io.StringIO("treat,out,cov\n1,0,0\n0,1,1\n")
    obs = list(read_csv(text, {'x': 'treat', 'y': 'out', 'z': ['cov']}))
    assert obs == [Observation(1, 0, (0,)), Observation(0, 1, (1,))]


# -- batch ingestion equals streaming ingestion ----------------------------------

@st.composite
def batch_cases(draw):
    """Random domains (values unlike their indices), a stream of a few
    thousand skewed rows, a row-by-row prefix length and a chunk size."""
    x_dom = tuple(10 * i + 1 for i in range(draw(st.integers(1, 3))))
    y_dom = tuple(f"y{i}" for i in range(draw(st.integers(1, 3))))
    z_doms = [tuple(range(draw(st.integers(1, 3))))
              for _ in range(draw(st.integers(1, 2)))]
    scalar_z = len(z_doms) == 1 and draw(st.booleans())
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = list(product(x_dom, y_dom, product(*z_doms)))
    probs = rng.random(len(cells)) ** 3 + 1e-3
    draws = rng.choice(len(cells), size=n, p=probs / probs.sum())
    rows = [Observation(x, y, z[0] if scalar_z else list(z) if i % 2 else z)
            for i, (x, y, z) in enumerate(cells[c] for c in draws)]
    prefix = draw(st.integers(0, n))
    chunk = draw(st.sampled_from([1, 2, 3, 8, 100, counts._CHUNK_ROWS]))
    return (x_dom, y_dom, z_doms), rows, prefix, chunk


def _twin_tables(domains, rows, prefix):
    batch = CountTable(*domains)
    stream = CountTable(*domains)
    for obs in rows[:prefix]:
        batch.ingest(obs)
        stream.ingest(obs)
    return batch, stream


# one cell: its (x, z), x and whole-stream conditions pass every power of
# two up to 4096 inside the first chunk
ONE_CELL = (((1,), ('y0',), [(0,)]), [Observation(1, 'y0', (0,))] * 4097, 0,
            counts._CHUNK_ROWS)
# nine (x, z) conditions, more than a chunk of two rows can hold
NINE_CONDITIONS = (((1, 11, 21), ('y0', 'y1'), [(0, 1, 2)]),
                   [Observation(x, y, (z,)) for x, y, z in
                    product((1, 11, 21), ('y0', 'y1'), (0, 1, 2))] * 20, 5, 2)


@settings(max_examples=60, deadline=None)
@given(batch_cases())
@example(ONE_CELL)
@example(NINE_CONDITIONS)
def test_ingest_all_equals_row_by_row_ingest(case):
    domains, rows, prefix, chunk = case
    batch, stream = _twin_tables(domains, rows, prefix)
    with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
        batch.ingest_all(iter(rows[prefix:]))
    for obs in rows[prefix:]:
        stream.ingest(obs)
    assert batch == stream
    assert batch.checkpoints() == stream.checkpoints()
    assert batch.checkpoint_version == stream.checkpoint_version
    assert batch.n == len(rows)


BAD_ROWS = [Observation(7, 'y0', (0,)), Observation(1, 'nope', (0,)),
            Observation(1, 'y0', (9,)), Observation(1, 'y0', (0, 0, 0)),
            Observation([1], 'y0', (0,)), (1, 'y0'), 5]


@settings(max_examples=40, deadline=None)
@given(batch_cases(), st.sampled_from(BAD_ROWS), st.data())
def test_ingest_all_bad_row_matches_row_by_row(case, bad, data):
    domains, rows, prefix, chunk = case
    k = data.draw(st.integers(prefix, len(rows)))
    rows = rows[:k] + [bad] + rows[k:]
    batch, stream = _twin_tables(domains, rows, prefix)
    with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
        with pytest.raises(Exception) as batch_error:
            batch.ingest_all(iter(rows[prefix:]))
    with pytest.raises(Exception) as stream_error:
        for obs in rows[prefix:]:
            stream.ingest(obs)
    assert type(batch_error.value) is type(stream_error.value)
    assert str(batch_error.value) == str(stream_error.value)
    assert batch == stream
    assert batch.n == k


# -- cell codes -------------------------------------------------------------------

@st.composite
def code_cases(draw, n):
    """Random domains, a skewed stream of n cell codes and where to split
    it into two calls."""
    x_dom = tuple(10 * i + 1 for i in range(draw(st.integers(1, 3))))
    y_dom = tuple(f"y{i}" for i in range(draw(st.integers(1, 3))))
    z_doms = [tuple(range(draw(st.integers(1, 3))))
              for _ in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = len(x_dom) * len(y_dom) * len(list(product(*z_doms)))
    probs = rng.random(cells) ** 3 + 1e-3
    codes = rng.choice(cells, size=n, p=probs / probs.sum())
    return (x_dom, y_dom, z_doms), codes, draw(st.integers(0, n))


def _alike(value, k):
    """``value``, or for k > 0 possibly an equal value of another type:
    a float for an int, a bool for 0 or 1."""
    forms = [value]
    if isinstance(value, int):
        forms += [float(value)] + [bool(value)] * (value in (0, 1))
    return forms[k % len(forms)]


def _alike_z(z, k):
    """A z-value with equal coordinates, as a tuple, a list or a scalar."""
    z = tuple(_alike(v, k + i) for i, v in enumerate(z))
    forms = [z, list(z)] + [z[0]] * (len(z) == 1)
    return forms[k // 3 % len(forms)]


def _alike_values(values, k):
    return {a: _alike_z(v, k) if a == 'z' else _alike(v, k) for a, v in values.items()}


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])  # around the chunk size
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ingest_codes_equals_ingest_all_and_row_by_row_ingest(n, data):
    # rows carry values equal to the domain's but not identical (1.0 and
    # True for 1, z as a list or a scalar), which must name the same cells
    domains, codes, split = data.draw(code_cases(n))
    x_dom, y_dom, z_doms = domains
    cells = list(product(x_dom, y_dom, product(*z_doms)))
    rows = [Observation(_alike(x, i), y, _alike_z(z, i))
            for i, (x, y, z) in enumerate(cells[c] for c in codes.tolist())]
    coded, batch, stream = (CountTable(*domains) for _ in range(3))
    x, y, *z = np.unravel_index(codes, (len(x_dom), len(y_dom), *map(len, z_doms)))
    coded.ingest_codes(coded.cell_codes(x, y, z)[:split])
    coded.ingest_codes(coded.cell_codes(x, y, z)[split:])
    batch.ingest_all(rows)
    for obs in rows:
        stream.ingest(obs)
    assert coded == batch == stream
    assert coded.checkpoints() == stream.checkpoints()
    for k, (event, given) in enumerate(_tracked_leaves(stream)):
        pattern = {**given, **event}
        assert stream.count(**_alike_values(pattern, k)) == stream.count(**pattern)
        for m in (None, split):
            assert stream.leaf(_alike_values(event, k), _alike_values(given, k + 1), m) \
                == stream.leaf(event, given, m)


@pytest.mark.parametrize("codes, message", [
    ([0, 7, -1, 3], r"^cell code -1 at row 2 is not in \[0, 8\)$"),
    ([8], r"^cell code 8 at row 0 is not in \[0, 8\)$"),
    (np.array([2**40], dtype=np.uint64), r"^cell code 1099511627776 at row 0 is not in"),
    ([0.0, 1.0], r"^cell codes must be a one-dimensional array of integers$"),
    ([[0, 1]], r"^cell codes must be a one-dimensional array of integers$"),
])
def test_ingest_codes_refuses_what_is_not_a_cell(codes, message):
    table = binary_table(eight_obs_stream())
    with pytest.raises(ValueError, match=message):
        table.ingest_codes(codes)
    assert table == binary_table(eight_obs_stream())  # nothing applied


@pytest.mark.parametrize("domains, name", [
    (((0, 0), (0, 1), [(0, 1)]), "x"),
    (((0, 1), (1, True), [(0, 1)]), "y"),
    (((0, 1), (0, 1), [(0, 1), ('a', 'b', 'a')]), "z[1]"),
])
def test_table_refuses_a_domain_with_a_repeated_value(domains, name):
    # a cell code names one value per coordinate
    message = rf"^duplicate values in the {re.escape(name)} domain"
    with pytest.raises(ValueError, match=message):
        CountTable(*domains)


@pytest.mark.parametrize("domains, message", [
    (((), (0, 1), [(0, 1)]), "x and y domains must be non-empty"),
    (((0, 1), (), [(0, 1)]), "x and y domains must be non-empty"),
    (((0, 1), (0, 1), []), "every z component needs a non-empty domain"),
    (((0, 1), (0, 1), [(0, 1), ()]), "every z component needs a non-empty domain"),
])
def test_table_refuses_an_empty_domain(domains, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CountTable(*domains)


# -- the checkpoint log ------------------------------------------------------------

@st.composite
def log_cases(draw, max_rows=300):
    """Random domains (binary ones often enough for the tightened constants)
    and a stream of up to ``max_rows`` skewed rows."""
    if draw(st.booleans()):
        x_dom, y_dom, z_doms = (3, 8), ('no', 'yes'), [(0, 5)]
    else:
        x_dom = tuple(10 * i + 1 for i in range(draw(st.integers(1, 3))))
        y_dom = tuple(f"y{i}" for i in range(draw(st.integers(1, 3))))
        z_doms = [tuple(range(draw(st.integers(1, 3))))
                  for _ in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = list(product(x_dom, y_dom, product(*z_doms)))
    probs = rng.random(len(cells)) ** 3 + 1e-3
    draws = rng.choice(len(cells), size=draw(st.integers(0, max_rows)),
                       p=probs / probs.sum())
    return (x_dom, y_dom, z_doms), [Observation(*cells[c]) for c in draws]


@settings(max_examples=40, deadline=None)
@given(batch_cases())
def test_checkpoint_log_positions_are_the_checkpoint_rows(case):
    domains, rows, _, _ = case
    stream = CountTable(*domains)
    moved, version = [], 0
    for obs in rows:
        stream.ingest(obs)
        if stream.checkpoint_version != version:
            version = stream.checkpoint_version
            moved.append(stream.n)
    assert stream.checkpoints() == moved
    for chunk in (1, 3, 4096):
        batch = CountTable(*domains)
        with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
            batch.ingest_all(iter(rows))
        assert batch.checkpoints() == moved


@settings(max_examples=30, deadline=None)
@given(log_cases(), st.sampled_from([1, 3, 4096]))
def test_prefix_intervals_from_the_log_equal_replayed_tables(case, chunk):
    """The anytime element at every prefix m, read from the log of a table
    that holds the whole stream, equals the element of a table that
    ingested the first m rows one by one."""
    domains, rows = case
    full = CountTable(*domains)
    with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
        full.ingest_all(rows)
    x_dom, y_dom, z_doms = domains
    binary = (len(x_dom), len(y_dom), *map(len, z_doms)) == (2, 2, 2)
    queries = [EffectQuery(criterion, x, y_dom[-1], 0.1, 'anytime', binary_toy=toy)
               for x in x_dom for criterion, toy in
               [('backdoor', False), ('frontdoor', False)] + [('backdoor', True)] * binary]
    replay = CountTable(*domains)
    for m in range(len(rows) + 1):
        if m:
            replay.ingest(rows[m - 1])
        for query in queries:
            got, want = effect_interval(full, query, m), effect_interval(replay, query)
            assert (got, got.constants) == (want, want.constants)
            z = replay.z_values[0]
            assert full.leaf({'z': z}, {'x': query.x}, m) == \
                replay.leaf({'z': z}, {'x': query.x}, m)


def test_prefix_dyadic_floor_refuses_an_untracked_condition():
    table = binary_table(eight_obs_stream())
    assert [table.leaf({'z': (0,)}, {'x': 1}, m)[0] for m in range(9)] == \
        [0, 1, 2, 2, 2, 4, 4, 4, 4]
    with pytest.raises(ValueError, match="not tracked"):
        table.leaf({'x': 1}, {'z': (0,)}, 4)
    for m in (9, -1):
        with pytest.raises(ValueError, match=r"^prefix length -?\d is not in \[0, 8\]$"):
            table.leaf({'z': (0,)}, {'x': 1}, m)
    for m in (True, np.True_, False):
        with pytest.raises(ValueError, match=f"^prefix length {bool(m)} is not an integer$"):
            table.leaf({'z': (0,)}, {'x': 1}, m)


def _tracked_leaves(table):
    """Every tracked (event, condition) pair of the table's domains."""
    xs, ys, zs = table.x_domain, table.y_domain, table.z_values
    return ([({'y': y}, {'x': x, 'z': z}) for x in xs for z in zs for y in ys]
            + [({'z': z}, {'x': x}) for x in xs for z in zs]
            + [({'z': z}, {}) for z in zs] + [({'x': x}, {}) for x in xs])


def _matches(pattern):
    return lambda o: all(getattr(o, k) == v for k, v in pattern.items())


@settings(max_examples=25, deadline=None)
@given(log_cases(max_rows=64))
# the x = 0 log gains a level at row 3, which no (x = 1, z) leaf reads
@example((((0, 1), (0, 1), [(0, 1)]),
          [Observation(0, 0, (0,)), Observation(1, 0, (0,)), Observation(0, 1, (0,))]))
def test_leaf_equals_the_naive_recount_at_every_prefix(case):
    """Over every tracked pair and every prefix m, each table's leaf is the
    naive recount, whether the table was built row by row or in chunks."""
    domains, rows = case
    tables = [CountTable(*domains)]
    for obs in rows:
        tables[0].ingest(obs)
    for chunk in (1, 3, 4096):
        tables.append(CountTable(*domains))
        with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
            tables[-1].ingest_all(rows)
    leaves = _tracked_leaves(tables[0])
    for event, given in leaves:
        whole = (naive_count(rows, **given), naive_count(rows, **given, **event))
        assert all(table.leaf(event, given) == whole for table in tables)
        before = (0, 0)
        for m in range(len(rows) + 1):
            seen = naive_count(rows, **given, upto=m)
            count = naive_dyadic_floor(seen) if seen else 0
            estimate = naive_dyadic_estimate(rows, _matches(event), _matches(given), upto=m)
            for table in tables:
                assert table.leaf(event, given, m) == \
                    (count, 0 if estimate is None else round(estimate * count))
            hits = tables[0].leaf(event, given, m)[1]
            assert before[1] <= hits <= count and before[0] <= count
            before = (count, hits)
    # every tracked pattern's count is the naive recount
    table = tables[0]
    xs, ys, zs = table.x_domain, table.y_domain, table.z_values
    for pattern in ([{'x': x, 'y': y, 'z': z} for x in xs for y in ys for z in zs]
                    + [{'x': x, 'z': z} for x in xs for z in zs]
                    + [{'x': x} for x in xs] + [{'z': z} for z in zs] + [{}]):
        want = naive_count(rows, **pattern)
        assert all(t.count(**pattern) == want for t in tables)
    # the run reader agrees with leaf at every prefix of every run, for every
    # tracked leaf and for the (x, z) leaves of the last x alone; its runs start
    # at min(1, n) and at each row where a condition the leaves read reaches a
    # power of two, so consecutive runs read differently
    last_x = [(event, given) for event, given in leaves
              if given.keys() == {'x', 'z'} and given['x'] == xs[-1]]
    for read in (leaves, last_x):
        starts = sorted(dyadic_rows(rows, [given for _, given in read]) | {min(1, len(rows))})
        for table in tables:
            runs = list(table.leaf_runs(read))
            assert [first for first, _, _ in runs] == starts
            assert runs[-1][1] == len(rows)
            assert all(a != b for (_, _, a), (_, _, b) in zip(runs, runs[1:]))
            for first, last, pairs in runs:
                for m in {first, last}:
                    assert pairs == tuple(table.leaf(event, given, m) for event, given in read)


def test_ingest_all_applies_rows_read_before_a_stream_error():
    def rows():
        yield from eight_obs_stream()
        raise ObservationParseError(9, "invalid JSON")
    table = binary_table()
    with pytest.raises(ObservationParseError):
        table.ingest_all(rows())
    assert table == binary_table(eight_obs_stream())


def test_read_csv_line_numbers_count_blank_and_multiline_rows():
    mapping = {'x': 'a', 'y': 'b', 'z': ['q']}
    # header, a row, a blank line, a row whose quoted cell spans lines 4-5,
    # then a row with an empty cell (a value, not a short row) and a short row
    text = 'a,b,q\n1,0,0\n\n0,"u\nv",1\n1,0,\n1,0\n'
    rows = read_csv(io.StringIO(text), mapping)
    assert [next(rows) for _ in range(3)] == [
        Observation(1, 0, (0,)), Observation(0, 'u\nv', (1,)), Observation(1, 0, ('',))]
    with pytest.raises(ObservationParseError) as err:
        next(rows)
    assert err.value.lineno == 7
    with pytest.raises(ObservationParseError) as err:
        list(read_csv(io.StringIO('a,b\n\n1,2\n'), mapping))
    assert err.value.lineno == 3
    assert "missing column 'q'" in str(err.value)


def test_read_csv_short_row_names_line_and_column():
    text = io.StringIO("x,y,q\n0,0,0\n\n1,1\n")
    rows = read_csv(text, {'x': 'x', 'y': 'y', 'z': ['q']})
    assert next(rows) == Observation(0, 0, (0,))
    with pytest.raises(ObservationParseError) as err:
        next(rows)
    assert err.value.lineno == 4
    assert "'q'" in str(err.value)
