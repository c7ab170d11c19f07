import io
import json
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalci import counts
from causalci.counts import (CountTable, Observation, ObservationParseError,
                             dyadic_floor, read_csv, read_jsonl)
from causalci.effects import EffectQuery, effect_interval
from helpers import binary_table, eight_obs_stream, naive_dyadic_estimate, \
    naive_dyadic_floor, random_table


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
    # prefix count over the first four observations
    assert table.count_at(4, x=1, z=(1,)) == 1


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


def test_untracked_patterns_raise():
    # only the patterns some estimator reads are tracked
    table = binary_table(eight_obs_stream())
    for pattern in ({'x': 1, 'y': 1}, {'y': 1}, {'y': 1, 'z': (0,)}):
        with pytest.raises(ValueError, match="not tracked"):
            table.count(**pattern)
        with pytest.raises(ValueError, match="not tracked"):
            table.count_at(4, **pattern)
    with pytest.raises(ValueError, match="not tracked"):
        table.dyadic_estimate({'y': 1}, {'x': 1})
    with pytest.raises(ValueError, match="not tracked"):
        table.dyadic_estimate({'x': 1}, {'z': (0,)})


@pytest.mark.parametrize("m", [0, 1, 5, 8])
def test_prefix_dyadic_estimate_refuses_untracked_pairs(m):
    # at every prefix, m < n and m == n alike, and with or without arrival logs
    for track in (True, False):
        table = binary_table(eight_obs_stream(), track_arrivals=track)
        for event, given in (({'x': 1}, {'z': (0,)}), ({'y': 1}, {'x': 1}),
                             ({'y': 1}, {})):
            with pytest.raises(ValueError, match="not tracked"):
                table.prefix_dyadic_estimate(event, given, m)
    # a tracked pair still answers at every prefix
    table = binary_table(eight_obs_stream())
    assert table.prefix_dyadic_estimate({'x': 1}, {}, m) == \
        naive_dyadic_estimate(eight_obs_stream(), lambda o: o.x == 1,
                              lambda o: True, upto=m)


def test_empirical_estimate():
    table = binary_table(eight_obs_stream())
    assert table.empirical_estimate({'y': 1}, given={'x': 1, 'z': (0,)}) == 2 / 3
    assert table.empirical_estimate({'z': (0,)}) == 0.5
    # the treated value never co-occurs with this pattern in an empty table
    assert binary_table().empirical_estimate({'y': 1}, given={'x': 1}) is None


def test_empirical_estimate_sums_to_one():
    table = binary_table(eight_obs_stream())
    for z in table.z_values:
        total = sum(table.empirical_estimate({'y': y}, given={'x': 1, 'z': z})
                    for y in table.y_domain)
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
    assert table.dyadic_estimate({'y': 1}, {'x': 1, 'z': (0,)}) == 3 / 4


def test_dyadic_estimate_saturated_and_single():
    table = binary_table([Observation(1, 1, (0,))] * 4)
    assert table.dyadic_estimate({'y': 1}, {'x': 1, 'z': (0,)}) == 1.0
    single = binary_table([Observation(1, 1, (1,))])
    assert single.dyadic_estimate({'y': 1}, {'x': 1, 'z': (1,)}) == 1.0
    assert single.dyadic_estimate({'y': 1}, {'x': 0, 'z': (1,)}) is None


def test_dyadic_levels_monotone():
    rng = __import__('numpy').random.default_rng(7)
    table, _ = random_table(rng, min_n=200, max_n=400)
    for z in table.z_values:
        for y in table.y_domain:
            levels = table.dyadic_levels({'y': y}, {'x': table.x_domain[0], 'z': z})
            for j, tally in enumerate(levels):
                assert 0 <= tally <= 2 ** j
            assert levels == sorted(levels)


def test_count_at_contract():
    table = binary_table(eight_obs_stream())
    assert table.count_at(8, z=(0,)) == table.count(z=(0,))
    assert table.count_at(0, z=(0,)) == 0
    with pytest.raises(ValueError):
        table.count_at(9, z=(0,))
    prev = 0
    for m in range(9):
        c = table.count_at(m, x=1)
        assert prev <= c <= m
        prev = c


def test_snapshot_matches_arrival_log():
    rng = __import__('numpy').random.default_rng(11)
    table, obs = random_table(rng, min_n=100, max_n=600, track_arrivals=True)
    xt = table.x_domain[0]
    for z in table.z_values:
        for y in table.y_domain:
            got = table.dyadic_estimate({'y': y}, {'x': xt, 'z': z})
            want = naive_dyadic_estimate(obs, lambda o: o.y == y,
                                         lambda o: o.x == xt and o.z == z)
            assert got == want
    for m in (1, 7, len(obs) // 2, len(obs)):
        got = table.prefix_dyadic_estimate({'z': table.z_values[0]}, {}, m)
        want = naive_dyadic_estimate(obs, lambda o: o.z == table.z_values[0],
                                     lambda o: True, upto=m)
        assert got == want
        got = table.prefix_dyadic_estimate({'y': table.y_domain[0]},
                                           {'x': xt, 'z': table.z_values[0]}, m)
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


def _twin_tables(domains, rows, prefix, track_arrivals):
    batch = CountTable(*domains, track_arrivals=track_arrivals)
    stream = CountTable(*domains, track_arrivals=track_arrivals)
    for obs in rows[:prefix]:
        batch.ingest(obs)
        stream.ingest(obs)
    return batch, stream


@settings(max_examples=60, deadline=None)
@given(batch_cases(), st.booleans())
def test_ingest_all_equals_row_by_row_ingest(case, track_arrivals):
    domains, rows, prefix, chunk = case
    batch, stream = _twin_tables(domains, rows, prefix, track_arrivals)
    with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
        batch.ingest_all(iter(rows[prefix:]))
    for obs in rows[prefix:]:
        stream.ingest(obs)
    assert batch == stream
    assert batch.checkpoint_version == stream.checkpoint_version
    assert batch.n == len(rows)


BAD_ROWS = [Observation(7, 'y0', (0,)), Observation(1, 'nope', (0,)),
            Observation(1, 'y0', (9,)), Observation(1, 'y0', (0, 0, 0)),
            Observation([1], 'y0', (0,)), (1, 'y0'), 5]


@settings(max_examples=40, deadline=None)
@given(batch_cases(), st.booleans(), st.sampled_from(BAD_ROWS), st.data())
def test_ingest_all_bad_row_matches_row_by_row(case, track_arrivals, bad, data):
    domains, rows, prefix, chunk = case
    k = data.draw(st.integers(prefix, len(rows)))
    rows = rows[:k] + [bad] + rows[k:]
    batch, stream = _twin_tables(domains, rows, prefix, track_arrivals)
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


# -- the checkpoint log ------------------------------------------------------------

@st.composite
def log_cases(draw):
    """Random domains (binary ones often enough for the tightened constants)
    and a stream of up to a few hundred skewed rows."""
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
    draws = rng.choice(len(cells), size=draw(st.integers(0, 300)), p=probs / probs.sum())
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
        batch = CountTable(*domains, track_arrivals=False)
        with mock.patch.object(counts, '_CHUNK_ROWS', chunk):
            batch.ingest_all(iter(rows))
        assert batch.checkpoints() == moved


@settings(max_examples=30, deadline=None)
@given(log_cases(), st.booleans(), st.sampled_from([1, 3, 4096]))
def test_prefix_intervals_from_the_log_equal_replayed_tables(case, track_arrivals, chunk):
    """The anytime element at every prefix m, read from the log of a table
    that holds the whole stream, equals the element of a table that
    ingested the first m rows one by one."""
    domains, rows = case
    full = CountTable(*domains, track_arrivals=track_arrivals)
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
            assert full.prefix_dyadic_floor({'x': query.x}, m) == \
                replay.prefix_dyadic_floor({'x': query.x}, m)


def test_prefix_dyadic_floor_refuses_an_untracked_condition():
    table = binary_table(eight_obs_stream())
    assert [table.prefix_dyadic_floor({'x': 1}, m) for m in range(9)] == \
        [0, 1, 2, 2, 2, 4, 4, 4, 4]
    with pytest.raises(ValueError, match="not tracked"):
        table.prefix_dyadic_floor({'z': (0,)}, 4)
    with pytest.raises(ValueError, match="exceeds"):
        table.prefix_dyadic_floor({'x': 1}, 9)


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
