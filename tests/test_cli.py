import hashlib
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalci import cli, counts
from causalci.cli import _interval_record, _interval_template, main
from causalci.counts import read_jsonl
from causalci.effects import CRITERIA, REGIMES, EffectInterval, EffectQuery, \
    confidence_sequence, effect_interval
from causalci.graph import Dag
from causalci.simulator import CausalModel, Cpt, Roles
from helpers import MALFORMED_ROLES, binary_table, eight_obs_stream, three_valued_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIG1 = str(CONFIGS / "fig1.json")
FRONTDOOR = str(CONFIGS / "frontdoor.json")
FIG1_DAG = str(CONFIGS / "fig1.dag")
NAPKIN_DAG = str(CONFIGS / "napkin.dag")


def write_eight_obs(path):
    with open(path, 'w') as handle:
        for obs in eight_obs_stream():
            handle.write(json.dumps({"x": obs.x, "y": obs.y, "z": list(obs.z)}) + "\n")
    return str(path)


def read_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# x and y values of every JSON scalar kind, with quoted, escaped, non-ASCII and
# record-like strings among them
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(['"', '\\', '\u00e9', '\u65e5\u672c', '\x00\n', ', "midpoint": 0.5', '\ud800']))
# floats in [0, 1]: the endpoints, subnormals, 17-digit ones and any others
UNIT = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
                                  1 - 2**-53, 0.30000000000000004, 1 / 3]),
                 st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CRITERIA), st.sampled_from(REGIMES), JSON_SCALARS, JSON_SCALARS,
       st.floats(5e-324, 1.0, exclude_max=True), st.integers(0, 10**15), UNIT,
       st.one_of(st.just(math.inf), UNIT, st.floats(0.0, 1e300)), UNIT, UNIT, st.data())
def test_interval_template_writes_what_json_dumps_writes(criterion, regime, x, y, delta, n,
                                                          midpoint, halfwidth, lower, upper,
                                                          data):
    """A record written from a query's template, made from another interval
    of the query, is json.dumps of the record, byte for byte."""
    toy = criterion == 'backdoor' and data.draw(st.booleans())
    query = EffectQuery(criterion, x, y, delta, regime, binary_toy=toy)
    constants = {"lil": {"form": "3.3K/delta", "value": data.draw(st.floats(1.0, 1e300))}}
    after_n = _interval_template(query, EffectInterval.build(
        data.draw(st.integers(0, 10**15)), data.draw(UNIT), data.draw(UNIT), constants))
    for itv in (EffectInterval(n, midpoint, halfwidth, lower, upper, constants),
                EffectInterval.build(n, midpoint, halfwidth, constants)):
        assert cli._INTERVAL_HEAD + str(n) + after_n(itv) == \
            json.dumps(_interval_record(itv, query)) + "\n"


def test_simulate_then_analyze_roundtrip(tmp_path):
    stream = tmp_path / "obs.jsonl"
    out = tmp_path / "result.jsonl"
    assert main(["simulate", "--model", FIG1, "--n", "200", "--seed", "7",
                 "--output", str(stream)]) == 0
    header = json.loads(stream.read_text().splitlines()[0])
    assert header["format_version"] == 1
    assert main(["analyze", "--model", FIG1, "--data", str(stream),
                 "--xtilde", "1", "--y", "1", "--delta", "0.1",
                 "--output", str(out)]) == 0
    (record,) = read_records(out)
    assert record["n"] == 200
    assert record["kind"] == "effect_interval"
    assert 0 <= record["lower"] <= record["upper"] <= 1


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["simulate", "--model", FIG1, "--n", "64", "--seed", "11",
                     "--regime", "adaptive", "--policy", "adversarial-alternating",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_eight_obs_midpoint(tmp_path):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    out = tmp_path / "result.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", stream,
                 "--xtilde", "1", "--y", "1", "--delta", "0.1", "--toy",
                 "--output", str(out)]) == 0
    (record,) = read_records(out)
    assert record["midpoint"] == pytest.approx(2 / 3, abs=1e-15)
    table = binary_table(eight_obs_stream())
    want = effect_interval(table, EffectQuery('backdoor', 1, 1, 0.1,
                                              binary_toy=True))
    assert record["halfwidth"] == pytest.approx(want.halfwidth, abs=0)
    assert record["constants"]["hoeffding"]["form"] == "6/delta"


def test_analyze_empty_input_warns(tmp_path, capsys):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    out = tmp_path / "result.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", str(stream),
                 "--xtilde", "1", "--y", "1", "--output", str(out)]) == 0
    assert "empty" in capsys.readouterr().err
    (record,) = read_records(out)
    assert record["unbounded"] is True
    assert record["halfwidth"] is None
    assert [record["lower"], record["upper"]] == [0.0, 1.0]


@pytest.mark.parametrize("changes_only", [[], ["--changes-only"]])
def test_analyze_anytime_empty_input_warns_and_writes_the_element_at_0(tmp_path, capsys,
                                                                        changes_only):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    out = tmp_path / "result.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", str(stream), "--xtilde", "1",
                 "--y", "1", "--regime", "anytime", *changes_only,
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == "warning: empty input stream\n"
    (record,) = read_records(out)
    assert (record["n"], record["regime"], record["unbounded"]) == (0, "anytime", True)
    assert [record["lower"], record["upper"]] == [0.0, 1.0]


def test_predict_empty_input_warns(tmp_path, capsys):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    out = tmp_path / "gamma.jsonl"
    assert main(["predict", "--model", FIG1, "--data", str(stream), "--xtilde", "1",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == "warning: empty input stream\n"
    (gamma,) = read_records(out)
    assert gamma["n"] == 0 and sorted(gamma["members"]) == [0, 1]


def test_analyze_malformed_line_exit_2(tmp_path, capsys):
    stream = tmp_path / "bad.jsonl"
    stream.write_text('{"x": 1, "y": 1, "z": [0]}\n{oops\n')
    assert main(["analyze", "--model", FIG1, "--data", str(stream),
                 "--xtilde", "1", "--y", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--regime", "iid", "--y", "1"],
    ["analyze", "--regime", "adaptive-fixed", "--y", "1"],
    ["analyze", "--regime", "anytime", "--y", "1"],
    ["predict"],
])
@pytest.mark.parametrize("data, columns, line", [
    ('{"x": 1, "y": 1, "z": [0]}\n\n{"x": 7, "y": 1, "z": [0]}\n', None, 3),
    ('x,y,z\n1,1,0\n\n7,1,0\n', "x=x,y=y,z=z", 4),
])
def test_domain_error_names_its_line(tmp_path, capsys, command, data, columns, line):
    stream = tmp_path / ("obs.csv" if columns else "obs.jsonl")
    stream.write_text(data)
    args = command[:1] + ["--model", FIG1, "--data", str(stream), "--xtilde", "1",
                          "--output", str(tmp_path / "out.jsonl")] + command[1:]
    if columns:
        args += ["--columns", columns]
    assert main(args) == 2
    assert capsys.readouterr().err == \
        f"error: line {line}: x value 7 not in declared domain\n"


@pytest.mark.parametrize("regime", ["iid", "adaptive-fixed"])
def test_fixed_n_bad_row_leaves_no_output(tmp_path, capsys, regime):
    # a fixed-n regime reads every row before it opens --output
    stream = tmp_path / "obs.jsonl"
    stream.write_text('{"x": 1, "y": 1, "z": [0]}\n{"x": 7, "y": 1, "z": [0]}\n')
    out = tmp_path / "out.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", str(stream), "--xtilde", "1",
                 "--y", "1", "--regime", regime, "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: line 2: x value 7 not in declared domain\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--regime", "iid", "--y", "1"],
    ["analyze", "--regime", "anytime", "--y", "1"],
    ["predict"],
])
@pytest.mark.parametrize("columns, message", [
    ("x=a,y=b,q=c", "bad column mapping fragment 'q=c'"),
    ("x=a,y=,z=c", "bad column mapping fragment 'y='"),
    ("x=a,y=b", "column mapping must assign x, y and z"),
    ("x=nope,x=treat,y=b,z=c", "column mapping assigns x twice"),
    ("x=a,y=b,z=c,z=d", "column mapping assigns z twice"),
    ("x=a,y=b,z=z1+", "bad column mapping fragment 'z=z1+'"),
    ("x=a,y=b,z= + z2", "bad column mapping fragment 'z= + z2'"),
    (None, "CSV input needs a column mapping"),
])
def test_csv_mapping_refused_before_the_data_is_opened(tmp_path, capsys, command,
                                                       columns, message):
    # the data file does not exist, so the refusal comes before it is opened
    out = tmp_path / "out.jsonl"
    args = command[:1] + ["--model", FIG1, "--data", str(tmp_path / "obs.csv"),
                          "--xtilde", "1", "--output", str(out)] + command[1:]
    if columns:
        args += ["--columns", columns]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--regime", "iid", "--y", "1"],
    ["analyze", "--regime", "anytime", "--y", "1"],
    ["predict"],
])
@pytest.mark.parametrize("data, columns, error", [
    (b'{"x": 1, "y": 0, "z": [1]}\n' * 2 + b'\xff\n', None,
     "line 3: not valid UTF-8 (character 1)"),
    # a bad byte in a field no estimator reads is refused too
    (b'{"x": 1, "y": 0, "z": [1]}\n{"x": 1, "y": 0, "z": [1], "note": "a\xffb"}\n',
     None, "line 2: not valid UTF-8 (character 38)"),
    (b'x,y,z\n1,0,1\n1,0,1\n\xff\n', "x=x,y=y,z=z",
     "line 4: not valid UTF-8 (character 1)"),
    (b'x,y,z,note\n1,0,1,a\n1,0,1,\xff\n', "x=x,y=y,z=z",
     "line 3: not valid UTF-8 (character 7)"),
])
@pytest.mark.parametrize("stdin", [False, True])
def test_invalid_utf8_names_its_line(tmp_path, capsys, monkeypatch, command, data,
                                     columns, error, stdin):
    assert _run_on_bytes(tmp_path, monkeypatch, command, data, columns, stdin) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _run_on_bytes(tmp_path, monkeypatch, command, data, columns, stdin):
    """Run a data-reading command on a stream holding ``data``, given as a
    file or on standard input; returns the exit code."""
    stream = tmp_path / ("obs.csv" if columns else "obs.jsonl")
    stream.write_bytes(data)
    args = command[:1] + ["--model", FIG1, "--xtilde", "1",
                          "--output", str(tmp_path / "out.jsonl")] + command[1:]
    if columns:
        args += ["--columns", columns]
    with open(stream, 'rb') as handle:
        if stdin:
            monkeypatch.setattr(sys, 'stdin', handle)
        else:
            args += ["--data", str(stream)]
        return main(args)


BOM = b'\xef\xbb\xbf'
BOM_COMMANDS = [
    ["analyze", "--regime", "iid", "--y", "1"],
    ["analyze", "--regime", "anytime", "--y", "1"],
    ["predict"],
]


@pytest.mark.parametrize("command", BOM_COMMANDS)
@pytest.mark.parametrize("data, columns", [
    (b'{"format_version": 1, "kind": "observations"}\n'
     + b''.join(json.dumps({"x": o.x, "y": o.y, "z": list(o.z)}).encode() + b'\n'
                for o in eight_obs_stream()), None),
    (b'x,y,z\n' + b''.join(f"{o.x},{o.y},{o.z[0]}\n".encode()
                           for o in eight_obs_stream()), "x=x,y=y,z=z"),
], ids=["jsonl", "csv"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch, command, data,
                                            columns, stdin):
    outputs = []
    for prefix in (b'', BOM):
        assert _run_on_bytes(tmp_path, monkeypatch, command, prefix + data,
                             columns, stdin) == 0
        outputs.append((tmp_path / "out.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1].splitlines()[-1])["n"] == 8


@pytest.mark.parametrize("command", BOM_COMMANDS)
@pytest.mark.parametrize("data, columns, error", [
    (b'{"x": 1, "y": 0, "z": [1]}\n' + BOM + b'{"x": 1, "y": 0, "z": [1]}\n', None,
     "line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (BOM + BOM + b'{"x": 1, "y": 0, "z": [1]}\n', None,
     "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (b'x,y,z\n1,0,1\n' + BOM + b'1,0,1\n', "x=x,y=y,z=z",
     "line 3: x value '\\ufeff1' not in declared domain"),
], ids=["jsonl-line-2", "jsonl-two-marks", "csv-line-3"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_byte_order_mark_elsewhere_names_its_line(tmp_path, capsys, monkeypatch,
                                                  command, data, columns, error,
                                                  stdin):
    assert _run_on_bytes(tmp_path, monkeypatch, command, data, columns, stdin) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("row, message", [
    ('"x": [1], "y": 1, "z": [0]', "x value [1]"),
    ('"x": 1, "y": 1, "z": [[0]]', "z[0] value [0]"),
    ('"x": 1, "y": {}, "z": [0]', "y value {}"),
])
@pytest.mark.parametrize("regime", ["iid", "anytime"])
def test_unhashable_value_exit_2(tmp_path, capsys, row, message, regime):
    stream = tmp_path / "obs.jsonl"
    stream.write_text('{"x": 1, "y": 1, "z": [0]}\n{' + row + '}\n')
    assert main(["analyze", "--model", FIG1, "--data", str(stream), "--xtilde", "1",
                 "--y", "1", "--regime", regime, "--output", "/dev/null"]) == 2
    assert capsys.readouterr().err == \
        f"error: line 2: {message} not in declared domain\n"


@pytest.mark.parametrize("command, message", [
    (["analyze", "--xtilde", "[1]", "--y", "1"], "x value [1]"),
    (["analyze", "--xtilde", "1", "--y", "{}"], "y value {}"),
    (["predict", "--xtilde", "[1]"], "x value [1]"),
])
def test_unhashable_query_value_exit_2(tmp_path, capsys, command, message):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    assert main(command + ["--model", FIG1, "--data", stream,
                           "--output", "/dev/null"]) == 2
    assert capsys.readouterr().err == \
        f"error: {message} is unhashable, so in no domain\n"


@pytest.mark.parametrize("command, message", [
    *[(["analyze", "--regime", regime, "--xtilde", "7", "--y", "1"],
       "x value 7 not in declared domain [0, 1]")
      for regime in ("iid", "adaptive-fixed", "anytime")],
    *[(["analyze", "--regime", regime, "--xtilde", "1", "--y", "9"],
       "y value 9 not in declared domain [0, 1]")
      for regime in ("iid", "adaptive-fixed", "anytime")],
    (["predict", "--xtilde", "7"], "x value 7 not in declared domain [0, 1]"),
])
def test_query_value_outside_the_domain_exit_2(tmp_path, capsys, command, message):
    # refused before any row is read: no line is named and nothing is written
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    out = tmp_path / "out.jsonl"
    assert main(command + ["--model", FIG1, "--data", stream,
                           "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: query {message}\n"
    assert not out.exists()


_TOY_REFUSED = "binary_toy needs binary treatment/outcome and a single binary covariate"


@pytest.mark.parametrize("command", [
    ["analyze", "--regime", "anytime", "--xtilde", "1", "--y", "hi", "--toy",
     "--assume-criterion"],
    ["analyze", "--regime", "iid", "--xtilde", "1", "--y", "hi", "--toy",
     "--assume-criterion"],
    ["predict", "--xtilde", "1"],
])
def test_query_the_model_cannot_answer_exit_2_before_any_row(tmp_path, capsys, command):
    # the tightened binary constants on a three-valued model: the estimator's
    # own error, raised before --data or --output is opened, names no line
    # (reading the stream would meet its last row, outside the domain)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(three_valued_model().to_json()))
    stream = tmp_path / "obs.jsonl"
    assert main(["simulate", "--model", str(model), "--n", "50",
                 "--output", str(stream)]) == 0
    capsys.readouterr()
    with open(stream, "a") as handle:
        handle.write('{"x": 9, "y": "hi", "z": [0, 0]}\n')
    out = tmp_path / "out.jsonl"
    assert main(command + ["--model", str(model), "--data", str(stream),
                           "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {_TOY_REFUSED}\n"
    assert not out.exists()


def _anytime_records(tmp_path, criterion, rows, seed):
    """Run anytime analyze with and without --changes-only on a simulated
    stream of a three-valued treatment and outcome with a two-component Z;
    check the first output against the interval computed afresh after each
    row and the second against those of its records whose bytes, but for n,
    differ from the record before; return the rows at which the confidence
    sequence's segments start."""
    model = three_valued_model()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json()))
    stream = tmp_path / "obs.jsonl"
    assert main(["simulate", "--model", str(model_path), "--n", str(rows),
                 "--seed", str(seed), "--output", str(stream)]) == 0
    query = EffectQuery(criterion, 1, "hi", 0.1, regime="anytime")
    table = model.count_table()
    every, changes, previous = [], [], None
    for obs in read_jsonl(stream.read_text().splitlines()):
        table.ingest(obs)
        record = _interval_record(effect_interval(table, query), query)
        every.append(json.dumps(record) + "\n")
        rest = json.dumps({**record, "n": 0})  # the record's bytes but n
        if rest != previous:
            previous = rest
            changes.append(every[-1])
    assert len(every) == rows
    base = ["analyze", "--model", str(model_path), "--data", str(stream),
            "--criterion", criterion, "--xtilde", "1", "--y", "hi", "--delta", "0.1",
            "--regime", "anytime", "--assume-criterion"]
    full, sparse = tmp_path / "full.jsonl", tmp_path / "sparse.jsonl"
    assert main(base + ["--output", str(full)]) == 0
    assert main(base + ["--changes-only", "--output", str(sparse)]) == 0
    assert full.read_text().splitlines(keepends=True) == every
    assert sparse.read_text().splitlines(keepends=True) == changes
    return [first for first, _, _ in confidence_sequence(table, query)]


@pytest.mark.parametrize("criterion", ["backdoor", "frontdoor"])
def test_anytime_records_equal_per_row_intervals(tmp_path, criterion, monkeypatch):
    """Records are serialized once per segment of the confidence sequence,
    with n spliced into the line for each row; each one must still equal the
    interval computed afresh after its row."""
    starts = _anytime_records(tmp_path, criterion, 700, 8)
    assert 20 < len(starts) < 700
    # n gains a digit inside a segment: rows 10, 100, 1000 and 10000 repeat a
    # line serialized at a shorter n, and 10,001 rows span three chunks
    starts = _anytime_records(tmp_path, criterion, 10_001, 27)
    assert not {10, 100, 1000, 10_000} & set(starts)
    # the rows of the patterns no chunk's sequence reads stay pending across
    # the per-chunk folds, and a full buffer folds them mid-stream
    monkeypatch.setattr(counts, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(counts, "_PENDING_ROWS", 256)
    _anytime_records(tmp_path, criterion, 1500, 31)


def test_anytime_bad_row_keeps_the_records_before_it(tmp_path, capsys):
    # the anytime regime streams one record per row; each record written before
    # the bad row is a valid element of the confidence sequence at its own n
    stream = tmp_path / "obs.jsonl"
    good = '{"x": 1, "y": 1, "z": [0]}\n'
    stream.write_text(good * 3 + '\n{"x": 7, "y": 1, "z": [0]}\n' + good)
    out = tmp_path / "out.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", str(stream), "--xtilde", "1",
                 "--y", "1", "--regime", "anytime", "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: line 5: x value 7 not in declared domain\n"
    assert [record["n"] for record in read_records(out)] == [1, 2, 3]


@pytest.mark.parametrize("changes_only", [[], ["--changes-only"]])
def test_anytime_bad_row_after_the_first_chunk_keeps_every_record_before_it(
        tmp_path, capsys, monkeypatch, changes_only):
    monkeypatch.setattr(counts, "_CHUNK_ROWS", 4)
    rows = ['{"x": %d, "y": %d, "z": [%d]}\n' % (i % 2, i // 2 % 2, i // 4 % 2)
            for i in range(10)]
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("".join(rows))
    bad.write_text("".join(rows) + '{"x": 7, "y": 1, "z": [0]}\n' + rows[0])
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    base = ["analyze", "--model", FIG1, "--xtilde", "1", "--y", "1", "--regime", "anytime",
            *changes_only]
    assert main(base + ["--data", str(good), "--output", str(want)]) == 0
    assert main(base + ["--data", str(bad), "--output", str(got)]) == 2
    assert capsys.readouterr().err == "error: line 11: x value 7 not in declared domain\n"
    assert got.read_bytes() == want.read_bytes()
    if not changes_only:
        assert [record["n"] for record in read_records(got)] == list(range(1, 11))


def test_anytime_writes_each_chunk_before_reading_the_next(tmp_path, monkeypatch):
    """A chunk's records are in --output before the next chunk's lines are
    read, so the records of an unbounded stream keep flowing."""
    monkeypatch.setattr(counts, "_CHUNK_ROWS", 4)
    out = tmp_path / "out.jsonl"
    written = []  # records in --output as each row's line is read

    def lines():
        for i in range(10):
            written.append(len(out.read_text().splitlines()))
            yield '{"x": 1, "y": %d, "z": [0]}\n' % (i % 2)

    monkeypatch.setattr(cli, "open_lines", lambda path, columns: nullcontext(lines()))
    assert main(["analyze", "--model", FIG1, "--data", "rows.jsonl", "--xtilde", "1",
                 "--y", "1", "--regime", "anytime", "--output", str(out)]) == 0
    assert written == [0, 0, 0, 0, 4, 4, 4, 4, 8, 8]
    assert [record["n"] for record in read_records(out)] == list(range(1, 11))


def test_analyze_anytime_changes_only(tmp_path):
    stream = tmp_path / "obs.jsonl"
    assert main(["simulate", "--model", FIG1, "--n", "128", "--seed", "3",
                 "--output", str(stream)]) == 0
    full, sparse = tmp_path / "full.jsonl", tmp_path / "sparse.jsonl"
    base = ["analyze", "--model", FIG1, "--data", str(stream),
            "--xtilde", "1", "--y", "1", "--regime", "anytime"]
    assert main(base + ["--output", str(full)]) == 0
    assert main(base + ["--changes-only", "--output", str(sparse)]) == 0
    all_records = read_records(full)
    sparse_records = read_records(sparse)
    assert len(all_records) == 128
    assert 1 < len(sparse_records) < len(all_records)
    # the sparse stream carries exactly the distinct interval values
    by_n = {r["n"]: r for r in all_records}
    for rec in sparse_records:
        assert by_n[rec["n"]]["midpoint"] == rec["midpoint"]


# names are stripped of spaces, z's as x's and y's
@pytest.mark.parametrize("columns", ["x=treat,y=out,z=cov", " x = treat,y= out ,z= cov "])
def test_analyze_csv_columns(tmp_path, columns):
    stream = tmp_path / "obs.csv"
    stream.write_text("treat,out,cov\n1,1,0\n0,1,1\n1,0,1\n")
    out = tmp_path / "result.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", str(stream),
                 "--columns", columns,
                 "--xtilde", "1", "--y", "1", "--output", str(out)]) == 0
    assert read_records(out)[0]["n"] == 3


def test_analyze_config_file_with_flag_override(tmp_path):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    config = tmp_path / "query.json"
    config.write_text(json.dumps({"criterion": "backdoor", "x": 1, "y": 1,
                                  "delta": 0.5, "binary_toy": True}))
    out = tmp_path / "result.jsonl"
    assert main(["analyze", "--model", FIG1, "--data", stream,
                 "--config", str(config), "--delta", "0.1",
                 "--output", str(out)]) == 0
    (record,) = read_records(out)
    assert record["delta"] == 0.1  # the flag wins
    assert record["binary_toy"] is True


def test_analyze_criterion_gate(tmp_path, capsys):
    # front-door with {Z} on the confounded triangle is violated:
    # Z is a descendant... rather, the direct edge X->Y avoids {Z}
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    code = main(["analyze", "--model", FIG1, "--data", stream,
                 "--criterion", "frontdoor", "--xtilde", "1", "--y", "1"])
    assert code == 3
    assert "violation" in capsys.readouterr().err
    assert main(["analyze", "--model", FIG1, "--data", stream,
                 "--criterion", "frontdoor", "--xtilde", "1", "--y", "1",
                 "--assume-criterion", "--output", "/dev/null"]) == 0


def test_check_fig1_backdoor_ok(tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", FIG1_DAG, "--criterion", "backdoor",
                 "--x", "X", "--y", "Y", "--z", "Z",
                 "--output", str(out)]) == 0
    (report,) = read_records(out)
    assert report["satisfied"] is True


def test_check_napkin_violations(tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", NAPKIN_DAG, "--criterion", "backdoor",
                 "--x", "X", "--y", "Y", "--z", "Z",
                 "--output", str(out)]) == 3
    (report,) = read_records(out)
    assert any("X←V→W←U→Y" in v for v in report["violations"])
    assert main(["check", "--dag", NAPKIN_DAG, "--criterion", "frontdoor",
                 "--x", "X", "--y", "Y", "--z", "Z",
                 "--output", str(out)]) == 3
    (report,) = read_records(out)
    assert any("X→Y" in v for v in report["violations"])


def test_check_walks_a_long_chain(tmp_path):
    dag = tmp_path / "chain.dag"
    names = [f"V{i}" for i in range(1500)]
    dag.write_text("".join(f"var {v}\n" for v in names)
                   + "".join(f"{a} -> {b}\n" for a, b in zip(names, names[1:])))
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", str(dag), "--criterion", "frontdoor",
                 "--x", "V0", "--y", "V1499", "--z", "V700",
                 "--output", str(out)]) == 0
    (report,) = read_records(out)
    assert report["kind"] == "criterion_report" and report["satisfied"] is True


@pytest.mark.parametrize("xs, ys", [("W,X", "Y"), ("X", "Y,W")])
def test_check_frontdoor_takes_one_x_and_one_y(tmp_path, capsys, xs, ys):
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", NAPKIN_DAG, "--criterion", "frontdoor", "--x", xs,
                 "--y", ys, "--z", "Z", "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: the front-door criterion takes single x and y variables\n"
    assert not out.exists()


def test_check_strips_variable_names(tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", FIG1_DAG, "--x", " X", "--y", "Y ",
                 "--z", " Z", "--output", str(out)]) == 0
    (report,) = read_records(out)
    assert report["satisfied"] is True


@pytest.mark.parametrize("flag, value", [("--z", "Z,"), ("--x", " "), ("--y", "Y,,W")])
def test_check_refuses_an_empty_variable_name(tmp_path, capsys, flag, value):
    names = {"--x": "X", "--y": "Y", "--z": "Z", flag: value}
    out = tmp_path / "report.jsonl"
    assert main(["check", "--dag", FIG1_DAG, *[a for item in names.items() for a in item],
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag} {value!r} has an empty variable name\n"
    assert not out.exists()


def test_predict_sparse_full_set(tmp_path):
    stream = tmp_path / "obs.jsonl"
    rows = [{"x": 1, "y": 1, "z": [0]}] * 4 + [{"x": 1, "y": 1, "z": [1]}]
    stream.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "gamma.jsonl"
    assert main(["predict", "--model", FIG1, "--data", str(stream),
                 "--xtilde", "1", "--delta", "0.1",
                 "--output", str(out)]) == 0
    (gamma,) = read_records(out)
    assert sorted(gamma["members"]) == [0, 1]
    assert gamma["diagnostics"][0]["endpoint"] is None  # unbounded endpoint


def test_coverage_subcommand(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", FIG1, "--criterion", "backdoor",
                 "--xtilde", "1", "--y", "1", "--delta", "0.1", "--toy",
                 "--n", "128", "--replications", "40", "--seed", "5",
                 "--output", str(out)]) == 0
    (report,) = read_records(out)
    assert report["kind"] == "coverage_report"
    assert report["coverage"] >= 0.8
    assert "coverage=" in capsys.readouterr().err


def test_coverage_criterion_gate(tmp_path, capsys):
    # {Z} is not a front-door set for fig1, whose P(Y=1 | do(X=1)) is 0.5
    out = tmp_path / "report.jsonl"
    args = ["coverage", "--model", FIG1, "--criterion", "frontdoor", "--xtilde", "1",
            "--y", "1", "--n", "64", "--replications", "3", "--seed", "5",
            "--output", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "criterion violation" in err and "refusing to run coverage" in err
    assert not out.exists()


@pytest.mark.parametrize("model, criterion", [(FIG1, "backdoor"),
                                              (FRONTDOOR, "frontdoor")])
@pytest.mark.parametrize("flags, message", [
    (["--xtilde", "7", "--y", "1"], "x value 7 not in declared domain [0, 1]"),
    (["--xtilde", "1", "--y", "9"], "y value 9 not in declared domain [0, 1]"),
])
def test_coverage_query_value_outside_the_domain_exit_2(tmp_path, capsys, model,
                                                        criterion, flags, message):
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", model, "--criterion", criterion, *flags,
                 "--n", "50", "-R", "2", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: query {message}\n"
    assert not out.exists()


def test_coverage_prediction_subcommand(tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", FIG1, "--prediction",
                 "--xtilde", "1", "--delta", "0.2", "--n", "64",
                 "--replications", "30", "--seed", "6",
                 "--policy", "adversarial-alternating",
                 "--output", str(out)]) == 0
    (report,) = read_records(out)
    assert report["kind"] == "prediction_coverage"
    assert 0 <= report["miss_rate"] <= 1


@pytest.mark.parametrize("flags", [["--criterion", "frontdoor"], ["--y", "1"], ["--toy"],
                                   ["--frontdoor-form", "horner-z"], ["--regime", "iid"],
                                   ["--config", "query.json"], ["--workers", "2"],
                                   ["--regime", "iid", "--y", "1", "--toy",
                                    "--criterion", "frontdoor"]])
def test_coverage_prediction_refuses_the_interval_flags_exit_2(tmp_path, capsys, flags):
    """--prediction validates the prediction set, which reads --xtilde,
    --delta and --policy alone; an interval flag is refused, not ignored,
    naming the first one given in the order the help lists them."""
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", FIG1, "--prediction", *flags, "--xtilde", "1",
                 "--n", "16", "-R", "3", "--output", str(out)]) == 2
    named = "--criterion" if "--criterion" in flags else flags[0]
    assert capsys.readouterr().err == f"error: {named} does not apply to --prediction\n"
    assert not out.exists()
    # --workers 1 is the default, so it is no interval flag
    assert main(["coverage", "--model", FIG1, "--prediction", "--workers", "1",
                 "--xtilde", "1", "--n", "16", "-R", "3", "--output", str(out)]) == 0


# --prediction takes neither --regime nor --y
@pytest.mark.parametrize("prediction", [["--regime", "anytime", "--y", "1"], ["--prediction"]])
def test_coverage_malformed_policy_spec_exit_2(tmp_path, capsys, prediction):
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", FIG1, *prediction, "--xtilde", "1",
                 "--policy", "epsilon-greedy:abc",
                 "--n", "16", "-R", "2", "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("error: policy 'epsilon-greedy:abc': "
                                       "epsilon must be a number in [0, 1]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "coverage"])
@pytest.mark.parametrize("spec", ["iid-from-cpt:junk", "adversarial-alternating:foo"])
def test_policy_without_an_argument_refuses_one_exit_2(tmp_path, capsys, command, spec):
    out = tmp_path / "out.jsonl"
    args = (["--regime", "adaptive"] if command == "simulate" else
            ["--regime", "adaptive-fixed", "--xtilde", "1", "--y", "1", "-R", "2"])
    assert main([command, "--model", FIG1, *args, "--policy", spec, "--n", "16",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: policy {spec!r} takes no argument\n"
    assert not out.exists()


@pytest.mark.parametrize("regime", ["iid", "adaptive"])
def test_simulate_refuses_a_model_with_a_nan_probability_exit_2(tmp_path, capsys, regime):
    doc = json.loads(Path(FIG1).read_text())
    doc["cpts"]["Z"]["rows"][0]["p"] = [math.nan, 1.0]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--model", str(model), "--n", "10", "--regime", regime,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: CPT row for Z given () has a non-finite entry: (nan, 1.0)\n"
    assert not out.exists()


def test_simulate_refuses_a_policy_in_the_iid_regime_exit_2(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--model", FIG1, "--n", "10", "--regime", "iid",
                 "--policy", "adversarial-alternating", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: --policy applies only to the adaptive regimes\n"
    assert not out.exists()
    # without --policy the adaptive regime replays the model's own mechanism
    adaptive = [tmp_path / f"{name}.jsonl" for name in ("default", "cpt")]
    for path, policy in zip(adaptive, ([], ["--policy", "iid-from-cpt"])):
        assert main(["simulate", "--model", FIG1, "--n", "50", "--regime", "adaptive",
                     "--seed", "4", *policy, "--output", str(path)]) == 0
    assert adaptive[0].read_bytes() == adaptive[1].read_bytes()


@pytest.mark.parametrize("regime", [["--regime", "iid"], ["--regime", "adaptive-fixed"], []])
def test_analyze_refuses_changes_only_outside_the_anytime_regime_exit_2(tmp_path, capsys,
                                                                         regime):
    data, out = tmp_path / "data.jsonl", tmp_path / "out.jsonl"
    assert main(["simulate", "--model", FIG1, "--n", "50", "--output", str(data)]) == 0
    assert main(["analyze", "--model", FIG1, "--data", str(data), "--xtilde", "1",
                 "--y", "1", *regime, "--changes-only", "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: --changes-only applies only to the anytime regime\n"
    assert not out.exists()


def test_coverage_refuses_a_policy_in_the_iid_regime_exit_2(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["coverage", "--model", FIG1, "--n", "10", "-R", "2", "--xtilde", "1",
                 "--y", "1", "--policy", "adversarial-alternating",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: --policy applies only to the adaptive regimes\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_coverage_fewer_than_one_worker_exit_2(tmp_path, capsys, workers):
    out = tmp_path / "out.jsonl"
    assert main(["coverage", "--model", FIG1, "--xtilde", "1", "--y", "1", "--n", "16",
                 "-R", "2", "--workers", workers, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: need at least one worker, got {workers}\n"
    assert not out.exists()


def test_missing_query_values_exit_2(tmp_path, capsys):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    assert main(["analyze", "--model", FIG1, "--data", stream]) == 2
    assert "required" in capsys.readouterr().err


def test_inconsistent_config_exit_2(tmp_path):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    # horner form with the back-door criterion is inconsistent
    assert main(["analyze", "--model", FIG1, "--data", stream,
                 "--xtilde", "1", "--y", "1",
                 "--frontdoor-form", "horner-z"]) == 2


@pytest.mark.parametrize("command", ["analyze", "coverage"])
@pytest.mark.parametrize("config, message", [
    ([1], "--config must hold a JSON object, not list"),
    ({"x": 1, "y": 1, "binary_toy": "false"},
     "--config: binary_toy must be a JSON boolean, not 'false'"),
    ({"x": 1, "y": 1, "binary_toy": 1},
     "--config: binary_toy must be a JSON boolean, not 1"),
    ({"x": 1, "y": 1, "delta": "abc"},
     "--config: delta must be a JSON number, not 'abc'"),
    ({"x": 1, "y": 1, "delta": "0.1"},
     "--config: delta must be a JSON number, not '0.1'"),
    ({"x": 1, "y": 1, "delta": True},
     "--config: delta must be a JSON number, not True"),
])
def test_malformed_config_exit_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.jsonl"
    if command == "analyze":
        args = ["--data", write_eight_obs(tmp_path / "obs.jsonl")]
    else:
        args = ["--n", "16", "-R", "2"]
    assert main([command, "--model", FIG1, "--config", str(path),
                 "--output", str(out), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_env_var_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("CAUSALCI_SEED", "77")
    from_env = tmp_path / "env.jsonl"
    explicit = tmp_path / "explicit.jsonl"
    assert main(["simulate", "--model", FIG1, "--n", "32",
                 "--output", str(from_env)]) == 0
    assert main(["simulate", "--model", FIG1, "--n", "32", "--seed", "77",
                 "--output", str(explicit)]) == 0
    assert from_env.read_bytes() == explicit.read_bytes()


def test_env_var_seed_is_read_when_the_command_runs(tmp_path, monkeypatch):
    # the parser is built once per process; the variable is read by each run
    for seed in ("5", "6"):
        monkeypatch.setenv("CAUSALCI_SEED", seed)
        from_env, explicit = tmp_path / f"env{seed}.jsonl", tmp_path / f"seed{seed}.jsonl"
        assert main(["simulate", "--model", FIG1, "--n", "32",
                     "--output", str(from_env)]) == 0
        assert main(["simulate", "--model", FIG1, "--n", "32", "--seed", seed,
                     "--output", str(explicit)]) == 0
        assert read_records(from_env)[0]["seed"] == int(seed)
        assert from_env.read_bytes() == explicit.read_bytes()


def test_prediction_record_echoes_constants(tmp_path):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    out = tmp_path / "gamma.jsonl"
    assert main(["predict", "--model", FIG1, "--data", stream,
                 "--xtilde", "1", "--delta", "0.1",
                 "--output", str(out)]) == 0
    (gamma,) = read_records(out)
    assert gamma["constants"]["hoeffding"]["form"] == "12/delta"
    assert gamma["constants"]["lil"]["value"] == pytest.approx(200.0)


def test_byte_identical_reruns(tmp_path):
    stream = write_eight_obs(tmp_path / "obs.jsonl")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["analyze", "--model", FIG1, "--data", stream, "--xtilde", "1",
            "--y", "1", "--regime", "anytime"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- golden outputs ----------------------------------------------------------------
# SHA-256 of the CLI records on simulated fig1 / front-door streams at fixed
# seeds.  Any change to ingestion, estimation or record formatting that alters a
# single output byte shows here.  The streams come from `simulate`, so a change
# to the sampler's random draws changes them too; such a change recomputes these
# digests on its parent commit, with the parent's records.

FRONTDOOR = str(CONFIGS / "frontdoor.json")
GOLDEN_STREAMS = {
    # name: (model, regime, seed); 5000 rows cross a 4096-row boundary
    "fig1-iid": (FIG1, "iid", 21),
    "fig1-adaptive": (FIG1, "adaptive", 22),
    "frontdoor-iid": (FRONTDOOR, "iid", 23),
    "frontdoor-adaptive": (FRONTDOOR, "adaptive", 24),
}
GOLDEN_RUNS = {
    # name: (stream, extra analyze/predict arguments)
    "backdoor-iid": ("fig1-iid", ["--criterion", "backdoor", "--regime", "iid"]),
    "backdoor-adaptive-fixed": ("fig1-adaptive", ["--criterion", "backdoor",
                                                  "--regime", "adaptive-fixed"]),
    "backdoor-anytime": ("fig1-adaptive", ["--criterion", "backdoor",
                                           "--regime", "anytime"]),
    "frontdoor-iid": ("frontdoor-iid", ["--criterion", "frontdoor", "--regime", "iid"]),
    "frontdoor-adaptive-fixed": ("frontdoor-adaptive", ["--criterion", "frontdoor",
                                                        "--regime", "adaptive-fixed"]),
    "frontdoor-anytime": ("frontdoor-adaptive", ["--criterion", "frontdoor",
                                                 "--regime", "anytime"]),
    "backdoor-anytime-changes-only": ("fig1-iid", ["--criterion", "backdoor",
                                                   "--regime", "anytime",
                                                   "--changes-only"]),
    "predict": ("fig1-adaptive", None),
    "backdoor-iid-toy": ("fig1-iid", ["--criterion", "backdoor", "--regime", "iid",
                                      "--toy"]),
    "backdoor-adaptive-fixed-toy": ("fig1-adaptive", ["--criterion", "backdoor",
                                                      "--regime", "adaptive-fixed",
                                                      "--toy"]),
    "backdoor-anytime-toy": ("fig1-adaptive", ["--criterion", "backdoor",
                                               "--regime", "anytime", "--toy"]),
    "frontdoor-iid-horner-z": ("frontdoor-iid", ["--criterion", "frontdoor",
                                                 "--regime", "iid",
                                                 "--frontdoor-form", "horner-z"]),
    "frontdoor-iid-horner-x": ("frontdoor-iid", ["--criterion", "frontdoor",
                                                 "--regime", "iid",
                                                 "--frontdoor-form", "horner-x"]),
    # the same rows as backdoor-anytime, written with blank lines and
    # whitespace and key-order variants of each record
    "backdoor-anytime-variants": ("fig1-adaptive-variants",
                                  ["--criterion", "backdoor", "--regime", "anytime"]),
}
GOLDEN_SHA256 = {
    "backdoor-adaptive-fixed":
        "a646228f8940653a827422c2d2068638e14de911350ad85344bdc8fd8ae80ed5",  # 1 record
    "backdoor-adaptive-fixed-toy":
        "ecadbaf8d9b8bbf91d8c9157cec10451c928868b91307561590ac6fed3f8e964",  # 1 record
    "backdoor-anytime":
        "f8cdd99677264973760ffbe39a834469bf1e9197f496d4e3ea67c835decb7044",  # 5000 records
    "backdoor-anytime-variants":
        "f8cdd99677264973760ffbe39a834469bf1e9197f496d4e3ea67c835decb7044",  # 5000 records
    "backdoor-anytime-changes-only":
        "df828cd7d72e53a0db0d6066d45a0238f23e6886178a2a1f52617ff70a84e06b",  # 29 records
    "backdoor-anytime-toy":
        "68bcdc629160d01c23327577dec91616cb0162d33a3b3b34ac52f7eb4490b94c",  # 5000 records
    "backdoor-iid":
        "a16881e1fdb32c79ee60dac6ae7579904c38b5dde3eace6d4022dd7d7cb8585a",  # 1 record
    "backdoor-iid-toy":
        "fe7558f022a73b36fd43362459c921564ced6413dc50f07ffd10287d733b32e5",  # 1 record
    "frontdoor-adaptive-fixed":
        "a902928fd436bee0d612229d1910379e57b6a8d30299d398635c7bee9562bf76",  # 1 record
    "frontdoor-anytime":
        "3b9a4553d1ca3c58be30a8060343b6e4bfb7f9aebbae2a0376f48dad61f9bc32",  # 5000 records
    "frontdoor-iid":
        "62265d94ac2140cdd732ac1c4206d8b66498cc6a6e1eb97328700dab6bf83f37",  # 1 record
    "frontdoor-iid-horner-x":
        "c1b5423b4a1a424fa506f2f0a26e709efb9615be25d8d0c8a5033963a0f37338",  # 1 record
    "frontdoor-iid-horner-z":
        "d3a7a064468cec0955da456260751747e510029f13ff38365d48deef08048e90",  # 1 record
    "predict":
        "c25654e012220b367ae98f742911d6b7bf9e33a268a4917e4818eeb1011bdfe1",  # 1 record
}


@pytest.fixture(scope="module")
def golden_streams(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (model, regime, seed) in GOLDEN_STREAMS.items():
        path = root / f"{name}.jsonl"
        args = ["simulate", "--model", model, "--n", "5000", "--seed", str(seed),
                "--regime", regime, "--output", str(path)]
        if regime == "adaptive":
            args += ["--policy", "adversarial-alternating"]
        assert main(args) == 0
        paths[name] = (model, str(path))
    model, path = paths["fig1-adaptive"]
    varied = root / "fig1-adaptive-variants.jsonl"
    varied.write_text(_vary_lines(Path(path).read_text()))
    paths["fig1-adaptive-variants"] = (model, str(varied))
    return paths


def _vary_lines(text):
    """The stream's header and records, each record written in one of five
    ways: as is, compact, padded with spaces and a tab, with its keys
    reversed, or followed by a blank line."""
    header, *lines = text.splitlines()
    out = [header]
    for i, line in enumerate(lines):
        record = json.loads(line)
        out.append([line,
                    json.dumps(record, separators=(",", ":")),
                    "  " + line + " \t",
                    json.dumps(dict(reversed(record.items()))),
                    line + "\n   "][i % 5])
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_golden_output_digest(run, golden_streams, tmp_path):
    stream, extra = GOLDEN_RUNS[run]
    model, data = golden_streams[stream]
    out = tmp_path / "out.jsonl"
    if extra is None:
        args = ["predict", "--model", model, "--data", data, "--xtilde", "1",
                "--delta", "0.1"]
    else:
        args = ["analyze", "--model", model, "--data", data, "--xtilde", "1",
                "--y", "1", "--delta", "0.1"] + extra
    assert main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[run]


def test_coverage_prediction_needs_xtilde(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["coverage", "--model", FIG1, "--prediction", "--n", "8", "-R", "2",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("error: the intervention value (--xtilde) "
                                       "and outcome value (--y) are required\n")
    assert not out.exists()


def test_coverage_prediction_delta_defaults_as_in_predict(tmp_path):
    args = ["coverage", "--model", FIG1, "--prediction", "--xtilde", "1",
            "--n", "64", "--replications", "20", "--seed", "6", "--output"]
    default, explicit = tmp_path / "default.jsonl", tmp_path / "explicit.jsonl"
    assert main(args + [str(default)]) == 0
    assert main(args + [str(explicit), "--delta", "0.05"]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert read_records(default)[0]["delta"] == 0.05


def test_model_with_integer_vertex_names_exit_2(tmp_path, capsys):
    with open(FIG1) as handle:
        doc = json.load(handle)
    number = {v["name"]: i for i, v in enumerate(doc["variables"])}
    for v in doc["variables"]:
        v["name"] = number[v["name"]]
    doc["edges"] = [[number[a], number[b]] for a, b in doc["edges"]]
    model, out = tmp_path / "model.json", tmp_path / "out.jsonl"
    model.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(model), "--n", "8", "--output", str(out)]) == 2
    assert capsys.readouterr().err.endswith("vertex name 0 is not a string\n")
    assert not out.exists()


@pytest.mark.parametrize("roles, message", MALFORMED_ROLES)
@pytest.mark.parametrize("command", ["simulate", "analyze", "coverage"])
def test_model_with_malformed_roles_exit_2(tmp_path, capsys, command, roles, message):
    with open(FIG1) as handle:
        doc = json.load(handle)
    doc["roles"].update(roles)
    model, out = tmp_path / "model.json", tmp_path / "out.jsonl"
    model.write_text(json.dumps(doc))
    args = {"simulate": ["--n", "8"],
            "analyze": ["--data", write_eight_obs(tmp_path / "obs.jsonl"),
                        "--xtilde", "1", "--y", "1"],
            "coverage": ["--xtilde", "1", "--y", "1", "--n", "200", "-R", "20"]}[command]
    assert main([command, "--model", str(model), *args, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "coverage"])
def test_model_with_an_unhashable_domain_value_exit_2(tmp_path, capsys, command):
    with open(FIG1) as handle:
        doc = json.load(handle)
    next(v for v in doc["variables"] if v["name"] == "Y")["domain"] = [[0], [1]]
    model, out = tmp_path / "model.json", tmp_path / "out.jsonl"
    model.write_text(json.dumps(doc))
    args = {"simulate": ["--n", "8"],
            "analyze": ["--data", write_eight_obs(tmp_path / "obs.jsonl"),
                        "--xtilde", "1", "--y", "1"],
            "coverage": ["--xtilde", "1", "--y", "1", "--n", "20", "-R", "2"]}[command]
    assert main([command, "--model", str(model), *args, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: the domain of 'Y' holds the unhashable value [0]\n"
    assert not out.exists()


def test_model_with_integer_edge_endpoints_exit_2(tmp_path, capsys):
    with open(FIG1) as handle:
        doc = json.load(handle)
    number = {v["name"]: i for i, v in enumerate(doc["variables"])}
    for v in doc["variables"]:
        v["name"] = str(number[v["name"]])
    for spec in doc["cpts"].values():
        spec["parents"] = [str(number[p]) for p in spec["parents"]]
    doc["cpts"] = {str(number[name]): spec for name, spec in doc["cpts"].items()}
    doc["roles"] = {"x": str(number["X"]), "y": str(number["Y"]), "z": [str(number["Z"])]}
    doc["edges"] = [[number[a], number[b]] for a, b in doc["edges"]]
    model, out = tmp_path / "model.json", tmp_path / "out.jsonl"
    model.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(model), "--n", "8", "--output", str(out)]) == 2
    assert capsys.readouterr().err.endswith("edge endpoint 1 is not a string\n")
    assert not out.exists()
    doc["edges"] = [[str(a), str(b)] for a, b in doc["edges"]]  # the same model, spelled right
    model.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(model), "--n", "8", "--output", str(out)]) == 0


def test_config_value_is_a_json_value_not_text(tmp_path):
    # treatment values are the strings "0" and "1": a --config value is the
    # JSON value it holds, a flag is text that spells one
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")],
              {"Z": (0, 1), "X": ("0", "1"), "Y": (0, 1)})
    cpts = {"Z": Cpt((), {(): (0.6, 0.4)}),
            "X": Cpt(("Z",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
            "Y": Cpt(("X", "Z"), {(x, z): (0.5, 0.5) for x in ("0", "1") for z in (0, 1)})}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(CausalModel(dag, cpts, Roles("X", "Y", ("Z",))).to_json()))
    stream = tmp_path / "obs.jsonl"
    stream.write_text('{"x": "1", "y": 1, "z": [0]}\n{"x": "0", "y": 0, "z": [1]}\n')
    config = tmp_path / "query.json"
    config.write_text(json.dumps({"x": "1", "y": 1}))
    by_config, by_flag = tmp_path / "config.jsonl", tmp_path / "flag.jsonl"
    assert main(["analyze", "--model", str(model), "--data", str(stream),
                 "--config", str(config), "--output", str(by_config)]) == 0
    assert main(["analyze", "--model", str(model), "--data", str(stream),
                 "--xtilde", '"1"', "--y", "1", "--output", str(by_flag)]) == 0
    assert read_records(by_config)[0]["x"] == "1"
    assert by_config.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("args, message", [
    (["coverage", "--prediction", "--xtilde", "1", "--n", "64", "-R", "0"],
     "need at least one replication"),
    (["coverage", "--prediction", "--xtilde", "1", "--n", "64", "-R", "-3"],
     "need at least one replication"),
    (["simulate", "--n", "-2", "--regime", "adaptive"], "stream length n must be >= 0, got -2"),
    (["simulate", "--n", "-2"], "stream length n must be >= 0, got -2"),
    (["coverage", "--xtilde", "1", "--y", "1", "--regime", "anytime",
      "--n", "-5", "-R", "2"], "stream length n must be >= 0, got -5"),
    (["coverage", "--xtilde", "1", "--y", "1", "--n", "-5", "-R", "2"],
     "stream length n must be >= 0, got -5"),
])
def test_bad_stream_length_or_replications_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "out.jsonl"
    assert main([args[0], "--model", FIG1, *args[1:], "--output", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()
