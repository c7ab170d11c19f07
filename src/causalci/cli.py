"""Command-line interface.

Subcommands: ``simulate`` (model -> observation stream), ``analyze``
(stream -> effect intervals / sequences), ``predict`` (stream ->
prediction set), ``check`` (DAG -> criterion report), ``coverage``
(model -> Monte Carlo report).

Exit codes: 0 success, 2 input or configuration error (parse and domain
errors in a data stream name its line), 3 criterion or statistical
precondition violation.  All outputs are JSON / JSON-lines with a
``format_version`` field; identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext

from .counts import ObservationParseError, open_stream, parse_scalar
from .coverage import run_coverage, run_prediction_coverage
# backdoor_cs_anytime and frontdoor_cs_anytime are unused here, and kept: the
# benchmark's tracer wraps them
from .effects import EffectQuery, backdoor_cs_anytime, effect_interval, \
    frontdoor_cs_anytime
from .graph import check_backdoor, check_frontdoor, load_dag
from .prediction import prediction_set
from .simulator import load_model, make_policy, sample_adaptive, sample_iid

OK, INPUT_ERROR, VIOLATION = 0, 2, 3
FORMAT_VERSION = 1
# the error for a query value missing from both the flags and --config
_MISSING_QUERY_VALUE = ("the intervention value (--xtilde) and outcome value "
                        "(--y) are required")
# an interval record's line up to the value of n, its first variable field
_INTERVAL_HEAD = f'{{"format_version": {FORMAT_VERSION}, "kind": "effect_interval", "n": '


def _default_seed() -> int:
    return int(os.environ.get('CAUSALCI_SEED', '0'))


def _open_output(path: str | None):
    if path in (None, '-'):
        return nullcontext(sys.stdout)
    return open(path, 'w', encoding='utf-8')


def _emit(handle, record: dict) -> None:
    handle.write(json.dumps(record) + '\n')


def _parse_columns(spec: str | None) -> dict | None:
    # e.g. "x=treatment,y=outcome,z=z1+z2"
    if spec is None:
        return None
    mapping: dict = {}
    for part in spec.split(','):
        key, _, value = part.partition('=')
        key = key.strip()
        if key not in ('x', 'y', 'z') or not value:
            raise ValueError(f"bad column mapping fragment {part!r}")
        mapping[key] = value.split('+') if key == 'z' else value.strip()
    if set(mapping) != {'x', 'y', 'z'}:
        raise ValueError("column mapping must assign x, y and z")
    return mapping


def _interval_record(itv, query: EffectQuery) -> dict:
    record = {
        "format_version": FORMAT_VERSION,
        "kind": "effect_interval",
        "n": itv.n,
        "midpoint": itv.midpoint,
        "halfwidth": None if itv.unbounded else itv.halfwidth,
        "unbounded": itv.unbounded,
        "lower": itv.lower,
        "upper": itv.upper,
        "criterion": query.criterion,
        "regime": query.regime,
        "x": query.x,
        "y": query.y,
        "delta": query.delta,
        "binary_toy": query.binary_toy,
        "constants": itv.constants,
    }
    if query.criterion == 'frontdoor':
        record["frontdoor_form"] = query.frontdoor_form
    return record


# -- subcommands ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if not model.positive:
        print("warning: model has zero probabilities; adjustment formulas "
              "may be undefined", file=sys.stderr)
    if args.regime == 'iid':
        stream = sample_iid(model, args.n, args.seed)
    else:
        policy = make_policy(args.policy, model)
        stream = sample_adaptive(model, policy, args.n, args.seed)
    with _open_output(args.output) as out:
        _emit(out, {"format_version": FORMAT_VERSION, "kind": "observations",
                    "n": args.n, "seed": args.seed, "regime": args.regime})
        for obs in stream:
            _emit(out, {"x": obs.x, "y": obs.y, "z": list(obs.z)})
    return OK


def _build_query(args) -> EffectQuery:
    config = {}
    if getattr(args, 'config', None):
        with open(args.config, 'r', encoding='utf-8') as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"--config must hold a JSON object, not {type(config).__name__}")

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return config.get(key, default)

    xtilde = pick(args.xtilde, 'x', None)
    y = pick(args.y, 'y', None)
    if xtilde is None or y is None:
        raise ValueError(_MISSING_QUERY_VALUE)
    toy = pick(args.toy or None, 'binary_toy', False)
    if not isinstance(toy, bool):
        raise ValueError(f"--config: binary_toy must be a JSON boolean, not {toy!r}")
    delta = pick(args.delta, 'delta', 0.05)
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise ValueError(f"--config: delta must be a JSON number, not {delta!r}")
    return EffectQuery(
        criterion=pick(args.criterion, 'criterion', 'backdoor'),
        # a flag is text to parse; a --config value is a JSON value already
        x=xtilde if args.xtilde is None else parse_scalar(xtilde),
        y=y if args.y is None else parse_scalar(y),
        delta=float(delta),
        regime=pick(args.regime, 'regime', 'iid'),
        binary_toy=toy,
        frontdoor_form=pick(args.frontdoor_form, 'frontdoor_form', 'expanded'),
    )


def _criterion_holds(model, query) -> bool:
    """Whether the model's DAG meets the query's criterion; each violation
    is printed to stderr."""
    roles = model.roles
    if query.criterion == 'backdoor':
        report = check_backdoor(model.dag, {roles.x}, {roles.y}, set(roles.z))
    else:
        report = check_frontdoor(model.dag, roles.x, roles.y, set(roles.z))
    for violation in report.violations:
        print(f"criterion violation: {violation}", file=sys.stderr)
    return report.satisfied


@contextmanager
def _at_line(stream):
    """Re-raise a ``ValueError`` met while rows are ingested (a value outside
    its domain) as an :class:`ObservationParseError` naming the line of the
    row last read, which is the row being handled."""
    try:
        yield
    except ObservationParseError:
        raise
    except ValueError as exc:
        raise ObservationParseError(stream.line, str(exc)) from exc


def _ingest_data(args, table) -> None:
    """Ingest every row of ``--data``, naming the line of a bad row, and
    warn if the stream holds none."""
    with open_stream(args.data, _parse_columns(args.columns)) as stream, \
            _at_line(stream):
        table.ingest_all(stream)
    if table.n == 0:
        print("warning: empty input stream", file=sys.stderr)


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    query = _build_query(args)
    if not args.assume_criterion and not _criterion_holds(model, query):
        print("refusing to analyze (pass --assume-criterion to override)",
              file=sys.stderr)
        return VIOLATION
    table = model.count_table()
    effect_interval(table, query)  # refuses the query before any row is read
    if query.regime != 'anytime':  # read every row before the output is opened
        _ingest_data(args, table)
        with _open_output(args.output) as out:
            _emit(out, _interval_record(effect_interval(table, query), query))
        return OK
    columns = _parse_columns(args.columns)
    with open_stream(args.data, columns) as stream, _open_output(args.output) as out:
        version, tail = -1, ''
        with _at_line(stream):
            for obs in stream:
                table.ingest(obs)
                # every anytime estimate and radius reads dyadic tallies and
                # dyadic floors of counts, which move only at a checkpoint:
                # between checkpoints only n changes, so the line is
                # serialized once and n spliced into it
                if table.checkpoint_version != version:
                    version = table.checkpoint_version
                    line = json.dumps(_interval_record(effect_interval(table, query), query))
                    tail = line[len(_INTERVAL_HEAD) + len(str(table.n)):] + '\n'
                elif args.changes_only:
                    continue
                out.write(_INTERVAL_HEAD + str(table.n) + tail)
        if table.n == 0:
            print("warning: empty input stream", file=sys.stderr)
            _emit(out, _interval_record(effect_interval(table, query), query))
    return OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    x = parse_scalar(args.xtilde)
    table = model.count_table()
    prediction_set(table, x, args.delta)  # refuses the query before any row is read
    _ingest_data(args, table)
    gamma = prediction_set(table, x, args.delta)
    with _open_output(args.output) as out:
        _emit(out, {
            "format_version": FORMAT_VERSION,
            "kind": "prediction_set",
            "n": table.n,
            "x": x,
            "delta": args.delta,
            "threshold": gamma.threshold,
            "constants": {
                "hoeffding": {"form": "12/delta", "value": 12.0 / args.delta},
                "lil": {"form": "20/delta", "value": 20.0 / args.delta},
            },
            "members": list(gamma.members),
            "diagnostics": [
                {"y": d["y"], "midpoint": d["midpoint"],
                 "endpoint": None if math.isinf(d["endpoint"]) else d["endpoint"],
                 "member": d["member"]}
                for d in gamma.diagnostics
            ],
        })
    return OK


def cmd_check(args) -> int:
    dag = load_dag(args.dag)
    xs = args.x.split(',')
    ys = args.y.split(',')
    zs = args.z.split(',')
    if args.criterion == 'backdoor':
        report = check_backdoor(dag, xs, ys, zs)
    else:
        if len(xs) != 1 or len(ys) != 1:
            raise ValueError("the front-door criterion takes single x and y variables")
        report = check_frontdoor(dag, xs[0], ys[0], zs)
    with _open_output(args.output) as out:
        _emit(out, {"format_version": FORMAT_VERSION, "kind": "criterion_report",
                    "criterion": args.criterion, "satisfied": report.satisfied,
                    "violations": list(report.violations)})
    return OK if report.satisfied else VIOLATION


def cmd_coverage(args) -> int:
    model = load_model(args.model)
    if args.prediction:
        if args.xtilde is None:
            raise ValueError(_MISSING_QUERY_VALUE)
        policy = make_policy(args.policy, model)
        delta = 0.05 if args.delta is None else args.delta  # as in predict
        report = run_prediction_coverage(model, parse_scalar(args.xtilde),
                                         delta, args.n, args.replications,
                                         args.seed, policy)
        print(f"prediction miss rate {report['miss_rate']:.4f} "
              f"(se={report['mc_se']:.4f})", file=sys.stderr)
        with _open_output(args.output) as out:
            _emit(out, report)
        return OK
    query = _build_query(args)
    if not _criterion_holds(model, query):
        # the truth coverage is measured against is the criterion's formula
        print("refusing to run coverage", file=sys.stderr)
        return VIOLATION
    policy = None
    if query.regime != 'iid':
        policy = make_policy(args.policy, model)
    report = run_coverage(model, query, args.n, args.replications,
                          seed=args.seed, policy=policy, workers=args.workers)
    print(report.summary(), file=sys.stderr)
    with _open_output(args.output) as out:
        _emit(out, report.to_json())
    return OK


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='causalci',
        description="Confidence intervals and anytime-valid confidence "
                    "sequences for back-door and front-door causal effects.")
    sub = parser.add_subparsers(dest='command', required=True)

    def add_query_flags(p):
        p.add_argument('--criterion', choices=['backdoor', 'frontdoor'], default=None)
        p.add_argument('--xtilde', help="intervention value", default=None)
        p.add_argument('--y', help="outcome value", default=None)
        p.add_argument('--delta', type=float, default=None)
        p.add_argument('--toy', action='store_true',
                       help="tightened constants for the fully binary case")
        p.add_argument('--frontdoor-form', dest='frontdoor_form',
                       choices=['expanded', 'horner-z', 'horner-x'], default=None)
        p.add_argument('--config', help="JSON file with query defaults "
                                        "(flags take precedence)")

    p = sub.add_parser('simulate', help="sample an observation stream from a model")
    p.add_argument('--model', required=True)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--seed', type=int, default=_default_seed())
    p.add_argument('--regime', choices=['iid', 'adaptive'], default='iid')
    p.add_argument('--policy', default='iid-from-cpt')
    p.add_argument('--output', '-o')
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser('analyze', help="effect intervals from an observation stream")
    p.add_argument('--model', required=True,
                   help="model JSON (declares domains and variable roles)")
    p.add_argument('--data', default='-', help="JSONL/CSV stream or - for stdin")
    p.add_argument('--columns', help="CSV mapping, e.g. x=treat,y=out,z=z1+z2")
    add_query_flags(p)
    p.add_argument('--regime', choices=['iid', 'adaptive-fixed', 'anytime'],
                   default=None)
    p.add_argument('--assume-criterion', action='store_true',
                   help="skip the structural criterion check")
    p.add_argument('--changes-only', action='store_true',
                   help="anytime regime: emit only when a dyadic checkpoint advanced")
    p.add_argument('--output', '-o')
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser('predict', help="prediction set for the next intervened outcome")
    p.add_argument('--model', required=True)
    p.add_argument('--data', default='-')
    p.add_argument('--columns')
    p.add_argument('--xtilde', required=True)
    p.add_argument('--delta', type=float, default=0.05)
    p.add_argument('--output', '-o')
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser('check', help="test an adjustment set against a criterion")
    p.add_argument('--dag', required=True, help="DAG text file")
    p.add_argument('--criterion', choices=['backdoor', 'frontdoor'],
                   default='backdoor')
    p.add_argument('--x', required=True, help="comma-separated treatment variables")
    p.add_argument('--y', required=True, help="comma-separated outcome variables")
    p.add_argument('--z', required=True, help="comma-separated adjustment variables")
    p.add_argument('--output', '-o')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser('coverage', help="Monte Carlo coverage of a construction")
    p.add_argument('--model', required=True)
    add_query_flags(p)
    p.add_argument('--regime', choices=['iid', 'adaptive-fixed', 'anytime'],
                   default=None)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--replications', '-R', type=int, required=True)
    p.add_argument('--policy', default='iid-from-cpt')
    p.add_argument('--seed', type=int, default=_default_seed())
    p.add_argument('--workers', type=int, default=1)
    p.add_argument('--prediction', action='store_true',
                   help="validate the prediction set instead of an interval")
    p.add_argument('--output', '-o')
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == '__main__':
    sys.exit(main())
