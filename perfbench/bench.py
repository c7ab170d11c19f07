"""Workloads, measurement and reporting of the causalci benchmark.

Imported by ``run.py`` once it has checked the checkout and put its
``src/`` first on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from statistics import quantiles
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import causalci
import causalci.cli
import causalci.coverage
import causalci.graph
import inputs
import ops
import oracles
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
CONFIGS = ROOT / 'configs'
WORK = ROOT / '.perfbench'

# what one item is, per workload
ITEM = {'analyze-iid': 'rows', 'analyze-anytime': 'rows',
        'coverage': 'replications', 'check-dags': 'checks'}
# the layers expected to take most of each workload's time (see METRICS.md)
EXPECTED_DOMINANT = {
    'analyze-iid': ('counts.read_jsonl', 'counts.ingest'),
    'analyze-anytime': ('effects.interval', 'cli.main'),
    'coverage': ('simulator.sample_adaptive', 'simulator.policy_choose'),
    'check-dags': ('graph.check', 'graph.enumerate_paths', 'graph.path_blocked'),
}
SIZES = {
    'full': {'iid_rows': 50_000, 'anytime_rows': 2_500, 'warm_rows': 2_000,
             'replications': 2, 'dags': 200, 'warm_checks': 20},
    'smoke': {'iid_rows': 2_000, 'anytime_rows': 2_000, 'warm_rows': 200,
              'replications': 1, 'dags': 3, 'warm_checks': 2},
}
# set-ups per run, spread evenly over the measuring phase
SETUP_REPEATS = 20
TOL = 1e-12

if Path(causalci.__file__).resolve().parent != SRC / 'causalci':
    raise ImportError(f"causalci imported from {causalci.__file__}, not from {SRC}")


# -- workloads ------------------------------------------------------------------

class Analyze:
    """``causalci analyze`` through ``causalci.cli.main`` on a generated stream."""

    def __init__(self, name: str, model: str, criterion: str, regime: str, rows: int,
                 warm_rows: int):
        self.name, self.model, self.criterion, self.regime = name, model, criterion, regime
        self.rows, self.warm_rows = rows, warm_rows
        self.keys = 1
        self.items = rows
        self.output = WORK / f'{name}.out.jsonl'
        self.output_digest = None

    def setup(self, seed: int) -> dict:
        doc = json.loads((CONFIGS / self.model).read_text(encoding='utf-8'))
        self.stream = inputs.write_stream(doc, self.rows, np.random.default_rng([seed, 1]),
                                          WORK / f'{self.name}.jsonl')
        self.warm_stream = inputs.write_stream(doc, self.warm_rows,
                                               np.random.default_rng([seed, 2]),
                                               WORK / f'{self.name}.warm.jsonl')
        x, y = self.stream.x_domain.index(1), self.stream.y_domain.index(1)
        if self.criterion == 'backdoor':
            self.midpoint = oracles.backdoor_iid_midpoint(self.stream, x, y)
        else:
            self.midpoint = oracles.frontdoor_dyadic_midpoint(self.stream, x, y)
        return {'model': inputs.sha256_file(CONFIGS / self.model),
                'stream': self.stream.sha256, 'warm_stream': self.warm_stream.sha256}

    def _argv(self, data: Path) -> list[str]:
        return ops.analyze_argv(CONFIGS / self.model, data, self.criterion, self.regime,
                                self.output)

    def warm(self) -> None:
        causalci.cli.main(self._argv(self.warm_stream.path))

    def run(self, key: int, index: int):
        return causalci.cli.main(self._argv(self.stream.path))

    def child_spec(self, index: int) -> dict:
        return {'op': 'analyze', 'argv': self._argv(self.stream.path)}

    def child_results(self, status) -> list:
        return [(0, status)]

    def check(self, key: int, status, emitted: Counter) -> bool:
        data = self.output.read_bytes()
        records = data.count(b'\n')
        emitted['records'] += records
        emitted['bytes'] += len(data)
        digest = sha256(data).hexdigest()
        if self.output_digest is None:
            self.output_digest = digest
        expected_records = self.rows if self.regime == 'anytime' else 1
        if status != 0 or records != expected_records:
            return False
        final = json.loads(data[data.rstrip(b'\n').rfind(b'\n') + 1:])
        return (final['n'] == self.rows and abs(final['midpoint'] - self.midpoint) <= TOL
                and digest == self.output_digest)

    def failures(self) -> int:
        return 0


class Coverage:
    """One op is one pass of ``run_coverage`` over the six configurations of
    acceptance criteria 1-3, each at a reduced replication count."""

    LEVEL = 0.90

    def __init__(self, replications: int):
        self.replications = replications
        self.keys = 1
        self.items = replications * len(ops.COVERAGE_CONFIGS)
        self.passes = 0
        self.hits = [0] * len(ops.COVERAGE_CONFIGS)
        self.drawn = [0] * len(ops.COVERAGE_CONFIGS)

    def setup(self, seed: int) -> dict:
        self.seed = seed
        self.cases = ops.coverage_cases(CONFIGS)
        return {name: inputs.sha256_file(CONFIGS / name)
                for name in ('fig1.json', 'frontdoor.json')}

    def warm(self) -> None:
        self.run(0, -1)

    def run(self, key: int, index: int):
        return ops.coverage_pass(causalci.coverage.run_coverage, self.cases,
                                 self.replications, [self.seed, index + 1])

    def child_spec(self, index: int) -> dict:
        return {'op': 'coverage', 'configs': str(CONFIGS),
                'replications': self.replications, 'seed': [self.seed, index + 1]}

    def child_results(self, reports) -> list:
        return [(0, [SimpleNamespace(true_value=t, coverage=c, replications=r)
                     for t, c, r in reports])]

    def check(self, key: int, reports, emitted: Counter) -> bool:
        self.passes += 1
        ok = True
        for j, (report, case) in enumerate(zip(reports, self.cases)):
            ok = ok and abs(report.true_value - case[4]) <= TOL
            self.hits[j] += round(report.coverage * report.replications)
            self.drawn[j] += report.replications
        return ok

    def failures(self) -> int:
        """Every pass fails unless the coverage of each configuration, pooled
        over the run, is at least the level less 3 MC standard errors."""
        for hits, drawn in zip(self.hits, self.drawn):
            cov = hits / drawn
            if cov < self.LEVEL - 3 * (cov * (1 - cov) / drawn) ** 0.5:
                return self.passes
        return 0


class CheckDags:
    """``check_backdoor`` (|Z| = 2) and ``check_frontdoor`` (|Z| = 1) on a
    seeded set of random DAGs that a run checks several times over; one op is
    one check.  Verdicts are compared with the oracle after timing ends."""

    def __init__(self, dags: int, warm_checks: int):
        self.dags, self.warm_checks = dags, warm_checks
        self.items = 1
        self.verdicts: list[tuple[int, bool]] = []

    def setup(self, seed: int) -> dict:
        self.seed = seed
        cases = inputs.dag_set(np.random.default_rng([seed, 3]), self.dags)
        self.checks = ops.dag_checks(cases)
        self.keys = len(self.checks)
        return {'dags': sha256(inputs.dag_set_text(cases).encode()).hexdigest()}

    def warm(self) -> None:
        for key in range(min(self.warm_checks, self.keys)):
            self.run(key, -1)

    def run(self, key: int, index: int):
        return ops.run_check(causalci.graph, self.checks[key])

    def child_spec(self, index: int) -> dict:
        return {'op': 'check-dags', 'seed': self.seed, 'dags': self.dags}

    def child_results(self, verdicts) -> list:
        return [(key, SimpleNamespace(satisfied=v)) for key, v in enumerate(verdicts)]

    def check(self, key: int, report, emitted: Counter) -> bool:
        self.verdicts.append((key, report.satisfied))
        return True

    def failures(self) -> int:
        """Verdicts that disagree with the d-separation oracle."""
        expected: dict[int, bool] = {}
        failed = 0
        for key, satisfied in self.verdicts:
            if key not in expected:
                kind, case, _, zs = self.checks[key]
                holds = oracles.backdoor_holds if kind == 'backdoor' \
                    else oracles.frontdoor_holds
                expected[key] = holds(oracles.graph_of(case), case.x, case.y, zs)
            failed += satisfied != expected[key]
        return failed


def make_workload(name: str, sizes: dict):
    if name == 'analyze-iid':
        return Analyze(name, 'fig1.json', 'backdoor', 'iid', sizes['iid_rows'],
                       sizes['warm_rows'])
    if name == 'analyze-anytime':
        return Analyze(name, 'frontdoor.json', 'frontdoor', 'anytime',
                       sizes['anytime_rows'], sizes['warm_rows'])
    if name == 'coverage':
        return Coverage(sizes['replications'])
    return CheckDags(sizes['dags'], sizes['warm_checks'])


# -- measurement ----------------------------------------------------------------

@dataclass
class Phase:
    """Op latencies of one measuring phase, by key (one key per distinct
    input; a workload with several keys cycles over them), and the times of
    the set-ups made during it.

    The host's CPU speed switches between a slow base state and faster
    bursts that last seconds, and the share of bursts differs from run to
    run.  So each key's latency, and the set-up time, is the 90th percentile
    of its repeats, which stays in the base state that every run contains,
    where a median or a mean moves with the share of bursts.
    """

    latencies: dict = field(default_factory=dict)
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    emitted: Counter = field(default_factory=Counter)

    def typical(self, keys=None) -> list[float]:
        keys = self.latencies.keys() if keys is None else keys
        return [slow_decile(self.latencies[k]) for k in keys]

    def items_per_s(self, items: int) -> float:
        typical = self.typical()
        return items * len(typical) / sum(typical)

    def wall_s(self) -> float:
        return sum(sum(v) for v in self.latencies.values())


def slow_decile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=10, method='inclusive')[8]


def measure(workload, seconds: float, tracer=None, first_index: int = 0,
            setup=None) -> Phase:
    """Run ops, cycling over the keys, until ``seconds`` have passed; with
    ``setup``, also call it SETUP_REPEATS - 1 times at even intervals and
    keep the times it returns."""
    phase = Phase()
    index = first_index
    now = perf_counter()
    deadline = now + seconds
    every = seconds / SETUP_REPEATS
    next_setup = now + every if setup is not None else deadline
    while True:
        for key in range(workload.keys):
            if tracer is not None:
                tracer.op_id = index
            t0 = perf_counter()
            result = workload.run(key, index)
            elapsed = perf_counter() - t0
            phase.latencies.setdefault(key, []).append(elapsed)
            phase.attempted += 1
            phase.failed += not workload.check(key, result, phase.emitted)
            index += 1
            now = perf_counter()
            if now >= next_setup and now < deadline:
                phase.setups.append(setup())
                next_setup += every
            if now >= deadline:
                return phase


def timed_setup(workload, seed: int, digests: dict | None = None) -> tuple[float, dict]:
    """One set-up: import causalci in a fresh interpreter, generate the
    inputs, warm up.  Returns its time and the inputs' digests, which must
    match ``digests`` when given."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, '-c', 'import causalci'], cwd=ROOT, env=env,
                   check=True)
    got = workload.setup(seed)
    workload.warm()
    elapsed = perf_counter() - t0
    if digests is not None and got != digests:
        raise RuntimeError("one seed generated different inputs")
    return elapsed, got


def peak_rss_mb(workload, index: int, phase: Phase) -> float:
    """Peak RSS of one op run in a fresh process that imports only causalci;
    its result is checked like any other op's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(HERE / 'ops.py'),
                           json.dumps(workload.child_spec(index))],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    for key, result in workload.child_results(out['result']):
        phase.attempted += 1
        phase.failed += not workload.check(key, result, Counter())
    return out['peak_rss_mb']


def metadata(workload: str, seed: int, digests: dict) -> dict:
    src_files = sorted(SRC.rglob('*.py'))
    tree = sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        tree.update(str(path.relative_to(ROOT)).encode() + b'\0' + data)
        lines += data.count(b'\n')
    try:
        commit = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {'workload': workload, 'seed': seed, 'inputs_sha256': digests,
            'nproc': os.cpu_count(), 'python': platform.python_version(),
            'numpy': np.__version__, 'commit': commit, 'src_sha256': tree.hexdigest(),
            'src_lines': lines}


def run_one(args) -> int:
    sizes = SIZES['smoke' if args.smoke else 'full']
    workload = make_workload(args.workload, sizes)
    WORK.mkdir(exist_ok=True)
    first_setup_s, digests = timed_setup(workload, args.seed)
    report = {'metadata': metadata(args.workload, args.seed, digests)}

    if not args.trace:
        phase = measure(workload, args.seconds,
                        setup=lambda: timed_setup(workload, args.seed, digests)[0])
        phase.setups.insert(0, first_setup_s)
        phases = [phase]
        metrics = {
            'items_per_s': (phase.items_per_s(workload.items), '1/s'),
            'peak_rss_mb': (peak_rss_mb(workload, phase.attempted, phase), 'MB'),
            'setup_s': (slow_decile(phase.setups), 's'),
        }
        report['named'] = {f'{ITEM[args.workload]}_per_s': metrics['items_per_s'][0]}
        report['setups_s'] = phase.setups
    else:
        from causalci.simulator import AlternatingAdversaryPolicy
        plain = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.calibrate()
        tracer.install(AlternatingAdversaryPolicy)
        try:
            traced = measure(workload, args.seconds / 2, tracer, plain.attempted)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        common = plain.latencies.keys() & traced.latencies.keys()
        overhead = sum(traced.typical(common)) / sum(plain.typical(common)) - 1
        layers = tracer.layer_metrics(traced.attempted, traced.wall_s(), overhead,
                                      traced.emitted)
        metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        dominant, share = tracer.dominant_layer()
        report['dominant_layer'] = {'measured': dominant, 'self_share': share,
                                    'expected': EXPECTED_DOMINANT[args.workload],
                                    'agrees': dominant in EXPECTED_DOMINANT[args.workload]}
        trace_file = WORK / f'trace-{args.workload}.npz'
        tracer.write(trace_file)
        report['trace_file'] = str(trace_file.relative_to(ROOT))
        report['spans'] = len(tracer.start)

    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + workload.failures())
    report['attempted'] = attempted
    report['failed_frac'] = failed / attempted

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print('report ' + json.dumps(report))
    print(json.dumps({'correct': failed == 0, 'attempted': attempted, 'failed': failed,
                      'metrics': {name: {'value': value, 'unit': unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith('_s'):
        return 's/op'
    if name.endswith('_frac') or name.endswith('_per_row'):
        return 'ratio'
    if name == 'cli.emit.bytes':
        return 'B/op'
    return 'count/op'
