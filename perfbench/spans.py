"""In-memory span trace around causalci's layer entry points.

A traced run replaces each layer's entry point at the name its caller looks
up (modules import these functions by name, so the module attribute of the
caller is what must be swapped).  Every call records a span: name, start,
end, parent span, op id and one count taken inside the span (rows returned,
checkpoints made, ...), kept in flat arrays and written out once the run
ends.  Every count is derived from these arrays afterwards, so the wrappers
do no bookkeeping between spans.

A span's self time is its duration minus the durations of its direct
children, less the tracer's own cost: the part of each span's open and close
that falls inside the span is charged to the span and the part outside it to
its parent.  Both parts are calibrated on no-op calls just before the traced
phase, and their total is reported as ``trace.span_cost_s``.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

# per-layer metrics, each reported per op of the workload
LAYER_METRICS = (
    'counts.read_jsonl.rows', 'counts.read_jsonl.self_s',
    'counts.ingest.rows', 'counts.ingest.self_s',
    'counts.checkpoints', 'counts.checkpoints_per_row',
    'effects.interval.calls', 'effects.interval.self_s',
    'effects.interval.unbounded_frac', 'effects.evals_per_row',
    'cli.main.self_s', 'cli.emit.records', 'cli.emit.bytes',
    'simulator.sample_iid.calls', 'simulator.sample_iid.rows',
    'simulator.sample_iid.self_s',
    'simulator.sample_adaptive.calls', 'simulator.sample_adaptive.rows',
    'simulator.sample_adaptive.self_s',
    'simulator.policy_choose.calls', 'simulator.policy_choose.self_s',
    'coverage.run_coverage.calls', 'coverage.run_coverage.self_s',
    'coverage.replications',
    'graph.check.calls', 'graph.check.self_s',
    'graph.enumerate_paths.calls', 'graph.enumerate_paths.self_s', 'graph.paths',
    'graph.path_blocked.calls', 'graph.path_blocked.self_s', 'graph.violations',
    'trace.overhead_frac', 'trace.unattributed_s', 'trace.span_cost_s',
)

SPANS = ('cli.main', 'counts.read_jsonl', 'counts.ingest', 'effects.interval',
         'simulator.sample_iid', 'simulator.sample_adaptive',
         'simulator.policy_choose', 'coverage.run_coverage', 'graph.check',
         'graph.enumerate_paths', 'graph.path_blocked')
GENERATORS = ('counts.read_jsonl',)

# metric <- number of spans of a name
CALLS = {
    'counts.ingest.rows': 'counts.ingest',
    'effects.interval.calls': 'effects.interval',
    'simulator.sample_iid.calls': 'simulator.sample_iid',
    'simulator.sample_adaptive.calls': 'simulator.sample_adaptive',
    'simulator.policy_choose.calls': 'simulator.policy_choose',
    'coverage.run_coverage.calls': 'coverage.run_coverage',
    'graph.check.calls': 'graph.check',
    'graph.enumerate_paths.calls': 'graph.enumerate_paths',
    'graph.path_blocked.calls': 'graph.path_blocked',
}
# metric <- sum of the in-span counts of a name
VALUES = {
    'counts.read_jsonl.rows': 'counts.read_jsonl',
    'counts.checkpoints': 'counts.ingest',
    'simulator.sample_iid.rows': 'simulator.sample_iid',
    'simulator.sample_adaptive.rows': 'simulator.sample_adaptive',
    'coverage.replications': 'coverage.run_coverage',
    'graph.paths': 'graph.enumerate_paths',
    'graph.violations': 'graph.check',
}
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def _noop(value):
    return value


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` out."""

    def __init__(self):
        self.names = list(SPANS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.name = array('b')
        self.parent = array('i')
        self.op = array('i')
        self.start = array('d')
        self.end = array('d')
        self.value = array('q')
        self.stack: list[int] = []
        self.op_id = 0
        self._restore: list[tuple[object, str, object]] = []
        # calibrated tracer cost per span name, inside and outside the span
        self.cost_in = np.zeros(len(SPANS))
        self.cost_out = np.zeros(len(SPANS))

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.value.append(0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, value: int = 0) -> None:
        self.value[i] = value
        self.end[i] = perf_counter()
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def traced(self, original, name_id: int, value=None):
        """original wrapped in a span; value(result), if given, is the
        span's count, taken before the span closes."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                close(i)
                raise
            close(i, 0 if value is None else value(result))
            return result

        return traced

    def traced_generator(self, original, name_id: int):
        """A generator function wrapped so that each next() is a span whose
        count is 1 when it yields an item."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                i = open_(name_id)
                try:
                    item = next(items)
                except StopIteration:
                    close(i)
                    return
                except BaseException:
                    close(i)
                    raise
                close(i, 1)
                yield item

        return traced

    def traced_ingest(self, original, name_id: int):
        """CountTable.ingest wrapped; the count is the checkpoints it made."""
        open_, close = self.open, self.close

        def ingest(table, obs):
            i = open_(name_id)
            version = table.checkpoint_version
            try:
                original(table, obs)
            except BaseException:
                close(i)
                raise
            close(i, table.checkpoint_version - version)

        return ingest

    def wrap(self, owner, attr: str, span: str, value=None) -> None:
        original = getattr(owner, attr)
        self._swap(owner, attr, original, self.traced(original, self._id[span], value))

    def _swap(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, policy_class) -> None:
        import causalci.cli as cli
        import causalci.counts as counts
        import causalci.coverage as coverage
        import causalci.graph as graph

        def unbounded(result):
            return result.unbounded

        def violations(report):
            return len(report.violations)

        def replications(report):
            return report.replications

        self.wrap(cli, 'main', 'cli.main')
        for attr in ('effect_interval', 'backdoor_cs_anytime', 'frontdoor_cs_anytime'):
            self.wrap(cli, attr, 'effects.interval', unbounded)
        for owner in (cli, graph):
            for attr in ('check_backdoor', 'check_frontdoor'):
                self.wrap(owner, attr, 'graph.check', violations)
        self.wrap(coverage, 'run_coverage', 'coverage.run_coverage', replications)
        self.wrap(coverage, 'effect_interval', 'effects.interval', unbounded)
        self.wrap(coverage, 'sample_iid', 'simulator.sample_iid', len)
        self.wrap(coverage, 'sample_adaptive', 'simulator.sample_adaptive', len)
        self.wrap(policy_class, 'choose', 'simulator.policy_choose')
        self.wrap(graph, 'enumerate_paths', 'graph.enumerate_paths', len)
        self.wrap(graph, 'path_blocked', 'graph.path_blocked')
        # read_jsonl is a generator: parsing happens in each next(), so each
        # row is its own span, a sibling of the ingest that consumes it
        read_id = self._id['counts.read_jsonl']
        self._swap(counts, 'read_jsonl', counts.read_jsonl,
                   self.traced_generator(counts.read_jsonl, read_id))
        ingest = counts.CountTable.ingest
        self._swap(counts.CountTable, 'ingest', ingest,
                   self.traced_ingest(ingest, self._id['counts.ingest']))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def calibrate(self) -> None:
        """Measure the tracer's cost per span on no-op calls, with a scratch
        tracer: the mean no-op span duration, less the no-op itself, is the
        cost inside a span; the rest of what tracing adds to a call is the
        cost outside it."""
        calls = range(CALIBRATION_CALLS)
        n = len(calls)

        def call_loop(f):
            t0 = perf_counter()
            for i in calls:
                f(i)
            return perf_counter() - t0

        def generator_loop(f):
            t0 = perf_counter()
            for _ in f(calls):
                pass
            return perf_counter() - t0

        costs = {}
        for kind, loop, wrapper in (('call', call_loop, 'traced'),
                                    ('generator', generator_loop, 'traced_generator')):
            inside, outside = [], []
            for _ in range(CALIBRATION_ROUNDS):
                probe = Tracer()
                plain = _noop if kind == 'call' else iter
                direct = loop(plain) / n
                added = loop(getattr(probe, wrapper)(plain, 0)) / n - direct
                spans = probe.arrays()
                span_in = float((spans['end'] - spans['start']).mean()) - direct
                inside.append(span_in)
                outside.append(added - span_in)
            costs[kind] = median(inside), median(outside)
        for i, name in enumerate(self.names):
            self.cost_in[i], self.cost_out[i] = costs['generator' if name in GENERATORS
                                                      else 'call']

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {'name': np.frombuffer(self.name, dtype=np.int8),
                'parent': np.frombuffer(self.parent, dtype=np.intc),
                'op': np.frombuffer(self.op, dtype=np.intc),
                'start': np.frombuffer(self.start, dtype=np.float64),
                'end': np.frombuffer(self.end, dtype=np.float64),
                'value': np.frombuffer(self.value, dtype=np.int64)}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), cost_in=self.cost_in,
                 cost_out=self.cost_out, **self.arrays())

    def _costs(self, spans):
        """Per span: self time net of tracer cost, and the tracer cost charged
        outside it (to its parent, or to no span at the top level)."""
        duration = spans['end'] - spans['start']
        cost_in = self.cost_in[spans['name']]
        cost_out = self.cost_out[spans['name']]
        nested = spans['parent'] >= 0
        charged = np.bincount(spans['parent'][nested],
                              weights=duration[nested] + cost_out[nested],
                              minlength=len(duration))
        return duration - cost_in - charged, cost_out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        spans = self.arrays()
        own, _ = self._costs(spans)
        totals = np.bincount(spans['name'], weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self, ops: int, wall_s: float, overhead_frac: float,
                      emitted) -> dict[str, float]:
        """Every per-layer metric, per op, over ``ops`` traced ops that took
        ``wall_s`` seconds of wall time in all."""
        spans = self.arrays()
        selfs = self.self_times()
        calls = np.bincount(spans['name'], minlength=len(self.names))
        values = np.bincount(spans['name'], weights=spans['value'],
                             minlength=len(self.names))
        per = 1.0 / ops

        def count(span):
            return int(calls[self._id[span]])

        def total(span):
            return int(values[self._id[span]])

        def ratio(a, b):
            return a / b if b else 0.0

        out = {span + '.self_s': selfs[span] * per for span in SPANS}
        out.update({metric: count(span) * per for metric, span in CALLS.items()})
        out.update({metric: total(span) * per for metric, span in VALUES.items()})
        rows = count('counts.ingest')
        out['counts.checkpoints_per_row'] = ratio(total('counts.ingest'), rows)
        out['effects.interval.unbounded_frac'] = ratio(total('effects.interval'),
                                                       count('effects.interval'))
        out['effects.evals_per_row'] = ratio(count('effects.interval'), rows)
        out['cli.emit.records'] = emitted['records'] * per
        out['cli.emit.bytes'] = emitted['bytes'] * per
        _, cost_out = self._costs(spans)
        top = spans['parent'] < 0
        top_time = (spans['end'][top] - spans['start'][top] + cost_out[top]).sum()
        out['trace.overhead_frac'] = overhead_frac
        out['trace.unattributed_s'] = (wall_s - float(top_time)) * per
        out['trace.span_cost_s'] = float((self.cost_in[spans['name']]
                                          + cost_out).sum()) * per
        return {name: out[name] for name in LAYER_METRICS}

    def dominant_layer(self) -> tuple[str, float]:
        """The span with the most self time and its share of all span time."""
        selfs = self.self_times()
        total = sum(selfs.values())
        name = max(selfs, key=selfs.get)
        return name, selfs[name] / total if total else 0.0
