"""Monte Carlo coverage harness for the interval constructions.

One replication simulates a stream from a model, builds a count table,
computes the requested interval and records whether it contains the exact
adjustment-formula value of the model.  The stream goes from sampler to
table as integer cell codes (``_iid_codes`` / ``_adaptive_codes`` into
:meth:`CountTable.ingest_codes`), never as observations; the public
samplers decode the same codes, so the streams are the same.

For the anytime regime the defining property of a confidence sequence is
validated: the *running intersection* of the per-time intervals must
contain the truth.  Every element of the sequence reads only dyadic
tallies and dyadic floors of counts, so it changes only where the count of
a condition the query reads reaches a dyadic level, and the count table
logs each level with the stream position that reached it.  So the whole
stream is ingested at once, and :func:`confidence_sequence` reads those
logs once, yielding one element per segment (a run of positions over which
none of the query's reads moves) up to the final time.  The replication
covers if every element does, and its half-width is the last segment's,
the element at the final time.
Unbounded intervals realize [0,1] and therefore count as covering.

Replications draw their seeds by spawning one SeedSequence, so results are
reproducible and independent of scheduling; ``workers > 1`` distributes
replications over processes with an associative reduction.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from statistics import median

import numpy as np

from .effects import EffectQuery, confidence_sequence, effect_interval, true_effect
from .prediction import prediction_set
# sample_iid and sample_adaptive are unused here, and kept: the benchmark's tracer wraps them
from .simulator import CausalModel, CptPolicy, Policy, _adaptive_codes, _iid_codes, \
    _require_integer, _require_length, draw_intervened_outcome, sample_adaptive, sample_iid


@dataclass(frozen=True)
class CoverageReport:
    criterion: str
    regime: str
    replications: int
    n: int
    delta: float
    true_value: float
    coverage: float
    mc_se: float
    mean_halfwidth: float
    median_halfwidth: float
    unbounded_fraction: float

    def to_json(self) -> dict:
        """The fields in declaration order; an unbounded half-width is null."""
        record = {"format_version": 1, "kind": "coverage_report", **asdict(self)}
        for key in ("mean_halfwidth", "median_halfwidth"):
            if not math.isfinite(record[key]):
                record[key] = None
        return record

    def summary(self) -> str:
        hw = "inf" if math.isinf(self.mean_halfwidth) else f"{self.mean_halfwidth:.4f}"
        return (f"{self.criterion}/{self.regime}  R={self.replications} n={self.n} "
                f"delta={self.delta}  coverage={self.coverage:.4f} "
                f"(se={self.mc_se:.4f})  mean_hw={hw} "
                f"unbounded={self.unbounded_fraction:.3f}  truth={self.true_value:.4f}")


def _replicate(model: CausalModel, query: EffectQuery, n: int,
               policy: Policy | None, theta: float, seed) -> tuple[bool, float]:
    """One replication: (covered?, final halfwidth)."""
    if query.regime == 'iid':
        codes = _iid_codes(model, n, seed)
    else:
        codes = _adaptive_codes(model, policy or CptPolicy(), n, seed)
    table = model.count_table()
    table.ingest_codes(codes)
    if query.regime != 'anytime':
        itv = effect_interval(table, query)
        return itv.contains(theta), itv.halfwidth
    covered = True  # the running intersection covers iff every element does
    for _, _, itv in confidence_sequence(table, query):
        covered = covered and itv.contains(theta)
    return covered, itv.halfwidth  # the last segment's interval is the element at n


def run_coverage(model: CausalModel, query: EffectQuery, n: int,
                 replications: int, seed=0, policy: Policy | None = None,
                 workers: int = 1) -> CoverageReport:
    """Empirical coverage of the queried construction over replications."""
    n, replications = _require_length(n), _require_integer('replications', replications)
    if replications < 1:
        raise ValueError("need at least one replication")
    workers = _require_integer('workers', workers)
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if query.regime == 'iid' and policy is not None:
        raise ValueError("a policy only applies to the adaptive regimes")
    theta = true_effect(model, query.x, query.y, query.criterion)
    seeds = np.random.SeedSequence(seed).spawn(replications)
    jobs = [(model, query, n, policy, theta, s) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, *zip(*jobs), chunksize=32))
    else:
        results = [_replicate(*job) for job in jobs]

    hits = sum(covered for covered, _ in results)
    halfwidths = [hw for _, hw in results]
    finite = [hw for hw in halfwidths if math.isfinite(hw)]
    coverage = hits / replications
    return CoverageReport(
        criterion=query.criterion,
        regime=query.regime,
        replications=replications,
        n=n,
        delta=query.delta,
        true_value=theta,
        coverage=coverage,
        mc_se=math.sqrt(coverage * (1 - coverage) / replications),
        # left to right: since Python 3.12 builtin sum rounds otherwise
        mean_halfwidth=reduce(add, finite) / len(finite) if finite else math.inf,
        median_halfwidth=median(halfwidths) if halfwidths else math.inf,
        unbounded_fraction=1 - len(finite) / replications,
    )


def run_prediction_coverage(model: CausalModel, x, delta: float, n: int,
                            replications: int, seed=0,
                            policy: Policy | None = None) -> dict:
    """Miss frequency of the prediction set against an outcome drawn from
    the intervened model after each adaptive stream."""
    n, replications = _require_length(n), _require_integer('replications', replications)
    if replications < 1:
        raise ValueError("need at least one replication")
    misses = 0
    sizes = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        stream_seed, outcome_seed = child.spawn(2)
        codes = _adaptive_codes(model, policy or CptPolicy(), n, stream_seed)
        table = model.count_table()
        table.ingest_codes(codes)
        gamma = prediction_set(table, x, delta)
        y = draw_intervened_outcome(model, x,
                                    np.random.Generator(np.random.PCG64(outcome_seed)))
        misses += y not in gamma
        sizes.append(len(gamma.members))
    rate = misses / replications
    return {
        "format_version": 1,
        "kind": "prediction_coverage",
        "replications": replications,
        "n": n,
        "delta": delta,
        "miss_rate": rate,
        "mc_se": math.sqrt(rate * (1 - rate) / replications),
        "mean_set_size": sum(sizes) / len(sizes),
    }
