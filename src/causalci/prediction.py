"""Prediction set for the next intervened outcome (binary case).

For binary treatment/outcome/covariate data collected under adaptive
treatment assignment, a candidate outcome y belongs to the prediction set
iff the right endpoint (midpoint + half-width) of the tightened-constant
adaptive back-door interval for P(y | do(x)), run at level delta/2, exceeds
delta/2.  At that level the binary constants 6/delta and 10/delta become
12/delta and 20/delta.  The test is strict; any z-cell with fewer than two
treated occurrences makes the endpoint unbounded, so both outcomes are
then included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import CountTable
from .effects import EffectQuery, effect_interval


@dataclass(frozen=True)
class PredictionSet:
    members: tuple
    threshold: float
    diagnostics: tuple[dict, ...]

    def __contains__(self, y) -> bool:
        return y in self.members


def prediction_set(table: CountTable, x, delta: float) -> PredictionSet:
    """Outcomes whose right interval endpoint stays above delta/2."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    threshold = delta / 2
    members = []
    diagnostics = []
    for y in table.layout.y_domain:
        itv = effect_interval(table, EffectQuery('backdoor', x, y, threshold,
                                                 'adaptive-fixed', binary_toy=True))
        endpoint = itv.midpoint + itv.halfwidth
        member = endpoint > threshold
        if member:
            members.append(y)
        diagnostics.append({"y": y, "midpoint": itv.midpoint, "endpoint": endpoint,
                            "member": member})
    return PredictionSet(tuple(members), threshold, tuple(diagnostics))
