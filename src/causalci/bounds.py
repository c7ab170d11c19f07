"""Closed-form concentration radii for Bernoulli means.

Two primitives:

* the fixed-sample Hoeffding radius ``sqrt(ln(2/delta) / (2n))``, valid for
  the empirical mean of n bounded IID observations, and
* the dyadic iterated-logarithm radius
  ``sqrt((2 ln log2(dyadic_floor(n)) + ln(3.3/delta)) / (2 dyadic_floor(n)))``,
  paired with the empirical mean of the first ``dyadic_floor(n)``
  observations, which is simultaneously valid over all n (a confidence
  sequence).  The 3.3 constant upper-bounds pi^2/3 from the level-splitting
  across dyadic blocks; ``ln log2(1)`` is taken to be infinite, so the
  radius is unbounded until the second observation.

Splitting delta across several estimated probabilities is the caller's
job: both functions take the ratio inside the logarithm (``2/delta`` and
``3.3/delta`` for a single delta), so callers carry pre-split constants.
Unboundedness is explicit.  Each single term is within one ulp of its real
value, possibly below it; a sum of terms is not rounded upward either.
"""

from __future__ import annotations

import math

from .counts import dyadic_floor


def hoeffding_term(n: int, ratio: float) -> float:
    """sqrt(ln(ratio) / (2n)); infinite when n == 0."""
    if n == 0:
        return math.inf
    return math.sqrt(math.log(ratio) / (2 * n))


def lil_term(count: int, ratio: float) -> float:
    """sqrt((2 ln log2(k) + ln(ratio)) / (2k)) with k = dyadic_floor(count);
    infinite when k < 2."""
    k = dyadic_floor(count)
    if k < 2:
        return math.inf
    j = k.bit_length() - 1
    return math.sqrt((2 * math.log(j) + math.log(ratio)) / (2 * k))
