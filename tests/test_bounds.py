import math

import numpy as np
import pytest

from causalci.bounds import hoeffding_term, lil_term
from causalci.counts import dyadic_floor
from helpers import UNBOUNDED, Radius, hoeffding_halfwidth, lil_halfwidth

# frozen against a 40-digit evaluation of the defining formulas
HOEFFDING_200_005 = 0.09603227913199208
LIL_1024_005 = 0.06553127581073093


def test_hoeffding_frozen_value():
    assert float(hoeffding_halfwidth(200, 0.05)) == pytest.approx(
        HOEFFDING_200_005, abs=1e-15)


def test_hoeffding_quadruple_n_halves_radius():
    # 2n scales by an exact power of two, so the halving is exact
    assert float(hoeffding_halfwidth(800, 0.05)) == HOEFFDING_200_005 / 2


def test_hoeffding_no_data_unbounded():
    for delta in (0.5, 0.05, 0.001):
        r = hoeffding_halfwidth(0, delta)
        assert r.unbounded
        assert math.isinf(float(r))


def test_hoeffding_monotone():
    for delta in (0.2, 0.05):
        widths = [float(hoeffding_halfwidth(n, delta)) for n in range(1, 200)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
    assert float(hoeffding_halfwidth(50, 0.01)) > float(hoeffding_halfwidth(50, 0.1))


def test_lil_frozen_value():
    assert float(lil_halfwidth(1024, 0.05)) == pytest.approx(LIL_1024_005, abs=1e-15)


def test_lil_unbounded_below_two():
    assert lil_halfwidth(0, 0.05).unbounded
    assert lil_halfwidth(1, 0.05).unbounded
    assert not lil_halfwidth(2, 0.05).unbounded


def test_lil_dyadic_plateau():
    assert float(lil_halfwidth(1024, 0.05)) == float(lil_halfwidth(2047, 0.05))
    assert float(lil_halfwidth(1024, 0.05)) > float(lil_halfwidth(2048, 0.05))


def test_lil_strictly_decreasing_across_blocks():
    for delta in (0.2, 0.05, 0.001):
        for k in range(1, 21):
            assert float(lil_halfwidth(2 ** (k + 1), delta)) \
                < float(lil_halfwidth(2 ** k, delta))


def test_lil_dominates_hoeffding():
    for delta in (0.2, 0.05, 0.001):
        for n in (2, 3, 5, 17, 64, 1000, 4096):
            assert float(lil_halfwidth(n, delta)) >= float(hoeffding_halfwidth(n, delta))


def test_delta_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            hoeffding_halfwidth(10, bad)
        with pytest.raises(ValueError):
            lil_halfwidth(10, bad)


def test_radius_rejects_negative():
    with pytest.raises(ValueError):
        Radius(-0.1)
    assert UNBOUNDED.unbounded


def test_terms_match_halfwidths():
    assert hoeffding_term(37, 2 / 0.07) == float(hoeffding_halfwidth(37, 0.07))
    assert lil_term(37, 3.3 / 0.07) == float(lil_halfwidth(37, 0.07))


def test_lil_sequence_empirical_coverage_smoke():
    """|p - mean of first floor(n) draws| < radius simultaneously for all
    n <= 512 should hold in well over 95% of replications (conservative)."""
    delta = 0.05
    horizon = 512
    reps = 300
    rng = np.random.default_rng(2024)
    checkpoints = [2 ** k for k in range(1, horizon.bit_length())]
    radii = {k: float(lil_halfwidth(k, delta)) for k in checkpoints}
    for p in (0.1, 0.5, 0.9):
        draws = rng.random((reps, horizon)) < p
        cums = np.cumsum(draws, axis=1)
        ok = np.ones(reps, dtype=bool)
        for k in checkpoints:
            ok &= np.abs(p - cums[:, k - 1] / k) < radii[k]
        coverage = ok.mean()
        se = math.sqrt(max(coverage * (1 - coverage), 1e-9) / reps)
        assert coverage >= 1 - delta - 3 * se
