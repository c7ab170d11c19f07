"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Monte Carlo thresholds follow the conservative rule
"nominal level minus three Monte Carlo standard errors"; formula audits
compare against 40-digit re-evaluations of the displayed expressions at
1e-12, and the structural expression-route check uses the same tolerance.
"""

import functools
import math
import time
from itertools import product

import numpy as np
import pytest

from causalci.coverage import run_coverage, run_prediction_coverage
from causalci.effects import EffectQuery, effect_interval
from causalci.graph import check_backdoor, check_frontdoor
from causalci.simulator import AlternatingAdversaryPolicy
from helpers import (eval_expr, exact_range, fig1_dag, fig1_model, frontdoor_model,
                     grid_table, interval_via_expression, lil_halfwidth,
                     mp_backdoor_adaptive_halfwidth,
                     mp_backdoor_anytime_halfwidth, mp_backdoor_iid_halfwidth,
                     mp_backdoor_iid_midpoint, mp_frontdoor_adaptive_halfwidth,
                     mp_frontdoor_anytime_halfwidth, mp_frontdoor_iid_halfwidth,
                     naive_midpoint, napkin_dag, oracle_backdoor,
                     oracle_frontdoor, random_dag, random_table)
from test_intervals import in_guarantee_domain, random_bindings, random_expr

TOL = 1e-12


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.time()
            try:
                detail = fn()
            except BaseException:
                print(f"\n[acceptance] criterion {number:2d} FAIL  {description}")
                raise
            elapsed = time.time() - started
            extra = f" — {detail}" if detail else ""
            print(f"\n[acceptance] criterion {number:2d} PASS  {description}"
                  f"{extra} ({elapsed:.1f}s)")
        return run
    return wrap


def _coverage_ok(report, level):
    floor = level - 3 * max(report.mc_se, 1e-6)
    assert report.coverage >= floor, (
        f"coverage {report.coverage:.4f} below {floor:.4f} ({report.summary()})")


@criterion(1, "IID back-door interval coverage, binary constants")
def test_criterion_01():
    model = fig1_model()  # P(z=1)=0.4, P(y=1|do-arm,z)=0.3/0.8 -> truth 0.50
    query = EffectQuery('backdoor', 1, 1, 0.1, regime='iid', binary_toy=True)
    report = run_coverage(model, query, n=500, replications=1000, seed=1001)
    assert report.true_value == pytest.approx(0.50, abs=1e-12)
    _coverage_ok(report, 0.90)
    return f"coverage {report.coverage:.3f}, truth {report.true_value:.2f}"


@criterion(2, "adaptive back-door coverage: fixed horizon and running intersection")
def test_criterion_02():
    model = fig1_model()
    fixed = run_coverage(model,
                         EffectQuery('backdoor', 1, 1, 0.1, regime='adaptive-fixed'),
                         n=512, replications=500, seed=1002,
                         policy=AlternatingAdversaryPolicy())
    _coverage_ok(fixed, 0.90)
    anytime = run_coverage(model,
                           EffectQuery('backdoor', 1, 1, 0.1, regime='anytime'),
                           n=4096, replications=500, seed=1003,
                           policy=AlternatingAdversaryPolicy())
    _coverage_ok(anytime, 0.90)
    return (f"fixed-horizon {fixed.coverage:.3f}, "
            f"intersection-to-4096 {anytime.coverage:.3f}")


@criterion(3, "front-door coverage under all three regimes")
def test_criterion_03():
    model = frontdoor_model()
    iid = run_coverage(model, EffectQuery('frontdoor', 1, 1, 0.1),
                       n=500, replications=1000, seed=1004)
    _coverage_ok(iid, 0.90)
    fixed = run_coverage(model,
                         EffectQuery('frontdoor', 1, 1, 0.1, regime='adaptive-fixed'),
                         n=512, replications=500, seed=1005,
                         policy=AlternatingAdversaryPolicy())
    _coverage_ok(fixed, 0.90)
    anytime = run_coverage(model,
                           EffectQuery('frontdoor', 1, 1, 0.1, regime='anytime'),
                           n=4096, replications=500, seed=1006,
                           policy=AlternatingAdversaryPolicy())
    _coverage_ok(anytime, 0.90)
    return (f"iid {iid.coverage:.3f}, fixed {fixed.coverage:.3f}, "
            f"anytime {anytime.coverage:.3f}")


@criterion(4, "interval-arithmetic soundness on 10,000 random expressions")
def test_criterion_04():
    rng = np.random.default_rng(1007)
    names = list('abcdef')
    checked = informative = 0
    while checked < 10_000:
        expr = random_expr(rng, names, int(rng.integers(1, 7)))
        bindings = random_bindings(rng, expr)
        if not in_guarantee_domain(expr, bindings):
            continue
        tight = exact_range(expr, bindings)
        checked += 1
        if tight is None:
            continue
        informative += 1
        realized = eval_expr(expr, bindings).realized()
        assert realized is not None
        assert realized[0] - TOL <= tight[0], (expr, bindings)
        assert tight[1] <= realized[1] + TOL, (expr, bindings)
    return f"10,000 cases, {informative} with non-empty composed sets"


def _audit_table(table, obs, xt, yv):
    checks = [
        (EffectQuery('backdoor', xt, yv, 0.07),
         mp_backdoor_iid_halfwidth(table, obs, xt, 0.07)),
        (EffectQuery('backdoor', xt, yv, 0.07, regime='adaptive-fixed'),
         mp_backdoor_adaptive_halfwidth(table, obs, xt, 0.07)),
        (EffectQuery('backdoor', xt, yv, 0.07, regime='anytime'),
         mp_backdoor_anytime_halfwidth(table, obs, xt, 0.07)),
        (EffectQuery('frontdoor', xt, yv, 0.07),
         mp_frontdoor_iid_halfwidth(table, obs, xt, 0.07)),
        (EffectQuery('frontdoor', xt, yv, 0.07, regime='adaptive-fixed'),
         mp_frontdoor_adaptive_halfwidth(table, obs, xt, 0.07)),
        (EffectQuery('frontdoor', xt, yv, 0.07, regime='anytime'),
         mp_frontdoor_anytime_halfwidth(table, obs, xt, 0.07)),
    ]
    for query, mp_value in checks:
        itv = effect_interval(table, query)
        if math.isinf(itv.halfwidth):
            assert mp_value == math.inf
        else:
            assert abs(itv.halfwidth - float(mp_value)) <= TOL, query
        mid = naive_midpoint(table, obs, xt, yv, query.criterion, query.regime)
        assert abs(itv.midpoint - mid) <= TOL, query
        via = interval_via_expression(table, query)
        assert abs(itv.midpoint - via.midpoint) <= TOL, query
        if math.isinf(itv.halfwidth):
            assert math.isinf(via.halfwidth)
        else:
            assert abs(itv.halfwidth - via.halfwidth) <= TOL, query
    for form in ('horner-z', 'horner-x'):
        query = EffectQuery('frontdoor', xt, yv, 0.07, frontdoor_form=form)
        got = effect_interval(table, query).halfwidth
        want = mp_frontdoor_iid_halfwidth(table, obs, xt, 0.07, form=form)
        if math.isinf(got):
            assert want == math.inf
        else:
            assert abs(got - float(want)) <= TOL
        via = interval_via_expression(table, query)
        if math.isinf(got):
            assert math.isinf(via.halfwidth)
        else:
            assert abs(got - via.halfwidth) <= TOL


@criterion(5, "half-width audit: displayed formulas and expression route, 200 tables")
def test_criterion_05():
    rng = np.random.default_rng(1008)
    base = fig1_model().count_table()
    from helpers import code_rows, eight_obs_stream
    for obs in (eight_obs_stream(),):  # pinned edge stream first
        base.ingest_codes(code_rows(base, obs))
        _audit_table(base, obs, 1, 1)
    for _ in range(199):
        table, obs = random_table(rng, min_n=5, max_n=900)
        _audit_table(table, obs, table.x_domain[0], table.y_domain[-1])
    return "200 tables x 8 constructions, tolerance 1e-12"


@criterion(6, "regime ordering of half-widths on 200 random tables")
def test_criterion_06():
    rng = np.random.default_rng(1009)
    comparisons = 0
    for _ in range(200):
        table, _ = random_table(rng, min_n=20, max_n=900)
        xt, yv = table.x_domain[0], table.y_domain[0]
        for criterion_name in ('backdoor', 'frontdoor'):
            widths = [effect_interval(table, EffectQuery(criterion_name, xt, yv,
                                                         0.1, regime)).halfwidth
                      for regime in ('iid', 'adaptive-fixed', 'anytime')]
            if all(math.isfinite(w) for w in widths):
                assert widths[0] <= widths[1] <= widths[2]
                comparisons += 1
    assert comparisons >= 100
    return f"{comparisons} fully finite table/criterion pairs, 0 violations"


@criterion(7, "Horner-form crossover matches the analytic threshold on the full grid")
def test_criterion_07():
    n = 2000
    points = 0
    for cx, cz in product(range(2, 7), repeat=2):
        threshold = ((1 - 1 / cx) / (1 - 1 / cz)) ** 2
        for step in range(1, 20):
            share = step * 0.05
            treated = round(share * n)
            if abs(treated / n - threshold) < 1e-9:
                continue  # exact boundary excluded
            table = grid_table(cx, cz, n=n, treated=treated)
            v1 = effect_interval(
                table, EffectQuery('frontdoor', 0, 1, 0.1,
                                   frontdoor_form='horner-z')).halfwidth
            v2 = effect_interval(
                table, EffectQuery('frontdoor', 0, 1, 0.1,
                                   frontdoor_form='horner-x')).halfwidth
            assert math.isfinite(v1) and math.isfinite(v2), (cx, cz, share)
            assert (v1 < v2) == (treated / n < threshold), (cx, cz, share)
            points += 1
    return f"{points} grid points, 0 sign violations"


@criterion(8, "prediction-set miss rate under the adaptive stream")
def test_criterion_08():
    model = fig1_model()
    report = run_prediction_coverage(model, 1, 0.1, n=2048, replications=1000,
                                     seed=1010,
                                     policy=AlternatingAdversaryPolicy())
    bound = 0.10 + 3 * max(report["mc_se"], 1e-6)
    assert report["miss_rate"] <= bound, report
    return (f"miss rate {report['miss_rate']:.4f} <= {bound:.4f}, "
            f"mean set size {report['mean_set_size']:.2f}")


@criterion(9, "iterated-logarithm confidence sequence: simultaneous containment")
def test_criterion_09():
    delta = 0.05
    horizon = 4096
    replications = 2000
    rng = np.random.default_rng(1011)
    # the estimate and the radius are constant on each dyadic block, so
    # simultaneous containment over n <= 4096 reduces to the checkpoints
    checkpoints = [2 ** k for k in range(1, horizon.bit_length())]
    radii = {k: float(lil_halfwidth(k, delta)) for k in checkpoints}
    rates = {}
    for p in (0.1, 0.5, 0.9):
        draws = rng.random((replications, horizon)) < p
        cums = np.cumsum(draws, axis=1)
        ok = np.ones(replications, dtype=bool)
        for k in checkpoints:
            ok &= np.abs(p - cums[:, k - 1] / k) < radii[k]
        coverage = float(ok.mean())
        se = math.sqrt(max(coverage * (1 - coverage), 1e-9) / replications)
        assert coverage >= 0.95 - 3 * se, (p, coverage)
        rates[p] = coverage
    return ", ".join(f"p={p}: {c:.3f}" for p, c in rates.items())


@criterion(10, "criterion checker vs brute-force d-separation oracle")
def test_criterion_10():
    assert check_backdoor(fig1_dag(), {"X"}, {"Y"}, {"Z"}).satisfied
    napkin_back = check_backdoor(napkin_dag(), {"X"}, {"Y"}, {"Z"})
    assert not napkin_back.satisfied
    assert any("X←V→W←U→Y" in v for v in napkin_back.violations)
    napkin_front = check_frontdoor(napkin_dag(), "X", "Y", {"Z"})
    assert not napkin_front.satisfied
    assert any("X→Y" in v for v in napkin_front.violations)

    rng = np.random.default_rng(1012)
    agreements = 0
    while agreements < 1000:
        dag = random_dag(rng)
        names = list(dag.vertices)
        rng.shuffle(names)
        if len(names) < 3:
            continue
        take = int(rng.integers(1, 3)) if len(names) >= 4 else 1
        xs, ys = set(names[:take]), {names[take]}
        zs = set(names[take + 1:take + 1 + int(rng.integers(1, 3))])
        if not zs:
            continue
        assert check_backdoor(dag, xs, ys, zs).satisfied \
            == oracle_backdoor(dag.vertices, dag.edges, xs, ys, zs)
        assert check_frontdoor(dag, names[0], names[1], {names[2]}).satisfied \
            == oracle_frontdoor(dag.vertices, dag.edges, names[0], names[1],
                                {names[2]})
        agreements += 1
    return "fixed witnesses verified; 1000 random DAGs, 100% agreement"
