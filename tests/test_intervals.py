import math

import numpy as np
import pytest

from helpers import (BinOp, ProbInterval, Var, eval_expr, exact_range, iv_add,
                     iv_mul, iv_sub, node_midpoints)


def test_iv_add_examples():
    assert iv_add(ProbInterval(0.3, 0), ProbInterval(0.4, 0)) == ProbInterval(0.7, 0)
    s = iv_add(ProbInterval(0.5, 0.1), ProbInterval(0.5, 0.1))
    assert (s.midpoint, s.halfwidth) == (1.0, 0.2)
    assert s.realized() == (0.8, 1.0)  # clipped at 1
    assert iv_add(ProbInterval(0.5, math.inf), ProbInterval(0.2, 0)).unbounded


def test_iv_mul_examples():
    p = iv_mul(ProbInterval(0.5, 0.1), ProbInterval(0.4, 0.2))
    assert (p.midpoint, p.halfwidth) == (0.2, pytest.approx(0.3))
    assert p.realized() == (0.0, 0.5)
    # the exact product range [0.08, 0.36] sits inside
    assert p.lower <= 0.08 and 0.36 <= p.upper
    x = ProbInterval(0.37, 0)
    assert iv_mul(x, ProbInterval(1.0, 0)) == ProbInterval(0.37, 0)
    q = iv_mul(ProbInterval(0.5, 0.1), ProbInterval(0.5, 0.1))
    assert (q.midpoint, q.halfwidth) == (0.25, pytest.approx(0.2))
    assert q.lower <= 0.16 and 0.36 <= q.upper


def test_unbounded_realizes_unit_interval():
    u = ProbInterval(0.4, math.inf)
    assert u.realized() == (0.0, 1.0)
    assert u.unbounded


def test_commutative_realized_sets():
    a, b = ProbInterval(0.3, 0.2), ProbInterval(0.6, 0.05)
    assert iv_add(a, b).realized() == iv_add(b, a).realized()
    assert iv_mul(a, b).realized() == iv_mul(b, a).realized()


def test_monotone_in_halfwidth():
    a, b = ProbInterval(0.4, 0.1), ProbInterval(0.5, 0.1)
    wider = ProbInterval(0.4, 0.25)
    for op in (iv_add, iv_mul, iv_sub):
        lo1, hi1 = op(a, b).realized()
        lo2, hi2 = op(wider, b).realized()
        assert lo2 <= lo1 and hi1 <= hi2


def test_eval_expr_examples():
    e = Var('a') * Var('b') + Var('c')
    res = eval_expr(e, {'a': ProbInterval(0.5, 0), 'b': ProbInterval(0.5, 0),
                        'c': ProbInterval(0.25, 0)})
    assert (res.midpoint, res.halfwidth) == (0.5, 0)

    res = eval_expr(Var('a') * Var('b'),
                    {'a': ProbInterval(0.5, 0.1), 'b': ProbInterval(0.5, 0.1)})
    assert (res.midpoint, res.halfwidth) == (0.25, pytest.approx(0.2))

    # duplicate leaves count twice
    res = eval_expr(Var('a') + Var('a'), {'a': ProbInterval(0.3, 0.05)})
    assert (res.midpoint, res.halfwidth) == (0.6, pytest.approx(0.10))


def test_eval_expr_unbound_leaf():
    with pytest.raises(ValueError, match="unbound"):
        eval_expr(Var('a') + Var('b'), {'a': ProbInterval(0.5, 0)})


def test_halfwidth_is_sum_over_occurrences():
    e = (Var('a') + Var('b')) * Var('a') - Var('c')
    bindings = {'a': ProbInterval(0.2, 0.01), 'b': ProbInterval(0.3, 0.02),
                'c': ProbInterval(0.1, 0.04)}
    res = eval_expr(e, bindings)
    assert res.halfwidth == pytest.approx(0.01 + 0.02 + 0.01 + 0.04)


def test_exact_range_product():
    rng = exact_range(Var('a') * Var('b'),
                      {'a': ProbInterval(0.5, 0.1), 'b': ProbInterval(0.5, 0.1)})
    assert rng == (pytest.approx(0.16), pytest.approx(0.36))


def test_exact_range_point():
    e = Var('a') * Var('b') + Var('c')
    bindings = {k: ProbInterval(v, 0) for k, v in
                {'a': 0.5, 'b': 0.5, 'c': 0.25}.items()}
    lo, hi = exact_range(e, bindings)
    assert lo == hi == pytest.approx(0.5)


def test_exact_range_self_difference():
    # repeated leaves range independently; negatives are infeasible
    lo, hi = exact_range(Var('a') - Var('a'), {'a': ProbInterval(0.5, 0.1)})
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(0.2)


def test_exact_range_guard():
    e = Var('a')
    for _ in range(12):
        e = e + Var('a')
    with pytest.raises(ValueError, match="too large"):
        exact_range(e, {'a': ProbInterval(0.5, 0.1)})


def random_expr(rng, names, leaves):
    if leaves == 1:
        return Var(names[rng.integers(len(names))])
    split = int(rng.integers(1, leaves))
    op = '+-*'[rng.integers(3)]
    return BinOp(op, random_expr(rng, names, split),
                 random_expr(rng, names, leaves - split))


def random_bindings(rng, expr):
    out = {}
    for leaf in expr.leaves():
        if leaf.name not in out:
            mid = float(rng.random())
            hw = float(rng.choice([0.0, rng.random() * 0.5, math.inf],
                                  p=[0.15, 0.8, 0.05]))
            out[leaf.name] = ProbInterval(mid, hw)
    return out


def in_guarantee_domain(expr, bindings):
    return all(0.0 <= m <= 1.0 for m in node_midpoints(expr, bindings))


def assert_sound(expr, bindings):
    got = exact_range(expr, bindings)
    if got is None:
        return
    realized = eval_expr(expr, bindings).realized()
    assert realized is not None
    assert realized[0] - 1e-12 <= got[0]
    assert got[1] <= realized[1] + 1e-12


def test_soundness_random_expressions():
    """Containment over the guarantee domain (every node midpoint in
    [0,1]); out-of-domain draws are rejected and resampled."""
    rng = np.random.default_rng(99)
    names = list('abcdef')
    checked = 0
    while checked < 400:
        expr = random_expr(rng, names, int(rng.integers(1, 7)))
        bindings = random_bindings(rng, expr)
        if not in_guarantee_domain(expr, bindings):
            continue
        assert_sound(expr, bindings)
        checked += 1


def test_soundness_overflowing_sum():
    # (a+b)*c with saturated inputs: intermediate values above 1 are
    # infeasible under the pointwise semantics
    e = (Var('a') + Var('b')) * Var('c')
    bindings = {'a': ProbInterval(1.0, 0.0), 'b': ProbInterval(1.0, 0.0),
                'c': ProbInterval(0.5, 0.5)}
    assert exact_range(e, bindings) is None
    assert_sound(e, bindings)


def test_product_rule_boundary_outside_unit_midpoints():
    """Documented limit of the superset rule: with an intermediate midpoint
    above 1 whose clipped set is still non-empty, the composed pointwise
    set can escape midpoint ± summed radii.  The adjustment polynomials
    the effect constructions build never enter this territory."""
    e = (Var('d') * (Var('d') + Var('f'))) * (Var('c') + Var('c'))
    bindings = {'d': ProbInterval(0.997095815089673, 0.3412055171245902),
                'f': ProbInterval(0.5538043054426417, 0.2664446101960489),
                'c': ProbInterval(0.5971051150731205, 0.11580764846258124)}
    assert not in_guarantee_domain(e, bindings)
    lo, _ = exact_range(e, bindings)
    assert lo < eval_expr(e, bindings).lower  # containment genuinely fails
