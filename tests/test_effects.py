import hashlib
import math
import re
from itertools import product

import numpy as np
import pytest

from causalci.counts import Observation
from causalci.effects import (CRITERIA, FRONTDOOR_FORMS, REGIMES, EffectQuery,
                              backdoor_cs_anytime, effect_interval,
                              frontdoor_cs_anytime, true_effect)
from causalci.prediction import prediction_set
from helpers import (binary_table, eight_obs_stream, fig1_model,
                     frontdoor_model, grid_table, interval_via_expression,
                     random_table)

TOY_HW_8OBS = 2.663863269432442  # 40-digit evaluation of the binary-constant
                                 # formula on the eight-observation stream


def q(criterion='backdoor', x=1, y=1, delta=0.1, regime='iid', **kw):
    return EffectQuery(criterion, x, y, delta, regime, **kw)


def test_backdoor_midpoint_eight_obs():
    table = binary_table(eight_obs_stream())
    assert effect_interval(table, q()).midpoint == pytest.approx(2 / 3, abs=1e-15)


def test_backdoor_iid_toy_eight_obs():
    table = binary_table(eight_obs_stream())
    itv = effect_interval(table, q(binary_toy=True))
    assert itv.midpoint == pytest.approx(2 / 3, abs=1e-15)
    assert itv.halfwidth == pytest.approx(TOY_HW_8OBS, abs=1e-13)
    # half-width above 1: the realized interval clips to [0,1]
    assert (itv.lower, itv.upper) == (0.0, 1.0)
    assert itv.constants["hoeffding"]["form"] == "6/delta"


def test_backdoor_saturated_midpoint():
    table = binary_table([Observation(1, 1, (0,))] * 20)
    assert effect_interval(table, q()).midpoint == 1.0


def test_backdoor_unbounded_without_treated_observations():
    table = binary_table([Observation(0, 1, (0,)), Observation(0, 0, (1,))])
    itv = effect_interval(table, q())
    assert itv.midpoint == 0.0
    assert itv.unbounded
    assert (itv.lower, itv.upper) == (0.0, 1.0)


def test_backdoor_unbounded_with_one_empty_cell():
    # the treated value occurs with z=0 only
    table = binary_table([Observation(1, 1, (0,))] * 4
                         + [Observation(0, 0, (1,))] * 4)
    assert effect_interval(table, q()).unbounded


def test_empty_table_interval():
    itv = effect_interval(binary_table(), q())
    assert itv.n == 0
    assert itv.midpoint == 0.0
    assert itv.unbounded


def test_delta_monotonicity():
    table = binary_table(eight_obs_stream())
    wide = effect_interval(table, q(delta=0.01))
    narrow = effect_interval(table, q(delta=0.2))
    assert wide.halfwidth > narrow.halfwidth
    doubled = binary_table(eight_obs_stream() * 2)  # every cell count >= 2
    f_wide = effect_interval(doubled, q('frontdoor', delta=0.01,
                                        regime='adaptive-fixed'))
    f_narrow = effect_interval(doubled, q('frontdoor', delta=0.2,
                                          regime='adaptive-fixed'))
    assert math.isfinite(f_narrow.halfwidth)
    assert f_wide.halfwidth > f_narrow.halfwidth


def test_frontdoor_saturated_midpoint():
    table = binary_table([Observation(1, 1, (0,))] * 16)
    itv = effect_interval(table, q('frontdoor'))
    assert itv.midpoint == 1.0
    assert itv.unbounded  # the other x never occurs with any z


def test_frontdoor_unbounded_cases():
    # no treated observation at all
    table = binary_table([Observation(0, 1, (0,)), Observation(0, 0, (1,))])
    assert effect_interval(table, q('frontdoor')).unbounded


def test_adaptive_dyadic_midpoint_trace():
    # treated z=0 occurrences carry Y [1,0,1,1,0] -> dyadic fraction 3/4;
    # treated z=1 occurrences are four successes -> 1
    stream = []
    for y in (1, 0, 1, 1, 0):
        stream.append(Observation(1, y, (0,)))
    stream += [Observation(1, 1, (1,))] * 4
    stream += [Observation(0, 0, (0,))] * 3
    table = binary_table(stream)
    itv = effect_interval(table, q(regime='adaptive-fixed'))
    pz0, pz1 = 8 / 12, 4 / 12
    assert itv.midpoint == pytest.approx(pz0 * 0.75 + pz1 * 1.0, abs=1e-15)
    assert not itv.unbounded


def test_adaptive_unbounded_below_two_occurrences():
    stream = [Observation(1, 1, (0,))] * 4 + [Observation(1, 1, (1,))]
    table = binary_table(stream)  # z=1 треated count is 1
    assert effect_interval(table, q(regime='adaptive-fixed')).unbounded


def test_anytime_small_n_unbounded():
    table = binary_table(eight_obs_stream())
    itv = backdoor_cs_anytime(table, q(regime='anytime'), n=1)
    assert itv.unbounded


def test_anytime_prefix_matches_replayed_table():
    stream = eight_obs_stream() * 8
    full = binary_table(stream)
    query = q(regime='anytime')
    fd_query = q('frontdoor', regime='anytime')
    for m in (1, 2, 5, 13, 40, len(stream)):
        partial = binary_table(stream[:m])
        got = backdoor_cs_anytime(full, query, n=m)
        want = backdoor_cs_anytime(partial, query)
        assert got.midpoint == want.midpoint
        assert got.halfwidth == want.halfwidth
        got = frontdoor_cs_anytime(full, fd_query, n=m)
        want = frontdoor_cs_anytime(partial, fd_query)
        assert got.midpoint == want.midpoint
        assert got.halfwidth == want.halfwidth


def test_anytime_constant_between_checkpoints():
    rng = np.random.default_rng(3)
    stream = [Observation(int(rng.integers(2)), int(rng.integers(2)),
                          (int(rng.integers(2)),)) for _ in range(64)]
    table = binary_table()
    query = q(regime='anytime')
    previous = None
    version = -1
    for obs in stream:
        table.ingest(obs)
        itv = backdoor_cs_anytime(table, query)
        if table.checkpoint_version == version and previous is not None:
            assert itv.midpoint == previous.midpoint
            assert itv.halfwidth == previous.halfwidth
        previous, version = itv, table.checkpoint_version


def test_regime_ordering_on_random_tables():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(40):
        table, _ = random_table(rng, min_n=30, max_n=500)
        xt, yv = table.x_domain[0], table.y_domain[0]
        for criterion in ('backdoor', 'frontdoor'):
            widths = []
            for regime in ('iid', 'adaptive-fixed', 'anytime'):
                query = EffectQuery(criterion, xt, yv, 0.1, regime)
                widths.append(effect_interval(table, query).halfwidth)
            if all(math.isfinite(w) for w in widths):
                assert widths[0] <= widths[1] <= widths[2]
                checked += 1
    assert checked > 20


def test_toy_constants_tighter_than_general():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(10, 300))
        stream = [Observation(int(rng.integers(2)), int(rng.integers(2)),
                              (int(rng.integers(2)),)) for _ in range(n)]
        table = binary_table(stream)
        for regime in ('iid', 'adaptive-fixed', 'anytime'):
            toy = effect_interval(table, q(regime=regime, binary_toy=True))
            general = effect_interval(table, q(regime=regime))
            assert toy.midpoint == general.midpoint
            if math.isfinite(general.halfwidth):
                assert toy.halfwidth <= general.halfwidth


def test_toy_requires_binary_domains():
    rng = np.random.default_rng(47)
    table, _ = random_table(rng, min_n=30, max_n=60)
    while len(table.z_values) == 2 and len(table.x_domain) == 2:
        table, _ = random_table(rng, min_n=30, max_n=60)
    with pytest.raises(ValueError):
        effect_interval(table, EffectQuery('backdoor', table.x_domain[0],
                                           table.y_domain[0], 0.1,
                                           binary_toy=True))


def test_query_validation():
    with pytest.raises(ValueError):
        EffectQuery('backdoor', 1, 1, 1.5)
    with pytest.raises(ValueError):
        EffectQuery('nearly', 1, 1, 0.1)
    with pytest.raises(ValueError):
        EffectQuery('backdoor', 1, 1, 0.1, frontdoor_form='horner-z')
    with pytest.raises(ValueError):
        EffectQuery('frontdoor', 1, 1, 0.1, binary_toy=True)
    with pytest.raises(ValueError):
        EffectQuery('frontdoor', 1, 1, 0.1, regime='anytime',
                    frontdoor_form='horner-z')
    with pytest.raises(ValueError):
        backdoor_cs_anytime(binary_table(), q())


@pytest.mark.parametrize("x, y", [([1], 1), (1, {}), ({'a': 1}, [0])])
def test_query_rejects_unhashable_values(x, y):
    with pytest.raises(ValueError, match="unhashable, so in no domain"):
        EffectQuery('backdoor', x, y, 0.1)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_query_value_outside_the_domain_is_refused(criterion, regime):
    table = binary_table(eight_obs_stream())
    for x, y, message in ((7, 1, "query x value 7 not in declared domain [0, 1]"),
                          (1, 9, "query y value 9 not in declared domain [0, 1]"),
                          ('1', 1, "query x value '1' not in declared domain [0, 1]")):
        query = q(criterion, x=x, y=y, regime=regime)
        for build in (effect_interval, interval_via_expression):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(table, query)
    with pytest.raises(ValueError, match="query x value 7 not in declared domain"):
        prediction_set(table, 7, 0.1)


def test_dispatch_prefix_only_for_anytime():
    table = binary_table(eight_obs_stream())
    with pytest.raises(ValueError):
        effect_interval(table, q(), n=4)
    assert effect_interval(table, q(regime='anytime'), n=4).n == 4


@pytest.mark.parametrize('criterion', CRITERIA)
def test_prefix_of_any_integral_type(criterion):
    table = binary_table(eight_obs_stream() * 8)
    query = q(criterion, regime='anytime')
    for m in (0, 5, 50, 64):
        want = effect_interval(table, query, m)
        for same in (np.int64(m), np.int32(m), np.uint16(m)):
            got = effect_interval(table, query, same)
            assert (got, got.constants) == (want, want.constants)
            assert type(got.n) is int
    # a float is no prefix length, even one equal to the stream length
    for m in (50.0, 64.0, np.float64(50), 2.5):
        with pytest.raises(ValueError, match=f"^prefix length {re.escape(repr(m))} "
                                             "is not an integer$"):
            effect_interval(table, query, m)
    for m in (-1, 65, np.int64(65)):
        with pytest.raises(ValueError, match=r"^prefix length -?\d+ is not in \[0, 64\]$"):
            effect_interval(table, query, m)


def test_frontdoor_forms_share_midpoint():
    table = binary_table(eight_obs_stream())
    intervals = [effect_interval(table, q('frontdoor', frontdoor_form=f))
                 for f in ('expanded', 'horner-z', 'horner-x')]
    assert intervals[0].midpoint == intervals[1].midpoint == intervals[2].midpoint
    assert intervals[0].halfwidth >= intervals[1].halfwidth  # expanded is loosest
    assert intervals[0].halfwidth >= intervals[2].halfwidth


def test_horner_crossover_low_treated_share():
    # treated share 1/4 or less: the mediator-first nesting is narrower
    for cx, cz in ((2, 3), (3, 2), (2, 5), (4, 4)):
        table = grid_table(cx, cz, n=400, treated=100)
        v1 = effect_interval(
            table, EffectQuery('frontdoor', 0, 1, 0.1, frontdoor_form='horner-z')
        ).halfwidth
        v2 = effect_interval(
            table, EffectQuery('frontdoor', 0, 1, 0.1, frontdoor_form='horner-x')
        ).halfwidth
        assert v1 < v2


def test_horner_crossover_matches_threshold():
    for cx, cz, treated, n in ((2, 5, 350, 400), (2, 6, 380, 400),
                               (5, 2, 100, 400), (3, 3, 390, 400)):
        table = grid_table(cx, cz, n=n, treated=treated)
        v1 = effect_interval(
            table, EffectQuery('frontdoor', 0, 1, 0.1, frontdoor_form='horner-z')
        ).halfwidth
        v2 = effect_interval(
            table, EffectQuery('frontdoor', 0, 1, 0.1, frontdoor_form='horner-x')
        ).halfwidth
        threshold = ((1 - 1 / cx) / (1 - 1 / cz)) ** 2
        assert (v1 < v2) == (treated / n < threshold)


def test_true_effect_fig1():
    model = fig1_model()
    assert true_effect(model, 1, 1, 'backdoor') == pytest.approx(0.50, abs=1e-15)


def test_true_effect_constant_outcome_rows():
    model = fig1_model(py1_given_xz={(0, 0): 0.4, (0, 1): 0.4,
                                     (1, 0): 0.7, (1, 1): 0.7})
    assert true_effect(model, 1, 1, 'backdoor') == pytest.approx(0.7, abs=1e-15)
    assert true_effect(model, 0, 1, 'backdoor') == pytest.approx(0.4, abs=1e-15)


def test_true_effect_deterministic_model():
    model = fig1_model(pz1=0.0,
                       px1_given_z=(1.0, 1.0),
                       py1_given_xz={(0, 0): 0.0, (0, 1): 0.0,
                                     (1, 0): 1.0, (1, 1): 1.0})
    assert true_effect(model, 1, 1, 'backdoor') in (0.0, 1.0)


def test_true_effect_matches_interventional_frontdoor():
    model = frontdoor_model()
    formula = true_effect(model, 1, 1, 'frontdoor')
    assert formula == pytest.approx(model.interventional_probability(1, 1), abs=1e-12)
    model2 = fig1_model()
    assert true_effect(model2, 1, 1, 'backdoor') \
        == pytest.approx(model2.interventional_probability(1, 1), abs=1e-12)


def _assert_matches_expression_route(table, query):
    direct = effect_interval(table, query)
    via = interval_via_expression(table, query)
    assert direct.midpoint == pytest.approx(via.midpoint, abs=1e-12)
    if math.isinf(direct.halfwidth):
        assert math.isinf(via.halfwidth)
    else:
        assert direct.halfwidth == pytest.approx(via.halfwidth, abs=1e-12)


def test_matches_expression_route_quick():
    rng = np.random.default_rng(53)
    for _ in range(25):
        table, _ = random_table(rng, min_n=10, max_n=400)
        xt, yv = table.x_domain[-1], table.y_domain[0]
        for criterion in ('backdoor', 'frontdoor'):
            for regime in ('iid', 'adaptive-fixed', 'anytime'):
                _assert_matches_expression_route(
                    table, EffectQuery(criterion, xt, yv, 0.05, regime))
        for form in ('horner-z', 'horner-x'):
            _assert_matches_expression_route(
                table, EffectQuery('frontdoor', xt, yv, 0.05,
                                   frontdoor_form=form))


def test_midpoints_stay_in_unit_interval():
    rng = np.random.default_rng(59)
    for _ in range(30):
        table, _ = random_table(rng, min_n=3, max_n=200)
        for criterion in ('backdoor', 'frontdoor'):
            for regime in ('iid', 'adaptive-fixed', 'anytime'):
                itv = effect_interval(
                    table, EffectQuery(criterion, table.x_domain[0],
                                       table.y_domain[-1], 0.1, regime))
                assert 0.0 <= itv.midpoint <= 1.0
                assert 0.0 <= itv.lower <= itv.upper <= 1.0


# -- byte-identity guard -------------------------------------------------------
# SHA-256 over repr(midpoint), repr(halfwidth) and the constants record of every
# construction (criterion x regime x front-door form x tightened constants) on
# seeded tables: multi-valued ones, some with a composite z, and binary ones for
# the tightened constants; the anytime regime also at several prefixes.  A
# change to any estimate, radius, ratio, label or floating-point summation
# order shows here.

EFFECTS_SHA256 = "70c4e0a65ab869132acac87788c20a7ca2935acfe0156122f48720a2d513edfb"
PREDICTION_SHA256 = "cdd92e4d41a7d4c54b61e9ad52f75ee5ed6fe4be61a84b66be3cb29cf72c8e33"


def _guard_tables():
    rng = np.random.default_rng(89)
    tables = [random_table(rng, min_n=2, max_n=700)[0]
              for _ in range(10)]
    for n in (0, 1, 3, 9, 40, 333):
        tables.append(binary_table([Observation(int(rng.integers(2)), int(rng.integers(2)),
                                                (int(rng.integers(2)),))
                                    for _ in range(n)]))
    return tables


def _guard_queries(table):
    binary = len(table.z_domains) == 1 and len(table.x_domain) == len(table.y_domain) \
        == len(table.z_values) == 2
    for criterion, regime, x, delta in product(CRITERIA, REGIMES, table.x_domain,
                                               (0.05, 0.3)):
        forms = FRONTDOOR_FORMS if (criterion, regime) == ('frontdoor', 'iid') \
            else ('expanded',)
        toys = (False, True) if criterion == 'backdoor' and binary else (False,)
        for form, toy in product(forms, toys):
            yield EffectQuery(criterion, x, table.y_domain[-1], delta, regime,
                              binary_toy=toy, frontdoor_form=form)


def test_constructions_byte_identical():
    tables = _guard_tables()
    assert any(len(table.z_domains) > 1 for table in tables)
    lines = []
    for table in tables:
        prefixes = sorted({n for n in (0, 1, 2, 3, table.n // 3, table.n // 2, table.n)
                           if n <= table.n})
        for query in _guard_queries(table):
            for n in prefixes if query.regime == 'anytime' else (None,):
                itv = effect_interval(table, query, n)
                lines.append(f"{itv.n} {itv.midpoint!r} {itv.halfwidth!r} "
                             f"{itv.constants!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (1464, EFFECTS_SHA256)


def test_prediction_set_byte_identical():
    lines = []
    for table in _guard_tables():
        if len(table.z_domains) == 1 and len(table.x_domain) == len(table.y_domain) \
                == len(table.z_values) == 2:
            for x, delta in product(table.x_domain, (0.02, 0.1, 0.5)):
                gamma = prediction_set(table, x, delta)
                lines.append(f"{gamma.members!r} {gamma.threshold!r} "
                             f"{gamma.diagnostics!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (36, PREDICTION_SHA256)
