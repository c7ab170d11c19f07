import hashlib
import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalci import counts, simulator
from causalci.counts import CountTable, Layout, Observation
from causalci.effects import (CRITERIA, FRONTDOOR_FORMS, REGIMES, EffectQuery, _plan,
                              backdoor_cs_anytime, confidence_sequence, effect_interval,
                              frontdoor_cs_anytime, true_effect)
from causalci.graph import Dag
from causalci.prediction import prediction_set
from causalci.simulator import (AlternatingAdversaryPolicy, CausalModel, Cpt, Roles,
                                sample_adaptive, sample_iid)
from helpers import (binary_table, code_rows, dyadic_rows, eight_obs_stream, fig1_model,
                     frontdoor_model, grid_table, interval_via_expression, loop_interval,
                     random_table, read_conditions, three_valued_model)

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


SEQUENCE_MODELS = {"fig1": fig1_model, "frontdoor": frontdoor_model,
                   "three-valued": three_valued_model}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEQUENCE_MODELS)), st.sampled_from(CRITERIA),
       st.sampled_from([0, 1, 2, 5, 64, 300]), st.booleans(), st.data())
def test_confidence_sequence_holds_every_element(model, criterion, n, adaptive, data):
    """Each segment's interval is the element at every prefix of its range,
    but for n; the segments tile the prefixes from the start (min(1, n) by
    default) to the whole stream, and a new one starts exactly where the
    count of a condition the query reads reaches a power of two."""
    model = SEQUENCE_MODELS[model]()
    x = data.draw(st.sampled_from(model.dag.domains[model.roles.x]))
    y = data.draw(st.sampled_from(model.dag.domains[model.roles.y]))
    toy = criterion == 'backdoor' and model.roles.z == ('Z',) and data.draw(st.booleans())
    query = q(criterion, x, y, data.draw(st.sampled_from([0.05, 0.5])), 'anytime',
              binary_toy=toy)
    seed = data.draw(st.integers(0, 2**32 - 1))
    table = model.count_table()
    rows = (sample_adaptive(model, AlternatingAdversaryPolicy(), n, seed)
            if adaptive else sample_iid(model, n, seed))
    table.ingest_codes(code_rows(table, rows))
    read = dyadic_rows(rows, read_conditions(criterion, x, table.layout.x_domain,
                                             table.layout.z_values))
    # from min(1, n) by default, or from any prefix in [0, n]
    for start in (None, data.draw(st.integers(0, n))):
        segments = list(confidence_sequence(table, query, start))
        begin = min(n, 1) if start is None else start
        assert segments[0][0] == begin and segments[-1][1] == n
        assert [first for first, _, _ in segments[1:]] == \
            [last + 1 for _, last, _ in segments[:-1]]
        assert [first for first, _, _ in segments] == sorted({p for p in read if p > begin}
                                                             | {begin})
        for first, last, itv in segments:
            for p in range(first, last + 1):
                assert repr(replace(itv, n=p)) == repr(effect_interval(table, query, p))


def _values(itv):
    return repr((itv.n, itv.midpoint, itv.halfwidth, itv.lower, itv.upper))


@pytest.mark.parametrize('criterion', CRITERIA)
def test_sequence_on_a_wide_table_is_the_scalar_loops_block_by_block(monkeypatch, criterion):
    """Six binary covariates (|Z| = 64) and three treatments: every segment
    of the sequence, bound a few runs at a time so that the runs span many
    blocks, is effect_interval at its first prefix and the scalar loops'
    interval there, bit for bit; so are the fixed-n intervals."""
    table = CountTable(Layout((0, 1, 2), (0, 1), [(0, 1)] * 6))
    table.ingest_codes(np.random.default_rng(61).integers(0, 3 * 2 * 64, 3000))
    query = q(criterion, 2, 1, 0.05, 'anytime')
    leaves = sum(len(fam.cells) for fam in _plan(query, table.layout)[0])
    monkeypatch.setattr(counts, '_BLOCK_ELEMENTS', 3 * leaves)
    segments = list(confidence_sequence(table, query))
    assert len(segments) > 30  # so more than ten blocks of three runs
    for first, _, itv in segments:
        assert repr(itv) == repr(effect_interval(table, query, first))
        assert _values(itv) == _values(loop_interval(table, query, first))
    for regime in ('iid', 'adaptive-fixed'):
        fixed = q(criterion, 0, 0, 0.3, regime)
        assert _values(effect_interval(table, fixed)) == _values(loop_interval(table, fixed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CRITERIA), st.sampled_from(REGIMES), st.data())
def test_intervals_are_the_scalar_loops(criterion, regime, data):
    """On random tables, at every prefix where the regime has one, the
    array evaluator's floats are the scalar loops' left-to-right ones."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = random_table(rng, min_n=0, max_n=400)[0]
    query = q(criterion, data.draw(st.sampled_from(table.layout.x_domain)),
              data.draw(st.sampled_from(table.layout.y_domain)), 0.1, regime)
    for m in sorted({0, table.n // 2, table.n}) if regime == 'anytime' else (None,):
        assert _values(effect_interval(table, query, m)) == _values(loop_interval(table, query, m))


@pytest.mark.parametrize('criterion', CRITERIA)
def test_confidence_sequence_is_the_table_as_of_the_call(criterion):
    """Rows ingested after the call and before the first segment is read
    change no segment: the sequence still ends at the old n."""
    model = fig1_model() if criterion == 'backdoor' else frontdoor_model()
    rows = list(sample_iid(model, 600, 12))
    table = model.count_table()
    table.ingest_codes(code_rows(table, rows[:300]))
    query = q(criterion, regime='anytime')
    sequence = confidence_sequence(table, query)
    table.ingest_codes(code_rows(table, rows[300:]))
    segments = list(sequence)
    assert segments[-1][1] == 300
    old = model.count_table()
    old.ingest_codes(code_rows(old, rows[:300]))
    assert [(a, b, repr(itv)) for a, b, itv in segments] == \
        [(a, b, repr(itv)) for a, b, itv in confidence_sequence(old, query)]


def test_confidence_sequence_refuses_a_query_when_called():
    table = binary_table(eight_obs_stream())
    with pytest.raises(ValueError, match="^a confidence sequence is the anytime "
                                         "regime's, not the iid regime's$"):
        confidence_sequence(table, q())
    with pytest.raises(ValueError, match=r"^query x value 7 not in declared domain \[0, 1\]$"):
        confidence_sequence(table, q(x=7, regime='anytime'))
    with pytest.raises(ValueError, match=r"^prefix length 9 is not in \[0, 8\]$"):
        confidence_sequence(table, q(regime='anytime'), 9)


def test_regime_ordering_on_random_tables():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(40):
        table, _ = random_table(rng, min_n=30, max_n=500)
        xt, yv = table.layout.x_domain[0], table.layout.y_domain[0]
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
    while len(table.layout.z_values) == 2 and len(table.layout.x_domain) == 2:
        table, _ = random_table(rng, min_n=30, max_n=60)
    with pytest.raises(ValueError):
        effect_interval(table, EffectQuery('backdoor', table.layout.x_domain[0],
                                           table.layout.y_domain[0], 0.1,
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
    # a truth value is no prefix length either, on any table
    for t in (table, binary_table()):
        for m in (True, np.True_):
            with pytest.raises(ValueError, match="^prefix length True is not an integer$"):
                effect_interval(t, query, m)


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


def test_true_effect_refuses_an_unknown_criterion():
    with pytest.raises(ValueError, match=re.escape(f"criterion must be one of {CRITERIA}")):
        true_effect(fig1_model(), 1, 1, 'sideways')


def test_truth_values_refuse_a_value_outside_the_domain():
    model = fig1_model()
    for call, message in (
            (lambda: model.interventional_probability(1, 7), "query y value 7"),
            (lambda: model.interventional_probability(7, 1), "query x value 7"),
            (lambda: true_effect(model, 1, 7, 'backdoor'), "query y value 7"),
            (lambda: true_effect(model, 1, 7, 'frontdoor'), "query y value 7"),
            (lambda: true_effect(model, 7, 1, 'frontdoor'), "query x value 7")):
        with pytest.raises(ValueError, match=re.escape(message + " not in declared domain [0, 1]")):
            call()
    with pytest.raises(ValueError, match=re.escape("x value [1] is unhashable, so in no domain")):
        true_effect(model, [1], 1, 'backdoor')


def test_true_effect_matches_interventional_frontdoor():
    model = frontdoor_model()
    formula = true_effect(model, 1, 1, 'frontdoor')
    assert formula == pytest.approx(model.interventional_probability(1, 1), abs=1e-12)
    model2 = fig1_model()
    assert true_effect(model2, 1, 1, 'backdoor') \
        == pytest.approx(model2.interventional_probability(1, 1), abs=1e-12)


def _random_cpts(model, rng):
    """The model's graph and roles with random CPT rows, about one entry in
    five of them zero."""
    cpts = {}
    for v, cpt in model.cpts.items():
        rows = {}
        for config in cpt.rows:
            row = rng.dirichlet(np.ones(len(model.dag.domains[v])))
            row[rng.random(len(row)) < 0.2] = 0.0
            if not row.any():
                row[rng.integers(len(row))] = 1.0
            rows[config] = tuple((row / row.sum()).tolist())
        cpts[v] = Cpt(cpt.parents, rows)
    return CausalModel(model.dag, cpts, model.roles)


def _wide_frontdoor_model():
    """The front-door graph with a three-valued treatment and a two-valued
    mediator, so |X| != |Z|."""
    doms = {"U": (0, 1), "X": (0, 1, 2), "M": (0, 1), "Y": (0, 1)}
    dag = Dag(["U", "X", "M", "Y"], [("U", "X"), ("U", "Y"), ("X", "M"), ("M", "Y")], doms)
    parents = {"U": (), "X": ("U",), "M": ("X",), "Y": ("M", "U")}
    cpts = {v: Cpt(pa, {config: (1 / len(doms[v]),) * len(doms[v])
                        for config in product(*(doms[p] for p in pa))})
            for v, pa in parents.items()}
    return CausalModel(dag, cpts, Roles("X", "Y", ("M",)))


def _models_and_criteria():
    rng = np.random.default_rng(1717)
    yield fig1_model(), 'backdoor'
    yield frontdoor_model(), 'frontdoor'
    for _ in range(50):
        yield _random_cpts(fig1_model(), rng), 'backdoor'
        yield _random_cpts(_wide_frontdoor_model(), rng), 'frontdoor'


def test_true_effect_is_the_interventional_probability():
    # the truth shares the estimators' polynomial; the mutilated model's law
    # is the check that does not
    evaluated = 0
    for model, criterion in _models_and_criteria():
        for x, y in product(model.dag.domains["X"], model.dag.domains["Y"]):
            try:
                formula = true_effect(model, x, y, criterion)
            except ValueError as exc:
                assert "(positivity violated)" in str(exc)
                continue
            assert formula == pytest.approx(model.interventional_probability(x, y), abs=1e-12)
            evaluated += 1
    assert evaluated > 300


@pytest.mark.parametrize("model, x, criterion, leaf", [
    (fig1_model(px1_given_z=(0.0, 0.5)), 1, 'backdoor', "p(y=1 | x=1, z=(0,))"),
    (frontdoor_model(pm1_given_x=(0.0, 0.7)), 1, 'frontdoor', "p(y=1 | x=0, z=(1,))"),
    (frontdoor_model(px1_given_u=(1.0, 1.0)), 0, 'frontdoor', "p(z=(0,) | x=0)"),
])
def test_undefined_leaf_under_a_positive_weight_is_named(model, x, criterion, leaf):
    message = f"{leaf} is undefined: its condition has probability zero (positivity violated)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        true_effect(model, x, 1, criterion)


@pytest.mark.parametrize("model, x, criterion", [
    (fig1_model(pz1=0.0), 0, 'backdoor'),  # p(z=1) = 0 drops p(y|x,z=1)
    (fig1_model(pz1=0.0), 1, 'backdoor'),
    (frontdoor_model(pm1_given_x=(0.0, 0.7)), 0, 'frontdoor'),  # p(z=1|x=0) = 0
    (frontdoor_model(px1_given_u=(1.0, 1.0)), 1, 'frontdoor'),  # p(x'=0) = 0
])
def test_undefined_leaves_under_zero_weights_are_dropped(model, x, criterion):
    for y in (0, 1):
        assert true_effect(model, x, y, criterion) \
            == pytest.approx(model.interventional_probability(x, y), abs=1e-15)


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
        xt, yv = table.layout.x_domain[-1], table.layout.y_domain[0]
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
                    table, EffectQuery(criterion, table.layout.x_domain[0],
                                       table.layout.y_domain[-1], 0.1, regime))
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
    binary = len(table.layout.z_domains) == 1 and len(table.layout.x_domain) \
        == len(table.layout.y_domain) == len(table.layout.z_values) == 2
    for criterion, regime, x, delta in product(CRITERIA, REGIMES, table.layout.x_domain,
                                               (0.05, 0.3)):
        forms = FRONTDOOR_FORMS if (criterion, regime) == ('frontdoor', 'iid') \
            else ('expanded',)
        toys = (False, True) if criterion == 'backdoor' and binary else (False,)
        for form, toy in product(forms, toys):
            yield EffectQuery(criterion, x, table.layout.y_domain[-1], delta, regime,
                              binary_toy=toy, frontdoor_form=form)


def test_constructions_byte_identical():
    tables = _guard_tables()
    assert any(len(table.layout.z_domains) > 1 for table in tables)
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
        if len(table.layout.z_domains) == 1 and len(table.layout.x_domain) \
                == len(table.layout.y_domain) == len(table.layout.z_values) == 2:
            for x, delta in product(table.layout.x_domain, (0.02, 0.1, 0.5)):
                gamma = prediction_set(table, x, delta)
                lines.append(f"{gamma.members!r} {gamma.threshold!r} "
                             f"{gamma.diagnostics!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (36, PREDICTION_SHA256)


@pytest.mark.parametrize("make, criterion", [(fig1_model, 'backdoor'),
                                             (frontdoor_model, 'frontdoor')])
def test_each_query_compiles_its_reads_once_per_layout(monkeypatch, make, criterion):
    # one Layout.reads per run of families read at one prefix, on the first
    # call only: later calls, on fresh tables of the same model, reuse the plan
    compiled, reads = [], Layout.reads

    def counted(layout, leaves):
        compiled.append(len(leaves))
        return reads(layout, leaves)

    monkeypatch.setattr(Layout, 'reads', counted)
    model = make()
    codes = simulator._iid_codes(model, 300, 4)

    def table():
        fresh = model.count_table()
        fresh.ingest_codes(codes)
        return fresh

    groups = {'iid': 1, 'adaptive-fixed': 2, 'anytime': 1}
    for regime in REGIMES:
        query, before = EffectQuery(criterion, 1, 1, 0.1, regime), len(compiled)
        first = effect_interval(table(), query)
        assert len(compiled) - before == groups[regime]
        for _ in range(3):
            assert effect_interval(table(), query) == first
        assert len(compiled) - before == groups[regime]
    query, before = EffectQuery(criterion, 1, 1, 0.2, 'anytime'), len(compiled)
    sequence = list(confidence_sequence(table(), query))
    for _ in range(3):
        assert list(confidence_sequence(table(), query)) == sequence
    assert len(compiled) - before == 1
