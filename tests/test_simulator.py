import hashlib
import json
import math
import re
from bisect import bisect_right
from itertools import accumulate, combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalci.simulator as simulator
from causalci.counts import CountTable, Observation
from causalci.effects import true_effect
from causalci.graph import Dag
from causalci.simulator import (AlternatingAdversaryPolicy, CausalModel,
                                ConstantPolicy, Cpt, CptPolicy,
                                EpsilonGreedyPolicy, Policy, Roles,
                                draw_intervened_outcome, load_model, make_policy,
                                sample_adaptive, sample_iid)
from helpers import (MALFORMED_ROLES, fig1_model, frontdoor_model, reference_sample_adaptive,
                     three_valued_model)


def test_iid_marginal_frequency():
    model = fig1_model()
    obs = sample_iid(model, 100_000, seed=12)
    freq = sum(o.z == (1,) for o in obs) / len(obs)
    assert freq == pytest.approx(0.4, abs=0.01)


def test_iid_joint_matches_factorization():
    model = fig1_model()
    obs = sample_iid(model, 100_000, seed=13)
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                want = model.probability({"X": x, "Y": y, "Z": z})
                got = sum(o == Observation(x, y, (z,)) for o in obs) / len(obs)
                assert got == pytest.approx(want, abs=0.01)


def test_deterministic_model_constant_stream():
    model = fig1_model(pz1=1.0, px1_given_z=(1.0, 1.0),
                       py1_given_xz={(0, 0): 0.0, (0, 1): 0.0,
                                     (1, 0): 1.0, (1, 1): 1.0})
    obs = sample_iid(model, 50, seed=1)
    assert all(o == Observation(1, 1, (1,)) for o in obs)


def test_seed_determinism():
    model = fig1_model()
    assert sample_iid(model, 500, seed=99) == sample_iid(model, 500, seed=99)
    a = sample_adaptive(model, AlternatingAdversaryPolicy(), 200, seed=7)
    b = sample_adaptive(model, AlternatingAdversaryPolicy(), 200, seed=7)
    assert a == b
    assert sample_iid(model, 500, seed=99) != sample_iid(model, 500, seed=100)


# SHA-256 of repr(sample_iid(three_valued_model(), 5000, seed)): a three-valued
# treatment whose parents (U, Z1) and a composite z pick each step's CPT row.
IID_THREE_VALUED_SHA256 = {
    0: 'ba51f2ebaa21c38c1fc9501af36aa47cad738ba7cf6c4872b06f1687ebe01719',
    7: 'b96fdb419f3224c834350a884bf475dfa2c14d61d59060fe9ea5f7820b3548f6',
    2026: '4869c13235ae4dfe86b745f86cb04774aedd2682ce3627ac5647be1a520535fa',
}


@pytest.mark.parametrize("seed", list(IID_THREE_VALUED_SHA256))
def test_iid_stream_of_the_three_valued_model_is_pinned(seed):
    rows = sample_iid(three_valued_model(), 5000, seed)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == IID_THREE_VALUED_SHA256[seed]


def _choice_codes(model, n, rng):
    """The IID cell codes as one ``Generator.choice`` call per vertex and
    parent configuration, the configurations in their canonical order."""
    dag, roles = model.dag, model.roles
    index = {}
    for v in dag.topological_order():
        cpt, size = model.cpts[v], len(dag.domains[v])
        if not cpt.parents:
            index[v] = rng.choice(size, size=n, p=cpt.rows[()])
            continue
        config = np.ravel_multi_index([index[p] for p in cpt.parents],
                                      [len(dag.domains[p]) for p in cpt.parents])
        index[v] = np.empty(n, dtype=np.int64)
        for c, row in enumerate(cpt.rows.values()):
            mask = config == c
            if mask.any():
                index[v][mask] = rng.choice(size, size=int(mask.sum()), p=row)
    return model.layout.cell_codes(index[roles.x], index[roles.y],
                                          [index[name] for name in roles.z])


# rows that hold zeros or sum to 1 only up to rounding
_ODD_ROWS = {1: [(1.0,)],
             2: [(0.0, 1.0), (1.0, 0.0), (0.9, 0.1)],
             3: [(0.7, 0.2, 0.1), (0.0, 0.3, 0.7), (0.3, 0.6, 0.1), (1.0, 0.0, 0.0)],
             4: [(0.2, 0.4, 0.3, 0.1), (0.7, 0.2, 0.1, 0.0), (0.0, 0.0, 0.0, 1.0)]}


@st.composite
def choice_models(draw):
    """Z -> X -> Y with Z -> Y, each domain of 1 to 4 values; each CPT row
    is one of _ODD_ROWS or normalized weights, zeros among them."""
    doms = {v: tuple(range(draw(st.integers(1, 4)))) for v in "ZXY"}
    weight = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.7, 1.0, 2.5])

    def row(size):
        if draw(st.booleans()):
            return draw(st.sampled_from(_ODD_ROWS[size]))
        weights = draw(st.lists(weight, min_size=size, max_size=size).filter(any))
        total = sum(weights)
        return tuple(w / total for w in weights)

    parents = {"Z": (), "X": ("Z",), "Y": ("X", "Z")}
    cpts = {v: Cpt(pa, {config: row(len(doms[v]))
                        for config in product(*(doms[q] for q in pa))})
            for v, pa in parents.items()}
    dag = Dag(list(doms), [("Z", "X"), ("X", "Y"), ("Z", "Y")], doms)
    return CausalModel(dag, cpts, Roles("X", "Y", ("Z",)))


@settings(max_examples=200, deadline=None)
@given(choice_models(), st.integers(0, 2000), st.integers(0, 2**64 - 1))
@example(three_valued_model(), 2000, 0)
def test_iid_draws_are_those_of_generator_choice(model, n, seed):
    # the same draws and the same generator state afterwards, so a change to
    # numpy's Generator.choice shows up here before in the pinned streams
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert simulator._iid_codes(model, n, ours).tolist() == \
        _choice_codes(model, n, theirs).tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_cpt_policy_reproduces_iid_distribution():
    model = fig1_model(px1_given_z=(0.3, 0.7))
    iid = sample_iid(model, 100_000, seed=21)
    adaptive = sample_adaptive(model, CptPolicy(), 100_000, seed=22)

    def freq(obs, x, z):
        matches = [o for o in obs if o.z == (z,)]
        return sum(o.x == x for o in matches) / len(matches)

    for z in (0, 1):
        assert freq(adaptive, 1, z) == pytest.approx(freq(iid, 1, z), abs=0.02)


def test_constant_policy():
    model = fig1_model()
    obs = sample_adaptive(model, ConstantPolicy(1), 300, seed=3)
    assert all(o.x == 1 for o in obs)


def test_adversarial_stream_stays_in_domains():
    model = fig1_model()
    obs = sample_adaptive(model, AlternatingAdversaryPolicy(), 2000, seed=5)
    assert all(o.x in (0, 1) and o.y in (0, 1) and o.z in ((0,), (1,))
               for o in obs)
    # the adversary must actually alternate now and then
    assert 0 < sum(o.x for o in obs) < len(obs)


def test_adaptive_mechanisms_stay_stable():
    """Conditional outcome frequencies under an exploring policy converge
    to the CPT rows."""
    model = fig1_model()
    obs = sample_adaptive(model, EpsilonGreedyPolicy(0.5), 100_000, seed=31)
    want = {(x, z): model.cpts["Y"].rows[(x, z)][1]
            for x in (0, 1) for z in (0, 1)}
    for (x, z), p in want.items():
        cell = [o for o in obs if o.x == x and o.z == (z,)]
        assert len(cell) >= 1000
        got = sum(o.y == 1 for o in cell) / len(cell)
        assert got == pytest.approx(p, abs=0.02)


def test_frontdoor_adaptive_hides_confounder():
    """Under a policy the treatment ignores the hidden confounder, so the
    realized outcome law given the mediator loses its treatment
    dependence."""
    model = frontdoor_model()
    obs = sample_adaptive(model, AlternatingAdversaryPolicy(), 100_000, seed=37)
    pu1 = 0.3
    for m in (0, 1):
        want = (model.cpts["Y"].rows[(m, 0)][1] * (1 - pu1)
                + model.cpts["Y"].rows[(m, 1)][1] * pu1)
        cell = [o for o in obs if o.z == (m,)]
        got = sum(o.y == 1 for o in cell) / len(cell)
        assert got == pytest.approx(want, abs=0.02)


def test_draw_intervened_outcome_frequency():
    model = fig1_model()
    rng = np.random.default_rng(101)
    hits = sum(draw_intervened_outcome(model, 1, rng) == 1
               for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(true_effect(model, 1, 1, 'backdoor'),
                                           abs=0.01)


def test_intervened_outcome_deterministic_model():
    model = fig1_model(pz1=0.0, px1_given_z=(0.0, 0.0),
                       py1_given_xz={(0, 0): 0.0, (0, 1): 0.0,
                                     (1, 0): 1.0, (1, 1): 1.0})
    assert draw_intervened_outcome(model, 1, seed=0) == 1
    assert draw_intervened_outcome(model, 0, seed=0) == 0


def test_interventional_probability_constant_rows():
    # outcome law independent of the covariate: marginal equals that value
    model = fig1_model(py1_given_xz={(0, 0): 0.25, (0, 1): 0.25,
                                     (1, 0): 0.25, (1, 1): 0.25})
    assert model.interventional_probability(1, 1) == pytest.approx(0.25)


# repr of interventional_probability(x, y) over the treatment and outcome
# domains, row by row, and of probability({Y: y}) over the outcome domain:
# exact laws that must keep every bit.
EXACT_LAW_REPRS = {
    fig1_model: (['0.6799999999999999', '0.32', '0.5', '0.5'],
                 ['0.59', '0.41000000000000003']),
    frontdoor_model: (['0.59', '0.41', '0.43', '0.57'],
                      ['0.5292000000000001', '0.4708']),
    three_valued_model: (['0.29500390714581565', '0.35600577303942693',
                          '0.34899031981475737', '0.3916307290556625',
                          '0.372815846200117', '0.2355534247442203',
                          '0.2983358970886449', '0.4450128843145942',
                          '0.2566512185967608'],
                         ['0.3096996947438474', '0.3951234132780916',
                          '0.29517689197806085']),
}


@pytest.mark.parametrize("make", list(EXACT_LAW_REPRS), ids=lambda m: m.__name__)
def test_exact_law_is_pinned(make):
    model = make()
    xs, ys = model.dag.domains[model.roles.x], model.dag.domains[model.roles.y]
    assert ([repr(model.interventional_probability(x, y)) for x in xs for y in ys],
            [repr(model.probability({model.roles.y: y})) for y in ys]) == EXACT_LAW_REPRS[make]


def _scanned_probability(model, partial):
    """P(partial) by a scan of the joint, left to right from 0."""
    verts = model.dag.vertices
    total = 0
    for assignment, p in model._joint():
        if all(assignment[verts.index(name)] == value for name, value in partial.items()):
            total += p
    return total


@pytest.mark.parametrize("make", [fig1_model, frontdoor_model, three_valued_model],
                         ids=lambda m: m.__name__)
def test_marginal_tables_are_the_scan_of_the_joint(make):
    # every partial assignment of every vertex subset, bit for bit, with the
    # names in reverse order; a value outside the domain or unhashable gives 0
    model = make()
    doms = model.dag.domains
    for size in range(len(doms) + 1):
        for names in combinations(reversed(list(doms)), size):
            for values in product(*(doms[v] + ("off",) for v in names)):
                partial = dict(zip(names, values))
                want = _scanned_probability(model, partial)
                assert repr(model.probability(partial)) == repr(want)
    name = model.roles.x
    assert model.probability({name: [1]}) == _scanned_probability(model, {name: [1]}) == 0
    assert model.probability({name: {}, model.roles.y: doms[model.roles.y][0]}) == 0


def _fig1_cpts():
    return {
        "Z": Cpt((), {(): (0.6, 0.4)}),
        "X": Cpt(("Z",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
        "Y": Cpt(("X", "Z"), {(x, z): (0.5, 0.5) for x in (0, 1) for z in (0, 1)}),
    }


def test_model_validation_errors():
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    roles = Roles("X", "Y", ("Z",))
    good = _fig1_cpts()
    CausalModel(dag, good, roles)  # sanity

    bad_sum = dict(good)
    bad_sum["Z"] = Cpt((), {(): (0.6, 0.5)})
    with pytest.raises(ValueError, match="sums to"):
        CausalModel(dag, bad_sum, roles)

    missing_row = dict(good)
    missing_row["X"] = Cpt(("Z",), {(0,): (0.5, 0.5)})
    with pytest.raises(ValueError, match="misses"):
        CausalModel(dag, missing_row, roles)

    wrong_parents = dict(good)
    wrong_parents["X"] = Cpt((), {(): (0.5, 0.5)})
    with pytest.raises(ValueError, match="parents"):
        CausalModel(dag, wrong_parents, roles)


@pytest.mark.parametrize("vertex, cpt, message", [
    ("Y", None, r"CPT vertices mismatch \(missing \['Y'\], extra \[\]\)"),
    ("W", Cpt((), {(): (0.5, 0.5)}), r"CPT vertices mismatch \(missing \[\], extra \['W'\]\)"),
    ("Z", Cpt((), {(): (0.6, 0.3, 0.1)}), r"CPT row for Z given \(\) has 3 entries, domain has 2"),
    ("Z", Cpt((), {(): (1.2, -0.2)}), "negative probability in CPT for Z"),
    ("Z", Cpt((), {(): (math.nan, 1.0)}),
     r"CPT row for Z given \(\) has a non-finite entry: \(nan, 1\.0\)"),
    ("X", Cpt(("Z",), {(0,): (0.5, 0.5), (1,): (math.inf, -math.inf)}),
     r"CPT row for X given \(1,\) has a non-finite entry: \(inf, -inf\)"),
    ("X", Cpt(("Z",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5), (2,): (0.5, 0.5)}),
     "CPT for X has rows for unknown configurations"),
])
def test_model_refuses_a_malformed_cpt(vertex, cpt, message):
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    cpts = _fig1_cpts()
    if cpt is None:
        del cpts[vertex]
    else:
        cpts[vertex] = cpt
    with pytest.raises(ValueError, match=f"^{message}$"):
        CausalModel(dag, cpts, Roles("X", "Y", ("Z",)))


@pytest.mark.parametrize("z", [(), []])
def test_model_without_a_covariate_is_refused_where_it_is_built(z):
    # not at its first table, sampler or ground truth, with no role named
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    with pytest.raises(ValueError, match="^roles.z must name at least one covariate vertex$"):
        CausalModel(dag, _fig1_cpts(), Roles("X", "Y", z))


@pytest.mark.parametrize("z", ["Z", "Z1"])
def test_model_with_a_string_for_roles_z_is_refused(z):
    # not split into its characters, which named "Z" by accident and "1" as unknown
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    with pytest.raises(ValueError, match=f"^roles.z must be a sequence of vertex names, "
                                         f"not '{z}'$"):
        CausalModel(dag, _fig1_cpts(), Roles("X", "Y", z))


@pytest.mark.parametrize("doc, message", [
    ({}, "'variables'"),
    ({"variables": [{"name": "A", "domain": [0, 1]}]}, "'edges'"),
    ({"variables": [{"name": "A"}], "edges": []}, "'domain'"),
    ({"variables": [{"name": "A", "domain": [0, 1]}], "edges": [], "cpts": []},
     "'list' object has no attribute 'items'"),
])
def test_malformed_model_document_is_refused(doc, message):
    with pytest.raises(ValueError, match=f"^malformed model document: {message}$"):
        CausalModel.from_json(doc)


def test_intervened_outcome_refuses_a_value_outside_the_domain():
    with pytest.raises(ValueError, match="^7 not in the treatment domain$"):
        draw_intervened_outcome(fig1_model(), 7, 0)


def test_positivity_flag():
    assert fig1_model().positive
    assert not fig1_model(pz1=0.0).positive


def test_json_roundtrip():
    model = frontdoor_model()
    doc = json.loads(json.dumps(model.to_json()))
    clone = CausalModel.from_json(doc)
    assert clone.to_json() == model.to_json()
    assert sample_iid(clone, 50, seed=5) == sample_iid(model, 50, seed=5)


def test_model_with_a_repeated_domain_value_is_refused_at_load(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "fig1.json"
    doc = json.loads(config.read_text())
    next(v for v in doc["variables"] if v["name"] == "Y")["domain"] = [0, 0]
    message = r"^duplicate values in the domain of 'Y': \(0, 0\)$"
    with pytest.raises(ValueError, match=message):
        CausalModel.from_json(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def test_model_with_an_unhashable_domain_value_is_refused_at_load(tmp_path):
    # named by its vertex, not as a bare "malformed model document: unhashable type"
    config = Path(__file__).resolve().parent.parent / "configs" / "fig1.json"
    doc = json.loads(config.read_text())
    next(v for v in doc["variables"] if v["name"] == "Y")["domain"] = [[0], [1]]
    message = r"^the domain of 'Y' holds the unhashable value \[0\]$"
    with pytest.raises(ValueError, match=message):
        CausalModel.from_json(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("roles, message", MALFORMED_ROLES)
def test_model_with_malformed_roles_is_refused_at_load(tmp_path, roles, message):
    # with z [Z, Z] the table would square Z's domain and the harness would
    # score intervals against a number that is not the causal effect
    config = Path(__file__).resolve().parent.parent / "configs" / "fig1.json"
    doc = json.loads(config.read_text())
    doc["roles"].update(roles)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(str(path))


@pytest.mark.parametrize("row", [[float("nan"), 1.0], [0.5, float("nan")]])
def test_model_document_with_a_nan_probability_is_refused_at_load(tmp_path, row):
    # NaN slips past both the sign and the sum check, so it needs its own;
    # the JSON reader accepts the NaN literal
    config = Path(__file__).resolve().parent.parent / "configs" / "fig1.json"
    doc = json.loads(config.read_text())
    doc["cpts"]["Z"]["rows"][0]["p"] = row
    message = rf"^CPT row for Z given \(\) has a non-finite entry: \({row[0]}, {row[1]}\)$"
    with pytest.raises(ValueError, match=message):
        CausalModel.from_json(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def test_make_policy_specs():
    model = fig1_model()
    assert isinstance(make_policy("constant:1", model), ConstantPolicy)
    assert isinstance(make_policy("iid-from-cpt", model), CptPolicy)
    assert isinstance(make_policy("epsilon-greedy:0.25", model),
                      EpsilonGreedyPolicy)
    assert isinstance(make_policy("adversarial-alternating", model),
                      AlternatingAdversaryPolicy)
    with pytest.raises(ValueError):
        make_policy("constant:7", model)  # not in the treatment domain
    with pytest.raises(ValueError):
        make_policy("thompson", model)


@pytest.mark.parametrize("spec", ["epsilon-greedy:abc", "epsilon-greedy:2",
                                  "epsilon-greedy:nan"])
def test_make_policy_names_the_spec_it_refuses(spec):
    message = rf"^policy '{spec}': epsilon must be a number in \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        make_policy(spec, fig1_model())


@pytest.mark.parametrize("make", [lambda t: EpsilonGreedyPolicy(0.1, target_y=t),
                                  lambda t: AlternatingAdversaryPolicy(target_y=t)])
def test_policy_refuses_a_target_outside_the_outcome_domain(make):
    model = fig1_model()
    message = r"^target outcome 7 is not in the outcome domain \(0, 1\)$"
    with pytest.raises(ValueError, match=message):
        sample_adaptive(model, make(7), 10, seed=1)
    # an explicit target in the domain is tracked like the default one
    assert sample_adaptive(model, make(1), 500, seed=1) == \
        sample_adaptive(model, make(None), 500, seed=1)


def test_policy_rejects_bad_value():
    model = fig1_model()

    class Broken(ConstantPolicy):
        def choose(self, history, visible):
            return 9

    with pytest.raises(ValueError, match="treatment value"):
        sample_adaptive(model, Broken(1), 5, seed=1)


def test_constant_policy_outside_the_domain_raises_at_the_first_step():
    model = fig1_model()
    assert sample_adaptive(model, ConstantPolicy(9), 0, seed=1) == []
    with pytest.raises(ValueError, match="^policy returned 9, not a treatment value$"):
        sample_adaptive(model, ConstantPolicy(9), 1, seed=1)


class Recording(Policy):
    """Wraps a policy and records what it is shown at every step."""

    def __init__(self, inner):
        self.inner = inner
        self.sees_mechanism = inner.sees_mechanism
        self.seen = []

    def reset(self, model, rng):
        self.inner.reset(model, rng)

    def choose(self, history, visible):
        self.seen.append((len(history), list(visible.items())))
        return self.inner.choose(history, visible)


SAMPLER_MODELS = {"fig1": fig1_model, "frontdoor": frontdoor_model,
                  "three-valued": three_valued_model}
SAMPLER_POLICIES = {
    "constant": lambda model: ConstantPolicy(model.dag.domains[model.roles.x][-1]),
    "cpt": lambda model: CptPolicy(),  # reads hidden parents (U)
    "epsilon-greedy": lambda model: EpsilonGreedyPolicy(0.3),
    "adversarial": lambda model: AlternatingAdversaryPolicy(),
}


@pytest.mark.parametrize("policy", sorted(SAMPLER_POLICIES))
@pytest.mark.parametrize("model", sorted(SAMPLER_MODELS))
def test_adaptive_sampler_matches_reference(model, policy, monkeypatch):
    """Column-wise blocks give the step-by-step stream: the same values of
    the same types, and the policy is shown the same things."""
    model = SAMPLER_MODELS[model]()
    make = SAMPLER_POLICIES[policy]
    # small blocks on short streams (block edges inside and across
    # streams), the default block on lengths around it
    cases = [(block, n) for block in (1, 3, 7) for n in (0, 1, 5, 6, 7, 8, 22)]
    cases += [(simulator._BLOCK_STEPS, n) for n in (0, 1, 5, 4095, 4096, 4097, 9000)]
    for block, n in cases:
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", block)
        seed = [n, block]
        want_policy, got_policy = Recording(make(model)), Recording(make(model))
        want = reference_sample_adaptive(model, want_policy, n, seed)
        got = sample_adaptive(model, got_policy, n, seed)
        assert got == want, (block, n)
        assert [(type(o.x), type(o.y)) for o in got] == \
            [(type(o.x), type(o.y)) for o in want]
        assert got_policy.seen == want_policy.seen


def _never_asked(self, history, visible):
    raise AssertionError("a built-in policy was asked through choose")


@pytest.mark.parametrize("policy", sorted(SAMPLER_POLICIES))
@pytest.mark.parametrize("model", sorted(SAMPLER_MODELS))
def test_built_in_policies_on_cell_codes_match_reference(model, policy, monkeypatch):
    """Unwrapped, the built-in policies choose on domain indices, never
    through choose; the decoded code stream is still the step-by-step one."""
    model = SAMPLER_MODELS[model]()
    make = SAMPLER_POLICIES[policy]
    assert type(make(model))._steps is not None
    cases = [(block, n) for block in (1, 3, 7) for n in (0, 1, 5, 6, 7, 8, 22)]
    cases += [(simulator._BLOCK_STEPS, n) for n in (0, 1, 5, 4095, 4096, 4097, 9000)]
    for block, n in cases:
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", block)
        seed = [n, block]
        want = reference_sample_adaptive(model, make(model), n, seed)
        with monkeypatch.context() as patched:
            for cls in (Policy, ConstantPolicy, CptPolicy, simulator._SuccessRatePolicy,
                        AlternatingAdversaryPolicy):  # every choose they have
                patched.setattr(cls, "choose", _never_asked)
            codes = simulator._adaptive_codes(model, make(model), n, seed)
        got = model.layout.decode(codes)
        assert got == want, (block, n)
        assert [(type(o.x), type(o.y)) for o in got] == \
            [(type(o.x), type(o.y)) for o in want]
        assert sample_adaptive(model, make(model), n, seed) == want


def test_overriding_choose_keeps_asking_choose():
    model = three_valued_model()
    asked = []

    class BreaksAtTen(ConstantPolicy):
        def choose(self, history, visible):
            asked.append((len(history), dict(visible)))
            return 9 if len(history) == 10 else super().choose(history, visible)

    def asked_by(sampler):
        asked.clear()
        with pytest.raises(ValueError, match="^policy returned 9, not a treatment value$"):
            sampler(model, BreaksAtTen(1), 20, seed=4)
        return list(asked)

    assert BreaksAtTen._steps is None and ConstantPolicy._steps is not None
    want = asked_by(reference_sample_adaptive)
    assert asked_by(sample_adaptive) == want
    assert [steps for steps, _ in want] == list(range(11))


@pytest.mark.parametrize("block", [1, 3, 7, 4096])
def test_bad_policy_raises_at_the_same_step(block, monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK_STEPS", block)
    model = three_valued_model()

    class BreaksAtTen(Policy):
        def choose(self, history, visible):
            return 9 if len(history) == 10 else 1

    for sampler in (reference_sample_adaptive, sample_adaptive):
        policy = Recording(BreaksAtTen())
        with pytest.raises(ValueError, match="policy returned 9, not a treatment value"):
            sampler(model, policy, 20, seed=4)
        assert len(policy.seen) == 11


def test_samplers_refuse_a_negative_length():
    model = fig1_model()
    for sample in (lambda n: sample_iid(model, n, 0),
                   lambda n: sample_adaptive(model, CptPolicy(), n, 0)):
        with pytest.raises(ValueError, match=r"^stream length n must be >= 0, got -3$"):
            sample(-3)
        assert sample(0) == []


@pytest.mark.parametrize("n", [True, False, np.True_, 2.5, 2.0, "3", None])
def test_samplers_refuse_a_stream_length_that_is_not_an_integer(n):
    model = fig1_model()
    for sample in (sample_iid, lambda model, n, seed: sample_adaptive(model, CptPolicy(), n, seed)):
        with pytest.raises(ValueError, match=rf"^stream length n must be an integer, got {n!r}$"):
            sample(model, n, 1)
    assert sample_iid(model, np.int64(3), 1) == sample_iid(model, 3, 1)


@pytest.mark.parametrize("make", [lambda: EpsilonGreedyPolicy(0.1),
                                  AlternatingAdversaryPolicy])
def test_reused_policy_tracks_the_new_models_outcome(make):
    # fig1's outcomes are 0/1, the three-valued model's 'lo'/'mid'/'hi': a
    # policy used on fig1 first must still track 'hi' on the second model
    model = three_valued_model()
    for seed in (1, 3):
        reused = make()
        sample_adaptive(fig1_model(), reused, 200, seed=0)
        got = sample_adaptive(model, reused, 2000, seed)
        assert got == sample_adaptive(model, make(), 2000, seed)
        assert {obs.x for obs in got} == {0, 1, 2}


def _treatment_outcome_model(nx, ny):
    """X -> Y with |X| = nx and |Y| = ny, and a binary root covariate Z,
    uniform rows."""
    dag = Dag(["Z", "X", "Y"], [("X", "Y")],
              {"Z": (0, 1), "X": tuple(range(nx)), "Y": tuple(range(ny))})
    cpts = {"Z": Cpt((), {(): (0.5, 0.5)}), "X": Cpt((), {(): (1 / nx,) * nx}),
            "Y": Cpt(("X",), {(x,): (1 / ny,) * ny for x in range(nx)})}
    return CausalModel(dag, cpts, Roles("X", "Y", ("Z",)))


@st.composite
def adversary_cases(draw):
    """|X|, |Y|, a policy state to start from (hits, plays, arm, last sign)
    and consecutive blocks of outcome indices of shape (|X|, k)."""
    nx, ny = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([2, 3]))
    totals = draw(st.lists(st.sampled_from([0, 1, 2, 3, 50, 999, 1000]),
                           min_size=nx, max_size=nx))
    hits = [draw(st.integers(0, n)) for n in totals]
    start = hits, totals, draw(st.integers(0, nx - 1)), draw(st.sampled_from([-1, 0, 1]))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 300))
        if draw(st.booleans()):
            # each arm repeats a short pattern, such as misses only
            patterns = [draw(st.lists(st.integers(0, ny - 1), min_size=1, max_size=6))
                        for _ in range(nx)]
            y = np.array([np.resize(pattern, k) for pattern in patterns]).reshape(nx, k)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            y = rng.integers(ny, size=(nx, k))
        blocks.append(y)
    return nx, ny, start, blocks


def _adversaries(nx, ny, start=None):
    """Two adversaries reset for an X -> Y model, in the same state."""
    model = _treatment_outcome_model(nx, ny)
    policies = AlternatingAdversaryPolicy(), AlternatingAdversaryPolicy()
    for policy in policies:
        policy.reset(model, np.random.default_rng(0))
        if start is not None:
            hits, totals, policy._index, policy._last_sign = start
            policy._hits, policy._totals = list(hits), list(totals)
    return policies


def _state(policy):
    return repr((policy._hits, policy._totals, policy._index, policy._last_sign))


@settings(max_examples=300, deadline=None)
@given(adversary_cases(), st.booleans())
# on arm 2 with a last sign opposite to the gap, the first pick switches
@example((3, 2, ([5, 1, 0], [10, 10, 0], 2, -1), [np.zeros((3, 10), dtype=np.intp)]), False)
def test_run_wise_adversary_matches_the_per_step_rule(case, fresh):
    nx, ny, start, blocks = case
    run_wise, per_step = _adversaries(nx, ny, None if fresh else start)
    for y in blocks:
        block = simulator._Block({}, y, y)
        want = simulator._SuccessRatePolicy._steps(per_step, block)
        assert run_wise._steps(block).tolist() == want
        assert _state(run_wise) == _state(per_step)


def test_run_wise_adversary_switches_every_few_steps():
    # rates 500/1000 and 500/1001, then misses only: each arm's next miss
    # takes its rate below the other's, so the rule switches every few steps
    run_wise, per_step = _adversaries(2, 2, ([500, 500], [1000, 1001], 0, 1))
    misses = np.zeros((2, 4096), dtype=np.intp)
    block = simulator._Block({}, misses, misses)
    want = simulator._SuccessRatePolicy._steps(per_step, block)
    assert run_wise._steps(block).tolist() == want
    assert _state(run_wise) == _state(per_step)
    assert sum(a != b for a, b in zip(want, want[1:])) > 1000


@pytest.mark.parametrize("switch", [None, 0, 1, 15, 16, 17, 271, 272, 273, 4095])
def test_run_wise_adversary_across_its_windows(switch):
    # a run is scanned in windows of 16, 256 and 4096 steps, from its first
    # step: the first switch falls on no step of a 4096-step block (the
    # block's length), on a window's first step (0, 16, 272), either side of
    # a window's end, or on the block's last step.  Arm 1's rate is 99999 in
    # 100000; arm 0 hits at every step but switch - 1, so its rate, 1 at
    # every pick before, drops below arm 1's at the pick of step switch.
    if switch == 0:  # the gap is positive already, against a last sign of -1
        start = ([1, 1], [1, 2], 0, -1)
    else:
        start = ([1, 99999], [1, 100000], 0, 1)
    y = np.ones((2, 4096), dtype=np.intp)
    if switch:
        y[0, switch - 1] = 0
    run_wise, per_step = _adversaries(2, 2, start)
    block = simulator._Block({}, y, y)
    want = simulator._SuccessRatePolicy._steps(per_step, block)
    assert run_wise._steps(block).tolist() == want
    assert _state(run_wise) == _state(per_step)
    assert (want.index(1) if 1 in want else None) == switch


def test_overriding_pick_alone_keeps_the_per_step_rule():
    class FirstArm(AlternatingAdversaryPolicy):
        def _pick(self):
            return 0

    model = three_valued_model()
    assert FirstArm._steps is simulator._SuccessRatePolicy._steps
    assert AlternatingAdversaryPolicy._steps is not FirstArm._steps
    assert {obs.x for obs in sample_adaptive(model, FirstArm(), 500, seed=2)} == {0}
    assert sample_adaptive(model, FirstArm(), 500, seed=2) == \
        reference_sample_adaptive(model, FirstArm(), 500, seed=2)


# -- the inverse CDF at its boundaries --------------------------------------------

def _bisect_draw(row, u):
    """The reference inverse CDF: the number of cumulative entries at or
    below u times the row's sum."""
    cum = list(accumulate(row))
    return bisect_right(cum, u * cum[-1])


def _tie_model():
    """A three-valued X with two parents, U binary and Z three-valued, whose
    dyadic rows sum to exactly 1, so a uniform equal to a cumulative entry
    is an exact tie; some rows repeat a cumulative value (a zero entry)."""
    doms = {"U": (0, 1), "Z": (0, 1, 2), "X": ("a", "b", "c"), "Y": (0, 1)}
    rows = [(0.25, 0.25, 0.5), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
            (0.0, 0.0, 1.0), (0.75, 0.25, 0.0), (0.125, 0.375, 0.5)]
    cpts = {"U": Cpt((), {(): (0.5, 0.5)}), "Z": Cpt((), {(): (0.25, 0.25, 0.5)}),
            "X": Cpt(("U", "Z"), dict(zip(product((0, 1), (0, 1, 2)), rows))),
            "Y": Cpt(("X",), {("a",): (0.5, 0.5), ("b",): (0.0, 1.0), ("c",): (1.0, 0.0)})}
    dag = Dag(list(doms), [("U", "X"), ("Z", "X"), ("X", "Y")], doms)
    return CausalModel(dag, cpts, Roles("X", "Y", ("Z",)))


def _off_sum_model():
    """A four-valued X given a binary U and a three-valued Y given X, whose
    rows sum to 1 only up to rounding (the float sums of their entries are
    1 + 2**-52 or 1 - 2**-53), one with a zero entry."""
    doms = {"U": (0, 1), "X": (0, 1, 2, 3), "Y": ("a", "b", "c")}
    cpts = {"U": Cpt((), {(): (0.5, 0.5)}),
            "X": Cpt(("U",), {(0,): (0.2, 0.4, 0.3, 0.1), (1,): (0.7, 0.2, 0.1, 0.0)}),
            "Y": Cpt(("X",), {(0,): (0.7, 0.2, 0.1), (1,): (0.2, 0.7, 0.1),
                              (2,): (0.3, 0.6, 0.1), (3,): (0.6, 0.3, 0.1)})}
    dag = Dag(list(doms), [("U", "X"), ("X", "Y")], doms)
    return CausalModel(dag, cpts, Roles("X", "Y", ("U",)))


def _boundary_uniforms(row):
    """0, the largest float below 1, each cumulative entry over the row's sum
    and the floats on either side of it."""
    cum = list(accumulate(row))
    us = {0.0, math.nextafter(1.0, 0.0)}
    for c in cum:
        u = c / cum[-1]
        us |= {u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)}
    return sorted(u for u in us if 0.0 <= u < 1.0)


@pytest.mark.parametrize("make, vertex", [(_tie_model, "X"), (_tie_model, "Y"),
                                          (three_valued_model, "X"),
                                          (three_valued_model, "Y"),
                                          (_off_sum_model, "X"), (_off_sum_model, "Y")])
def test_draw_at_the_boundaries_is_the_bisection_of_the_row(make, vertex):
    model = make()
    cpt, doms = model.cpts[vertex], model.dag.domains
    configs, us, want = [], [], []
    for config, row in cpt.rows.items():
        for u in _boundary_uniforms(row):
            configs.append(config)
            us.append(u)
            want.append(_bisect_draw(row, u))
    # every (configuration, u) pair at once, each parent as a column of indices
    index = {p: np.array([doms[p].index(c[j]) for c in configs])
             for j, p in enumerate(cpt.parents)}
    got = simulator._draw(model, vertex, index, np.array(us))
    assert got.dtype == np.intp
    assert got.tolist() == want
    if make is _tie_model and vertex == "X":
        ties = sum(u * sum(row) in accumulate(row) for u, row in
                   zip(us, (cpt.rows[c] for c in configs)))
        assert ties > len(cpt.rows)  # exact ties, zero entries among them
    if make is _off_sum_model:
        # at the largest uniform the row's sum, the skipped last entry, is
        # never reached, whether the sum is above or below 1
        sums = {list(accumulate(row))[-1] for row in cpt.rows.values()}
        assert 1.0 not in sums
        top = [d for u, d in zip(us, want) if u == math.nextafter(1.0, 0.0)]
        assert len(top) == len(cpt.rows) and max(top) < len(doms[vertex])


class _QueuedUniforms:
    """A stand-in generator that hands out the given blocks of uniforms,
    one block per call."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def random(self, size):
        block = self.blocks.pop(0)
        assert len(block) == size
        return np.array(block, dtype=float)


@pytest.mark.parametrize("make", [_tie_model, three_valued_model, _off_sum_model])
def test_iid_draws_at_the_boundaries_are_the_inverse_cdf_of_choice(make, monkeypatch):
    # Generator.choice counts the entries of cumsum(row) / cumsum(row)[-1]
    # at or below each uniform: at uniforms on and beside those entries
    # (rounding decides there), for every configuration of the treatment's
    # parents, each a root held at one value by the middle of its interval
    model = make()
    doms, cpt = model.dag.domains, model.cpts[model.roles.x]
    monkeypatch.setattr(simulator, "as_generator", lambda seed: seed)
    for config, row in cpt.rows.items():
        cdf = np.cumsum(row) / np.cumsum(row)[-1]
        us = _boundary_uniforms(row)
        blocks = []
        for v in model.dag.topological_order():
            if v in cpt.parents:
                j = doms[v].index(config[cpt.parents.index(v)])
                root = np.cumsum(model.cpts[v].rows[()])
                blocks.append([(root[j] - model.cpts[v].rows[()][j] / 2) / root[-1]] * len(us))
            else:
                blocks.append(us if v == model.roles.x else [0.0] * len(us))
        codes = simulator._iid_codes(model, len(us), _QueuedUniforms(blocks))
        table = model.count_table()
        got = (codes // (len(table.layout.y_domain) * len(table.layout.z_values))).tolist()
        assert got == cdf.searchsorted(us, side='right').tolist()


class _FixedUniforms:
    """A stand-in generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.625, 0.75, math.nextafter(1.0, 0.0)])
def test_single_draws_at_the_boundaries_are_the_bisection_of_the_row(u, monkeypatch):
    model = _tie_model()
    doms, rows = model.dag.domains, {v: model.cpts[v].rows for v in model.cpts}
    # CptPolicy.choose draws X from the row of the visible U and Z
    policy = CptPolicy()
    policy.reset(model, _FixedUniforms(u))
    for (a, z), row in rows["X"].items():
        assert policy.choose([], {"U": a, "Z": z}) == doms["X"][_bisect_draw(row, u)]
    # draw_intervened_outcome draws U and Z, pins X and draws Y, each with u
    monkeypatch.setattr(simulator, "as_generator", _FixedUniforms)
    for x in doms["X"]:
        want = doms["Y"][_bisect_draw(rows["Y"][(x,)], u)]
        assert draw_intervened_outcome(model, x, u) == want


def test_samplers_and_ground_truth_build_no_table(monkeypatch):
    # they read the model's layout; a table is built only to be ingested into
    def refuse(table, layout):
        raise AssertionError("a CountTable was built")

    class Asking(Policy):  # choose only, so asked through _asking at every step
        def choose(self, history, visible):
            return len(history) % 2

    monkeypatch.setattr(CountTable, '__init__', refuse)
    for model, criterion in ((fig1_model(), 'backdoor'), (frontdoor_model(), 'frontdoor')):
        assert len(simulator._iid_codes(model, 50, 1)) == len(sample_iid(model, 50, 1)) == 50
        for policy in (ConstantPolicy(1), CptPolicy(), AlternatingAdversaryPolicy(), Asking()):
            assert len(simulator._adaptive_codes(model, policy, 50, 1)) == 50
            assert len(sample_adaptive(model, policy, 50, 1)) == 50
        assert 0 <= true_effect(model, 1, 1, criterion) <= 1
        assert 0 <= model.interventional_probability(1, 1) <= 1
