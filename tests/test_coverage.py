import hashlib
import json
import math
import re

import numpy as np
import pytest

from causalci import coverage
from causalci.coverage import run_coverage, run_prediction_coverage
from causalci.effects import EffectQuery, confidence_sequence, true_effect
from causalci.simulator import AlternatingAdversaryPolicy, ConstantPolicy, \
    sample_adaptive
from helpers import code_rows, dyadic_rows, fig1_model, frontdoor_model, read_conditions


def test_single_replication_coverage_is_binary():
    model = fig1_model()
    report = run_coverage(model, EffectQuery('backdoor', 1, 1, 0.1), n=100,
                          replications=1, seed=4)
    assert report.coverage in (0.0, 1.0)
    assert report.mc_se == 0.0


def test_iid_backdoor_small_run():
    model = fig1_model()
    query = EffectQuery('backdoor', 1, 1, 0.1, binary_toy=True)
    report = run_coverage(model, query, n=300, replications=100, seed=8)
    assert report.coverage >= 0.90 - 3 * max(report.mc_se, 0.03)
    assert report.true_value == pytest.approx(0.5)
    assert 0 <= report.unbounded_fraction <= 1


def test_mean_halfwidth_shrinks_with_n():
    model = fig1_model()
    query = EffectQuery('backdoor', 1, 1, 0.1, binary_toy=True)
    widths = [run_coverage(model, query, n=n, replications=40,
                           seed=15).mean_halfwidth
              for n in (2 ** 7, 2 ** 9, 2 ** 11)]
    assert widths[0] > widths[1] > widths[2]


@pytest.mark.parametrize("criterion,regime", [
    ("backdoor", "iid"), ("backdoor", "adaptive-fixed"), ("backdoor", "anytime"),
    ("frontdoor", "iid"), ("frontdoor", "adaptive-fixed"),
    ("frontdoor", "anytime"),
])
def test_width_profile_every_construction(criterion, regime):
    model = fig1_model() if criterion == "backdoor" else frontdoor_model()
    query = EffectQuery(criterion, 1, 1, 0.1, regime)
    widths = [run_coverage(model, query, n=n, replications=15,
                           seed=19).mean_halfwidth
              for n in (2 ** 7, 2 ** 9, 2 ** 11)]
    assert widths[0] > widths[1] > widths[2]


@pytest.mark.parametrize("criterion", ["backdoor", "frontdoor"])
def test_coverage_at_tighter_level(criterion):
    model = fig1_model() if criterion == "backdoor" else frontdoor_model()
    report = run_coverage(model, EffectQuery(criterion, 1, 1, 0.05),
                          n=400, replications=120, seed=27)
    assert report.coverage >= 0.95 - 3 * max(report.mc_se, 0.03)


def test_unbounded_intervals_count_as_covering():
    # a policy that never plays the treated value leaves every interval
    # unbounded, which realizes [0,1] and always covers
    model = fig1_model()
    query = EffectQuery('backdoor', 1, 1, 0.1, regime='adaptive-fixed')
    report = run_coverage(model, query, n=40, replications=20, seed=16,
                          policy=ConstantPolicy(0))
    assert report.coverage == 1.0
    assert report.unbounded_fraction == 1.0
    assert math.isinf(report.mean_halfwidth)
    assert report.to_json()["mean_halfwidth"] is None


def test_anytime_intersection_run():
    model = fig1_model()
    query = EffectQuery('backdoor', 1, 1, 0.1, regime='anytime')
    report = run_coverage(model, query, n=256, replications=60, seed=23,
                          policy=AlternatingAdversaryPolicy())
    assert report.coverage >= 0.90 - 3 * max(report.mc_se, 0.04)


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_is_refused(workers):
    query = EffectQuery('backdoor', 1, 1, 0.1)
    with pytest.raises(ValueError, match=f"^need at least one worker, got {workers}$"):
        run_coverage(fig1_model(), query, n=16, replications=2, workers=workers)


def test_workers_agree_with_sequential():
    model = frontdoor_model()
    query = EffectQuery('frontdoor', 1, 1, 0.1)
    seq = run_coverage(model, query, n=120, replications=16, seed=42, workers=1)
    par = run_coverage(model, query, n=120, replications=16, seed=42, workers=2)
    assert seq == par


@pytest.mark.parametrize("make_model, criterion", [(fig1_model, 'backdoor'),
                                                   (frontdoor_model, 'frontdoor')])
@pytest.mark.parametrize("x, y, message", [
    (7, 1, "query x value 7 not in declared domain [0, 1]"),
    (1, 9, "query y value 9 not in declared domain [0, 1]"),
])
def test_query_value_outside_the_domain_is_refused(make_model, criterion, x, y,
                                                   message):
    # named as analyze names it, not as the truth's evaluation fails on it
    query = EffectQuery(criterion, x, y, 0.1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_coverage(make_model(), query, n=50, replications=2)


def test_policy_rejected_for_iid_regime():
    with pytest.raises(ValueError):
        run_coverage(fig1_model(), EffectQuery('backdoor', 1, 1, 0.1),
                     n=10, replications=2, policy=ConstantPolicy(1))
    with pytest.raises(ValueError):
        run_coverage(fig1_model(), EffectQuery('backdoor', 1, 1, 0.1),
                     n=10, replications=0)


def test_extreme_delta_stress_runs():
    # Widths do not vanish as delta -> 1: the level is split across the 2|Z|
    # estimated probabilities, so every Hoeffding radius carries
    # ln(4|Z|/delta) >= ln(4|Z|) = ln 8 here, and widths approach a positive
    # floor.  With L = ln(8/0.999) and n = 200 the back-door/iid half-width is
    #   2*sqrt(L/400) + sum_z sqrt(L/(2*n_{1z})),   n_{10} + n_{11} <= 200.
    # 1/sqrt is convex, so the sum is smallest at n_{10} = n_{11} = 100:
    #   floor    = 2*sqrt(L/400) + 2*sqrt(L/200)             ~= 0.3482
    # (ln(2/delta), which drops the split, gives ~0.25 and falls below it).
    # At the expected counts, P(X=1,Z=0)*n = 60 and P(X=1,Z=1)*n = 40:
    #   expected = 2*sqrt(L/400) + sqrt(L/120) + sqrt(L/80) ~= 0.4372
    # The MC sd of a 30-replication mean is about 0.5% (the multinomial
    # spread of n_{1z}), so rel=0.05 leaves room for it and the small Jensen
    # gap (+0.4%), and still rejects the binary-toy ratio 6/delta (about -7%).
    report = run_coverage(fig1_model(), EffectQuery('backdoor', 1, 1, 0.999),
                          n=200, replications=30, seed=33)
    assert 0.0 <= report.coverage <= 1.0
    log_ratio = math.log(4 * 2 / 0.999)
    marginal = 2 * math.sqrt(log_ratio / (2 * 200))
    floor = marginal + 2 * math.sqrt(log_ratio / (2 * 100))
    expected = marginal + sum(math.sqrt(log_ratio / (2 * p * 200))
                              for p in (0.3, 0.2))
    assert report.unbounded_fraction == 0
    assert report.mean_halfwidth >= floor
    assert report.mean_halfwidth == pytest.approx(expected, rel=0.05)


def test_report_serializes():
    report = run_coverage(fig1_model(), EffectQuery('backdoor', 1, 1, 0.1),
                          n=50, replications=5, seed=1)
    doc = report.to_json()
    assert doc["kind"] == "coverage_report"
    assert doc["replications"] == 5
    assert "coverage" in report.summary() or "coverage=" in report.summary()


def test_prediction_coverage_smoke():
    model = fig1_model()
    report = run_prediction_coverage(model, 1, 0.2, n=128, replications=50,
                                     seed=3, policy=AlternatingAdversaryPolicy())
    assert report["miss_rate"] <= 0.2 + 3 * max(report["mc_se"], 0.06)
    assert 0 <= report["mean_set_size"] <= 2


# SHA-256 over the JSON of run_coverage's reports, 4 replications each, at the
# acceptance seeds 1002-1006 and a benchmark seed, for the benchmark's six
# configurations (acceptance criteria 1-3) and two anytime horizons that are
# not a power of two.  A change to any figure of any report shows here.
COVERAGE_SHA256 = {
    ('backdoor', 'iid', 500, True):
        'ae4585ab8531cc1e525eeda0fd7604d074a98704d402871c75aba91a512e9cac',
    ('backdoor', 'adaptive-fixed', 512, False):
        '30673927945edba08d12f505930d50ed4b48fda251ec2e9dced6d17fbea99dc9',
    ('backdoor', 'anytime', 4096, False):
        'f2ff1b7f1f8690f7fa8a751efc40f39766aaf99735e8a7b52d9a0c9888b63868',
    ('frontdoor', 'iid', 500, False):
        'a1ec7923b13d4e869d3e9839d0280d854060964a66095d87324caeea671b0cc2',
    ('frontdoor', 'adaptive-fixed', 512, False):
        '62359ac16b79f6abe47a2d94891664301b0961309f098344c6e4b8eeb7429bf6',
    ('frontdoor', 'anytime', 4096, False):
        '2794a48c1e05f11b7c487c355069dec0ac9a5ce153e74e13208e38507d0aeaf3',
    ('backdoor', 'anytime', 1000, False):
        'fb527d873d5153c7bb6563bc7347dba06b0d1b0ec804c863cd174bd5ebe449c3',
    ('frontdoor', 'anytime', 1000, False):
        'd9e572ac374f4fda80013d095fb71a4375a777851b943500ff69f930100bdd03',
}


@pytest.mark.parametrize("config", list(COVERAGE_SHA256),
                         ids=lambda c: "-".join(map(str, c[:3])))
def test_coverage_reports_byte_identical(config):
    criterion, regime, n, toy = config
    model = fig1_model() if criterion == "backdoor" else frontdoor_model()
    query = EffectQuery(criterion, 1, 1, 0.1, regime=regime, binary_toy=toy)
    policy = None if regime == "iid" else AlternatingAdversaryPolicy()
    digest = hashlib.sha256()
    for seed in (1002, 1003, 1004, 1005, 1006, [71, 1, 0]):
        report = run_coverage(model, query, n, 4, seed=seed, policy=policy)
        digest.update(json.dumps(report.to_json()).encode() + b"\n")
    assert digest.hexdigest() == COVERAGE_SHA256[config]


@pytest.mark.parametrize("criterion", ["backdoor", "frontdoor"])
def test_anytime_replication_checks_every_checkpoint(monkeypatch, criterion):
    # the running intersection is checked at exactly the rows at which the
    # count of a condition the query reads reaches a power of two, and at the
    # final row; the stream's other checkpoints start no segment
    model = fig1_model() if criterion == "backdoor" else frontdoor_model()
    query = EffectQuery(criterion, 1, 1, 0.1, regime="anytime")
    policy, n, seed = AlternatingAdversaryPolicy(), 1000, 5
    rows = sample_adaptive(model, policy, n, np.random.Generator(np.random.PCG64(seed)))
    full = model.count_table()
    full.ingest_codes(code_rows(full, rows))
    read = dyadic_rows(rows, read_conditions(criterion, 1, full.x_domain, full.z_values))
    checked = []

    def spy(table, query):
        for segment in confidence_sequence(table, query):
            checked.append(segment)
            yield segment

    monkeypatch.setattr(coverage, "confidence_sequence", spy)
    theta = true_effect(model, 1, 1, criterion)
    assert coverage._replicate(model, query, n, policy, theta, seed)[0]
    starts = [first for first, _, _ in checked]
    assert [last + 1 for _, last, _ in checked[:-1]] == starts[1:]
    assert 30 < len(full.checkpoints()) and {*starts, checked[-1][1]} == read | {n}
    assert [itv.n for _, _, itv in checked] == starts


@pytest.mark.parametrize("replications", [0, -1])
def test_prediction_coverage_refuses_no_replications(replications):
    with pytest.raises(ValueError, match="^need at least one replication$"):
        run_prediction_coverage(fig1_model(), 1, 0.05, n=16,
                                replications=replications)
