import pytest

from causalci.counts import Observation
from causalci.prediction import prediction_set
from helpers import binary_table, eight_obs_stream, random_table


def test_sparse_counts_give_full_set():
    # any treated z-cell with fewer than two occurrences leaves both
    # endpoints unbounded
    table = binary_table([Observation(1, 1, (0,))] * 4 + [Observation(1, 1, (1,))])
    gamma = prediction_set(table, 1, 0.1)
    assert set(gamma.members) == {0, 1}
    assert all(d["endpoint"] == float('inf') for d in gamma.diagnostics)


def test_empty_table_gives_full_set():
    gamma = prediction_set(binary_table(), 1, 0.1)
    assert set(gamma.members) == {0, 1}


def test_likely_outcome_is_member():
    # large stream, treated outcomes all 1 in both z cells
    stream = []
    for i in range(4096):
        z = i % 2
        stream.append(Observation(1, 1, (z,)))
    table = binary_table(stream)
    gamma = prediction_set(table, 1, 0.1)
    assert 1 in gamma.members
    d = {r["y"]: r for r in gamma.diagnostics}
    assert d[1]["endpoint"] > 0.05
    assert d[1]["midpoint"] == pytest.approx(1.0)


def test_unlikely_outcome_excluded_at_large_n():
    # 2^17 observations: the half-width drops below delta/2, so the
    # impossible outcome falls out of the set
    n = 1 << 17
    stream = [Observation(1, 1, (i % 2,)) if i % 4 < 2 else
              Observation(0, 0, (i % 2,)) for i in range(n)]
    table = binary_table(stream)
    gamma = prediction_set(table, 1, 0.1)
    assert gamma.members == (1,)
    d = {r["y"]: r for r in gamma.diagnostics}
    assert d[0]["endpoint"] <= 0.05 < d[1]["endpoint"]


def test_monotone_in_delta():
    rng = __import__('numpy').random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(8, 400))
        stream = [Observation(int(rng.integers(2)), int(rng.integers(2)),
                              (int(rng.integers(2)),)) for _ in range(n)]
        table = binary_table(stream)
        deltas = (0.02, 0.1, 0.3, 0.6)
        sets = [set(prediction_set(table, 1, d).members) for d in deltas]
        for smaller, larger in zip(sets[1:], sets):  # larger delta -> subset
            assert smaller <= larger


def test_never_empty_with_moderate_data():
    rng = __import__('numpy').random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(4, 600))
        stream = [Observation(int(rng.integers(2)), int(rng.integers(2)),
                              (int(rng.integers(2)),)) for _ in range(n)]
        gamma = prediction_set(binary_table(stream), 1, 0.1)
        assert gamma.members


def test_requires_binary_shape():
    rng = __import__('numpy').random.default_rng(71)
    table, _ = random_table(rng, min_n=10, max_n=20)
    while len(table.layout.x_domain) == 2 and len(table.layout.y_domain) == 2 \
            and len(table.layout.z_values) == 2 and len(table.layout.z_domains) == 1:
        table, _ = random_table(rng, min_n=10, max_n=20)
    with pytest.raises(ValueError):
        prediction_set(table, table.layout.x_domain[0], 0.1)


def test_strict_threshold():
    gamma = prediction_set(binary_table(eight_obs_stream()), 1, 0.1)
    for d in gamma.diagnostics:
        assert d["member"] == (d["endpoint"] > gamma.threshold)
    assert gamma.threshold == 0.05


@pytest.mark.parametrize("delta", [0, 1, -0.1, 1.5])
def test_prediction_set_refuses_delta_outside_the_unit_interval(delta):
    with pytest.raises(ValueError, match=rf"^delta must be in \(0, 1\), got {delta}$"):
        prediction_set(binary_table(eight_obs_stream()), 1, delta)
