import math

import numpy as np
import pytest

from opiniondyn import ThreeWayThresholds, network_from_edges
from oracles import acceptance_probability, classify_neighbor, filter_neighbors

THRESH = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0)


def test_threshold_validation():
    ThreeWayThresholds(alpha=0.6, beta=0.6, decay=0.0)  # empty hesitation zone is fine
    with pytest.raises(ValueError):
        ThreeWayThresholds(alpha=0.7, beta=0.6, decay=1.0)
    with pytest.raises(ValueError):
        ThreeWayThresholds(alpha=0.1, beta=1.3, decay=1.0)
    with pytest.raises(ValueError):
        ThreeWayThresholds(alpha=0.1, beta=0.5, decay=-1.0)


def test_acceptance_probability_examples():
    assert acceptance_probability(0.3, THRESH) == 1.0
    assert acceptance_probability(0.4, THRESH) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert acceptance_probability(0.6, THRESH) == 0.0
    with pytest.raises(ValueError):
        acceptance_probability(-0.1, THRESH)


def test_acceptance_probability_degenerate_boundary():
    # with alpha == beta the accept test runs first, so d == alpha accepts
    t = ThreeWayThresholds(alpha=0.6, beta=0.6, decay=5.0)
    assert acceptance_probability(0.6, t) == 1.0
    assert classify_neighbor(0.6, t, np.random.default_rng(0)) is True


@pytest.mark.parametrize("alpha,beta,decay", [(0.3, 0.6, 10.0), (0.0, 1.0, 3.0), (0.2, 0.2, 7.0)])
def test_acceptance_probability_shape(alpha, beta, decay):
    t = ThreeWayThresholds(alpha, beta, decay)
    grid = np.linspace(0, 1.2, 200)
    probs = [acceptance_probability(d, t) for d in grid]
    assert all(a >= b for a, b in zip(probs, probs[1:]))  # non-increasing
    assert all(p == 1.0 for d, p in zip(grid, probs) if d <= alpha)
    assert all(p == 0.0 for d, p in zip(grid, probs) if d >= beta)
    # continuous at d = alpha: exp(0) = 1 meets the certain-acceptance branch
    h = 1e-9
    if alpha + h < beta:
        assert acceptance_probability(alpha + h, t) == pytest.approx(1.0, abs=decay * h * 2)


def test_classify_deterministic_regions():
    rng = np.random.default_rng(0)
    assert classify_neighbor(0.1, THRESH, rng) is True
    assert classify_neighbor(0.9, THRESH, rng) is False
    with pytest.raises(ValueError):
        classify_neighbor(-0.2, THRESH, rng)


def test_classify_consumes_draws_only_in_hesitation_zone():
    rng_a = np.random.default_rng(99)
    classify_neighbor(0.1, THRESH, rng_a)
    classify_neighbor(0.9, THRESH, rng_a)
    rng_b = np.random.default_rng(99)
    assert rng_a.random() == rng_b.random()  # both streams still aligned
    rng_c = np.random.default_rng(99)
    classify_neighbor(0.4, THRESH, rng_c)  # one draw
    rng_d = np.random.default_rng(99)
    rng_d.random()
    assert rng_c.random() == rng_d.random()


def test_classify_monte_carlo_rate():
    rng = np.random.default_rng(12345)
    hits = sum(classify_neighbor(0.4, THRESH, rng) for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(math.exp(-1.0), abs=0.01)


def test_classify_lambda_zero_always_accepts_in_zone():
    t = ThreeWayThresholds(alpha=0.2, beta=0.8, decay=0.0)
    rng = np.random.default_rng(7)
    assert all(classify_neighbor(0.5, t, rng) for _ in range(100))


def test_nan_decay_rejected():
    with pytest.raises(ValueError, match="thresholds.lambda"):
        ThreeWayThresholds(alpha=0.3, beta=0.6, decay=math.nan)


@pytest.mark.parametrize("distance,accepts,draws", [
    (math.nan, False, 1),  # in neither outright region: one draw, then reject
    (0.4, True, 1),  # inside the zone with decay 0: one draw, always below 1
    (0.2, True, 0),
    (0.7, False, 0),
])
def test_neighbor_rule_takes_one_draw_exactly_in_the_hesitation_zone(distance, accepts, draws):
    thresholds = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=0.0)
    rng, batched, twin = (np.random.default_rng(11) for _ in range(3))
    twin.random(draws)
    following = twin.random()
    assert classify_neighbor(distance, thresholds, rng) is accepts
    assert rng.random() == following
    # The batched filter takes the same draws for a pair at that distance.
    pair = network_from_edges(2, [(0, 1)])
    accepted = filter_neighbors(0, np.array([0.0, distance]), pair, thresholds, batched)
    assert accepted.tolist() == ([1] if accepts else [])
    assert batched.random() == following
