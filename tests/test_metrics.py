import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from opiniondyn import (
    build_term_set,
    cluster_count,
    consensus_index,
    default_cluster_tolerance,
    delta_max,
    opinion_range,
    variance,
)
from opiniondyn.metrics import final_metrics, trajectory_metrics
from conftest import scaled

TWO_CLUSTER = np.array([0.0] * 5 + [0.5] * 15)


def test_variance_examples():
    assert variance(TWO_CLUSTER) == pytest.approx(0.046875, abs=1e-15)
    assert variance([0.3, 0.3, 0.3]) == 0.0
    assert variance([0.0, 1.0]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        variance([])


def test_range_examples():
    assert opinion_range(TWO_CLUSTER) == 0.5
    assert opinion_range([0.7, 0.7]) == 0.0
    assert opinion_range([0.2, 0.9]) == pytest.approx(0.7)


def test_consensus_index_examples():
    assert consensus_index(TWO_CLUSTER, 0.5) == pytest.approx(0.625, abs=1e-15)
    assert consensus_index([0.42] * 7, 0.5) == 1.0
    half_half = [0.0] * 5 + [1.0] * 5
    assert consensus_index(half_half, 0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        consensus_index(TWO_CLUSTER, 0.0)


def test_cluster_count_examples():
    assert cluster_count([0.4] * 6, 0.05) == 1
    assert cluster_count(TWO_CLUSTER, 0.05) == 2
    # chained sub-tolerance gaps merge transitively
    assert cluster_count([0.0, 0.04, 0.08], 0.05) == 1
    with pytest.raises(ValueError):
        cluster_count([0.1], -0.1)


def test_cluster_count_zero_tolerance_counts_distinct_values():
    assert cluster_count([0.1, 0.1, 0.2, 0.5, 0.5, 0.9], 0.0) == 4


def test_delta_max_examples():
    assert delta_max([0.1, 0.5], [0.1, 0.5]) == 0.0
    assert delta_max([0.0, 0.5], [0.2, 0.5]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        delta_max([0.1], [0.1, 0.2])


def test_default_cluster_tolerance():
    ts = build_term_set(3, 2)
    # smallest adjacent gap is 1/14, around the midpoint
    assert default_cluster_tolerance(ts) == pytest.approx(1 / 28, abs=1e-15)


opinions_arrays = st.lists(
    st.floats(0, 1, allow_nan=False), min_size=1, max_size=30
).map(np.array)


@settings(max_examples=scaled(100))
@given(opinions=opinions_arrays, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(opinions, seed):
    perm = np.random.default_rng(seed).permutation(len(opinions))
    shuffled = opinions[perm]
    assert variance(shuffled) == pytest.approx(variance(opinions), abs=1e-12)
    assert opinion_range(shuffled) == opinion_range(opinions)
    assert consensus_index(shuffled) == pytest.approx(consensus_index(opinions), abs=1e-12)
    assert cluster_count(shuffled, 0.1) == cluster_count(opinions, 0.1)


@given(opinions=opinions_arrays)
def test_variance_matches_two_pass_brute_force(opinions):
    mean = sum(opinions) / len(opinions)
    expected = sum((x - mean) ** 2 for x in opinions) / len(opinions)
    assert variance(opinions) == pytest.approx(expected, abs=1e-12)


@given(opinions=opinions_arrays)
def test_consensus_bounds_with_default_normalizer(opinions):
    # MAD over [0, 1] opinions never exceeds 0.5, so the index stays in [0, 1]
    c = consensus_index(opinions, 0.5)
    assert -1e-12 <= c <= 1.0 + 1e-12


def exact_variance(opinions) -> Fraction:
    values = [Fraction(float(x)) for x in opinions]
    mean = sum(values) / len(values)
    return sum((x - mean) ** 2 for x in values) / len(values)


@given(opinions=opinions_arrays)
@example(opinions=np.array([0.0, 8.04e-274]))
@example(opinions=np.array([0.0, 0.0, 3.6962794059349117e-162]))
def test_degenerate_equivalences(opinions):
    # A positive range does not imply a positive float64 variance: for
    # [0.0, 8.04e-274] the exact variance is below the smallest subnormal,
    # so its correctly rounded value is 0.0. Zero variance is therefore
    # checked against the exact variance rounded to float. Conversely, for
    # [0, 0, 3.70e-162] every squared deviation underflows to a subnormal, yet
    # the exact variance rounds to 5e-324, so variance must not return 0.
    if opinion_range(opinions) == 0.0:
        assert variance(opinions) == 0.0
        assert consensus_index(opinions) == 1.0
    if variance(opinions) == 0.0:
        assert float(exact_variance(opinions)) == 0.0


@given(a=opinions_arrays)
def test_delta_max_symmetry(a):
    b = 1.0 - a
    assert delta_max(a, b) == delta_max(b, a)


# Scalar references: one state at a time, each with its own all-equal guard.
def scalar_variance(x) -> float:
    if x.min() == x.max():
        return 0.0
    d = x - x.mean()
    v = float(np.mean(d ** 2))
    if np.sum(d ** 2) > 0.0 and v < 2.0 ** -900:  # underflowed squares: redo at a power-of-two scale
        v = float(np.mean((d * 2.0 ** 600) ** 2)) * 2.0 ** -600 * 2.0 ** -600
    return v


def scalar_consensus(x, d_max) -> float:
    return 1.0 if x.min() == x.max() else 1.0 - float(np.mean(np.abs(x - x.mean()))) / d_max


@st.composite
def histories(draw):
    # widths past 128 make numpy's pairwise sum split each row into blocks
    n = draw(st.one_of(st.integers(1, 12), st.integers(120, 300)))
    values = st.one_of(st.floats(0, 1), st.sampled_from(build_term_set(3, 2).values.tolist()))
    row = st.one_of(
        arrays(np.float64, n, elements=values),
        values.map(lambda v: np.full(n, v)),
        st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).random(n)),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=5)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=scaled(200))
@given(hist=histories(), d_max=st.sampled_from([0.5, 0.3, 1.0, 7.0]))
@example(hist=np.array([[0.0, 8.04e-274]]), d_max=0.5)
@example(hist=np.array([[0.0, 0.0, 3.6962794059349117e-162], [0.5, 0.5, 0.5]]), d_max=0.5)
@example(hist=np.array([[0.3] * 5, [1 / 3] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]]), d_max=0.5)
@example(hist=np.array([[0.25], [0.75], [0.75]]), d_max=0.5)
@example(hist=np.random.default_rng(5).random((3, 257)), d_max=0.5)
def test_history_metrics_equal_per_state_calls(hist, d_max):
    rows = list(hist)
    for metric, reference in [(variance, scalar_variance), (opinion_range, None),
                              (lambda x: consensus_index(x, d_max),
                               lambda x: scalar_consensus(x, d_max))]:
        per_row = [metric(x) for x in rows]
        assert all(type(v) is float for v in per_row)
        assert same_bits(metric(hist), per_row)
        if reference is not None:
            assert same_bits(per_row, [reference(x) for x in rows])
    steps = [delta_max(a, b) for a, b in zip(rows, rows[1:])]
    assert all(type(v) is float for v in steps)
    assert same_bits(delta_max(hist[:-1], hist[1:]), steps)
    expected = ([variance(x) for x in rows], [opinion_range(x) for x in rows],
                [consensus_index(x, d_max) for x in rows], [np.nan] + steps)
    for states in (hist, rows):
        for got, want in zip(trajectory_metrics(states, d_max), expected):
            assert same_bits(got, want)
    with pytest.raises(ValueError):
        cluster_count(hist, 0.1)  # one state only


@settings(max_examples=scaled(100))
@given(stack=histories(), d_max=st.sampled_from([0.5, 0.3, 1.0, 7.0]),
       tolerance=st.sampled_from([0.0, 0.05, default_cluster_tolerance(build_term_set(3, 2))]))
@example(stack=np.array([[0.0, 8.04e-274], [0.5, 0.5]]), d_max=0.5, tolerance=0.0)
def test_final_metrics_equal_each_histories_last_row(stack, d_max, tolerance):
    # Each row of a stack of final states gets the last row of the metrics of
    # a history that ends in it, whatever else the stack holds.
    var, range_, cons, clusters = final_metrics(stack, d_max, tolerance)
    for k, state in enumerate(stack):
        history = np.array([np.linspace(0.0, 1.0, state.size), state])
        assert same_bits([c[-1] for c in trajectory_metrics(history, d_max)[:3]],
                         [var[k], range_[k], cons[k]])
        assert clusters[k] == cluster_count(state, tolerance)
    with pytest.raises(ValueError, match="2-d"):
        final_metrics(stack[0], d_max, tolerance)
    with pytest.raises(ValueError, match="NaN"):
        final_metrics(np.vstack([stack, np.full(stack.shape[1], np.nan)]), d_max, tolerance)


def test_trajectory_metrics_needs_a_history_of_states():
    with pytest.raises(ValueError, match="a history is 2-d, one state per row"):
        trajectory_metrics([0.1, 0.5, 0.9], 0.5)


@pytest.mark.parametrize("metric", [
    variance, opinion_range, lambda x: consensus_index(x, 0.5),
    lambda x: trajectory_metrics(x, 0.5),
], ids=["variance", "opinion_range", "consensus_index", "trajectory_metrics"])
def test_a_history_of_no_states_is_rejected(metric):
    with pytest.raises(ValueError, match="non-empty"):
        metric(np.empty((0, 3)))


def test_trajectory_metrics_of_one_state_has_no_delta_max():
    # one iteration of an opinions CSV, as `opiniondyn metrics` reads it
    var, range_, cons, moves = trajectory_metrics([[0.0, 0.5, 0.5, 1.0]], 0.5)
    assert var.tolist() == [0.125] and range_.tolist() == [1.0] and cons.tolist() == [0.5]
    assert moves.shape == (1,) and np.isnan(moves[0])


def test_consensus_index_rejects_a_subnormal_d_max():
    with pytest.raises(ValueError, match=r"d_max must be >= 2.2250738585072014e-308, got 1e-320"):
        consensus_index([0.0, 1.0], 1e-320)
    assert consensus_index([0.0, 1.0], sys.float_info.min) == 1.0 - 0.5 / sys.float_info.min
