from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opiniondyn import (
    build_term_set,
    cluster_count,
    consensus_index,
    default_cluster_tolerance,
    delta_max,
    opinion_range,
    variance,
)

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


@settings(max_examples=100)
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
def test_degenerate_equivalences(opinions):
    # A positive range does not imply a positive float64 variance: for
    # [0.0, 8.04e-274] the exact variance is below the smallest subnormal,
    # so its correctly rounded value is 0.0. Zero variance is therefore
    # checked against the exact variance rounded to float.
    if opinion_range(opinions) == 0.0:
        assert variance(opinions) == 0.0
        assert consensus_index(opinions) == 1.0
    if variance(opinions) == 0.0:
        assert float(exact_variance(opinions)) == 0.0


@given(a=opinions_arrays)
def test_delta_max_symmetry(a):
    b = 1.0 - a
    assert delta_max(a, b) == delta_max(b, a)
