"""The per-run path calls numpy's reduction kernels, not its Python wrappers.

``ndarray.mean/min/max/any``, ``np.sum``, ``np.searchsorted``,
``np.flatnonzero``, ``np.diff``, ``np.sort`` and friends are Python
functions in ``numpy/_core/_methods.py``, ``fromnumeric.py`` and
``numeric.py``; at N=20 their overhead costs more than the work. The engine
and the metrics call the ufunc reductions and array methods those wrappers
call themselves. The tests below pin both halves: no wrapper is called on a
run, and each replacement gives the wrapper's bits.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from opiniondyn import (
    InitialNetworkSpec,
    SimulationConfig,
    ThreeWayThresholds,
    build_term_set,
    cluster_count,
    complete_network,
    metrics,
    run,
)
from opiniondyn.metrics import default_cluster_tolerance
from conftest import REFERENCE_TERMS, scaled
from oracles import filter_neighbors, update_value

TS = build_term_set(3, 2)
THRESH = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0)
NUMPY_DIR = os.path.dirname(np.__file__)
WRAPPER_FILES = {"_methods.py", "fromnumeric.py", "numeric.py"}


def wrapper_calls(fn):
    """(file, function) of every call into numpy's wrapper modules during fn()."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(NUMPY_DIR)
                and os.path.basename(code.co_filename) in WRAPPER_FILES):
            calls.append((os.path.basename(code.co_filename), code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("seed", [5, 7])
def test_a_run_and_its_cluster_count_call_no_numpy_wrapper(seed):
    # Seed 7 is the README run; seed 5 also re-averages near-midpoint rows
    # through the scalar kernel behind update_value and nearest_terms.
    config = SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS), seed=seed,
                              initial_network=InitialNetworkSpec(edge_prob=0.1))
    tolerance = default_cluster_tolerance(config.term_set())
    cluster_count(run(config).final_values, tolerance)  # warm the caches and lazy imports

    def run_and_count():
        cluster_count(run(config).final_values, tolerance)

    assert wrapper_calls(run_and_count) == []


def test_record_columns_and_final_metrics_call_no_numpy_wrapper():
    # A run computes no column; its record computes them when they are read.
    config = SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS), seed=7,
                              initial_network=InitialNetworkSpec(edge_prob=0.1))
    tolerance = default_cluster_tolerance(config.term_set())
    columns = ("variance", "opinion_range", "consensus", "delta_max", "avg_degree", "isolated")

    def read_columns():
        record = run(config)
        for name in columns:
            getattr(record, name)
        metrics.final_metrics(record.values, config.d_max, tolerance)

    read_columns()  # warm the caches and lazy imports
    assert wrapper_calls(read_columns) == []


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Opinions in [0, 1], subnormals included, with term values so that states
# hold ties and all-equal rows.
unit_floats = st.one_of(st.floats(0.0, 1.0), st.sampled_from(TS.values.tolist()))
states = arrays(np.float64, st.integers(1, 40), elements=unit_floats)
histories = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 30)),
                   elements=unit_floats)
# intp as network.row_counts gives the degrees of a network and of
# TrajectoryRecord, uint32 as the widest lane it sums them in
degree_rows = arrays(st.sampled_from([np.intp, np.uint32]),
                     st.tuples(st.integers(1, 8), st.integers(1, 30)),
                     elements=st.integers(0, 1000))


@settings(max_examples=scaled(200), deadline=None)
@given(x=st.one_of(states, histories))
def test_float_reductions_match_the_wrappers(x):
    n = x.shape[-1]
    assert same_bits(np.add.reduce(x, -1) / n, x.mean(axis=-1))
    assert same_bits(np.add.reduce(x, -1, keepdims=True) / n, x.mean(axis=-1, keepdims=True))
    assert same_bits(np.add.reduce(x, None, float) / x.size, x.mean())
    assert same_bits(np.add.reduce(x ** 2, -1), np.sum(x ** 2, axis=-1))
    assert same_bits(np.minimum.reduce(x, -1), x.min(axis=-1))
    assert same_bits(np.maximum.reduce(x, -1), np.max(x, axis=-1))
    assert same_bits(np.minimum.reduce(x, None), x.min())
    assert same_bits(np.maximum.reduce(x, -1, keepdims=True), x.max(axis=-1, keepdims=True))
    mask = x > 0.5
    assert same_bits(np.logical_or.reduce(mask, -1), mask.any(axis=-1))
    assert same_bits(np.logical_or.reduce(mask, None), np.any(mask))
    assert same_bits(np.logical_and.reduce(mask, None), np.all(mask))
    assert same_bits(mask.ravel().nonzero()[0], np.flatnonzero(mask))


@settings(max_examples=scaled(200), deadline=None)
@given(d=degree_rows)
def test_degree_row_reductions_match_the_wrappers(d):
    assert same_bits(np.add.reduce(d, 1, float) / d.shape[1], d.mean(axis=1))
    assert same_bits(np.add.reduce(d == 0, 1), (d == 0).sum(axis=1))


@settings(max_examples=scaled(200), deadline=None)
@given(x=states, probe=states)
def test_sorting_and_searching_replacements_match_the_wrappers(x, probe):
    ordered = x.copy()
    ordered.sort()
    assert same_bits(ordered, np.sort(x))
    assert same_bits(ordered[1:] - ordered[:-1], np.diff(ordered))
    for side in ("left", "right"):
        assert same_bits(ordered.searchsorted(probe, side), np.searchsorted(ordered, probe, side=side))


# The metrics as written with numpy's wrappers, before the kernels were
# called directly; the module must keep their bits.

def wrapped_deviations(arr):
    spread = arr.min(axis=-1, keepdims=True) != arr.max(axis=-1, keepdims=True)
    return np.subtract(arr, arr.mean(axis=-1, keepdims=True), out=np.zeros_like(arr),
                       where=spread)


def wrapped_variance(deviations):
    total = np.sum(deviations ** 2, axis=-1)
    v = total / deviations.shape[-1]
    tiny = (total > 0.0) & (v < 2.0 ** -900)
    if np.any(tiny):
        v = np.array(v)
        scaled = deviations[tiny] * 2.0 ** 600
        v[tiny] = np.mean(scaled ** 2, axis=-1) * 2.0 ** -600 * 2.0 ** -600
    return v


def wrapped_update_value(current, accepted, opinions, inertia):
    vals = opinions[np.asarray(accepted, dtype=int)]
    lo, hi = vals.min(), vals.max()
    mean = float(lo) if lo == hi else float(vals.mean())
    if inertia == 0.0:
        return mean
    if mean == current:
        return float(current)
    return float(inertia * current + (1.0 - inertia) * mean)


@settings(max_examples=scaled(200), deadline=None)
@given(x=st.one_of(states, histories), d_max=st.sampled_from([0.5, 0.25, 1.0]))
def test_metrics_keep_the_bits_of_their_wrapped_forms(x, d_max):
    deviations = wrapped_deviations(x)
    assert same_bits(metrics._deviations(x), deviations)
    assert same_bits(metrics.variance(x), wrapped_variance(deviations))
    assert same_bits(metrics.opinion_range(x), x.max(axis=-1) - x.min(axis=-1))
    assert same_bits(metrics.consensus_index(x, d_max),
                     1.0 - np.mean(np.abs(deviations), axis=-1) / d_max)
    shifted = x[..., ::-1]
    assert same_bits(metrics.delta_max(x, shifted), np.max(np.abs(shifted - x), axis=-1))
    if x.ndim == 1:
        assert cluster_count(x, 0.01) == 1 + int(np.sum(np.diff(np.sort(x)) > 0.01))


@settings(max_examples=scaled(200), deadline=None)
@given(x=states, data=st.data())
def test_update_value_keeps_the_bits_of_its_wrapped_form(x, data):
    accepted = data.draw(st.lists(st.integers(0, x.size - 1), min_size=1, max_size=x.size))
    current = data.draw(unit_floats)
    inertia = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    assert same_bits(update_value(current, accepted, x, inertia),
                     wrapped_update_value(current, accepted, x, inertia))


@pytest.mark.parametrize("opinions", [np.array([[0.1, 0.5, 0.9]]), np.array([0.1, 0.5])])
def test_filter_rejects_opinions_of_the_wrong_shape_before_any_draw(opinions):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="expected 3 opinions"):
        filter_neighbors(0, opinions, complete_network(3), THRESH, rng)
    assert rng.random() == np.random.default_rng(3).random()


def test_update_value_rejects_a_boolean_mask():
    opinions = np.array([0.0, 0.25, 1.0])
    with pytest.raises(TypeError, match="boolean mask"):
        update_value(0.5, [True, False, True], opinions, 0.0)
    with pytest.raises(TypeError, match="boolean mask"):
        update_value(0.5, np.True_, opinions, 0.0)
    assert update_value(0.5, [], opinions, 0.0) == 0.5
    assert update_value(0.5, np.array([], dtype=bool), opinions, 0.0) == 0.5
    assert update_value(0.5, [0, 2], opinions, 0.0) == 0.5


@pytest.mark.parametrize("accepted", [[0.7], [1.9, 2.2], np.array([1.0]), [None]])
def test_update_value_rejects_non_integer_indices(accepted):
    with pytest.raises(TypeError, match="integer agent indices"):
        update_value(0.5, accepted, np.array([0.0, 0.25, 1.0]), 0.0)


@pytest.mark.parametrize("accepted", [[-1], [3], [0, 5], np.array([2**63], dtype=np.uint64)])
def test_update_value_rejects_indices_outside_the_agents(accepted):
    opinions = np.array([0.0, 0.25, 1.0])
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        update_value(0.5, accepted, opinions, 0.0)
    for dtype in (np.int8, np.uint16, np.int64, np.uint64):  # any integer dtype indexes
        assert update_value(0.5, np.array([1, 2], dtype=dtype), opinions, 0.0) == 0.625


@pytest.mark.parametrize("opinions", [[0.1, np.nan, 0.9], [np.nan], [np.nan, 0.2, np.nan]])
def test_cluster_count_rejects_nan(opinions):
    with pytest.raises(ValueError, match="NaN"):
        cluster_count(opinions, 0.05)
