import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opiniondyn.baselines as baselines_mod
from opiniondyn import (
    ConfigError,
    build_term_set,
    cluster_count,
    default_cluster_tolerance,
    degroot_run,
    degroot_step,
    degroot_weights,
    hk_run,
    nearest_term,
    nearest_terms,
)
from conftest import HETERO_CASE1, HETERO_CASE2, HETERO_CASE3, scaled
from oracles import hk_confidence_set, hk_step

TS = build_term_set(3, 2)


def test_uniform_weights():
    w = degroot_weights(np.zeros(20), "uniform")
    assert np.all(w == 0.05)


def test_distance_weights_row():
    w = degroot_weights(np.array([0.0, 0.5, 1.0]), "distance")
    # normalize (1, e^-0.5, e^-1) by hand
    raw = np.array([1.0, math.exp(-0.5), math.exp(-1.0)])
    np.testing.assert_allclose(w[0], raw / raw.sum(), atol=1e-12)
    np.testing.assert_allclose(w[0], [0.50648, 0.30719, 0.18633], atol=1e-4)


def test_distance_weights_collapse_to_uniform_when_equal():
    w = degroot_weights(np.full(6, 0.37), "distance")
    np.testing.assert_allclose(w, 1 / 6, atol=1e-15)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        degroot_weights(np.zeros(3), "inverse")


@settings(max_examples=scaled(100))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
       mode=st.sampled_from(["uniform", "distance"]))
def test_weights_are_row_stochastic(seed, n, mode):
    opinions = np.random.default_rng(seed).random(n)
    w = degroot_weights(opinions, mode)
    assert np.all(w >= 0) and np.all(w <= 1)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12


def test_degroot_step_uniform_mean(reference_values):
    w = degroot_weights(reference_values, "uniform")
    out = degroot_step(reference_values, w)
    np.testing.assert_allclose(out, 113 / 280, atol=1e-12)
    again = degroot_step(out, w)
    assert np.array_equal(out, again)  # exact fixed point at consensus


def test_degroot_step_identity_rows():
    out = degroot_step(np.array([0.2, 0.8, 0.5]), np.eye(3))
    np.testing.assert_array_equal(out, [0.2, 0.8, 0.5])


def test_degroot_step_rejects_bad_weights():
    with pytest.raises(ValueError):
        degroot_step(np.zeros(3), np.full((3, 3), 0.5))
    with pytest.raises(ValueError):
        degroot_step(np.zeros(3), np.full((2, 2), 0.5))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
def test_degroot_step_preserves_unit_interval(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    w = degroot_weights(x, "distance")
    out = degroot_step(x, w)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_hk_confidence_set_examples():
    x = np.array([0.0, 0.5, 1.0])
    assert list(hk_confidence_set(1, x, 0.5)) == [0, 1, 2]
    assert list(hk_confidence_set(0, x, 0.5)) == [0, 1]
    assert list(hk_confidence_set(2, np.array([0.1, 0.4, 0.8]), 0.0)) == [2]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), bound=st.floats(0, 1))
def test_hk_confidence_set_contains_self(seed, n, bound):
    x = np.random.default_rng(seed).random(n)
    agent = seed % n
    assert agent in hk_confidence_set(agent, x, bound)


def test_hk_step_examples():
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(hk_step(x, np.full(3, 0.5)), [0.25, 0.5, 0.75], atol=1e-15)
    out = hk_step(x, np.ones(3))
    np.testing.assert_allclose(out, x.mean(), atol=1e-15)
    np.testing.assert_array_equal(hk_step(x, np.zeros(3)), x)


@settings(max_examples=scaled(100))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), eps=st.floats(0, 1))
def test_hk_homogeneous_preserves_order(seed, n, eps):
    x = np.sort(np.random.default_rng(seed).random(n))
    out = hk_step(x, np.full(n, eps))
    assert np.all(np.diff(out) >= 0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


# phi=200 at base 1.01 has cells under 1e-3 wide, so many averages fall near
# a term midpoint.
HK_TERM_SETS = [build_term_set(*args) for args in ((1, 2.0), (3, 2.0), (4, 1.5), (200, 1.01))]
HK_BOUNDS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@settings(max_examples=scaled(200), deadline=None)
@given(data=st.data(), term_set=st.sampled_from(HK_TERM_SETS), n=st.integers(1, 12),
       homogeneous=st.booleans())
def test_hk_step_is_the_nearest_term_of_the_numeric_step(data, term_set, n, homogeneous):
    # baselines_mod.hk_step maps back; the oracle hk_step is the numeric average
    values = term_set.values
    mids = ((values[:-1] + values[1:]) / 2).tolist()
    opinion = st.one_of(st.sampled_from(values.tolist()), st.sampled_from(mids), st.floats(0, 1))
    x = np.array(data.draw(st.lists(opinion, min_size=n, max_size=n)))
    if homogeneous:
        eps = np.full(n, data.draw(HK_BOUNDS))
    else:
        eps = np.array(data.draw(st.lists(HK_BOUNDS, min_size=n, max_size=n)))
    terms = baselines_mod.hk_step(x, eps, term_set)
    expected = nearest_terms(term_set, hk_step(x, eps))
    assert terms.dtype == expected.dtype and terms.tobytes() == expected.tobytes()
    bad = eps.copy()
    bad[data.draw(st.integers(0, n - 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -0.25, 1.5, np.nextafter(1.0, 2.0)]))
    with pytest.raises(ValueError, match="bounds"):
        baselines_mod.hk_step(x, bad, term_set)


def test_hk_run_steps_through_hk_step_once_per_step(reference_values):
    # perfbench times HK by wrapping baselines.hk_step; a runner that inlined
    # the step, or bound another name, would leave that layer untimed
    bounds = np.full(20, 0.25)
    with mock.patch.object(baselines_mod, "hk_step", wraps=baselines_mod.hk_step) as step:
        rec = hk_run(reference_values, bounds, TS)
    assert rec.iterations > 1 and step.call_count == rec.iterations
    for k, call in enumerate(step.call_args_list):
        values, eps, term_set = call.args
        assert values.tobytes() == rec.values[k].tobytes()
        assert eps.tobytes() == bounds.tobytes() and term_set is TS


@pytest.mark.parametrize("bounds", [np.full(20, 0.25), np.array(HETERO_CASE1)])
def test_hk_run_record_is_hk_step_stepped_by_hand(reference_values, bounds):
    rec = hk_run(reference_values, bounds, TS)
    values, terms = reference_values, nearest_terms(TS, reference_values)
    for k in range(rec.iterations + 1):
        assert rec.values[k].tobytes() == values.tobytes()
        assert rec.terms[k].tolist() == terms.tolist()
        terms = baselines_mod.hk_step(values, bounds, TS)
        values = TS.values[terms]


def test_hk_run_homogeneous_030_matches_035(reference_values):
    rec_35 = hk_run(reference_values, np.full(20, 0.35), TS)
    rec_30 = hk_run(reference_values, np.full(20, 0.30), TS)
    assert np.array_equal(rec_35.final_values, rec_30.final_values)


def test_hk_run_small_bound_fragments(reference_values):
    rec = hk_run(reference_values, np.full(20, 0.10), TS)
    tol = default_cluster_tolerance(TS)
    assert cluster_count(rec.final_values, tol) > 1


def test_hk_run_heterogeneous_cases(reference_values):
    tol = default_cluster_tolerance(TS)
    rec1 = hk_run(reference_values, np.array(HETERO_CASE1), TS)
    rec2 = hk_run(reference_values, np.array(HETERO_CASE2), TS)
    rec3 = hk_run(reference_values, np.array(HETERO_CASE3), TS)
    assert cluster_count(rec1.final_values, tol) == 2
    assert not np.array_equal(rec1.final_values, rec2.final_values)
    assert not np.array_equal(rec1.final_values, rec3.final_values)


def test_hk_run_records_snapped_terms(reference_values):
    rec = hk_run(reference_values, np.full(20, 0.25), TS)
    for k in range(rec.iterations + 1):
        for value, term in zip(rec.values[k], rec.terms[k]):
            assert value == TS.values[term]
            assert nearest_term(TS, value) == term
    # baselines interact all-with-all: complete-graph snapshots
    assert rec.avg_degree[0] == 19.0
    assert rec.isolated[0] == 0


def test_hk_run_validates_bounds(reference_values):
    with pytest.raises(ValueError):
        hk_run(reference_values, np.full(19, 0.2), TS)
    with pytest.raises(ValueError):
        hk_run(reference_values, np.full(20, 1.2), TS)


def test_degroot_run_uniform_converges_to_mean(reference_values):
    rec = degroot_run(reference_values, "uniform", TS)
    assert rec.converged
    assert rec.iterations == 2  # step 1 reaches the mean, step 2 certifies it
    np.testing.assert_allclose(rec.final_values, 113 / 280, atol=1e-12)


def test_degroot_run_distance_reaches_consensus(reference_values):
    rec = degroot_run(reference_values, "distance", TS)
    assert rec.converged
    assert rec.opinion_range[-1] < 1e-6
    # the distance-weighted consensus differs from the plain average
    assert abs(rec.final_values[0] - 113 / 280) > 1e-3


def test_degroot_run_freeze_weights_changes_trajectory(reference_values):
    live = degroot_run(reference_values, "distance", TS, t_max=3)
    frozen = degroot_run(reference_values, "distance", TS, t_max=3, freeze_weights=True)
    assert np.array_equal(live.values[1], frozen.values[1])  # same first step
    assert not np.array_equal(live.values[2], frozen.values[2])


@pytest.mark.parametrize("freeze", ["no", 1, 0, None])
def test_degroot_run_checks_freeze_weights_with_the_config_row(freeze):
    # any truthy value would freeze the weights; 1 and 0 are not bools in a config file either
    with pytest.raises(ConfigError) as err:
        degroot_run([0.1, 0.9], "distance", TS, t_max=3, freeze_weights=freeze)
    assert err.value.path == "degroot.freeze_weights"


def test_degroot_run_rejects_unknown_mode_before_any_step(reference_values):
    for t_max in (0, 3):
        with pytest.raises(ValueError, match="unknown weight mode"):
            degroot_run(reference_values, "median", TS, t_max=t_max)


@pytest.mark.parametrize("freeze,builds", [(True, 1), (False, 3)])
def test_degroot_run_builds_each_weight_matrix_once(reference_values, monkeypatch, freeze,
                                                    builds):
    calls = []
    real = baselines_mod.degroot_weights
    monkeypatch.setattr(baselines_mod, "degroot_weights",
                        lambda x, mode: calls.append(1) or real(x, mode))
    rec = degroot_run(reference_values, "distance", TS, t_max=3, tol=math.ulp(0.0),
                      freeze_weights=freeze)
    assert rec.iterations == 3
    assert len(calls) == builds  # t = 0, then once per later step unless frozen


def test_baselines_stop_by_the_shared_rule(reference_values):
    for rec in (hk_run(reference_values, np.full(20, 0.25), TS, t_max=1),
                degroot_run(reference_values, "uniform", TS, t_max=1)):
        assert (rec.iterations, rec.converged) == (1, False)
        assert math.isnan(rec.delta_max[0])
    rec = hk_run(reference_values, np.full(20, 0.25), TS, tol=1.0)
    assert (rec.iterations, rec.converged) == (1, True)
    # one complete network object is shared by every snapshot
    assert all(net is rec.networks[0] for net in rec.networks)


@pytest.mark.parametrize("run", [
    lambda **kw: hk_run([0.1, 0.9], [0.5, 0.5], TS, **kw),
    lambda **kw: degroot_run([0.1, 0.9], "uniform", TS, **kw),
], ids=["hk", "degroot"])
@pytest.mark.parametrize("kwargs,path", [
    ({"t_max": 0}, "t_max"),
    ({"t_max": -1}, "t_max"),
    ({"t_max": 2.5}, "t_max"),
    ({"t_max": True}, "t_max"),
    ({"tol": math.nan}, "epsilon"),
    ({"tol": -1.0}, "epsilon"),
    ({"tol": 0.0}, "epsilon"),
    ({"d_max": 5e-324}, "d_max"),
])
def test_baselines_check_their_stopping_arguments_with_the_config_rows(run, kwargs, path):
    with pytest.raises(ConfigError) as err:
        run(**kwargs)
    assert err.value.path == path


def test_baselines_take_the_stopping_arguments_as_the_config_does():
    rec = hk_run([0.1, 0.9], [0.5, 0.5], TS, t_max=2.0, tol=1)
    assert rec.iterations == 1 and rec.converged


@pytest.mark.parametrize("call,message", [
    (lambda: hk_confidence_set(0, [0.1, 0.2], math.nan), "bound"),
    (lambda: hk_confidence_set(0, [0.1, 0.2], 1.5), "bounds"),
    (lambda: hk_confidence_set(0, [0.1, 0.2], math.inf), "bounds"),
    (lambda: hk_step([0.1, 0.2, 0.3], [0.2, math.nan, 0.2]), "bounds"),
    (lambda: hk_step([0.1, 0.2], [0.2, 1.5]), "bounds"),
    (lambda: hk_run([0.1, 0.2, 0.3], [math.nan] * 3, TS), "bounds"),
    (lambda: degroot_step([0.1, 0.9], [[0.5, 0.5], [math.nan, math.nan]]), "weights"),
    (lambda: cluster_count([0.1, 0.9], math.nan), "tolerance"),
], ids=["confidence-set", "confidence-set-above-1", "confidence-set-inf", "hk-step-nan", "hk-step-above-1", "hk-run", "degroot-step",
        "cluster-count"])
def test_nan_and_out_of_range_bounds_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
