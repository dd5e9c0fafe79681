from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    InitialNetworkSpec,
    RewiringParams,
    SimulationConfig,
    StepCounters,
    ThreeWayThresholds,
    build_term_set,
    cli,
    complete_network,
    dynamics,
    metrics,
    nearest_term,
    network_from_edges,
    random_network,
    run,
    step,
)
from opiniondyn.config import config_from_dict
from opiniondyn.dynamics import StepResult, TrajectoryRecord
from conftest import HETERO_CASE1, REFERENCE_TERMS, scaled
from oracles import (
    average,
    degrees as node_degrees,
    edges as edge_list,
    empty_network,
    filter_neighbors,
    update_value,
)

THRESH = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0)
NO_REWIRE = RewiringParams(delta_add=0.15, delta_cut=0.45, p_add=0.0, p_cut=0.0)
TS = build_term_set(3, 2)


def test_filter_no_links_gives_empty_set():
    net = empty_network(4)
    acc = filter_neighbors(0, np.array([0.1, 0.2, 0.3, 0.4]), net, THRESH,
                           np.random.default_rng(0))
    assert acc.size == 0


def test_filter_zero_distance_accepts_all_linked():
    net = complete_network(5)
    acc = filter_neighbors(2, np.full(5, 0.7), net, THRESH, np.random.default_rng(0))
    assert list(acc) == [0, 1, 3, 4]


@pytest.mark.parametrize("agent", [-2, -1, 4])
def test_filter_rejects_an_agent_out_of_range_before_any_draw(agent):
    # agent 2 would draw for its hesitation-zone neighbors 0 and 3
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=f"agent {agent} out of range"):
        filter_neighbors(agent, np.array([0.1, 0.35, 0.5, 0.9]), complete_network(4), THRESH, rng)
    assert rng.random() == np.random.default_rng(3).random()


def test_filter_mixed_regions_is_rng_independent():
    net = network_from_edges(3, [(0, 1), (0, 2)])
    opinions = np.array([0.0, 0.2, 0.9])
    for seed in range(20):
        acc = filter_neighbors(0, opinions, net, THRESH, np.random.default_rng(seed))
        assert list(acc) == [1]  # d=0.2 certain accept, d=0.9 certain reject


def test_update_value_examples():
    opinions = np.array([0.7, 0.5, 1.0, 0.8, 0.4])
    assert update_value(0.7, [], opinions, 0.0) == 0.7
    assert update_value(0.0, [1, 2], opinions, 0.0) == pytest.approx(0.75)
    assert update_value(0.4, [3], opinions, 0.5) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        update_value(0.5, [1], opinions, 1.5)


def test_update_value_exact_on_equal_inputs():
    # for opinions whose repeated mean wobbles by an ulp (0.1 is the classic),
    # the all-equal guard keeps consensus a true fixed point
    opinions = np.full(3, 0.1)
    assert update_value(0.1, [0, 1, 2], opinions, 0.0) == 0.1
    assert update_value(0.1, [0, 1, 2], opinions, 0.3) == 0.1


def test_step_all_equal_is_fixed_point():
    net = random_network(8, 0.5, np.random.default_rng(0))
    opinions = np.full(8, TS.values[4])
    result = step(opinions, net, TS, THRESH, 0.0, NO_REWIRE, np.random.default_rng(1))
    assert metrics.delta_max(opinions, result.values) == 0.0
    assert np.array_equal(result.values, opinions)


def test_step_two_agents_swap_to_nearest_terms():
    # each accepts the other and adopts its opinion (self excluded at
    # inertia 0), then lands on the nearest term of the active scale
    net = complete_network(2)
    opinions = np.array([0.0, 0.2])
    result = step(opinions, net, TS, THRESH, 0.0, NO_REWIRE, np.random.default_rng(0))
    assert result.values[1] == 0.0
    assert result.values[0] == TS.values[nearest_term(TS, 0.2)]
    assert list(result.terms) == [1, 0]


def test_step_mutual_rejection_changes_nothing():
    net = complete_network(2)
    opinions = np.array([0.0, 0.9])
    result = step(opinions, net, TS, THRESH, 0.0, NO_REWIRE, np.random.default_rng(0))
    assert np.array_equal(result.values, opinions)
    assert metrics.delta_max(opinions, result.values) == 0.0


def test_step_rejects_nan_opinion_of_isolated_agent():
    net = network_from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        step(np.array([0.5, 0.5, np.nan]), net, TS, THRESH, 0.0, NO_REWIRE,
             np.random.default_rng(0))


def test_step_rejects_opinions_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"expected 4 opinions, got shape \(3,\)"):
        step(np.array([0.0, 0.5, 1.0]), empty_network(4), TS, THRESH, 0.0, NO_REWIRE,
             np.random.default_rng(0))


def test_bad_inertia_is_rejected_even_when_no_agent_listens():
    opinions = np.array([0.0, 1.0])
    message = r"inertia must lie in \[0, 1\], got 1.5"
    with pytest.raises(ValueError, match=message):
        step(opinions, empty_network(2), TS, THRESH, 1.5, NO_REWIRE, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        average(opinions, np.zeros((2, 2), dtype=bool), 1.5)


def test_records_states_and_term_sets_compare_and_hash_by_identity():
    config = reference_config()
    record, twin = run(config), run(config)
    assert record == record and record != twin
    state = step(record.values[0], record.networks[0], TS, THRESH, 0.0, NO_REWIRE,
                 np.random.default_rng(0))
    assert state == state and len({state, record, TS, config.term_set()}) == 4
    assert TS != build_term_set(3, 2)


def reference_config(**overrides):
    base = dict(
        n_agents=20,
        initial_opinions=tuple(REFERENCE_TERMS),
        seed=11,
        initial_network=InitialNetworkSpec(edge_prob=0.1),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_run_all_equal_converges_immediately():
    config = reference_config(initial_opinions=(3,) * 20)
    record = run(config)
    assert record.converged
    assert record.iterations == 1
    assert record.delta_max[1] == 0.0


def test_run_records_initial_state_exactly():
    config = reference_config()
    record = run(config)
    assert list(record.terms[0]) == REFERENCE_TERMS
    np.testing.assert_array_equal(record.values[0], TS.values[list(REFERENCE_TERMS)])
    assert record.values.shape == (record.iterations + 1, 20)


def test_run_is_bit_reproducible():
    a = run(reference_config())
    b = run(reference_config())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.terms, b.terms)
    assert a.converged == b.converged and a.iterations == b.iterations
    for na, nb in zip(a.networks, b.networks):
        assert np.array_equal(na.adjacency, nb.adjacency)


def test_run_deterministic_regime_ignores_seed():
    # no hesitation zone and zero rewiring probabilities: no draw changes
    # any outcome, so different seeds give identical trajectories
    edges = tuple(edge_list(random_network(20, 0.2, np.random.default_rng(5))))
    records = [
        run(reference_config(
            seed=seed,
            thresholds=ThreeWayThresholds(alpha=0.6, beta=0.6, decay=10.0),
            rewiring=RewiringParams(0.15, 0.45, 0.0, 0.0),
            initial_network=InitialNetworkSpec(edges=edges),
        ))
        for seed in (1, 99, 123456)
    ]
    for other in records[1:]:
        assert np.array_equal(records[0].values, other.values)
        assert records[0].iterations == other.iterations


def test_run_rejects_invalid_config_before_computing():
    with pytest.raises(ValueError):
        run(reference_config(initial_opinions=(0,) * 19))
    with pytest.raises(ValueError):
        run(reference_config(epsilon=0.0))


def test_term_indices_track_values():
    record = run(reference_config())
    for k in range(record.iterations + 1):
        for value, term in zip(record.values[k], record.terms[k]):
            assert nearest_term(TS, value) == term


def test_opinions_stay_in_unit_interval():
    for seed in range(5):
        record = run(reference_config(seed=seed))
        assert record.values.min() >= 0.0
        assert record.values.max() <= 1.0


def test_networks_stay_symmetric_and_loop_free():
    record = run(reference_config(seed=2))
    for net in record.networks:
        assert np.array_equal(net.adjacency, net.adjacency.T)
        assert not np.any(np.diag(net.adjacency))


def test_relabeling_equivariance_in_deterministic_regime():
    # processing order must not matter for synchronous updates: relabeling
    # the agents relabels the outcome (no RNG draw affects anything here)
    rng = np.random.default_rng(17)
    net = random_network(10, 0.4, rng)
    opinions = TS.values[rng.integers(0, 7, size=10)]
    thresholds = ThreeWayThresholds(alpha=0.6, beta=0.6, decay=1.0)
    result = step(opinions, net, TS, thresholds, 0.0, NO_REWIRE, np.random.default_rng(0))

    perm = rng.permutation(10)          # original agent i becomes agent perm[i]
    inverse = np.argsort(perm)
    perm_net = network_from_edges(
        10, [(int(perm[i]), int(perm[j])) for i, j in edge_list(net)]
    )
    perm_result = step(opinions[inverse], perm_net, TS, thresholds, 0.0,
                       NO_REWIRE, np.random.default_rng(0))
    np.testing.assert_array_equal(perm_result.values, result.values[inverse])


def test_step_counters_stay_below_square():
    rng = np.random.default_rng(3)
    for n in (10, 20, 40):
        net = random_network(n, 0.5, rng)
        opinions = TS.values[rng.integers(0, 7, size=n)]
        counters = StepCounters()
        step(opinions, net, TS, THRESH, 0.0,
             RewiringParams(0.15, 0.45, 0.5, 0.5), rng, counters)
        assert counters.filter_visits <= n * n
        assert counters.rewire_visits == n * (n - 1) // 2


@pytest.mark.parametrize("n", [1, 2, 9, 64])
def test_record_degrees_match_each_snapshots_degrees(n):
    # from_states sums the adjacency bytes itself, not through degrees()
    rng = np.random.default_rng(n)
    nets = [empty_network(n), complete_network(n),
            *(random_network(n, p, rng) for p in (0.03, 0.1, 0.5, 1.0))]
    states = [StepResult(np.zeros(n), np.zeros(n, dtype=int), net) for net in nets]
    record = TrajectoryRecord.from_states(states, converged=False, d_max=0.5)
    degrees = [node_degrees(net) for net in nets]
    assert record.avg_degree.tobytes() == np.array([d.mean() for d in degrees]).tobytes()
    assert record.isolated.tolist() == [int(np.count_nonzero(d == 0)) for d in degrees]
    assert record.isolated.dtype.kind == "i"
    if n == 64:  # some random snapshot has isolated agents and some has none
        assert 0 < record.isolated[2] < n and record.isolated[4] == 0


def test_record_columns_are_computed_on_first_read_only(tmp_path):
    config = config_from_dict({"n_agents": 20, "initial_opinions": REFERENCE_TERMS, "seed": 7,
                               "initial_network": {"edge_prob": 0.1}})
    with mock.patch.object(metrics, "trajectory_metrics", wraps=metrics.trajectory_metrics) as history, \
            mock.patch.object(dynamics, "_degree_columns", wraps=dynamics._degree_columns) as degrees:
        record = run(config)
        cli.cmd_sweep(config, [1, 2, 3, 4, 5], tmp_path)
        assert (history.call_count, degrees.call_count) == (0, 0)
        variance = record.variance
        assert record.variance is variance
        record.opinion_range, record.consensus, record.delta_max
        assert (history.call_count, degrees.call_count) == (1, 0)
        record.avg_degree, record.isolated, record.avg_degree
        assert (history.call_count, degrees.call_count) == (1, 1)
    columns = metrics.trajectory_metrics(record.values, config.d_max)
    for got, want in zip((record.variance, record.opinion_range, record.consensus,
                          record.delta_max), columns):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=scaled(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_random_runs_respect_core_invariants(seed, n):
    rng = np.random.default_rng(seed)
    config = SimulationConfig(
        n_agents=n,
        initial_opinions=tuple(int(t) for t in rng.integers(0, 7, size=n)),
        seed=seed,
        t_max=5,
        initial_network=InitialNetworkSpec(edge_prob=float(rng.random())),
    )
    record = run(config)
    assert record.values.min() >= 0.0 and record.values.max() <= 1.0
    assert record.iterations <= 5
    if record.converged:
        assert record.delta_max[record.iterations] < config.epsilon


@pytest.mark.parametrize("t_max", [1, 3, 10])
@pytest.mark.parametrize("model,seeds", [
    ("threeway", range(21)),
    ("hk-homogeneous", [0]),
    ("hk-heterogeneous", [0]),
    ("degroot-uniform", [0]),
    ("degroot-distance", [0]),
])
def test_every_model_stops_at_its_first_step_below_epsilon(model, seeds, t_max):
    config = SimulationConfig(n_agents=20, initial_opinions=tuple(REFERENCE_TERMS), model=model,
                              t_max=t_max, hk_epsilon=0.25, hk_epsilons=tuple(HETERO_CASE1))
    for seed in seeds:
        record = cli.run_from_config(config.with_seed(seed))
        steps = record.delta_max[1:]
        assert steps.tobytes() == metrics.delta_max(record.values[:-1], record.values[1:]).tobytes()
        assert (steps[:-1] >= config.epsilon).all()
        assert record.converged == (steps[-1] < config.epsilon)
        if not record.converged:
            assert record.iterations == t_max
