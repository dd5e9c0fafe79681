"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (use ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import contextlib
import statistics
from fractions import Fraction

import numpy as np

from opiniondyn import (
    InitialNetworkSpec,
    RewiringParams,
    SimulationConfig,
    StepCounters,
    ThreeWayThresholds,
    build_term_set,
    cli,
    cluster_count,
    consensus_index,
    default_cluster_tolerance,
    degroot_step,
    degroot_weights,
    hk_run,
    nearest_term,
    opinion_range,
    random_network,
    rewire,
    run,
    step,
    term_value,
    variance,
)
from conftest import HETERO_CASE1, HETERO_CASE2, HETERO_CASE3, REFERENCE_TERMS
from oracles import acceptance_probability, edges as edge_list

TS = build_term_set(3, 2)
TOL_EXACT = 1e-12


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def reference_config(**overrides) -> SimulationConfig:
    base = dict(
        n_agents=20,
        initial_opinions=tuple(REFERENCE_TERMS),
        initial_network=InitialNetworkSpec(edge_prob=0.1),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_criterion_1_scale_function_exactness():
    with criterion(1, "linguistic scale exactness and symmetry"):
        expected = [Fraction(0), Fraction(4, 14), Fraction(6, 14), Fraction(7, 14),
                    Fraction(8, 14), Fraction(10, 14), Fraction(1)]
        got = build_term_set(3, 2).values
        assert max(abs(g - float(e)) for g, e in zip(got, expected)) < TOL_EXACT
        for phi in range(1, 7):
            for base in (1.5, 2.0, 3.0):
                vals = build_term_set(phi, base).values
                assert np.max(np.abs(vals + vals[::-1] - 1.0)) < TOL_EXACT


def test_criterion_2_degroot_uniform_one_step(reference_values):
    with criterion(2, "uniform DeGroot one-step convergence to the mean"):
        weights = degroot_weights(reference_values, "uniform")
        after_one = degroot_step(reference_values, weights)
        mean = Fraction(113, 280)  # independent exact computation of the average
        assert np.max(np.abs(after_one - float(mean))) < 1e-9
        after_two = degroot_step(after_one, weights)
        assert np.array_equal(after_one, after_two)


def test_criterion_3_consensus_metric_cross_check():
    with criterion(3, "consensus metrics on the two-cluster reference state"):
        state = np.array([0.0] * 5 + [0.5] * 15)
        assert abs(variance(state) - 0.046875) < TOL_EXACT
        assert abs(opinion_range(state) - 0.5) < TOL_EXACT
        assert abs(consensus_index(state, 0.5) - 0.625) < TOL_EXACT


def test_criterion_4_hk_homogeneous_reproduction(reference_values):
    with criterion(4, "homogeneous HK: 0.30 matches 0.35; 0.10 fragments"):
        rec_35 = hk_run(reference_values, np.full(20, 0.35), TS)
        rec_30 = hk_run(reference_values, np.full(20, 0.30), TS)
        assert np.array_equal(rec_35.final_values, rec_30.final_values)
        rec_10 = hk_run(reference_values, np.full(20, 0.10), TS)
        assert cluster_count(rec_10.final_values, default_cluster_tolerance(TS)) >= 3


def test_criterion_5_hk_heterogeneous_cases(reference_values):
    with criterion(5, "heterogeneous HK: case 1 bi-cluster; cases 2 and 3 differ"):
        tol = default_cluster_tolerance(TS)
        rec1 = hk_run(reference_values, np.array(HETERO_CASE1), TS)
        assert cluster_count(rec1.final_values, tol) == 2
        rec2 = hk_run(reference_values, np.array(HETERO_CASE2), TS)
        rec3 = hk_run(reference_values, np.array(HETERO_CASE3), TS)
        assert not np.array_equal(rec1.final_values, rec2.final_values)
        assert not np.array_equal(rec1.final_values, rec3.final_values)


def test_criterion_6_stochastic_reference_scenario():
    with criterion(6, "200-seed reproduction of the 20-agent scenario"):
        tol = default_cluster_tolerance(TS)
        n_seeds = 200
        converged_clusters = []
        degree_grew = 0
        for seed in range(1, n_seeds + 1):
            record = run(reference_config(seed=seed))
            if record.converged:
                converged_clusters.append(cluster_count(record.final_values, tol))
            if record.avg_degree[-1] > record.avg_degree[0]:
                degree_grew += 1
        assert len(converged_clusters) >= 0.70 * n_seeds
        assert statistics.median(converged_clusters) in (1, 2, 3)
        assert degree_grew >= 0.70 * n_seeds


def test_criterion_7_hesitation_slows_convergence():
    with criterion(7, "3WD hesitation zone does not speed up convergence"):
        def iterations(seed: int, alpha: float, beta: float) -> int:
            gen = np.random.default_rng(seed)
            terms = tuple(int(t) for t in gen.integers(0, 7, size=40))
            edges = tuple(edge_list(random_network(40, 0.1, gen)))
            record = run(SimulationConfig(
                n_agents=40,
                initial_opinions=terms,
                thresholds=ThreeWayThresholds(alpha=alpha, beta=beta, decay=10.0),
                t_max=30,
                seed=seed,
                initial_network=InitialNetworkSpec(edges=edges),
            ))
            return record.iterations

        seeds = range(1, 51)
        with_3wd = [iterations(s, 0.3, 0.6) for s in seeds]
        without = [iterations(s, 0.6, 0.6) for s in seeds]
        assert statistics.mean(with_3wd) >= statistics.mean(without)


def test_criterion_8_deterministic_regime_byte_identity(tmp_path):
    with criterion(8, "deterministic regime gives byte-identical outputs"):
        import json
        edges = [[i, i + 1] for i in range(19)]
        raw = {
            "n_agents": 20,
            "initial_opinions": list(REFERENCE_TERMS),
            "thresholds": {"alpha": 0.6, "beta": 0.6},
            "rewiring": {"p_add": 0.0, "p_cut": 0.0},
            "initial_network": {"edges": edges},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        outs = []
        for label, seed in (("a", "1"), ("b", "1"), ("c", "987654321")):
            out = tmp_path / label
            assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                             "--seed", seed]) == 0
            outs.append(out)
        names = ["opinions.csv", "terms.csv", "metrics.csv", "summary.json"]
        n_network_files = sum(1 for _ in outs[0].glob("network_*.edges"))
        names += [f"network_{k}.edges" for k in range(n_network_files)]
        for name in names:
            reference = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == reference, name
            assert (outs[2] / name).read_bytes() == reference, name


def test_criterion_9_invariant_suite():
    with criterion(9, "cross-module invariant suite"):
        # opinion range preservation over stochastic runs
        for seed in range(5):
            record = run(reference_config(seed=seed))
            assert record.values.min() >= 0.0 and record.values.max() <= 1.0
            for net in record.networks:
                assert np.array_equal(net.adjacency, net.adjacency.T)
                assert not np.any(np.diag(net.adjacency))

        # rewiring keeps symmetry and loop-freeness on adversarial inputs
        gen = np.random.default_rng(0)
        for _ in range(20):
            n = int(gen.integers(2, 12))
            net = random_network(n, float(gen.random()), gen)
            out = rewire(net, gen.random(n),
                         RewiringParams(float(gen.random()), float(gen.random()),
                                        float(gen.random()), float(gen.random())), gen)
            assert np.array_equal(out.adjacency, out.adjacency.T)
            assert not np.any(np.diag(out.adjacency))

        # weight matrices are row-stochastic within 1e-12
        for _ in range(50):
            x = gen.random(int(gen.integers(1, 30)))
            for mode in ("uniform", "distance"):
                w = degroot_weights(x, mode)
                assert np.max(np.abs(w.sum(axis=1) - 1.0)) < TOL_EXACT

        # nearest-term round trip across scale shapes
        for phi in range(1, 7):
            for base in (1.5, 2.0, 3.0):
                ts = build_term_set(phi, base)
                for j in range(2 * phi + 1):
                    assert nearest_term(ts, term_value(ts, j)) == j

        # acceptance probability: monotone, saturated regions, continuous at alpha
        thr = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0)
        grid = np.linspace(0.0, 1.0, 400)
        probs = [acceptance_probability(d, thr) for d in grid]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert acceptance_probability(0.3, thr) == 1.0
        assert acceptance_probability(0.3 + 1e-12, thr) > 1.0 - 1e-10
        assert acceptance_probability(0.6, thr) == 0.0


def test_criterion_10_pair_visit_complexity():
    with criterion(10, "per-step pair visits bounded by N^2"):
        thr = ThreeWayThresholds(alpha=0.3, beta=0.6, decay=10.0)
        rewiring = RewiringParams(0.15, 0.45, 0.5, 0.5)
        for n in (10, 20, 40, 80):
            gen = np.random.default_rng(n)
            net = random_network(n, 0.5, gen)
            opinions = TS.values[gen.integers(0, 7, size=n)]
            for _ in range(3):
                counters = StepCounters()
                result = step(opinions, net, TS, thr, 0.0, rewiring, gen, counters)
                assert counters.filter_visits <= n * n
                assert counters.rewire_visits <= n * n
                opinions, net = result.values, result.network
