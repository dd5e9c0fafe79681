"""The batched step kernel against scalar reference loops.

The loops below restate the documented model one decision and one draw at
a time, from the scalar primitives ``classify_neighbor`` and ``update_value``
and a brute-force nearest-term scan. The batched ``step``, ``filter_neighbors``,
``rewire``, ``random_network``, ``nearest_terms`` and ``hk_step`` must match
them exactly:
the same values, terms and adjacency, and the same number of uniform draws
taken, which shows as the same next ``rng.random()`` on both generators.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from opiniondyn import (
    RewiringParams,
    StepCounters,
    ThreeWayThresholds,
    build_term_set,
    classify_neighbor,
    filter_neighbors,
    hk_confidence_set,
    hk_step,
    nearest_term,
    nearest_terms,
    network,
    random_network,
    rewire,
    step,
    update_value,
)

unit = st.floats(0, 1)
probabilities = st.sampled_from([0.0, 0.5, 1.0])
edge_probs = st.one_of(st.just(0.0), unit, st.just(1.0))
inertias = st.one_of(st.just(0.0), st.floats(0, 1, exclude_min=True))


def scalar_nearest(term_set, value) -> int:
    # min keeps the first of equal keys, so exact ties go to the smaller index
    return min(range(term_set.size), key=lambda k: abs(term_set.values[k] - value))


def scalar_random_network(n, edge_prob, rng) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                adj[i, j] = adj[j, i] = True
    return adj


def scalar_accepted(agent, opinions, adj, thresholds, rng) -> list[int]:
    return [
        int(j) for j in np.flatnonzero(adj[agent])
        if classify_neighbor(abs(opinions[agent] - opinions[j]), thresholds, rng)
    ]


def scalar_step(opinions, adj, term_set, thresholds, inertia, rewiring, rng):
    n = opinions.size
    values = np.empty(n)
    terms = np.empty(n, dtype=int)
    visits = 0
    for i in range(n):
        visits += int(adj[i].sum())
        accepted = scalar_accepted(i, opinions, adj, thresholds, rng)
        if not accepted:
            values[i] = opinions[i]
            terms[i] = scalar_nearest(term_set, opinions[i])
            continue
        terms[i] = scalar_nearest(term_set, update_value(opinions[i], accepted, opinions, inertia))
        values[i] = term_set.values[terms[i]]
    return values, terms, scalar_rewire(opinions, adj, rewiring, rng), visits


def scalar_rewire(opinions, adj, rewiring, rng) -> np.ndarray:
    n = opinions.size
    new = adj.copy()
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = abs(opinions[i] - opinions[j])
            if not adj[i, j] and d < rewiring.delta_add:
                if rng.random() < rewiring.p_add:
                    new[i, j] = new[j, i] = True
            elif adj[i, j] and d > rewiring.delta_cut:
                if rng.random() < rewiring.p_cut:
                    new[i, j] = new[j, i] = False
    return new


@st.composite
def scenarios(draw):
    term_set = build_term_set(draw(st.integers(1, 4)), draw(st.sampled_from([1.5, 2.0, 3.0])))
    n = draw(st.integers(1, 12))
    on_scale = st.sampled_from([float(v) for v in term_set.values])
    opinions = np.array(draw(st.lists(st.one_of(on_scale, unit), min_size=n, max_size=n)))
    alpha, beta = sorted(draw(st.tuples(unit, unit)))
    if draw(st.booleans()):
        beta = alpha
    thresholds = ThreeWayThresholds(alpha, beta, draw(st.floats(0, 30)))
    rewiring = RewiringParams(draw(unit), draw(unit), draw(probabilities), draw(probabilities))
    return dict(
        term_set=term_set, opinions=opinions, thresholds=thresholds,
        inertia=draw(inertias), rewiring=rewiring, edge_prob=draw(edge_probs),
        seed=draw(st.integers(0, 2**32 - 1)),
        # small blocks split the pairwise passes into several row blocks
        block_pairs=draw(st.one_of(st.integers(1, 40), st.just(network.BLOCK_PAIRS))),
    )


def generator_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), edge_prob=edge_probs, seed=st.integers(0, 2**32 - 1),
       block_pairs=st.one_of(st.integers(1, 40), st.just(network.BLOCK_PAIRS)))
def test_random_network_matches_scalar_draws(n, edge_prob, seed, block_pairs):
    batched, scalar = generator_pair(seed)
    with mock.patch.object(network, "BLOCK_PAIRS", block_pairs):
        net = random_network(n, edge_prob, batched)
    assert np.array_equal(net.adjacency, scalar_random_network(n, edge_prob, scalar))
    assert batched.random() == scalar.random()


@st.composite
def rewire_cases(draw):
    n = draw(st.integers(1, 12))
    on_scale = st.sampled_from([float(v) for v in build_term_set(3, 2.0).values])
    opinions = np.array(draw(st.lists(st.one_of(on_scale, unit), min_size=n, max_size=n)))
    # a threshold equal to a pair's distance tests the strict inequalities
    distances = st.sampled_from(sorted({abs(a - b) for a in opinions for b in opinions}))
    deltas = st.one_of(unit, distances)
    rewiring = RewiringParams(draw(deltas), draw(deltas), draw(probabilities), draw(probabilities))
    # k rows per block; late blocks then hold more rows than columns right of
    # their first diagonal, and k = 1 leaves row n-1 alone, with no columns
    rows_per_block = draw(st.integers(1, n))
    return dict(
        opinions=opinions, rewiring=rewiring, edge_prob=draw(edge_probs),
        seed=draw(st.integers(0, 2**32 - 1)),
        block_pairs=draw(st.sampled_from([rows_per_block * n, network.BLOCK_PAIRS])),
    )


@settings(max_examples=300, deadline=None)
@given(case=rewire_cases())
def test_rewire_matches_scalar_pairs(case):
    n = case["opinions"].size
    net = random_network(n, case["edge_prob"], np.random.default_rng(case["seed"]))
    batched, scalar = generator_pair(case["seed"] + 1)
    with mock.patch.object(network, "BLOCK_PAIRS", case["block_pairs"]):
        adj = rewire(net, case["opinions"], case["rewiring"], batched).adjacency
    assert np.array_equal(adj, scalar_rewire(case["opinions"], net.adjacency,
                                             case["rewiring"], scalar))
    assert batched.random() == scalar.random()
    # rewire builds its network without the constructor's checks
    assert adj.dtype == np.bool_ and adj.shape == (n, n)
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()


@settings(max_examples=300, deadline=None)
@given(case=scenarios())
def test_step_matches_scalar_loops(case):
    n = case["opinions"].size
    net = random_network(n, case["edge_prob"], np.random.default_rng(case["seed"]))
    args = (case["term_set"], case["thresholds"], case["inertia"], case["rewiring"])
    batched, scalar = generator_pair(case["seed"] + 1)
    counters = StepCounters()
    with mock.patch.object(network, "BLOCK_PAIRS", case["block_pairs"]):
        result = step(case["opinions"], net, *args, batched, counters)
    values, terms, adj, visits = scalar_step(case["opinions"], net.adjacency, *args, scalar)
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.terms, terms)
    assert np.array_equal(result.network.adjacency, adj)
    assert batched.random() == scalar.random()
    assert counters.filter_visits == visits
    assert counters.rewire_visits == n * (n - 1) // 2


@settings(max_examples=200, deadline=None)
@given(case=scenarios(), data=st.data())
def test_filter_neighbors_matches_classify_neighbor(case, data):
    n = case["opinions"].size
    agent = data.draw(st.integers(0, n - 1))
    net = random_network(n, case["edge_prob"], np.random.default_rng(case["seed"]))
    batched, scalar = generator_pair(case["seed"] + 1)
    counters = StepCounters()
    accepted = filter_neighbors(agent, case["opinions"], net, case["thresholds"], batched, counters)
    expected = scalar_accepted(agent, case["opinions"], net.adjacency, case["thresholds"], scalar)
    assert accepted.tolist() == expected
    assert batched.random() == scalar.random()
    assert counters.filter_visits == int(net.adjacency[agent].sum())


@settings(max_examples=200, deadline=None)
@given(phi=st.integers(1, 5), base=st.sampled_from([1.5, 2.0, 3.0]),
       values=st.lists(unit, min_size=1, max_size=20), midpoints=st.booleans())
def test_nearest_terms_matches_scalar_scan(phi, base, values, midpoints):
    term_set = build_term_set(phi, base)
    if midpoints:
        # float midpoints between adjacent terms: near-ties and exact ties
        values = list((term_set.values[:-1] + term_set.values[1:]) / 2) + values
    expected = [scalar_nearest(term_set, v) for v in values]
    assert nearest_terms(term_set, values).tolist() == expected
    assert [nearest_term(term_set, v) for v in values] == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_hk_step_matches_scalar_averaging(data, n):
    on_scale = st.sampled_from([float(v) for v in build_term_set(3, 2).values])
    x = np.array(data.draw(st.lists(st.one_of(on_scale, unit), min_size=n, max_size=n)))
    eps = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), unit),
                                      min_size=n, max_size=n)))
    expected = [update_value(x[i], hk_confidence_set(i, x, eps[i]), x, 0.0) for i in range(n)]
    assert hk_step(x, eps).tobytes() == np.array(expected).tobytes()
