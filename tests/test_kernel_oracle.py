"""The batched step kernel against scalar reference loops.

The loops below restate the documented model one decision and one draw at
a time, from the scalar rules ``classify_neighbor`` and ``update_value`` (in
``oracles.py``) and a brute-force nearest-term scan. The batched ``step``,
``filter_neighbors``, ``rewire``, ``random_network``, ``nearest_terms`` and
the numeric ``hk_step`` must match them exactly:
the same values, terms and adjacency, and the same number of uniform draws
taken, which shows as the same next ``rng.random()`` on both generators.
``average_terms`` must match ``nearest_terms`` of the scalar ``average``,
errors included.
"""

import dataclasses
import math
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
    nearest_term,
    nearest_terms,
    network,
    random_network,
    rewire,
    run,
    step,
)
from opiniondyn import dynamics
from opiniondyn.dynamics import average_terms
from opiniondyn.linguistic import MAX_PHI
from conftest import REFERENCE_TERMS, scaled
from oracles import (
    acceptance_probability,
    average,
    classify_neighbor,
    filter_neighbors,
    hk_confidence_set,
    hk_step,
    update_value,
)

unit = st.floats(0, 1)
probabilities = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
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


def checked_step(opinions, net, *args):
    """``step``, with the arithmetic it does itself checked: an agent with no
    accepted neighbour keeps the exact bits of its opinion."""
    with mock.patch.object(dynamics, "average_terms", wraps=average_terms) as mapback:
        result = step(opinions, net, *args)
    idle = ~mapback.call_args.args[1].any(axis=1)
    assert result.values[idle].tobytes() == opinions[idle].tobytes()
    return result


def generator_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=scaled(200), deadline=None)
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


@settings(max_examples=scaled(300), deadline=None)
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


@settings(max_examples=scaled(300), deadline=None)
@given(case=scenarios())
def test_step_matches_scalar_loops(case):
    n = case["opinions"].size
    net = random_network(n, case["edge_prob"], np.random.default_rng(case["seed"]))
    args = (case["term_set"], case["thresholds"], case["inertia"], case["rewiring"])
    batched, scalar = generator_pair(case["seed"] + 1)
    counters = StepCounters()
    with mock.patch.object(network, "BLOCK_PAIRS", case["block_pairs"]):
        result = checked_step(case["opinions"], net, *args, batched, counters)
    values, terms, adj, visits = scalar_step(case["opinions"], net.adjacency, *args, scalar)
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.terms, terms)
    assert np.array_equal(result.network.adjacency, adj)
    assert batched.random() == scalar.random()
    assert counters.filter_visits == visits
    assert counters.rewire_visits == n * (n - 1) // 2


@st.composite
def term_valued_cases(draw, phis=st.integers(1, 4), bases=st.sampled_from([1.01, 1.5, 2.0, 3.0])):
    """Steps on opinions that all sit on the term scale, where the filter may
    read its classes from the term-pair tables."""
    term_set = build_term_set(draw(phis), draw(bases))
    n = draw(st.integers(1, 12))
    opinions = term_set.values[draw(st.lists(st.integers(0, term_set.size - 1),
                                             min_size=n, max_size=n))]
    # thresholds equal to a pair's distance test the boundaries of each class,
    # and deltas equal to one test rewiring's strict < and >
    distances = st.sampled_from(sorted({abs(a - b) for a in opinions for b in opinions}))
    bounds = st.one_of(unit, distances)
    alpha, beta = sorted(draw(st.tuples(bounds, bounds)))
    rewiring = RewiringParams(draw(bounds), draw(bounds), draw(probabilities), draw(probabilities))
    return dict(
        term_set=term_set, opinions=opinions,
        thresholds=ThreeWayThresholds(alpha, beta, draw(st.floats(0, 30))),
        inertia=draw(inertias), rewiring=rewiring, edge_prob=draw(edge_probs),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def check_table_path_matches_float_path(case):
    term_set, opinions = case["term_set"], case["opinions"]
    net = random_network(opinions.size, case["edge_prob"], np.random.default_rng(case["seed"]))
    args = (term_set, case["thresholds"], case["inertia"], case["rewiring"])
    table_pairs = max(network.BLOCK_PAIRS, term_set.size**2)
    outcomes = []
    for block_pairs, lookup in ((table_pairs, True), (term_set.size**2 - 1, False)):
        rng = np.random.default_rng(case["seed"] + 1)
        with mock.patch.object(network, "BLOCK_PAIRS", block_pairs):
            pairs = dynamics._term_pairs(opinions, term_set, case["thresholds"], case["rewiring"])
            assert (pairs is None) != lookup
            result = checked_step(opinions, net, *args, rng)
        outcomes.append((result.values.tobytes(), result.terms.tolist(),
                         result.network.adjacency.tobytes(), rng.random()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=scaled(300), deadline=None)
@given(case=term_valued_cases())
def test_step_by_term_tables_matches_the_float_path(case):
    check_table_path_matches_float_path(case)


@settings(max_examples=scaled(20), deadline=None)
@given(case=term_valued_cases(phis=st.just(200), bases=st.sampled_from([1.001, 1.01])))
def test_step_by_term_tables_matches_the_float_path_over_the_default_bound(case):
    # 401 terms make 160,801 pairs, more than one default block: the default
    # takes the float path, and a raised BLOCK_PAIRS the table path.
    assert case["term_set"].size ** 2 > network.BLOCK_PAIRS
    check_table_path_matches_float_path(case)


@pytest.mark.parametrize("equal", [True, False], ids=["one probability", "two probabilities"])
@settings(max_examples=scaled(150), deadline=None)
@given(case=rewire_cases(), p_cut=st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0, 1, exclude_max=True), st.none()))
def test_rewire_with_one_or_two_probabilities_matches_scalar_pairs(equal, case, p_cut):
    # Equal p_add and p_cut compare every draw with one probability; one ulp
    # apart, each draw reads its own from the pair's addable flag. None puts
    # p_cut on the first draw, which then succeeds only for an addable pair.
    if p_cut is None:
        p_cut = np.random.default_rng(case["seed"] + 1).random()
    p_add = p_cut if equal else float(np.nextafter(p_cut, 1.0))
    rewiring = dataclasses.replace(case["rewiring"], p_add=p_add, p_cut=p_cut)
    assert (rewiring.p_add == rewiring.p_cut) == equal
    n = case["opinions"].size
    net = random_network(n, case["edge_prob"], np.random.default_rng(case["seed"]))
    batched, scalar = generator_pair(case["seed"] + 1)
    with mock.patch.object(network, "BLOCK_PAIRS", case["block_pairs"]):
        adj = rewire(net, case["opinions"], rewiring, batched).adjacency
    assert np.array_equal(adj, scalar_rewire(case["opinions"], net.adjacency, rewiring, scalar))
    assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("lookup", [True, False], ids=["lookup", "per pair"])
@pytest.mark.parametrize("p_add, p_cut", [(1.0, 0.0), (0.0, 1.0)])
def test_rewire_of_pairs_both_close_and_far_draws_by_their_link(p_add, p_cut, lookup):
    # With delta_add > delta_cut a pair at distance 0.5 is both closer than
    # delta_add and farther than delta_cut: eligible whether linked or not,
    # added at p_add when unlinked and cut at p_cut when linked. Agents 1 and
    # 3 agree (close only) and agents 0 and 2 differ by 1 (far only).
    term_set = build_term_set(3, 2.0)
    opinions = term_set.values[[0, 3, 6, 3]]
    thresholds = ThreeWayThresholds(0.1, 0.4, 1.0)
    rewiring = RewiringParams(0.75, 0.25, p_add, p_cut)
    pairs = dynamics._term_pairs(opinions, term_set, thresholds, rewiring) if lookup else None
    assert (pairs is not None) == lookup
    dist = np.abs(np.subtract.outer(opinions, opinions))
    close, far = dist < rewiring.delta_add, dist > rewiring.delta_cut
    assert (close & far).sum() == 8  # four pairs, in both orientations
    for edges in ([], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [(0, 1), (1, 3), (2, 3)]):
        net = network.network_from_edges(4, edges)
        batched, scalar = generator_pair(len(edges))
        adj = rewire(net, opinions, rewiring, batched, pairs).adjacency
        assert np.array_equal(adj, scalar_rewire(opinions, net.adjacency, rewiring, scalar))
        assert batched.random() == scalar.random()
        old = net.adjacency
        added, cut = close & ~old, far & old
        np.fill_diagonal(added, False)
        expected = old | added if p_add else old & ~cut
        assert np.array_equal(adj, expected)


def check_carried_codes_change_nothing(case):
    term_set, opinions = case["term_set"], case["opinions"]
    codes = term_set.values.searchsorted(opinions)
    assert term_set.values[codes].tobytes() == opinions.tobytes()
    net = random_network(opinions.size, case["edge_prob"], np.random.default_rng(case["seed"]))
    args = (term_set, case["thresholds"], case["inertia"], case["rewiring"])
    outcomes = []
    for carried in (None, codes):
        rng = np.random.default_rng(case["seed"] + 1)
        result = checked_step(opinions, net, *args, rng, None, carried)
        outcomes.append((result.values.tobytes(), result.terms.tobytes(),
                         result.network.adjacency.tobytes(), rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=scaled(200), deadline=None)
@given(case=term_valued_cases())
def test_step_with_carried_codes_equals_the_step_that_proves_them(case):
    check_carried_codes_change_nothing(case)


@settings(max_examples=scaled(10), deadline=None)
@given(case=term_valued_cases(phis=st.just(200), bases=st.sampled_from([1.001, 1.01])))
def test_step_with_carried_codes_over_the_default_bound_takes_the_float_path(case):
    check_carried_codes_change_nothing(case)


@pytest.mark.parametrize("phi", [3, 200])
@pytest.mark.parametrize("inertia", [0.0, 0.3])
@pytest.mark.parametrize("seed", [5, 7])
def test_every_state_of_a_run_holds_the_values_of_its_terms(phi, inertia, seed):
    # phi 3 takes the lookup path, which hands each step its codes; phi 200
    # (401 terms) is over the table bound and takes the float path.
    config = SimulationConfig(
        n_agents=20, initial_opinions=tuple(t * phi // 3 for t in REFERENCE_TERMS),
        phi=phi, base=2.0 if phi == 3 else 1.01, inertia=inertia, seed=seed,
        initial_network=InitialNetworkSpec(edge_prob=0.1))
    with mock.patch.object(dynamics, "average_terms", wraps=average_terms) as mapback:
        record = run(config)
    values = config.term_set().values
    assert record.values.tobytes() == values[record.terms].tobytes()
    # some agent accepted nobody and kept its opinion, and some agent moved
    accepted = [call.args[1] for call in mapback.call_args_list]
    assert any((~row.any(axis=1)).any() for row in accepted)
    assert any(row.any() for row in accepted)
    assert any(record.values[k].tobytes() != record.values[k + 1].tobytes()
               for k in range(record.iterations))


def test_term_tables_hold_the_scalar_rule_and_are_read_only():
    term_set = build_term_set(3, 2.0)
    thresholds = ThreeWayThresholds(0.1, 0.6, 3.0)
    v = term_set.values.tolist()
    # deltas equal to a term distance put pairs on both sides of the strict tests
    rewiring = RewiringParams(abs(v[1] - v[3]), abs(v[2] - v[5]), 0.5, 0.5)
    tables = dynamics._pair_tables(term_set, thresholds, rewiring)
    close, far = tables.close, tables.close ^ tables.switch
    for a in range(term_set.size):
        for b in range(term_set.size):
            d = abs(v[a] - v[b])
            assert tables.accept[a, b] == (d <= thresholds.alpha)
            assert tables.hesitate[a, b] == (thresholds.alpha < d < thresholds.beta)
            expected = acceptance_probability(d, thresholds) if tables.hesitate[a, b] else 0.0
            assert tables.probs[a, b] == expected
            assert close[a, b] == (d < rewiring.delta_add)
            assert far[a, b] == (d > rewiring.delta_cut)
    # a distance equal to the delta is neither closer nor farther
    assert not (close[1, 3] or close[3, 1] or far[2, 5] or far[5, 2])
    assert tables.codes.tolist() == list(range(term_set.size))
    for table in tables[1:]:
        assert table.shape == (term_set.size, term_set.size)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_term_table_cache_is_bounded():
    term_set = build_term_set(2, 2.0)
    tables = dynamics._pair_tables
    limit = tables.cache_info().maxsize
    assert limit is not None
    for k in range(limit + 5):
        tables(term_set, ThreeWayThresholds(k / 100, 0.5, 1.0), RewiringParams(k / 100, 0.5, 0.5, 0.5))
    assert tables.cache_info().currsize <= limit


def test_term_tables_need_every_opinion_on_the_scale():
    term_set = build_term_set(3, 2.0)
    args = (term_set, ThreeWayThresholds(0.1, 0.6, 3.0), RewiringParams(0.2, 0.5, 0.5, 0.5))
    on_scale = term_set.values[[0, 3, 6, 6, 2]]
    assert dynamics._term_pairs(on_scale, *args).codes.tolist() == [0, 3, 6, 6, 2]
    between = (term_set.values[1] + term_set.values[2]) / 2
    for off in (-0.25, 1.25, math.nan, between, -0.0):
        opinions = on_scale.copy()
        opinions[1] = off
        assert dynamics._term_pairs(opinions, *args) is None


def test_step_at_the_largest_phi_builds_no_table():
    term_set = build_term_set(MAX_PHI, 1.001)
    opinions = term_set.values[[0, 9_999, 10_000, 10_001, 20_000, 10_000]]
    net = random_network(opinions.size, 0.8, np.random.default_rng(5))
    with mock.patch.object(dynamics, "_pair_tables", wraps=dynamics._pair_tables) as tables:
        step(opinions, net, term_set, ThreeWayThresholds(0.0, 1.0, 1.0), 0.0,
             RewiringParams(0.5, 0.5, 0.5, 0.5), np.random.default_rng(6))
    tables.assert_not_called()


@pytest.mark.parametrize("phi", [3, 200])
def test_step_rewires_through_the_module_name_once(phi):
    # perfbench times rewiring by wrapping dynamics.rewire; a step that
    # inlined it, or bound another name, would leave that layer untimed
    term_set = build_term_set(phi, 1.01)
    opinions = term_set.values[[0, 1, phi, phi, 2 * phi]]
    net = random_network(opinions.size, 0.5, np.random.default_rng(5))
    rewiring = RewiringParams(0.3, 0.6, 0.5, 0.5)
    with mock.patch.object(dynamics, "rewire", wraps=dynamics.rewire) as rewire_:
        step(opinions, net, term_set, ThreeWayThresholds(0.1, 0.4, 1.0), 0.0, rewiring,
             np.random.default_rng(6))
    rewire_.assert_called_once()
    args = rewire_.call_args.args
    assert args[0] is net and args[1] is opinions and args[2] is rewiring
    # the term lookup rides along exactly when the scale's table fits a block
    assert (args[4] is None) == (term_set.size ** 2 > network.BLOCK_PAIRS)


@settings(max_examples=scaled(200), deadline=None)
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


@settings(max_examples=scaled(200), deadline=None)
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


@settings(max_examples=scaled(200), deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_hk_step_matches_scalar_averaging(data, n):
    on_scale = st.sampled_from([float(v) for v in build_term_set(3, 2).values])
    x = np.array(data.draw(st.lists(st.one_of(on_scale, unit), min_size=n, max_size=n)))
    eps = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), unit),
                                      min_size=n, max_size=n)))
    expected = [update_value(x[i], hk_confidence_set(i, x, eps[i]), x, 0.0) for i in range(n)]
    assert hk_step(x, eps).tobytes() == np.array(expected).tobytes()


# One agent whose 10 accepted neighbours hold these terms of build_term_set(3, 2)
# averages to 15/28 on the ideal scale (sevenths and fourteenths), the midpoint
# of terms 3 and 4. update_value's mean, 0.5357142857142857, maps to term 3;
# a 0/1-row float product can round one ulp up, to 0.5357142857142858 and
# term 4.
TIE_TERMS = [2, 2, 5, 5, 1, 6, 3, 5, 4, 0]


def tie_case(n):
    """The tied agent last, its neighbours first, idle agents at term 3 between."""
    term_set = build_term_set(3, 2.0)
    opinions = np.full(n, term_set.values[3])
    opinions[:10] = term_set.values[TIE_TERMS]
    listens = np.zeros((n, n), dtype=bool)
    listens[n - 1, :10] = True
    return term_set, opinions, listens


def test_average_terms_resolves_a_float_product_tie_to_the_smaller_term():
    # the BLAS summation order depends on the row length and position, so
    # several layouts give the product its chance to round past the midpoint
    for n in (11, 12, 16, 20, 24):
        term_set, opinions, listens = tie_case(n)
        counters = StepCounters()
        terms = average_terms(opinions, listens, 0.0, term_set, counters)
        assert terms[-1] == 3
        assert terms.tolist() == nearest_terms(term_set, average(opinions, listens, 0.0)).tolist()
        assert counters.mapback_rechecks == 1


def test_step_counts_mapback_rechecks():
    thresholds = ThreeWayThresholds(1.0, 1.0, 1.0)   # every neighbour accepted
    rewiring = RewiringParams(0.0, 1.0, 0.0, 0.0)
    term_set, opinions, _ = tie_case(11)
    opinions[10] = term_set.values[1]
    star = network.network_from_edges(11, [(10, j) for j in range(10)])
    counters = StepCounters()
    result = step(opinions, star, term_set, thresholds, 0.0, rewiring,
                  np.random.default_rng(0), counters)
    assert result.terms.tolist() == [1] * 10 + [3]
    assert counters.mapback_rechecks == 1
    consensus = np.full(11, term_set.values[3])
    counters = StepCounters()
    step(consensus, network.complete_network(11), term_set, thresholds, 0.3, rewiring,
         np.random.default_rng(0), counters)
    assert counters.mapback_rechecks == 0


def test_average_terms_certifies_rows_away_from_terms_closer_than_eps():
    # Terms 1, 2 and 3 lie within an ulp of 0.5, so only the agent there is
    # re-averaged; the rows at 0 and 1 are certified.
    term_set = build_term_set(2, 2.0**52)
    opinions = np.array([0.0, 0.0, 0.5, 1.0])
    listens = np.zeros((4, 4), dtype=bool)
    listens[0, 1] = True
    counters = StepCounters()
    terms = average_terms(opinions, listens, 0.0, term_set, counters)
    assert terms.tolist() == nearest_terms(term_set, average(opinions, listens, 0.0)).tolist()
    assert counters.mapback_rechecks == 1


# phi=200 at base 1.01 has cells under 1e-3 wide; base 2**52 puts adjacent
# terms closer than eps, where no float term is certified.
MAPBACK_TERM_SETS = [build_term_set(*args)
                     for args in ((1, 2.0), (3, 2.0), (4, 1.5), (200, 1.01), (2, 2.0**52))]


@st.composite
def mapback_cases(draw):
    term_set = draw(st.sampled_from(MAPBACK_TERM_SETS))
    values, mids = term_set.values, (term_set.values[:-1] + term_set.values[1:]) / 2
    near_mid = st.sampled_from(mids.tolist()).flatmap(lambda m: st.sampled_from(
        [m, float(np.nextafter(m, 0.0)), float(np.nextafter(m, 1.0))]))
    kinds = [st.sampled_from(values.tolist()), near_mid, unit]
    if draw(st.integers(0, 3)) == 0:
        kinds.append(st.sampled_from([-0.25, 1.25, math.nan]))
    # a few distinct values, so that many rows accept equal opinions
    palette = draw(st.lists(st.one_of(kinds), min_size=1, max_size=5))
    # from n = 129 up, dense rows accept more than 128 opinions, where
    # numpy's mean splits its pairwise sum
    n = draw(st.one_of(st.sampled_from([*range(2, 13), 1]), st.integers(129, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    opinions = np.array(palette)[rng.integers(0, len(palette), n)]
    listens = rng.random((n, n)) < draw(st.sampled_from([0.5, 0.2, 0.9, 1.0, 0.0]))
    inertia = draw(st.one_of(inertias, st.sampled_from([1.0, 1.5, math.nan])))
    rows_per_block = draw(st.integers(1, n))
    block_pairs = draw(st.sampled_from([rows_per_block * n, network.BLOCK_PAIRS]))
    return term_set, opinions, listens, inertia, block_pairs


def outcome(call):
    try:
        return call().tolist()
    except ValueError as err:
        return str(err)


@settings(max_examples=scaled(300), deadline=None)
@given(case=mapback_cases())
def test_average_terms_matches_nearest_term_of_scalar_average(case):
    term_set, opinions, listens, inertia, block_pairs = case
    expected = outcome(lambda: nearest_terms(term_set, average(opinions, listens, inertia)))
    with mock.patch.object(network, "BLOCK_PAIRS", block_pairs):
        assert outcome(lambda: average_terms(opinions, listens, inertia, term_set)) == expected
