import itertools
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opiniondyn import (
    RewiringParams,
    SocialNetwork,
    ThreeWayThresholds,
    complete_network,
    network_from_edges,
    random_network,
    rewire,
    save_edge_list,
    step,
)
from opiniondyn import network
from conftest import scaled
from oracles import degrees, edge_count, edges, empty_network


def test_validation_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        SocialNetwork(np.ones((3, 3), dtype=bool))  # self-loops
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        SocialNetwork(asym)
    with pytest.raises(ValueError):
        SocialNetwork(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        network_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        network_from_edges(3, [(1, 1)])


@pytest.mark.parametrize("edge", [(False, 1), (True, 2), (0, 1.5), (np.True_, 1), ("0", 1)])
def test_network_from_edges_rejects_indices_that_are_not_integers(edge):
    # a bool would index as a mask, and True as agent 1
    with pytest.raises(ValueError, match=re.escape(f"edge ({edge[0]!r}, {edge[1]!r})")):
        network_from_edges(3, [edge])
    assert edges(network_from_edges(3, [(np.int64(0), np.uint8(2))])) == [(0, 2)]


def test_validation_rejects_booleans_that_are_not_0_or_1_bytes():
    # numpy reads any nonzero byte as True, but a byte sum would count it as 2
    odd = np.frombuffer(bytes([0, 2, 2, 0]), dtype=bool).reshape(2, 2)
    assert np.array_equal(odd, ~np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="bytes are not 0 or 1"):
        SocialNetwork(odd)
    assert degrees(SocialNetwork(odd != 0)).tolist() == [1, 1]


@pytest.mark.parametrize("shape, density", [((7, 9), 0.5), ((300, 1000), 0.3), ((4, 0), 0.5),
                                            ((0, 5), 0.5), ((50, 70), 1.0), ((50, 70), 0.0)])
def test_row_counts_match_count_nonzero(shape, density):
    mask = np.random.default_rng(3).random(shape) < density
    for view in (mask, mask[:, ::3], mask[::2, 1:], mask.T, np.asfortranarray(mask)):
        counts = network.row_counts(view)
        assert counts.dtype == np.intp
        assert counts.tolist() == np.count_nonzero(view, axis=1).tolist()
    with pytest.raises(TypeError, match="boolean"):
        network.row_counts(mask.astype(np.int64))


@pytest.mark.parametrize("fill", [True, False])
@pytest.mark.parametrize("width", [65_535, 65_536, 70_000])
def test_row_counts_hold_every_count_either_side_of_the_16_bit_lane(width, fill):
    # a 16-bit lane holds 65,535 at most; wider rows need a 32-bit one
    mask = np.full((2, width), fill)
    out = np.full(2, -1, dtype=np.intp)
    assert network.row_counts(mask, out) is out
    for counts in (out, network.row_counts(mask)):
        assert counts.dtype == np.intp
        assert counts.tolist() == np.count_nonzero(mask, axis=1).tolist()


def test_degrees_are_intp_row_counts():
    net = random_network(40, 0.3, np.random.default_rng(4))
    counts = degrees(net)
    assert counts.dtype == np.intp
    assert counts.tolist() == np.count_nonzero(net.adjacency, axis=1).tolist()


def test_a_network_needs_at_least_one_agent():
    for build in (lambda: SocialNetwork(np.zeros((0, 0), dtype=bool)),
                  lambda: network_from_edges(0, [])):
        with pytest.raises(ValueError, match=r"network size must be >= 1, got 0"):
            build()
    for build in (empty_network, complete_network, lambda n: network_from_edges(n, [])):
        with pytest.raises(ValueError, match=r"network size must be >= 1, got -1"):
            build(-1)


def test_networks_compare_and_hash_by_identity():
    net, twin = network_from_edges(3, [(0, 1)]), network_from_edges(3, [(0, 1)])
    assert net == net and net != twin
    assert len({net, twin, net}) == 2


def brute_force_degrees(edges: set, n: int) -> list[int]:
    """Independent oracle: plain counting over an edge set."""
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    return degree


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_metrics_agree_with_brute_force_on_all_small_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        edges = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        net = network_from_edges(n, edges)
        # TrajectoryRecord's avg_degree and isolated must agree with degrees()
        assert degrees(net).tolist() == brute_force_degrees(edges, n)
        assert edge_count(net) == len(edges)


def test_random_network_extremes_and_determinism():
    rng = np.random.default_rng(0)
    assert edge_count(random_network(5, 0.0, rng)) == 0
    assert edge_count(random_network(5, 1.0, rng)) == 10
    a = random_network(20, 0.1, np.random.default_rng(42))
    b = random_network(20, 0.1, np.random.default_rng(42))
    assert np.array_equal(a.adjacency, b.adjacency)


@pytest.mark.parametrize("edge_prob", [0.0, "2/n", 0.3, 1.0])
@pytest.mark.parametrize("n, blocks", [(257, 2), (600, 6)])
def test_random_network_is_one_batch_of_draws_over_the_upper_triangle(n, blocks, edge_prob):
    p = 2 / n if edge_prob == "2/n" else edge_prob
    assert len(network.row_blocks(n)) == blocks
    batched, whole = np.random.default_rng(n), np.random.default_rng(n)
    net = random_network(n, p, batched)
    expected = np.zeros((n, n), dtype=bool)
    expected[np.triu_indices(n, 1)] = whole.random(n * (n - 1) // 2) < p
    expected |= expected.T
    assert np.array_equal(net.adjacency, expected)
    assert batched.random() == whole.random()


def test_rewire_certain_addition():
    params = RewiringParams(delta_add=0.15, delta_cut=0.45, p_add=1.0, p_cut=1.0)
    net = rewire(empty_network(5), np.full(5, 0.3), params, np.random.default_rng(0))
    assert edge_count(net) == 10


def test_rewire_certain_removal_keeps_intra_cluster_edges():
    params = RewiringParams(delta_add=0.15, delta_cut=0.45, p_add=1.0, p_cut=1.0)
    opinions = np.array([0.0, 0.0, 1.0, 1.0])
    net = rewire(complete_network(4), opinions, params, np.random.default_rng(0))
    assert sorted(edges(net)) == [(0, 1), (2, 3)]


def test_rewire_zero_probability_changes_nothing():
    params = RewiringParams(delta_add=0.5, delta_cut=0.1, p_add=0.0, p_cut=0.0)
    start = random_network(10, 0.3, np.random.default_rng(1))
    out = rewire(start, np.linspace(0, 1, 10), params, np.random.default_rng(2))
    assert np.array_equal(out.adjacency, start.adjacency)


def test_rewire_input_validation():
    params = RewiringParams(0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        rewire(empty_network(3), [0.1, 0.2], params, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rewire(empty_network(3), [0.1, 0.2, 1.4], params, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rewire(empty_network(3), [0.1, np.nan, 0.2], params, np.random.default_rng(0))
    with pytest.raises(ValueError):
        RewiringParams(delta_add=1.2, delta_cut=0.4, p_add=0.5, p_cut=0.5)


@settings(max_examples=scaled(60), deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    edge_prob=st.floats(0, 1),
    delta_add=st.floats(0, 1),
    delta_cut=st.floats(0, 1),
)
def test_rewire_preserves_symmetry_and_boundaries(n, seed, edge_prob, delta_add, delta_cut):
    rng = np.random.default_rng(seed)
    start = random_network(n, edge_prob, rng)
    opinions = rng.random(n)
    params = RewiringParams(delta_add, delta_cut, p_add=1.0, p_cut=1.0)
    out = rewire(start, opinions, params, rng)
    adj = out.adjacency
    assert np.array_equal(adj, adj.T)
    assert not np.any(np.diag(adj))
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(opinions[i] - opinions[j])
            if not start.adjacency[i, j] and d >= delta_add:
                assert not adj[i, j]  # never touched
            if start.adjacency[i, j] and d <= delta_cut:
                assert adj[i, j]  # never touched


@settings(max_examples=scaled(60), deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    edge_prob=st.floats(0, 1),
    bounds=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_rewire_idempotent_at_certainty(n, seed, edge_prob, bounds):
    delta_add, delta_cut = min(bounds), max(bounds)
    rng = np.random.default_rng(seed)
    start = random_network(n, edge_prob, rng)
    opinions = rng.random(n)
    params = RewiringParams(delta_add, delta_cut, p_add=1.0, p_cut=1.0)
    once = rewire(start, opinions, params, rng)
    twice = rewire(once, opinions, params, rng)
    assert np.array_equal(once.adjacency, twice.adjacency)


@pytest.mark.parametrize("block_pairs", [1, 7, 64, network.BLOCK_PAIRS])
def test_rewire_and_step_never_write_into_the_input_network(monkeypatch, term_set, block_pairs):
    # Rewiring toggles pairs in place, so it must toggle a copy: the history
    # keeps every input network as an immutable snapshot.
    monkeypatch.setattr(network, "BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(11)
    net = random_network(30, 0.3, rng)
    before = net.adjacency.copy()
    opinions = term_set.values[rng.integers(0, term_set.size, 30)]
    params = RewiringParams(delta_add=0.3, delta_cut=0.3, p_add=0.7, p_cut=0.7)
    rewired = rewire(net, opinions, params, rng)
    stepped = step(opinions, net, term_set, ThreeWayThresholds(0.2, 0.5, 10.0), 0.0, params,
                   rng).network
    for out in (rewired, stepped):
        assert not np.array_equal(out.adjacency, before)  # pairs were toggled
        assert not np.shares_memory(out.adjacency, net.adjacency)
    assert np.array_equal(net.adjacency, before)
    keep = network._corner_keep((4, 3))
    assert not keep.flags.writeable
    with pytest.raises(ValueError):
        keep[0, 0] = False


def test_row_blocks_follow_a_patched_block_size(monkeypatch):
    # row_blocks is memoised, so its key must hold BLOCK_PAIRS as well as n
    assert network.row_blocks(10) == (slice(0, 10),)
    monkeypatch.setattr(network, "BLOCK_PAIRS", 25)
    assert network.row_blocks(10) == (slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8),
                                      slice(8, 10))
    monkeypatch.undo()
    assert network.row_blocks(10) == (slice(0, 10),)


def test_rewire_rejects_opinions_below_zero():
    params = RewiringParams(0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rewire(empty_network(3), [0.1, -0.25, 0.2], params, np.random.default_rng(0))


def test_edge_list_round_trip(tmp_path):
    net = random_network(12, 0.3, np.random.default_rng(5))
    path = tmp_path / "net.edges"
    save_edge_list(net, path)
    # ascending pair order, one edge per line
    lines = path.read_text().splitlines()
    assert lines == [f"{i} {j}" for i, j in edges(net)]
    loaded = network_from_edges(12, [tuple(map(int, line.split())) for line in lines])
    assert np.array_equal(loaded.adjacency, net.adjacency)


def reference_edge_text(net: SocialNetwork) -> str:
    """The edge-list format by definition: one f-string per (i, j) pair."""
    return "".join(f"{i} {j}\n" for i, j in edges(net))


def isolate(net: SocialNetwork, agents) -> SocialNetwork:
    adj = net.adjacency.copy()
    for agent in agents:
        adj[agent, :] = adj[:, agent] = False
    return SocialNetwork(adj)


@st.composite
def symmetric_networks(draw):
    n = draw(st.integers(1, 64))
    edge_prob = draw(st.one_of(st.just(0.0), st.floats(0, 1), st.just(1.0)))
    net = random_network(n, edge_prob, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return isolate(net, draw(st.sets(st.sampled_from([0, n - 1]))))


@settings(max_examples=scaled(100), deadline=None)
@given(net=symmetric_networks())
@example(net=empty_network(1))
@example(net=empty_network(9))
@example(net=complete_network(64))
@example(net=isolate(complete_network(12), [0]))
@example(net=isolate(complete_network(12), [11]))
@example(net=isolate(random_network(130, 0.5, np.random.default_rng(3)), [0, 129]))
def test_edge_writer_matches_per_pair_reference(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.edges"
        save_edge_list(net, path)
        assert path.read_bytes() == reference_edge_text(net).encode()


def assert_writer_matches_reference(net: SocialNetwork, path: Path) -> None:
    save_edge_list(net, path)
    assert path.read_bytes() == reference_edge_text(net).encode()


@pytest.mark.parametrize("n", [10, 11, 100, 101, 1000, 1001])
@pytest.mark.parametrize("kind", ["empty", "sparse", "complete"])
def test_edge_writer_across_label_widths(n, kind, tmp_path):
    net = {"empty": empty_network,
           "sparse": lambda n: random_network(n, 3 / n, np.random.default_rng(n)),
           "complete": complete_network}[kind](n)
    assert_writer_matches_reference(net, tmp_path / "net.edges")


@pytest.mark.parametrize("n", [12, 101, 150])
@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
def test_edge_writer_blocks_either_side_of_the_padding_threshold(n, rows_per_block,
                                                                 monkeypatch, tmp_path):
    # Blocks start at rows 9 and 10, or 99 and 100, or hold both.
    monkeypatch.setattr(network, "BLOCK_PAIRS", rows_per_block * n)
    assert {rows.start for rows in network.row_blocks(n)} & {9, 10, 99, 100}
    for net in (complete_network(n), random_network(n, 0.5, np.random.default_rng(n))):
        assert_writer_matches_reference(net, tmp_path / "net.edges")


def test_edge_file_memory_is_one_row_block(tmp_path):
    net = complete_network(2000)
    path = tmp_path / "net.edges"
    tracemalloc.start()
    try:
        save_edge_list(net, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == 17_771_110  # 1,999,000 lines
    assert peak < size / 4
