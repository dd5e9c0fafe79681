"""Scalar reference rules: the documented model, one decision at a time.

The package runs only the batched kernels; the tests check them against
these rules. ``filter_neighbors`` runs the engine's filter on one agent's
row, so the per-neighbour rule can be checked against it link by link.
``empty_network``, ``edge_count``, ``edges`` and ``degrees`` build and read
networks the plain way, for the tests alone.
"""

import math

import numpy as np

from opiniondyn.baselines import _confidence_bounds
from opiniondyn.dynamics import StepCounters, _filter_links
from opiniondyn.metrics import as_opinions
from opiniondyn.network import network_from_edges, row_counts


def acceptance_probability(distance: float, thresholds) -> float:
    """Probability of accepting a neighbor at the given opinion distance.

    1 on [0, alpha], 0 on [beta, inf), exponential decay in between. When
    alpha == beta the accept branch wins at the shared boundary. Continuous
    at d == alpha since exp(0) = 1.
    """
    if distance < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance!r}")
    if distance <= thresholds.alpha:
        return 1.0
    if distance >= thresholds.beta:
        return 0.0
    return math.exp(-thresholds.decay * (distance - thresholds.alpha))


def classify_neighbor(distance: float, thresholds, rng: np.random.Generator) -> bool:
    """Accept/reject decision for one neighbor.

    Deterministic outside the hesitation zone; inside it, consumes exactly
    one uniform draw and accepts when it falls below the decayed probability.
    A NaN distance lies in neither outright region, so it draws and rejects.
    """
    p = acceptance_probability(distance, thresholds)
    if distance <= thresholds.alpha or distance >= thresholds.beta:
        return p == 1.0
    return rng.random() < p


def filter_neighbors(agent: int, opinions, net, thresholds, rng: np.random.Generator,
                     counters: StepCounters | None = None) -> np.ndarray:
    """Indices of the agent's accepted neighbors, in ascending order, from the
    engine's filter run on the agent's row alone.

    An agent outside ``[0, N)``, or opinions of any shape but ``(N,)``, are
    rejected before any draw.
    """
    if not 0 <= agent < net.size:
        raise ValueError(f"agent {agent} out of range")
    opinions = np.asarray(opinions, dtype=float)
    if opinions.shape != (net.size,):
        raise ValueError(f"expected {net.size} opinions, got shape {opinions.shape}")
    row = slice(agent, agent + 1)
    if counters is not None:
        counters.filter_visits += int(np.count_nonzero(net.adjacency[row]))
    accepted = _filter_links(row, opinions, net.adjacency[row], thresholds, rng)
    return accepted[0].nonzero()[0]


def hk_confidence_set(agent: int, opinions, bound: float) -> np.ndarray:
    """Indices within the agent's confidence bound, the agent itself included."""
    x = as_opinions(opinions, max_ndim=1)
    if not 0 <= agent < x.size:
        raise ValueError(f"agent {agent} out of range")
    return np.flatnonzero(np.abs(x - x[agent]) <= _confidence_bounds(bound, x[agent]))


def empty_network(n: int):
    """A network of ``n`` agents and no edge."""
    return network_from_edges(n, ())


def edge_count(net) -> int:
    return int(net.adjacency.sum()) // 2


def edges(net) -> list[tuple[int, int]]:
    """Undirected edges as (i, j) with i < j, ascending pair order."""
    ii, jj = np.nonzero(np.triu(net.adjacency, k=1))
    return [(int(i), int(j)) for i, j in zip(ii, jj)]


def degrees(net) -> np.ndarray:
    return row_counts(net.adjacency)
