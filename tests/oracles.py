"""Scalar reference rules: the documented model, one decision at a time.

The package runs only the batched kernels; the tests check them against
these rules. ``filter_neighbors`` runs the engine's filter on one agent's
row, so the per-neighbour rule can be checked against it link by link.
``update_value``, ``average`` and ``hk_step`` run the engine's scalar
averaging kernel, the one its mapback falls back on, over agent indices,
mask rows and confidence sets, with no mapback.
``empty_network``, ``edge_count``, ``edges`` and ``degrees`` build and read
networks the plain way, for the tests alone.
"""

import math

import numpy as np

from opiniondyn.baselines import _confidence_bounds, _confidence_sets
from opiniondyn.dynamics import StepCounters, _average_rows, _check_inertia, _filter_links, _update
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


def update_value(current: float, accepted, opinions: np.ndarray, inertia: float) -> float:
    """Averaging update for one agent.

    With no accepted neighbors the opinion is unchanged. Otherwise the new
    value is inertia*current + (1-inertia)*mean(accepted opinions); the
    agent's own opinion enters only through inertia. Guards keep the result
    exact when all accepted opinions coincide, so full consensus is a true
    fixed point in floating point. ``accepted`` holds agent indices in
    ``[0, N)``; a boolean mask or a non-integer index is rejected.
    """
    _check_inertia(inertia)
    accepted = np.asarray(accepted)
    if accepted.size:  # an empty list is float64 and selects no one
        if accepted.dtype.kind not in "iu":  # a mask would be read as 0 and 1, a float truncated
            kind = "a boolean mask" if accepted.dtype == np.bool_ else accepted.dtype
            raise TypeError(f"accepted must hold integer agent indices, not {kind}")
        n = len(opinions)
        if not (np.minimum.reduce(accepted, None) >= 0 and np.maximum.reduce(accepted, None) < n):
            raise ValueError(f"accepted indices must lie in [0, {n})")  # -1 would wrap
    return _update(current, opinions[accepted.astype(np.intp, copy=False)], inertia)


def average(opinions: np.ndarray, listens: np.ndarray, inertia: float) -> np.ndarray:
    """:func:`update_value` for each agent over the agents marked in its row."""
    return _average_rows(opinions, listens, inertia, np.arange(opinions.size))


def hk_step(opinions, bounds) -> np.ndarray:
    """One numeric bounded-confidence update: each agent averages its
    confidence set, itself included, and no value is mapped back."""
    x = as_opinions(opinions, max_ndim=1)
    return average(x, _confidence_sets(x, _confidence_bounds(bounds, x)), 0.0)


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
