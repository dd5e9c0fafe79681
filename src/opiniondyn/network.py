"""Symmetric social networks: random generation, pair distances, and the
row-block and corner helpers that every pairwise pass shares.

Networks are boolean adjacency matrices without self-loops, treated as
immutable snapshots. This module imports nothing from the package, so every
other module can import it. Writing a network to a file is
``outputs.save_edge_list``'s job.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def row_counts(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The True entries of each row of a boolean matrix, as ``intp``,
    written into ``out`` when it is given.

    The bytes of each row are summed as integers, which is exact because
    every boolean this package makes or accepts is stored as a 0 or 1 byte.
    They are summed in 16-bit lanes, which hold the count of any row
    narrower than 65,536 columns, and in 32-bit lanes for wider rows.
    """
    if mask.dtype != np.bool_:
        raise TypeError(f"row_counts needs a boolean mask, got {mask.dtype}")
    if out is None:
        out = np.empty(mask.shape[0], dtype=np.intp)
    lane = np.uint16 if mask.shape[1] < 1 << 16 else np.uint32
    return np.add.reduce(mask.view(np.uint8), 1, lane, out)


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a[i] - b[j]|`` for every i and j: the distance of every pairwise rule."""
    dist = np.subtract.outer(a, b)
    np.abs(dist, out=dist)
    return dist


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"network size must be >= 1, got {n}")


@dataclass(frozen=True, eq=False)
class SocialNetwork:
    """Undirected, loop-free social network over ``size`` agents."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = self.adjacency
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        _check_size(adj.shape[0])
        if adj.dtype != np.bool_:
            raise ValueError("adjacency must be a boolean matrix")
        if adj.view(np.uint8).max() > 1:  # row_counts sums the bytes
            raise ValueError("adjacency holds booleans whose bytes are not 0 or 1")
        if np.any(np.diag(adj)):
            raise ValueError("adjacency has self-loops")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency is not symmetric")

    @classmethod
    def _built(cls, adjacency: np.ndarray) -> SocialNetwork:
        """A network over an adjacency that is square, boolean, symmetric and
        loop-free by construction, skipping the checks of public construction."""
        net = object.__new__(cls)
        object.__setattr__(net, "adjacency", adjacency)
        return net

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]


def complete_network(n: int) -> SocialNetwork:
    _check_size(n)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return SocialNetwork(adj)


def network_from_edges(n: int, edges) -> SocialNetwork:
    """Build a network from undirected (i, j) pairs."""
    _check_size(n)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        # a bool would index as a mask, a float not at all
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in (i, j)):
            raise ValueError(f"edge ({i!r}, {j!r}): indices must be integers")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} agents")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed")
        adj[i, j] = adj[j, i] = True
    return SocialNetwork(adj)


# Pairwise passes work on blocks of whole rows holding about this many pairs,
# so their float temporaries take O(N) memory rather than O(N^2). Draws are
# taken row-major, so the concatenated stream is the same for any block size.
BLOCK_PAIRS = 1 << 16


def row_blocks(n: int) -> tuple[slice, ...]:
    """Consecutive row slices covering ``range(n)``, about BLOCK_PAIRS pairs
    of an n-by-n matrix each."""
    return _row_blocks(n, BLOCK_PAIRS)


@functools.lru_cache(maxsize=64)
def _row_blocks(n: int, block_pairs: int) -> tuple[slice, ...]:
    rows = max(1, block_pairs // n)
    return tuple(slice(start, min(start + rows, n)) for start in range(0, n, rows))


@functools.lru_cache(maxsize=16)
def _upper_blocks(n: int, block_pairs: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The pairs right of the diagonal in each block of :func:`_row_blocks`,
    numbered row-major from 0, as read-only ``(bounds, upper, lower)``.
    ``bounds`` holds the number of each row's first pair, then the block's
    pair count. For pair ``h`` of a row, the flat index of (i, j) in an
    n-by-n matrix is ``h + upper`` and that of (j, i) is ``h * n + lower``,
    with ``upper`` and ``lower`` the row's entries."""
    blocks = []
    for rows in _row_blocks(n, block_pairs):
        i = np.arange(rows.start, rows.stop)
        bounds = np.zeros(i.size + 1, dtype=np.intp)
        np.cumsum(n - 1 - i, out=bounds[1:])
        shift = i + 1 - bounds[:-1]  # j - h
        block = (bounds, i * n + shift, shift * n + i)
        for table in block:
            table.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


@functools.lru_cache(maxsize=16)
def _corner_keep(shape: tuple[int, int]) -> np.ndarray:
    """Read-only mask of the entries (r, c) with c >= r, built once per shape."""
    keep = ~np.tri(*shape, k=-1, dtype=bool)
    keep.setflags(write=False)
    return keep


def mask_below_diagonal(block: np.ndarray) -> None:
    """Clear the pairs (i, j) with j <= i in a block of rows i0, i0+1, ...
    whose columns start at j = i0 + 1. Only its leading corner holds them."""
    corner = block[:, :block.shape[0] - 1]
    corner &= _corner_keep(corner.shape)


def random_network(n: int, edge_prob: float, rng: np.random.Generator) -> SocialNetwork:
    """Erdos-Renyi style random network.

    One uniform draw per unordered pair, in ascending (i, j) order; the pair
    is connected when the draw falls below ``edge_prob``. The draws are taken
    one block of upper-triangle rows at a time, which is the same stream.
    Only the pairs that connect are written: ``searchsorted`` of each row's
    first pair among a block's hits splits them by row, and each hit is set
    as (i, j) and (j, i) through the flat indices of :func:`_upper_blocks`.
    """
    _check_size(n)
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob!r}")
    adj = np.zeros((n, n), dtype=bool)
    flat = adj.ravel()
    for bounds, upper, lower in _upper_blocks(n, BLOCK_PAIRS):
        hits = (rng.random(bounds[-1]) < edge_prob).nonzero()[0]
        # hits ascend, so each row's hits are one run of them, and these are
        # where the runs start, then the number of hits
        runs = hits.searchsorted(bounds)
        per_row = runs[1:] - runs[:-1]
        flat[hits + upper.repeat(per_row)] = True
        hits *= n
        hits += lower.repeat(per_row)
        flat[hits] = True
    return SocialNetwork._built(adj)
