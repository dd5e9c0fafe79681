"""Consensus measurement: dispersion, extremes, normalized agreement, clusters."""

from __future__ import annotations

import numpy as np

from .linguistic import LinguisticTermSet


def _as_opinions(opinions) -> np.ndarray:
    arr = np.asarray(opinions, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("opinions must be a non-empty 1-d sequence")
    return arr


def variance(opinions) -> float:
    """Population variance (divide by n, not n-1)."""
    arr = _as_opinions(opinions)
    # an all-equal state must score exactly 0 (np.mean of identical values
    # can be an ulp off, leaving a spurious residual)
    if arr.min() == arr.max():
        return 0.0
    return float(np.mean((arr - arr.mean()) ** 2))


def opinion_range(opinions) -> float:
    """Max minus min; 0 means complete consensus."""
    arr = _as_opinions(opinions)
    return float(arr.max() - arr.min())


def consensus_index(opinions, d_max: float = 0.5) -> float:
    """1 minus the mean absolute deviation scaled by the largest possible one.

    The default d_max = 0.5 is the maximal achievable mean absolute
    deviation for opinions in [0, 1] (half at each endpoint), so the index
    lands in [0, 1] with 1 meaning full agreement.
    """
    if not d_max > 0.0:
        raise ValueError(f"d_max must be > 0, got {d_max!r}")
    arr = _as_opinions(opinions)
    if arr.min() == arr.max():
        return 1.0
    mad = float(np.mean(np.abs(arr - arr.mean())))
    return 1.0 - mad / d_max


def cluster_count(opinions, tolerance: float) -> int:
    """Number of opinion clusters under gap-based chaining.

    Opinions are sorted; a new cluster starts at every gap between
    consecutive values that exceeds ``tolerance``. Chained sub-tolerance
    gaps merge transitively. tolerance = 0 counts distinct values.
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    arr = np.sort(_as_opinions(opinions))
    return 1 + int(np.sum(np.diff(arr) > tolerance))


def delta_max(previous, current) -> float:
    """Largest per-agent opinion change between two states."""
    prev = np.asarray(previous, dtype=float)
    curr = np.asarray(current, dtype=float)
    if prev.shape != curr.shape:
        raise ValueError(f"length mismatch: {prev.shape} vs {curr.shape}")
    return float(np.max(np.abs(curr - prev)))


def trajectory_metrics(states, d_max: float):
    """Variance, range, consensus index and delta_max, one array entry per
    state; delta_max compares a state with the one before, NaN for the first."""
    return (
        np.array([variance(x) for x in states]),
        np.array([opinion_range(x) for x in states]),
        np.array([consensus_index(x, d_max) for x in states]),
        np.array([np.nan] + [delta_max(a, b) for a, b in zip(states, states[1:])]),
    )


def default_cluster_tolerance(term_set: LinguisticTermSet) -> float:
    """Half the smallest gap between adjacent term values.

    Clusters separated by less than this are not distinguishable as
    different linguistic terms.
    """
    return float(np.diff(term_set.values).min()) / 2.0
