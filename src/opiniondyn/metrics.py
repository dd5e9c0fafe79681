"""Consensus measurement: dispersion, extremes, normalized agreement, clusters.
All but cluster_count take a state (giving a float) or a history, one state per row.
Reductions call numpy's ufunc kernels, not its slower Python-level wrappers."""

from __future__ import annotations

import sys

import numpy as np

from .config import SimulationConfig
from .linguistic import LinguisticTermSet


def as_opinions(opinions, max_ndim: int = 2) -> np.ndarray:
    """A non-empty state (1-d) or, with max_ndim 2, also a history of states (2-d)."""
    arr = np.asarray(opinions, dtype=float, order="C")
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        shape = "1-d sequence" if max_ndim == 1 else "1-d sequence or 2-d history"
        raise ValueError(f"opinions must be a non-empty {shape}")
    return arr


def _per_state(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _extremes(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each state's minimum and maximum, kept as a length-1 last axis."""
    return np.minimum.reduce(arr, -1, keepdims=True), np.maximum.reduce(arr, -1, keepdims=True)


def _deviations(arr: np.ndarray, extremes: tuple[np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """Each opinion minus its state's mean; exactly 0 in an all-equal state
    (np.mean of identical values can be an ulp off, leaving a spurious residual).
    ``extremes`` are ``_extremes(arr)``, when the caller already has them."""
    lo, hi = _extremes(arr) if extremes is None else extremes
    return np.subtract(arr, np.add.reduce(arr, -1, keepdims=True) / arr.shape[-1],
                       out=np.zeros(arr.shape), where=lo != hi)


def variance(opinions):
    """Population variance (divide by n, not n-1)."""
    return _variance(_deviations(as_opinions(opinions)))


def _variance(deviations: np.ndarray):
    total = np.add.reduce(deviations ** 2, -1)
    v = total / deviations.shape[-1]
    # Squares of deviations below 2**-511 lose bits to underflow, which can turn a
    # variance that rounds to a subnormal into 0. Such states are recomputed with
    # the deviations scaled by an exact power of two, so only the final product
    # rounds. A zero sum of squares needs no redo: every square then sits below
    # 2**-1075 and so does the exact variance.
    tiny = (total > 0.0) & (v < 2.0 ** -900)
    if np.logical_or.reduce(tiny, None):
        v = np.array(v)  # writable; 0-d for a single state
        scaled = deviations[tiny] * 2.0 ** 600
        v[tiny] = np.add.reduce(scaled ** 2, -1) / scaled.shape[-1] * 2.0 ** -600 * 2.0 ** -600
    return _per_state(v)


def opinion_range(opinions):
    """Max minus min; 0 means complete consensus."""
    arr = as_opinions(opinions)
    return _per_state(np.maximum.reduce(arr, -1) - np.minimum.reduce(arr, -1))


def consensus_index(opinions, d_max: float = SimulationConfig.d_max):
    """1 minus the mean absolute deviation scaled by the largest possible one.

    The default, the config schema's d_max of 0.5, is the maximal achievable
    mean absolute deviation for opinions in [0, 1] (half at each endpoint),
    so the index lands in [0, 1] with 1 meaning full agreement.
    """
    return _consensus(_deviations(as_opinions(opinions)), d_max)


def _consensus(deviations: np.ndarray, d_max: float):
    # Only a subnormal d_max overflows: the mean absolute deviation is <= 0.5.
    if not d_max >= sys.float_info.min:
        raise ValueError(f"d_max must be >= {sys.float_info.min!r}, got {d_max!r}")
    return _per_state(1.0 - np.add.reduce(np.abs(deviations), -1) / deviations.shape[-1] / d_max)


def cluster_count(opinions, tolerance: float) -> int:
    """Number of opinion clusters under gap-based chaining.

    Opinions are sorted; a new cluster starts at every gap between
    consecutive values that exceeds ``tolerance``. Chained sub-tolerance
    gaps merge transitively. tolerance = 0 counts distinct values. NaN
    opinions are rejected: a NaN gap would compare False and vanish.
    """
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    arr = as_opinions(opinions, max_ndim=1).copy()
    arr.sort()
    if np.isnan(arr[-1]):  # sorting puts any NaN last
        raise ValueError("opinions must not be NaN")
    return 1 + int(np.add.reduce(arr[1:] - arr[:-1] > tolerance))


def delta_max(previous, current):
    """Largest per-agent opinion change between two states (or histories)."""
    prev = np.asarray(previous, dtype=float)
    curr = np.asarray(current, dtype=float)
    if prev.shape != curr.shape:
        raise ValueError(f"length mismatch: {prev.shape} vs {curr.shape}")
    return _per_state(np.maximum.reduce(np.abs(curr - prev), -1))


def trajectory_metrics(states, d_max: float):
    """Variance, range, consensus index and delta_max of a history, one state
    per row; delta_max compares a state with the one before, NaN for the first."""
    states = as_opinions(states)
    if states.ndim != 2:
        raise ValueError("a history is 2-d, one state per row")
    lo, hi = _extremes(states)
    deviations = _deviations(states, (lo, hi))
    moves = np.concatenate(([np.nan], delta_max(states[:-1], states[1:])))
    return _variance(deviations), hi[:, 0] - lo[:, 0], _consensus(deviations, d_max), moves


def default_cluster_tolerance(term_set: LinguisticTermSet) -> float:
    """Half the smallest gap between adjacent term values.

    Clusters separated by less than this are not distinguishable as
    different linguistic terms.
    """
    return float(np.diff(term_set.values).min()) / 2.0
