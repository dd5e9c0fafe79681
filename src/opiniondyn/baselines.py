"""Reference opinion models: DeGroot and Hegselmann-Krause bounded confidence.

Both operate on a complete interaction graph (every agent sees every other),
isolating the update rule from network effects. DeGroot evolves purely
numeric opinions; the HK runner maps each step's result back to the nearest
linguistic term, mirroring how the linguistic framework quantizes states.
"""

from __future__ import annotations

import numpy as np

from .config import SimulationConfig
from .dynamics import StepResult, TrajectoryRecord, iterate
from .linguistic import LinguisticTermSet, nearest_terms
from .metrics import delta_max
from .network import SocialNetwork, complete_network

ROW_SUM_TOL = 1e-12


def _as_opinion_vector(opinions) -> np.ndarray:
    arr = np.asarray(opinions, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("opinions must be a non-empty 1-d sequence")
    return arr


def degroot_weights(opinions, mode: str) -> np.ndarray:
    """Row-stochastic weight matrix.

    ``uniform``: every entry 1/N. ``distance``: row i gives agent j weight
    proportional to exp(-|x_i - x_j|), row-normalized; the self term is
    included (distance 0 contributes weight 1 before normalization), so
    closer opinions always carry more influence.
    """
    x = _as_opinion_vector(opinions)
    n = x.size
    if mode == "uniform":
        return np.full((n, n), 1.0 / n)
    if mode == "distance":
        w = np.exp(-np.abs(x[:, None] - x[None, :]))
        return w / w.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown weight mode {mode!r}; expected 'uniform' or 'distance'")


def degroot_step(opinions, weights: np.ndarray) -> np.ndarray:
    """One DeGroot update: the weight matrix applied to the opinion vector."""
    x = _as_opinion_vector(opinions)
    w = np.asarray(weights, dtype=float)
    if w.shape != (x.size, x.size):
        raise ValueError(f"weights shape {w.shape} does not match {x.size} opinions")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if np.max(np.abs(w.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ValueError(f"weights are not row-stochastic within {ROW_SUM_TOL}")
    # A constant vector is a fixed point of any row-stochastic matrix; return
    # it unchanged so consensus is exact rather than off by an ulp.
    if x.min() == x.max():
        return x.copy()
    return w @ x


def hk_confidence_set(agent: int, opinions, bound: float) -> np.ndarray:
    """Indices within the agent's confidence bound, the agent itself included."""
    x = _as_opinion_vector(opinions)
    if not 0 <= agent < x.size:
        raise ValueError(f"agent {agent} out of range")
    if bound < 0.0:
        raise ValueError(f"bound must be >= 0, got {bound!r}")
    return np.flatnonzero(np.abs(x - x[agent]) <= bound)


def hk_step(opinions, bounds) -> np.ndarray:
    """One bounded-confidence update: each agent averages its confidence set."""
    x = _as_opinion_vector(opinions)
    eps = np.asarray(bounds, dtype=float)
    if eps.shape != x.shape:
        raise ValueError(f"bounds shape {eps.shape} does not match {x.size} opinions")
    out = np.empty_like(x)
    for i in range(x.size):
        vals = x[np.abs(x - x[i]) <= eps[i]]
        lo, hi = vals.min(), vals.max()
        out[i] = lo if lo == hi else vals.mean()
    return out


def _state(values: np.ndarray, previous: StepResult | None, term_set: LinguisticTermSet,
           net: SocialNetwork) -> StepResult:
    """A baseline state: the values, their nearest-term view and the shared network."""
    change = np.nan if previous is None else delta_max(previous.values, values)
    return StepResult(values, nearest_terms(term_set, values), net, change)


def hk_run(
    initial_values,
    bounds,
    term_set: LinguisticTermSet,
    t_max: int = SimulationConfig.t_max,
    tol: float = SimulationConfig.epsilon,
    d_max: float = SimulationConfig.d_max,
) -> TrajectoryRecord:
    """Iterate the HK model with per-step linguistic mapback.

    After each averaging step every opinion snaps to the nearest term value,
    so states stay on the term scale; iteration stops when the largest
    per-agent change falls below ``tol`` or after ``t_max`` steps.
    """
    x = _as_opinion_vector(initial_values).copy()
    eps = np.asarray(bounds, dtype=float)
    if eps.shape != x.shape:
        raise ValueError(f"bounds shape {eps.shape} does not match {x.size} opinions")
    if eps.size and (eps.min() < 0.0 or eps.max() > 1.0):
        raise ValueError("confidence bounds must lie in [0, 1]")
    net = complete_network(x.size)

    def advance(state: StepResult) -> StepResult:
        snapped = term_set.values[nearest_terms(term_set, hk_step(state.values, eps))]
        return _state(snapped, state, term_set, net)

    return iterate(_state(x, None, term_set, net), advance, t_max, tol, d_max)


def degroot_run(
    initial_values,
    mode: str,
    term_set: LinguisticTermSet,
    t_max: int = SimulationConfig.t_max,
    tol: float = SimulationConfig.epsilon,
    d_max: float = SimulationConfig.d_max,
    freeze_weights: bool = False,
) -> TrajectoryRecord:
    """Iterate the DeGroot model with purely numeric opinions.

    Distance-based weights are recomputed from the current opinions every
    step unless ``freeze_weights`` pins the matrix built at t = 0. Term
    indices in the record are nearest-term views of the numeric values.
    """
    x = _as_opinion_vector(initial_values).copy()
    weights = degroot_weights(x, mode)  # rejects an unknown mode before any step
    net = complete_network(x.size)
    first = _state(x, None, term_set, net)

    def advance(state: StepResult) -> StepResult:
        live = not freeze_weights and state is not first
        step_weights = degroot_weights(state.values, mode) if live else weights
        return _state(degroot_step(state.values, step_weights), state, term_set, net)

    return iterate(first, advance, t_max, tol, d_max)
