"""Reference opinion models: DeGroot and Hegselmann-Krause bounded confidence.

Both operate on a complete interaction graph (every agent sees every other),
isolating the update rule from network effects. DeGroot evolves purely
numeric opinions; the HK runner maps each step's result back to the nearest
linguistic term, mirroring how the linguistic framework quantizes states.
"""

from __future__ import annotations

import numpy as np

from .config import SimulationConfig, check_setting
from .dynamics import StepResult, TrajectoryRecord, average_terms, iterate
from .linguistic import LinguisticTermSet, nearest_terms
from .metrics import as_opinions
from .network import complete_network, pair_distances

ROW_SUM_TOL = 1e-12


def degroot_weights(opinions, mode: str) -> np.ndarray:
    """Row-stochastic weight matrix.

    ``uniform``: every entry 1/N. ``distance``: row i gives agent j weight
    proportional to exp(-|x_i - x_j|), row-normalized; the self term is
    included (distance 0 contributes weight 1 before normalization), so
    closer opinions always carry more influence.
    """
    x = as_opinions(opinions, max_ndim=1)
    n = x.size
    if mode == "uniform":
        return np.full((n, n), 1.0 / n)
    if mode == "distance":
        w = np.exp(-pair_distances(x, x))
        return w / w.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown weight mode {mode!r}; expected 'uniform' or 'distance'")


def degroot_step(opinions, weights: np.ndarray) -> np.ndarray:
    """One DeGroot update: the weight matrix applied to the opinion vector."""
    x = as_opinions(opinions, max_ndim=1)
    w = np.asarray(weights, dtype=float)
    if w.shape != (x.size, x.size):
        raise ValueError(f"weights shape {w.shape} does not match {x.size} opinions")
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise ValueError("weights must lie in [0, 1]")
    if not np.max(np.abs(w.sum(axis=1) - 1.0)) <= ROW_SUM_TOL:
        raise ValueError(f"weights are not row-stochastic within {ROW_SUM_TOL}")
    # A constant vector is a fixed point of any row-stochastic matrix; return
    # it unchanged so consensus is exact rather than off by an ulp.
    if x.min() == x.max():
        return x.copy()
    return w @ x


def _confidence_bounds(bounds, x: np.ndarray) -> np.ndarray:
    eps = np.asarray(bounds, dtype=float)
    if eps.shape != x.shape:
        raise ValueError(f"bounds shape {eps.shape} does not match {x.size} opinions")
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError("confidence bounds must lie in [0, 1]")
    return eps


def _confidence_sets(x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Row i marks the agents within agent i's bound, agent i included."""
    return pair_distances(x, x) <= eps[:, None]


def hk_step(opinions, bounds, term_set: LinguisticTermSet) -> np.ndarray:
    """One bounded-confidence update: each agent averages its confidence set
    and maps back. Returns the new term indices, the nearest terms of the
    numeric HK averages bit for bit (:func:`~opiniondyn.dynamics.average_terms`
    at inertia 0)."""
    x = as_opinions(opinions, max_ndim=1)
    return average_terms(x, _confidence_sets(x, _confidence_bounds(bounds, x)), 0.0, term_set)


def _stopping(t_max, tol, d_max) -> tuple[int, float, float]:
    """The stopping arguments checked as the config's own rows."""
    return tuple(map(check_setting, ("t_max", "epsilon", "d_max"), (t_max, tol, d_max)))


def hk_run(
    initial_values,
    bounds,
    term_set: LinguisticTermSet,
    t_max: int = SimulationConfig.t_max,
    tol: float = SimulationConfig.epsilon,
    d_max: float = SimulationConfig.d_max,
) -> TrajectoryRecord:
    """Iterate the HK model with per-step linguistic mapback.

    Each step is :func:`hk_step`, and every opinion takes the value of the
    term it returns, so states stay on the term scale; iteration stops when
    the largest per-agent change falls below ``tol`` or after ``t_max`` steps.
    """
    x = as_opinions(initial_values, max_ndim=1).copy()
    eps = _confidence_bounds(bounds, x)
    t_max, tol, d_max = _stopping(t_max, tol, d_max)
    net = complete_network(x.size)

    def advance(state: StepResult) -> StepResult:
        terms = hk_step(state.values, eps, term_set)
        return StepResult(term_set.values[terms], terms, net)

    return iterate(StepResult(x, nearest_terms(term_set, x), net), advance, t_max, tol, d_max)


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
    x = as_opinions(initial_values, max_ndim=1).copy()
    weights = degroot_weights(x, mode)  # rejects an unknown mode before any step
    t_max, tol, d_max = _stopping(t_max, tol, d_max)
    freeze_weights = check_setting("degroot_freeze_weights", freeze_weights)
    net = complete_network(x.size)
    first = StepResult(x, nearest_terms(term_set, x), net)

    def advance(state: StepResult) -> StepResult:
        live = not freeze_weights and state is not first
        step_weights = degroot_weights(state.values, mode) if live else weights
        values = degroot_step(state.values, step_weights)
        return StepResult(values, nearest_terms(term_set, values), net)

    return iterate(first, advance, t_max, tol, d_max)
