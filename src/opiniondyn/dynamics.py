"""Co-evolution engine: 3WD-filtered averaging, term mapback, rewiring.

One iteration is fully synchronous: every agent filters its current
neighbors through the three-way rule and averages the accepted opinions,
all reading the pre-step state; each averaged opinion is then mapped to the
nearest linguistic term, whose value becomes the agent's state; finally the
network rewires using the pre-step opinions. RNG consumption order is fixed
for reproducibility: all filtering draws (agents ascending, neighbors
ascending), then all rewiring draws (pairs in lexicographic order).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics as metrics_mod
from . import network
from .config import RewiringParams, SimulationConfig, ThreeWayThresholds
from .linguistic import LinguisticTermSet, nearest_terms
from .network import SocialNetwork, mask_below_diagonal, pair_distances, row_blocks, row_counts


@dataclass
class StepCounters:
    """Instrumentation for the per-step pair-visit complexity contract.

    ``filter_visits`` counts connected ordered pairs examined during
    neighbor filtering, i.e. the size (true entries) of the adjacency mask
    the filter reads: at most N*(N-1) per step. ``rewire_visits`` counts
    unordered pairs examined during rewiring (exactly N*(N-1)/2 per step).
    Each stays below N^2 per step. ``mapback_rechecks`` counts the agents
    whose term :func:`average_terms` could not certify from its float
    average and so re-averaged the scalar way: those near a term midpoint,
    including every exact tie.
    """

    filter_visits: int = 0
    rewire_visits: int = 0
    mapback_rechecks: int = 0


@dataclass(frozen=True, eq=False)
class StepResult:
    """One state of any model: its opinions, their term indices and its network."""

    values: np.ndarray
    terms: np.ndarray
    network: SocialNetwork


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Everything one run produced, iteration 0 (the initial state) included."""

    values: np.ndarray        # (iterations+1, n_agents) numeric opinions
    terms: np.ndarray         # (iterations+1, n_agents) term indices
    networks: list[SocialNetwork]
    variance: np.ndarray
    opinion_range: np.ndarray
    consensus: np.ndarray
    avg_degree: np.ndarray
    isolated: np.ndarray
    delta_max: np.ndarray     # NaN at iteration 0 (no preceding state)
    converged: bool
    iterations: int

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]

    @property
    def final_values(self) -> np.ndarray:
        return self.values[-1]

    @classmethod
    def from_states(cls, states: list[StepResult], converged: bool,
                    d_max: float) -> "TrajectoryRecord":
        values = np.array([s.values for s in states], dtype=float)
        var, rng_, cons, dmax = metrics_mod.trajectory_metrics(values, d_max)
        networks = [s.network for s in states]
        degrees = np.empty((len(networks), values.shape[1]), dtype=np.intp)
        for net, row in zip(networks, degrees):
            row_counts(net.adjacency, row)
        return cls(
            values=values, terms=np.array([s.terms for s in states], dtype=int), networks=networks,
            variance=var, opinion_range=rng_, consensus=cons, delta_max=dmax, converged=converged,
            avg_degree=np.add.reduce(degrees, 1, float) / degrees.shape[1],  # mean(axis=1)
            isolated=np.add.reduce(degrees == 0, 1), iterations=values.shape[0] - 1,
        )


def _classes(dist: np.ndarray, thresholds: ThreeWayThresholds) -> tuple[np.ndarray, np.ndarray]:
    """The accept and hesitate masks of the three-way rule over distances."""
    accepted = dist <= thresholds.alpha
    hesitant = dist >= thresholds.beta
    hesitant |= accepted
    np.logical_not(hesitant, out=hesitant)  # NaN distances hesitate, as in the scalar rule
    return accepted, hesitant


def _rewire_classes(dist: np.ndarray, params: RewiringParams) -> tuple[np.ndarray, np.ndarray]:
    """Rewiring's tests over distances, as ``close`` (``< delta_add``) and
    ``switch``, ``close ^ far`` with ``far`` ``> delta_cut``: the pairs whose
    eligibility a link changes. A boundary distance is neither close nor far."""
    close = dist < params.delta_add
    switch = dist > params.delta_cut
    switch ^= close
    return close, switch


def _probabilities(dist: np.ndarray, thresholds: ThreeWayThresholds) -> np.ndarray:
    """Acceptance probabilities of hesitation-zone distances, one ``math.exp`` each."""
    exponents = -thresholds.decay * (dist - thresholds.alpha)
    return np.fromiter(map(math.exp, exponents.tolist()), float, dist.size)


class _PairTables(NamedTuple):
    """The three-way rule and rewiring's two tests between terms, read-only
    when cached. An agent at term a reads row a; column j of ``accept``,
    ``hesitate``, ``close`` and ``switch`` is the agent at term ``codes[j]``.
    ``probs`` is indexed by two terms and is 0 outside the hesitation zone.
    ``accept`` and ``hesitate`` are :func:`_classes` and ``close`` and
    ``switch`` are :func:`_rewire_classes` of the term distances, so
    :func:`_filter_links` and :func:`rewire` read the same decisions on
    either path."""

    codes: np.ndarray
    accept: np.ndarray
    hesitate: np.ndarray
    probs: np.ndarray
    close: np.ndarray
    switch: np.ndarray


@functools.lru_cache(maxsize=8)
def _pair_tables(term_set: LinguisticTermSet, thresholds: ThreeWayThresholds,
                 rewiring: RewiringParams) -> _PairTables:
    """The tables of every pair of terms, all from the one distance table
    ``|values[a] - values[b]|``, with ``codes`` the terms in order. Keyed by
    the term-set object itself, so a run, or a sweep sharing its term set,
    thresholds and rewiring parameters, builds them once."""
    dist = pair_distances(term_set.values, term_set.values)
    accept, hesitate = _classes(dist, thresholds)
    probs = np.zeros(dist.shape)
    probs[hesitate] = _probabilities(dist[hesitate], thresholds)
    tables = _PairTables(np.arange(term_set.size), accept, hesitate, probs,
                         *_rewire_classes(dist, rewiring))
    for table in tables:
        table.setflags(write=False)
    return tables


def _term_pairs(opinions: np.ndarray, term_set: LinguisticTermSet,
                thresholds: ThreeWayThresholds, rewiring: RewiringParams,
                codes: np.ndarray | None = None) -> _PairTables | None:
    """The lookup of a step whose opinions all hold the bits of a term value,
    on a scale whose table of term pairs fits in one row block; else None.
    Given ``codes``, the caller vouches that ``opinions`` is
    ``term_set.values[codes]`` and nothing is searched or compared."""
    values = term_set.values
    if values.size ** 2 > network.BLOCK_PAIRS:
        return None
    if codes is None:
        codes = values.searchsorted(opinions)
        # NaN and values above the last term sort past it; clipped onto it, they differ
        if values.take(codes, mode="clip").tobytes() != opinions.tobytes():
            return None
    t = _pair_tables(term_set, thresholds, rewiring)
    return _PairTables(codes, t.accept.take(codes, axis=1), t.hesitate.take(codes, axis=1),
                       t.probs, t.close.take(codes, axis=1), t.switch.take(codes, axis=1))


def _filter_links(
    rows: slice,
    opinions: np.ndarray,
    links: np.ndarray,
    thresholds: ThreeWayThresholds,
    rng: np.random.Generator,
    pairs: _PairTables | None = None,
) -> np.ndarray:
    """Three-way filter over the link rows of the agents ``rows``; returns the
    accepted links.

    A link at distance d is accepted if d <= alpha and rejected if d >= beta;
    any other link, NaN included, takes one uniform draw and is accepted when
    it falls below ``math.exp(-decay * (d - alpha))``. The draws are taken in
    one batch in row-major order, as the scalar rule in ``tests/oracles.py``
    takes them link by link. With ``pairs``, the classes and probabilities
    are read from the term tables, which hold those same floats for every
    pair of term values.
    """
    if pairs is None:
        dist = pair_distances(opinions[rows], opinions)
        accepted, hesitant = _classes(dist, thresholds)
    else:
        own = pairs.codes[rows]
        accepted = pairs.accept.take(own, axis=0)
        hesitant = pairs.hesitate.take(own, axis=0)
    hesitant &= links
    accepted &= links
    # Flat indices into the fresh, C-contiguous blocks, in row-major order.
    drawn = hesitant.ravel().nonzero()[0]
    if pairs is None:
        probs = _probabilities(dist.ravel()[drawn], thresholds)
    else:
        row, col = np.divmod(drawn, opinions.size)
        probs = pairs.probs[own[row], pairs.codes[col]]
    # Hesitant links are not yet accepted, so each outcome lands in place.
    accepted.ravel()[drawn] = rng.random(drawn.size) < probs
    return accepted


def rewire(
    net: SocialNetwork,
    opinions,
    params: RewiringParams,
    rng: np.random.Generator,
    pairs=None,
) -> SocialNetwork:
    """One rewiring pass driven by pairwise opinion distances.

    Visits every unordered pair (i, j), i < j, in lexicographic order. A
    disconnected pair closer than delta_add is connected with probability
    p_add; a connected pair farther apart than delta_cut is disconnected with
    probability p_cut (strict inequalities; boundary distances do nothing).
    Exactly one uniform draw is consumed per eligible pair. All decisions
    read the pre-rewiring adjacency and the supplied opinions.

    A pair is eligible when it is close and unlinked or far and linked, that
    is ``close ^ (switch & linked)`` with ``switch = close ^ far`` from
    :func:`_rewire_classes`. ``pairs`` is the term lookup
    (:class:`_PairTables`) that :func:`step` passes when every opinion is a
    term value; its ``close`` and ``switch`` tables hold those same tests,
    so the outcome and the draws are those of the per-pair path bit for bit.
    The lookup is also the range proof: a term value lies in [0, 1] and is
    not NaN, so only opinions without it are checked.
    """
    n = net.size
    opinions = np.asarray(opinions, dtype=float)
    if opinions.shape != (n,):
        raise ValueError(f"expected {n} opinions, got shape {opinions.shape}")
    # NaN fails too: the reductions propagate it
    if pairs is None and not (np.minimum.reduce(opinions) >= 0.0
                              and np.maximum.reduce(opinions) <= 1.0):
        raise ValueError("opinions must lie in [0, 1]")
    # indexed by linked; with one probability for both, no draw needs a gather
    chance = None if params.p_add == params.p_cut else np.array((params.p_add, params.p_cut))

    old = net.adjacency
    new = old.copy()
    # Eligibility is a pure function of the old state, so each block of rows
    # takes the draws of all its eligible pairs at once. A block covers only
    # the columns right of its first row's diagonal, and ravel().nonzero() walks
    # it row-major, so the draws stay in lexicographic pair order. An eligible
    # pair is either unlinked and close or linked and far, so a successful
    # draw always flips it: the outcomes are toggles. Both ways of making
    # eligible give a fresh C-contiguous block, so ravel() is a view and the
    # outcomes land in place.
    for rows in row_blocks(n):
        first = rows.start + 1
        if pairs is None:
            eligible, switch = _rewire_classes(
                pair_distances(opinions[rows], opinions[first:]), params)
        else:
            own = pairs.codes[rows]
            eligible = pairs.close[:, first:].take(own, axis=0)
            switch = pairs.switch[:, first:].take(own, axis=0)
        linked = old[rows, first:]
        switch &= linked
        eligible ^= switch
        mask_below_diagonal(eligible)
        drawn = eligible.ravel().nonzero()[0]
        flips = eligible  # True only where drawn, each overwritten by its outcome
        p = params.p_add if chance is None else chance.take(linked.ravel()[drawn])
        flips.ravel()[drawn] = rng.random(drawn.size) < p
        new[rows, first:] ^= flips
        new[first:, rows] ^= flips.T
    return SocialNetwork._built(new)


def _check_inertia(inertia: float) -> None:
    if not 0.0 <= inertia <= 1.0:
        raise ValueError(f"inertia must lie in [0, 1], got {inertia!r}")


def _update(current: float, vals: np.ndarray, inertia: float) -> float:
    """The scalar averaging rule of one agent over its accepted opinions
    ``vals``: unchanged with none, else ``inertia*current + (1-inertia)*mean``.
    Guards keep the result exact when all accepted opinions coincide, so full
    consensus is a true fixed point in floating point."""
    if not vals.size:
        return float(current)
    lo, hi = np.minimum.reduce(vals, None), np.maximum.reduce(vals, None)
    mean = float(lo) if lo == hi else float(np.add.reduce(vals, None, float) / vals.size)  # mean()
    if inertia == 0.0:
        return mean
    if mean == current:
        return float(current)
    return float(inertia * current + (1.0 - inertia) * mean)


def _average_rows(opinions: np.ndarray, listens: np.ndarray, inertia: float,
                  rows: np.ndarray) -> np.ndarray:
    """:func:`_update` of the given agents only, in the order given, each over
    the opinions marked in its row of ``listens``."""
    _check_inertia(inertia)
    return np.array([_update(opinions[i], opinions[listens[i]], inertia) for i in rows.tolist()],
                    dtype=float)


EPS = np.finfo(float).eps


def average_terms(
    opinions: np.ndarray,
    listens: np.ndarray,
    inertia: float,
    term_set: LinguisticTermSet,
    counters: StepCounters | None = None,
    pairs: _PairTables | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """The nearest term of each agent's :func:`_update` over the opinions
    marked in its row of ``listens``, bit for bit.

    Each row block's sums come from one float product ``listens[rows] @
    opinions``; each agent's term is then read off the term midpoints with
    ``searchsorted``. That term is kept only when it is certain: the row's
    interval ``a ± (2k + 16)·eps`` around the float average ``a`` of its
    ``k`` accepted opinions must hold no midpoint. Every other agent is
    re-averaged by :func:`_update` and mapped by
    :func:`nearest_terms`, so ties, errors and their order are those of the
    scalar rule.

    Why the interval is enough, with u = eps/2, every opinion in [0, 1] and
    ``inertia`` in [0, 1] (otherwise nothing is certified):

    - A sum of ``k`` values in [0, 1], added in any order, is off by at most
      (k - 1)·u times the sum. That covers numpy's pairwise sum in
      :func:`_update` and any BLAS order, since the products of a 0/1
      row are exact and its zeros add exactly. Dividing by ``k`` adds u, so
      both means are within k·u of the true mean (``_update``'s all-equal
      guard returns it exactly).
    - The inertia blend adds four roundings of values at most 1, and its
      ``mean == current`` guard moves the result by at most k·u, so the
      scalar value and ``a`` each lie within (k + 4)·u of the exact blend
      and so within (k + 4)·eps of each other.
    - A certified interval lies at least slack/2 >= 8·eps inside two adjacent
      float midpoints, and so does the scalar value. Midpoints and distances
      round by at most eps/4, so the two-term rule of :func:`nearest_terms`
      maps that value to the term between them whatever the spacing. Between
      terms closer than eps no such interval fits; rows there are re-averaged.

    So a slack of (k + 5)·eps would do; (2k + 16)·eps more than doubles it,
    which also covers the second-order terms. The outputs therefore do not
    depend on the BLAS or on the block size.

    ``step`` passes what it already holds: its term lookup ``pairs``, which
    proves every opinion a term value and so in [0, 1], in place of the
    range check, and ``counts``, the :func:`row_counts` of ``listens``.
    Other callers pass neither, and the range is checked.
    """
    n = opinions.size
    # NaN fails the range test too; an empty state has nothing to certify
    if 0.0 <= inertia <= 1.0 and n and (pairs is not None or (
            np.minimum.reduce(opinions) >= 0.0 and np.maximum.reduce(opinions) <= 1.0)):
        if counts is None:
            counts = row_counts(listens)
        sums = np.empty(n)
        for rows in row_blocks(n):
            np.matmul(listens[rows], opinions, out=sums[rows])
        means = np.divide(sums, counts, out=opinions.copy(), where=counts > 0)
        # With no inertia the blend is the mean, up to the sign of a zero
        estimate = means if inertia == 0.0 else inertia * opinions + (1.0 - inertia) * means
        slack = counts * (2 * EPS) + 16 * EPS  # (2k + 16)·eps, exactly
        mids = term_set.midpoints
        terms = mids.searchsorted(estimate - slack)
        recheck = (terms != mids.searchsorted(estimate + slack, "right")).nonzero()[0]
    else:
        terms = np.empty(n, dtype=np.intp)
        recheck = np.arange(n)
    if recheck.size:
        terms[recheck] = nearest_terms(term_set, _average_rows(opinions, listens, inertia, recheck))
    if counters is not None:
        counters.mapback_rechecks += int(recheck.size)
    return terms


def step(
    opinions: np.ndarray,
    net: SocialNetwork,
    term_set: LinguisticTermSet,
    thresholds: ThreeWayThresholds,
    inertia: float,
    rewiring: RewiringParams,
    rng: np.random.Generator,
    counters: StepCounters | None = None,
    codes: np.ndarray | None = None,
) -> StepResult:
    """One synchronous iteration; returns the next state, whose change
    :func:`iterate` measures, as it does every model's.

    ``codes``, when given, are the term indices of ``opinions``: the caller
    vouches that ``opinions`` is ``term_set.values[codes]`` bit for bit, as
    every state of :func:`run` is. The step then skips proving it.
    """
    n = net.size
    opinions = np.asarray(opinions, dtype=float)
    if opinions.shape != (n,):
        raise ValueError(f"expected {n} opinions, got shape {opinions.shape}")
    if counters is not None:
        counters.filter_visits += int(np.count_nonzero(net.adjacency))
        counters.rewire_visits += n * (n - 1) // 2
    pairs = _term_pairs(opinions, term_set, thresholds, rewiring, codes)
    accepted = np.empty((n, n), dtype=bool)
    for rows in row_blocks(n):
        accepted[rows] = _filter_links(rows, opinions, net.adjacency[rows], thresholds, rng, pairs)
    # Agents with no accepted neighbor keep their opinion literally; the
    # others average, then map back to the nearest linguistic term, whose
    # value becomes the carried state, so opinions always sit on the term
    # scale (matching the reported term-valued metrics). On the lookup path
    # an idle agent's opinion is the value of its term, and its new term is
    # that term (the nearest term of a term value), so every agent takes the
    # value of its new term.
    counts = row_counts(accepted)
    new_terms = average_terms(opinions, accepted, inertia, term_set, counters, pairs, counts)
    del accepted
    if pairs is None:
        new_values = np.where(counts > 0, term_set.values[new_terms], opinions)
    else:
        new_values = term_set.values.take(new_terms)
    return StepResult(new_values, new_terms, rewire(net, opinions, rewiring, rng, pairs))


def iterate(first: StepResult, advance: Callable[[StepResult], StepResult],
            t_max: int, tol: float, d_max: float) -> TrajectoryRecord:
    """Advance from ``first`` until a step's :func:`~opiniondyn.metrics.delta_max`
    falls below ``tol``.

    The stopping rule of every model: at most ``t_max`` steps, and the run
    has converged when the last step moved no agent by ``tol`` or more.
    ``advance`` returns the next state only; the change of each step is
    measured here, between the values of the two states.
    """
    states = [first]
    converged = False
    for _ in range(t_max):
        states.append(advance(states[-1]))
        if metrics_mod.delta_max(states[-2].values, states[-1].values) < tol:
            converged = True
            break
    return TrajectoryRecord.from_states(states, converged, d_max)


def run(config: SimulationConfig) -> TrajectoryRecord:
    """Run the co-evolution model to convergence or t_max steps.

    The generator is seeded from config.seed; the run stops as soon as a
    step's delta_max falls below config.epsilon. Identical configs give
    bit-identical records. Every state holds the values of its terms (the
    first by construction, each next one by :func:`step`), so each step is
    handed its codes.
    """
    term_set = config.term_set()
    rng = np.random.default_rng(config.seed)
    first = StepResult(config.initial_values(),
                       np.asarray(config.initial_opinions, dtype=int),
                       config.build_initial_network(rng))

    def advance(state: StepResult) -> StepResult:
        return step(state.values, state.network, term_set, config.thresholds,
                    config.inertia, config.rewiring, rng, codes=state.terms)

    return iterate(first, advance, config.t_max, config.epsilon, config.d_max)
