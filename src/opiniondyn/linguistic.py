"""Linguistic term sets and the nonlinear scale that maps terms to [0, 1].

A term set holds 2*phi + 1 ordered labels h_0 .. h_{2*phi}. Each label is
assigned a numeric value by a two-branch exponential scale parameterized by
``base``: values compress toward the midpoint 0.5 and are symmetric about it,
with the endpoints pinned to 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class LinguisticTermSet:
    """An ordered set of 2*phi + 1 linguistic terms with cached numeric values.

    Immutable, compared and hashed by identity, and safe to share between
    concurrent readers. Use :func:`build_term_set` rather than constructing it.
    """

    phi: int
    base: float
    values: np.ndarray = field(repr=False)
    # (values[t] + values[t + 1]) / 2 for each t: the rounding boundaries of mapback
    midpoints: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return 2 * self.phi + 1


# The largest phi accepted: 20,001 terms, built in milliseconds. The bound is
# checked before the table is allocated, so a huge phi fails at once.
MAX_PHI = 10_000


def build_term_set(phi: int, base: float) -> LinguisticTermSet:
    """Build a term set, evaluating the scale function once for every index.

    The value of term j is
        (base^phi - base^(phi-j)) / (2*(base^phi - 1))      for j <= phi
        (base^phi + base^(j-phi) - 2) / (2*(base^phi - 1))  for j > phi

    which is 0 at j=0, exactly 0.5 at j=phi, 1 at j=2*phi, strictly
    increasing, and symmetric: value[j] + value[2*phi - j] = 1.
    """
    phi = _integer(phi, "phi")  # a numpy integer would make base**phi overflow to inf
    if not 1 <= phi <= MAX_PHI:
        raise ValueError(f"phi must be an integer in [1, {MAX_PHI}], got {phi!r}")
    if not base > 1.0:
        # base = 1 collapses the denominator 2*(base^phi - 1) to zero
        raise ValueError(f"base must be > 1, got {base!r}")
    base = float(base)
    try:
        peak = base**phi
    except OverflowError:
        raise ValueError(f"base**phi overflows a float for phi={phi}, base={base}") from None
    # Denominator written as 2*(peak - 1) so that value[phi] divides out to
    # exactly 0.5 and value[2*phi] to exactly 1.0 in floating point.
    denom = 2.0 * (peak - 1.0)
    values = np.empty(2 * phi + 1)
    for j in range(2 * phi + 1):
        if j <= phi:
            values[j] = (peak - base ** (phi - j)) / denom
        else:
            values[j] = (peak + base ** (j - phi) - 2.0) / denom
    if not np.all(np.diff(values) > 0.0):
        raise ValueError(f"scale values are not strictly increasing for phi={phi}, base={base}")
    midpoints = (values[:-1] + values[1:]) / 2
    values.setflags(write=False)
    midpoints.setflags(write=False)
    return LinguisticTermSet(phi=phi, base=base, values=values, midpoints=midpoints)


def _integer(value, name: str) -> int:
    """``value`` as an ``int``. Anything but an int or a numpy integer, or a
    bool, is a TypeError: ``int()`` would truncate 2.5 and read True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int or a numpy integer, got {value!r}")
    return int(value)


def _check_index(term_set: LinguisticTermSet, index: int) -> int:
    index = _integer(index, "term index")
    if not 0 <= index <= 2 * term_set.phi:
        raise ValueError(f"term index {index} out of range [0, {2 * term_set.phi}]")
    return index


def term_value(term_set: LinguisticTermSet, index: int) -> float:
    """Numeric value of the term at ``index``."""
    return float(term_set.values[_check_index(term_set, index)])


def nearest_terms(term_set: LinguisticTermSet, values) -> np.ndarray:
    """Index of the term closest to each value, for an array of any shape.

    Exact ties go to the smaller index: the first minimum, as a scan of all
    terms finds it. Every value must lie in [0, 1]; NaN is rejected too.
    """
    x = np.asarray(values, dtype=float)
    # NaN fails too: the reductions propagate it; an empty array has no extremes
    if x.size and not (np.minimum.reduce(x, None) >= 0.0 and np.maximum.reduce(x, None) <= 1.0):
        inside = (x >= 0.0) & (x <= 1.0)
        raise ValueError(f"value {float(x[~inside].flat[0])!r} outside [0, 1]")
    # A rounded |x - v| never shrinks as v moves away from x, so the first
    # minimum is the last term below x or the first at or above it, unless a
    # term further down ties with the one below x. That needs two terms within
    # about an ulp below x/2, which build_term_set never makes: 0.5 is a term,
    # so for x > 0.5 the term below x is >= x/2 and its distance is exact, and
    # below 0.25 the gap after term j is at least base^-j/(2*phi) > 1/(4*phi).
    v = term_set.values
    below = v[1:-1].searchsorted(x)  # the last term below x; 0 at x = 0
    # v[below] <= x <= v[below + 1], so both differences are the distances
    return np.where(v[1:][below] - x < x - v[below], below + 1, below)


def nearest_term(term_set: LinguisticTermSet, value: float) -> int:
    """Index of the term whose value is closest to ``value``."""
    return int(nearest_terms(term_set, value))


def negate_term(term_set: LinguisticTermSet, index: int) -> int:
    """Negation: the term mirrored about the midpoint, index 2*phi - j."""
    return 2 * term_set.phi - _check_index(term_set, index)


def term_max(term_set: LinguisticTermSet, i: int, j: int) -> int:
    """The larger of two terms under the set's total order."""
    return max(_check_index(term_set, i), _check_index(term_set, j))


def term_min(term_set: LinguisticTermSet, i: int, j: int) -> int:
    """The smaller of two terms under the set's total order."""
    return min(_check_index(term_set, i), _check_index(term_set, j))
