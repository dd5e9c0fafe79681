import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opiniondyn import (
    build_term_set,
    nearest_term,
    nearest_terms,
    negate_term,
    term_max,
    term_min,
    term_value,
)
from opiniondyn.linguistic import MAX_PHI


def exact_scale(phi: int, base: Fraction) -> list[Fraction]:
    """Independent oracle: the scale evaluated in exact rational arithmetic."""
    peak = base**phi
    denom = 2 * peak - 2
    out = []
    for j in range(2 * phi + 1):
        if j <= phi:
            out.append((peak - base ** (phi - j)) / denom)
        else:
            out.append((peak + base ** (j - phi) - 2) / denom)
    return out


def test_phi3_base2_values():
    ts = build_term_set(3, 2)
    expected = [Fraction(0), Fraction(4, 14), Fraction(6, 14), Fraction(7, 14),
                Fraction(8, 14), Fraction(10, 14), Fraction(1)]
    assert exact_scale(3, Fraction(2)) == expected
    np.testing.assert_allclose(ts.values, [float(f) for f in expected], rtol=0, atol=1e-15)


def test_phi1_base2_is_trivial():
    ts = build_term_set(1, 2)
    assert list(ts.values) == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("phi", range(1, 7))
@pytest.mark.parametrize("base", [1.5, 2.0, 3.0])
def test_structural_invariants(phi, base):
    ts = build_term_set(phi, base)
    assert ts.values.shape == (2 * phi + 1,)
    assert ts.values[0] == 0.0
    assert ts.values[2 * phi] == 1.0
    assert ts.values[phi] == 0.5
    assert np.all(np.diff(ts.values) > 0)
    # symmetry about the midpoint
    np.testing.assert_allclose(ts.values + ts.values[::-1], 1.0, rtol=0, atol=1e-12)


def test_build_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        build_term_set(0, 2)
    with pytest.raises(ValueError):
        build_term_set(3, 1.0)
    with pytest.raises(ValueError):
        build_term_set(3, 0.5)


def test_build_reports_overflow_for_a_numpy_integer_phi():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not fire
        for phi in (5000, np.int64(5000)):
            with pytest.raises(ValueError, match=r"base\*\*phi overflows a float"):
                build_term_set(phi, 1e6)
    term_set = build_term_set(np.int64(3), 2)
    assert type(term_set.phi) is int
    assert term_set.values.tobytes() == build_term_set(3, 2).values.tobytes()


def test_term_value(term_set):
    assert term_value(term_set, 3) == 0.5
    assert term_value(term_set, 0) == 0.0
    assert term_value(term_set, 6) == 1.0
    with pytest.raises(ValueError):
        term_value(term_set, 7)
    with pytest.raises(ValueError):
        term_value(term_set, -1)


def test_nearest_term(term_set):
    assert nearest_term(term_set, 0.5) == 3
    # |6/14 - 0.40| ~ 0.0286 beats |0.5 - 0.40| = 0.1, checked by brute scan
    diffs = np.abs(term_set.values - 0.40)
    assert int(np.argmin(diffs)) == 2
    assert nearest_term(term_set, 0.40) == 2
    assert nearest_term(term_set, 0.0) == 0
    with pytest.raises(ValueError):
        nearest_term(term_set, 1.5)
    with pytest.raises(ValueError):
        nearest_term(term_set, -0.1)
    with pytest.raises(ValueError):
        nearest_term(term_set, float("nan"))


def test_nearest_term_tie_goes_to_smaller_index():
    ts = build_term_set(1, 2)  # values 0, 0.5, 1
    assert nearest_term(ts, 0.25) == 0
    assert nearest_term(ts, 0.75) == 1


def test_negation(term_set):
    assert negate_term(term_set, 1) == 5
    assert negate_term(term_set, 3) == 3
    assert negate_term(term_set, 0) == 6
    with pytest.raises(ValueError):
        negate_term(term_set, 9)


def test_min_max(term_set):
    assert term_max(term_set, 2, 5) == 5
    assert term_min(term_set, 2, 5) == 2
    assert term_max(term_set, 4, 4) == 4
    with pytest.raises(ValueError):
        term_max(term_set, 2, 7)


@pytest.mark.parametrize("call", [
    lambda ts, k: term_value(ts, k),
    lambda ts, k: negate_term(ts, k),
    lambda ts, k: term_max(ts, 1, k),
    lambda ts, k: term_min(ts, k, 1),
    lambda ts, k: build_term_set(k, 2.0).values.tolist(),
], ids=["term_value", "negate_term", "term_max", "term_min", "build_term_set"])
def test_indices_must_be_integers(call, term_set):
    # int() would truncate 2.5 and 2.9 to 2 and read True as 1
    for bad in (2.5, 2.9, 2.0, np.float64(2.0), True, False, np.True_, "2"):
        with pytest.raises(TypeError, match="must be an int or a numpy integer"):
            call(term_set, bad)
    for good in (np.int64(2), np.uint8(2)):
        assert call(term_set, good) == call(term_set, 2)


@given(phi=st.integers(1, 8), base=st.sampled_from([1.2, 1.5, 2.0, 2.5, 3.0, 5.0]))
def test_negation_matches_value_symmetry(phi, base):
    ts = build_term_set(phi, base)
    for j in range(2 * phi + 1):
        assert term_value(ts, negate_term(ts, j)) == pytest.approx(
            1.0 - term_value(ts, j), abs=1e-12
        )


@given(phi=st.integers(1, 8), base=st.sampled_from([1.2, 1.5, 2.0, 2.5, 3.0, 5.0]))
def test_round_trip_identity(phi, base):
    ts = build_term_set(phi, base)
    for j in range(2 * phi + 1):
        assert nearest_term(ts, term_value(ts, j)) == j


def test_construction_is_pure():
    a = build_term_set(4, 2.5)
    b = build_term_set(4, 2.5)
    assert np.array_equal(a.values, b.values)


def test_nearest_terms_at_the_largest_phi_uses_bounded_memory_and_equals_a_scan():
    # At the largest phi, 500 values against 20,001 terms would take 80 MB
    # for each whole N x T temporary; one binary search per value needs none.
    term_set = build_term_set(MAX_PHI, 1.001)
    values = np.random.default_rng(3).random(500)
    tracemalloc.start()
    try:
        blocked = nearest_terms(term_set, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert blocked.tolist() == [int(np.abs(term_set.values - v).argmin()) for v in values]

    # Each value gets its scalar scan, in any shape.
    small = build_term_set(3, 2.0)
    grid = np.linspace(0.0, 1.0, 15).reshape(3, 5)
    expected = [[min(range(small.size), key=lambda k: abs(small.values[k] - v)) for v in row]
                for row in grid.tolist()]
    result = nearest_terms(small, grid)
    assert result.dtype == np.intp and result.tolist() == expected
    assert nearest_terms(small, 0.4).shape == ()
    assert nearest_terms(small, []).shape == (0,)
    with pytest.raises(ValueError, match="outside"):
        nearest_terms(small, [0.5, 1.5])


@pytest.mark.parametrize("values,first", [
    ([0.5, np.nan], "nan"),
    ([[0.25, 0.5, 0.75], [0.0, np.nan, 1.0]], "nan"),
    ([0.5, -5e-324], "-5e-324"),
    ([1.0, 1.0 + np.finfo(float).eps], "1.0000000000000002"),
    ([[0.5, 1.5], [-0.5, np.nan]], "1.5"),
    ([[0.5, 0.2], [-0.5, 1.5]], "-0.5"),
])
def test_nearest_terms_names_the_first_value_outside_the_unit_interval(values, first):
    # "first" in C order, whatever the shape
    with pytest.raises(ValueError, match=re.escape(f"value {first} outside [0, 1]")):
        nearest_terms(build_term_set(3, 2.0), values)


def test_nearest_terms_accepts_a_negative_zero_and_empty_arrays():
    term_set = build_term_set(3, 2.0)
    assert nearest_terms(term_set, -0.0) == 0
    assert nearest_terms(term_set, [-0.0, 0.5, 1.0]).tolist() == [0, 3, 6]
    for empty in (np.empty(0), np.empty((0, 3))):
        result = nearest_terms(term_set, empty)
        assert result.shape == empty.shape and result.dtype == np.intp


@pytest.mark.parametrize("phi,base", [(2, 2.0**52), (3, 2.0**26), (3, 1e6), (200, 1.01),
                                      (MAX_PHI, 1.001)])
def test_nearest_terms_equals_a_first_minimum_scan(phi, base):
    # Scales whose terms crowd the midpoint to within an ulp, and the largest
    # phi, where a sample of the terms stands in for all of them.
    term_set = build_term_set(phi, base)
    v = term_set.values
    picked = np.unique(np.concatenate([np.arange(min(v.size, 401)), np.arange(v.size)[-200:],
                                       np.random.default_rng(phi).integers(0, v.size, 600)]))
    terms, mids = v[picked], ((v[:-1] + v[1:]) / 2)[picked[picked < v.size - 1]]
    values = np.concatenate([terms, mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0),
                             np.minimum(2 * terms, 1.0), terms / 2, [0.0, 1.0]])
    # argmin returns the first minimum of the rounded distances, as a scan does
    expected = [int(np.abs(v - x).argmin()) for x in values.tolist()]
    assert nearest_terms(term_set, values).tolist() == expected
