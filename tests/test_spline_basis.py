"""Tests for the trigonometric cubic spline knot tables and modified basis.

The knot-value tables are cross-checked against an independent symbolic
evaluation of the piecewise basis function (built with sympy, differentiated
analytically), so the closed-form constants a1..a4 are never compared against
themselves.
"""

import math

import numpy as np
import pytest
import sympy as sp

from burgers_dqm.exceptions import DomainError
from burgers_dqm.spline_basis import H_MAX, make_coeffs, modified_tables


# ---------------------------------------------------------------------------
# symbolic oracle: the piecewise basis centered at 0 with spacing h
# ---------------------------------------------------------------------------

_X = sp.Symbol("x")


def _piecewise_branches(h, quartic_tail=False):
    """Return the four branch expressions of the basis centered at 0.

    Branch i covers [knots[i], knots[i+1]] with knots = [-2h,-h,0,h,2h].
    ``quartic_tail`` swaps the cubic power on the last branch for a quartic,
    which is used below to demonstrate that only the cubic variant joins
    smoothly with the neighbouring branch.
    """
    x = _X

    def p(knot):
        return sp.sin((x - knot) / 2)

    def q(knot):
        return sp.sin((knot - x) / 2)

    k = [-2 * h, -h, sp.Integer(0), h, 2 * h]
    om = sp.sin(h / 2) * sp.sin(h) * sp.sin(3 * h / 2)
    tail_power = 4 if quartic_tail else 3
    return [
        p(k[0]) ** 3 / om,
        (p(k[0]) * (p(k[0]) * q(k[2]) + q(k[3]) * p(k[1])) + q(k[4]) * p(k[1]) ** 2) / om,
        (q(k[4]) * (p(k[1]) * q(k[3]) + q(k[4]) * p(k[2])) + p(k[0]) * q(k[3]) ** 2) / om,
        q(k[4]) ** tail_power / om,
    ]


def _oracle_at_knots(h, deriv=0):
    """Evaluate the piecewise basis (or a derivative) at knots -h, 0, h.

    Interior knots are approached from both adjoining branches; both one-sided
    values are returned so the caller can also verify continuity.
    """
    hs = sp.nsimplify(h, rational=True)
    branches = [sp.diff(b, _X, deriv) for b in _piecewise_branches(hs)]
    knots = [-hs, sp.Integer(0), hs]
    out = []
    for i, kn in enumerate(knots):
        left = float(sp.N(branches[i].subs(_X, kn), 30))
        right = float(sp.N(branches[i + 1].subs(_X, kn), 30))
        out.append((left, right))
    return out


ORACLE_H = [0.1, 0.5, 1.0]


@pytest.mark.parametrize("h", ORACLE_H)
def test_knot_values_match_symbolic_oracle(h):
    c = make_coeffs(h)
    expected = {0: [c.a1, c.a2, c.a1], 1: [c.a4, 0.0, c.a3]}
    for deriv, want in expected.items():
        got = _oracle_at_knots(h, deriv)
        for (left, right), w in zip(got, want):
            # continuity across the junction...
            assert abs(left - right) <= 1e-12
            # ...and agreement with the closed-form table
            assert abs(left - w) <= 1e-12, (deriv, h, left, w)


@pytest.mark.parametrize("h", ORACLE_H)
def test_support_endpoints_vanish(h):
    hs = sp.nsimplify(h, rational=True)
    branches = _piecewise_branches(hs)
    for deriv in (0, 1):
        lo = sp.diff(branches[0], _X, deriv).subs(_X, -2 * hs)
        hi = sp.diff(branches[-1], _X, deriv).subs(_X, 2 * hs)
        assert abs(float(sp.N(lo, 30))) <= 1e-13
        assert abs(float(sp.N(hi, 30))) <= 1e-13


def test_quartic_tail_breaks_the_join():
    # The quartic variant of the last branch does not match the third branch
    # at the junction knot, so the cubic power is the consistent choice.
    h = sp.Rational(1, 2)
    cubic = _piecewise_branches(h)[3].subs(_X, h)
    quartic = _piecewise_branches(h, quartic_tail=True)[3].subs(_X, h)
    third = _piecewise_branches(h)[2].subs(_X, h)
    assert abs(float(sp.N(third - cubic, 30))) <= 1e-13
    assert abs(float(sp.N(third - quartic, 30))) > 1e-3


# ---------------------------------------------------------------------------
# coefficient constants
# ---------------------------------------------------------------------------

def test_small_h_limits():
    c = make_coeffs(1e-4)
    assert abs(c.a1 - 1.0 / 6.0) <= 1e-6
    assert abs(c.a2 - 2.0 / 3.0) <= 1e-6


def test_a2_at_h_pi_third():
    c = make_coeffs(math.pi / 3)
    assert abs(c.a2 - 1.0) <= 1e-14


def test_first_derivative_constants_negate():
    for h in (0.05, 0.3, 1.2, 2.0):
        c = make_coeffs(h)
        assert c.a3 == -c.a4


def test_coeffs_finite_on_admissible_range():
    for h in np.linspace(1e-3, H_MAX - 1e-3, 25):
        c = make_coeffs(float(h))
        for val in (c.a1, c.a2, c.a3, c.a4):
            assert math.isfinite(val)


@pytest.mark.parametrize("h", [0.0, -0.1, H_MAX, H_MAX + 0.5, math.pi])
def test_make_coeffs_rejects_bad_spacing(h):
    with pytest.raises(DomainError):
        make_coeffs(h)


# ---------------------------------------------------------------------------
# knot values in the interior rows of the tables (row m-1 is sigma_m = T_m)
# ---------------------------------------------------------------------------

def test_basis_value_table():
    c = make_coeffs(0.4)
    val = modified_tables(11, c)[0]
    assert val[4, 4] == c.a2
    assert val[4, 5] == c.a1
    assert val[4, 3] == c.a1
    assert val[4, 6] == 0.0
    assert val[4, 2] == 0.0


def test_basis_deriv1_table():
    c = make_coeffs(0.4)
    d1 = modified_tables(11, c)[1]
    assert d1[3, 2] == c.a4
    assert d1[3, 3] == 0.0
    assert d1[3, 4] == c.a3
    assert d1[3, 5] == 0.0
    # antisymmetry about the center
    assert d1[3, 4] == -d1[3, 2]


# ---------------------------------------------------------------------------
# boundary-modified basis
# ---------------------------------------------------------------------------

def test_modified_first_function_at_first_node():
    c = make_coeffs(0.3)
    val = modified_tables(11, c)[0]
    assert val[0, 0] == pytest.approx(c.a2 + 2 * c.a1, abs=1e-15)


def test_modified_second_function_vanishes_at_first_node():
    c = make_coeffs(0.3)
    val = modified_tables(11, c)[0]
    assert val[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_modified_interior_matches_plain_basis():
    n = 11
    c = make_coeffs(0.3)
    knots = ((c.a1, c.a2, c.a1), (c.a4, 0.0, c.a3))
    for tab, (left, centre, right) in zip(modified_tables(n, c), knots):
        for m in range(3, n - 1):
            plain = np.zeros(n)
            plain[m - 2:m + 1] = left, centre, right
            np.testing.assert_array_equal(tab[m - 1], plain)


def test_modified_last_functions_mirror_first():
    n = 11
    c = make_coeffs(0.3)
    val, d1 = modified_tables(n, c)
    assert val[n - 1, n - 1] == pytest.approx(c.a2 + 2 * c.a1, abs=1e-15)
    assert val[n - 2, n - 1] == pytest.approx(0.0, abs=1e-15)
    # the value table is symmetric under reversal of both indices; the
    # first-derivative table is antisymmetric
    np.testing.assert_array_equal(val[::-1, ::-1], val)
    np.testing.assert_array_equal(d1[::-1, ::-1], -d1)


@pytest.mark.parametrize("n", [5, 11, 21])
def test_modified_tables_tridiagonal(n):
    c = make_coeffs(0.25)
    val, d1 = modified_tables(n, c)
    assert val.shape == (n, n)
    for tab in (val, d1):
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
        assert np.all(tab[mask] == 0.0)
    # diagonals carry the expected constants in the untouched interior
    mid = n // 2
    assert val[mid, mid] == c.a2
    assert d1[mid, mid + 1] == c.a3


def _folded_tables(n, knots):
    """Reference tables, entry by entry: sample the plain splines T_0 ..
    T_{N+1} at x_1 .. x_N from their (left, centre, right) knot values, then
    fold the end splines in as the basis definition says."""
    tables = []
    for values in knots:
        plain = np.zeros((n + 2, n))  # row m holds T_m at x_1 .. x_N
        for m in range(n + 2):
            for j in range(max(1, m - 1), min(n, m + 1) + 1):
                plain[m, j - 1] = values[j - m + 1]
        folded = plain[1:n + 1].copy()
        folded[0] += 2.0 * plain[0]
        folded[1] -= plain[0]
        folded[n - 2] -= plain[n + 1]
        folded[n - 1] += 2.0 * plain[n + 1]
        tables.append(folded)
    return tables


def test_modified_tables_match_symbolic_oracle():
    h = 0.2
    c = make_coeffs(h)
    oracle = [[left for left, _ in _oracle_at_knots(h, deriv)] for deriv in range(2)]
    closed_form = ((c.a1, c.a2, c.a1), (c.a4, 0.0, c.a3))
    for n in (4, 5, 9):
        tables = modified_tables(n, c)
        for tab, want in zip(tables, _folded_tables(n, oracle)):
            np.testing.assert_allclose(tab, want, rtol=0.0, atol=1e-12)
        # from the same constants the band construction is exact
        for tab, want in zip(tables, _folded_tables(n, closed_form)):
            np.testing.assert_array_equal(tab, want)
