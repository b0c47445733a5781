"""Trigonometric cubic B-spline knot values and the boundary-modified basis.

On a uniform grid x_1 < ... < x_N with spacing h, the trigonometric cubic
B-spline T_m centered at x_m is supported on [x_{m-2}, x_{m+2}].  Only its
values and first derivatives at the knots themselves enter the differential
quadrature systems, and those are given by four closed-form constants
a1..a4 depending on h alone:

            value        first derivative
  j = m      a2                0
  |j-m| = 1  a1           -+ a4 (sign below)
  else        0                0

T_m'(x_{m-1}) = a4 and T_m'(x_{m+1}) = a3 = -a4.

To make the collocation matrix invertible, the boundary splines are folded
into the interior ones: sigma_1 = T_1 + 2 T_0, sigma_2 = T_2 - T_0,
sigma_m = T_m for 3 <= m <= N-2, sigma_{N-1} = T_{N-1} - T_{N+1},
sigma_N = T_N + 2 T_{N+1}.  The resulting node-value matrix is tridiagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

# largest admissible spacing: sin(3h/2) must stay positive
H_MAX = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class SplineCoeffs:
    """Knot-value constants of the trigonometric cubic B-spline for spacing h."""

    a1: float
    a2: float
    a3: float
    a4: float


def make_coeffs(h):
    """Evaluate the four knot-value constants for grid spacing h.

    Raises DomainError outside 0 < h < 2*pi/3, where one of the
    denominators sin(h), sin(3h/2), 1 + 2cos(h) degenerates.
    """
    if not (0.0 < h < H_MAX):
        raise DomainError(f"spacing h={h!r} outside admissible range (0, 2*pi/3)")
    s_half = math.sin(h / 2.0)
    s1 = math.sin(h)
    s32 = math.sin(1.5 * h)
    c1 = math.cos(h)
    for d in (s1, s32, 1.0 + 2.0 * c1):
        if abs(d) < 1e-14:
            raise DomainError(f"degenerate denominator at h={h!r}")
    a1 = s_half * s_half / (s1 * s32)
    a2 = 2.0 / (1.0 + 2.0 * c1)
    a4 = 3.0 / (4.0 * s32)
    a3 = -a4
    return SplineCoeffs(a1, a2, a3, a4)


def modified_tables(n, c):
    """Assemble the N x N arrays [sigma_m(x_j)] and [sigma_m'(x_j)].

    Row m-1 holds basis function sigma_m sampled at all nodes.  Each table
    starts as the tridiagonal band of T_m's knot values; the end splines are
    then folded in.  T_0 is nonzero at x_1 alone, where it takes the value
    T_m has at its right neighbour, so sigma_1 = T_1 + 2 T_0 and
    sigma_2 = T_2 - T_0 change one entry each in column 1; T_{N+1} mirrors
    this in column N with the left-neighbour value.
    """
    if n < 4:
        raise DomainError(f"need at least 4 nodes, got {n}")
    tables = []
    # (T_m(x_{m-1}), T_m(x_m), T_m(x_{m+1})) for the value and first derivative
    for left, centre, right in ((c.a1, c.a2, c.a1), (c.a4, 0.0, c.a3)):
        t = (np.diag(np.full(n - 1, left), -1) + np.diag(np.full(n, centre))
             + np.diag(np.full(n - 1, right), 1))
        t[0, 0] += 2.0 * right
        t[1, 0] -= right
        t[-2, -1] -= left
        t[-1, -1] += 2.0 * left
        tables.append(t)
    return tuple(tables)
