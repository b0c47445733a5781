"""Benchmark problem definitions, error norms, and published reference tables.

Four standard test cases for the coupled viscous Burgers' solver:

* ``problem1`` -- 1D on (-pi, pi) with exact solution u = v = exp(-t) sin x.
* ``problem2`` -- 2D with the rational exact solution
  u = (x + y - 2xt)/(1 - 2t^2), v = (x - y - 2yt)/(1 - 2t^2), valid for
  t < 1/sqrt(2).
* ``problem3`` -- 2D with trigonometric initial data and steady boundary
  traces; no closed-form solution (validated against published values).
* ``problem4`` -- 2D traveling wave u = 3/4 - 1/(4(1+E)),
  v = 3/4 + 1/(4(1+E)) with E = exp((-4x + 4y - t) Re/32).

The error metrics follow the discrete norms used in the published tables:
L2 = sqrt(h * sum e^2) with h the per-node measure (the spacing in 1D, the
cell area hx*hy in 2D), and Linf = max |e|.
"""

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .burgers_rhs import Problem1D, Problem2D
from .exceptions import DegenerateError, DomainError, ShapeMismatch

# Latest time at which problem2's exact solution may be evaluated; the
# closed form blows up at t = 1/sqrt(2).
P2_TIME_LIMIT = 1.0 / math.sqrt(2.0) - 1e-6

# Integration horizon for problem2 (published results stop at t = 0.5).
P2_HORIZON = 0.6


def _check_re(re):
    if not 0.0 < re < math.inf:
        raise DomainError("re must be finite and positive, got %r" % (re,))


def problem1():
    """1D coupled problem on (-pi, pi) with exact u = v = exp(-t) sin x.

    Reaction/convection coefficients eta = xi = -2, alpha = beta = 1 make
    the decoupled exact solution satisfy both equations.
    """

    def exact(x, t):
        return np.exp(-t) * np.sin(x)

    a, b = -math.pi, math.pi
    return Problem1D(
        eta=-2.0,
        xi=-2.0,
        alpha=1.0,
        beta=1.0,
        a=a,
        b=b,
        phi=np.sin,
        psi=np.sin,
        g1=lambda t: exact(a, t),
        g2=lambda t: exact(b, t),
        g3=lambda t: exact(a, t),
        g4=lambda t: exact(b, t),
        exact_u=exact,
        exact_v=exact,
        name="p1",
    )


def problem2(re=80.0):
    """2D problem with rational exact solution, singular at t = 1/sqrt(2).

    u = (x + y - 2xt)/(1 - 2t^2), v = (x - y - 2yt)/(1 - 2t^2).

    The solve domain is [0, 0.5]^2, where the published boundary traces are
    complete.  Evaluating the exact solution at t beyond the validity limit
    raises DomainError; the integration horizon is capped at 0.6.
    """
    _check_re(re)

    def _guard(t):
        if np.any(np.asarray(t) >= P2_TIME_LIMIT):
            raise DomainError(
                "exact solution invalid at t >= %.9f (singularity at 1/sqrt 2)"
                % P2_TIME_LIMIT
            )

    def exact_u(x, y, t):
        _guard(t)
        return (x + y - 2.0 * x * t) / (1.0 - 2.0 * t * t)

    def exact_v(x, y, t):
        _guard(t)
        return (x - y - 2.0 * y * t) / (1.0 - 2.0 * t * t)

    return Problem2D(
        nu=1.0 / re,
        a=0.0,
        b=0.5,
        c=0.0,
        d=0.5,
        phi=lambda x, y: x + y,
        psi=lambda x, y: x - y,
        bc_u=exact_u,
        bc_v=exact_v,
        exact_u=exact_u,
        exact_v=exact_v,
        horizon=P2_HORIZON,
        name="p2",
    )


def problem3(re=50.0):
    """2D problem with trigonometric initial u and linear initial v.

    Initial data u = sin(pi x) + cos(pi y), v = x + y on [0, 0.5]^2, with
    time-independent Dirichlet traces given by the same two functions (the
    four published edge traces are exactly their restrictions, so corners
    and the t = 0 compatibility condition are automatic).  No closed-form
    solution; computed values are checked against the published table.
    """
    _check_re(re)

    def trace_u(x, y, t):
        return np.sin(math.pi * x) + np.cos(math.pi * y)

    def trace_v(x, y, t):
        return np.asarray(x + y, dtype=float)

    return Problem2D(
        nu=1.0 / re,
        a=0.0,
        b=0.5,
        c=0.0,
        d=0.5,
        phi=lambda x, y: np.sin(math.pi * x) + np.cos(math.pi * y),
        psi=lambda x, y: np.asarray(x + y, dtype=float),
        bc_u=trace_u,
        bc_v=trace_v,
        exact_u=None,
        exact_v=None,
        horizon=None,
        name="p3",
    )


def problem4(re=100.0):
    """2D traveling wave on [0, 1]^2.

    u = 3/4 - 1/(4(1+E)), v = 3/4 + 1/(4(1+E)) with
    E = exp((-4x + 4y - t) Re/32); u + v = 3/2 identically.  All initial
    and boundary data come from the exact solution.
    """
    _check_re(re)

    def _bump(x, y, t):
        e = np.exp((-4.0 * x + 4.0 * y - t) * re / 32.0)
        return 1.0 / (4.0 * (1.0 + e))

    def exact_u(x, y, t):
        return 0.75 - _bump(x, y, t)

    def exact_v(x, y, t):
        return 0.75 + _bump(x, y, t)

    return Problem2D(
        nu=1.0 / re,
        a=0.0,
        b=1.0,
        c=0.0,
        d=1.0,
        phi=lambda x, y: exact_u(x, y, 0.0),
        psi=lambda x, y: exact_v(x, y, 0.0),
        bc_u=exact_u,
        bc_v=exact_v,
        exact_u=exact_u,
        exact_v=exact_v,
        horizon=None,
        name="p4",
    )


PROBLEM_BUILDERS = {
    "p1": problem1,
    "p2": problem2,
    "p3": problem3,
    "p4": problem4,
}


@dataclass
class ErrorReport:
    """Discrete error norms of one computed field against the exact one.

    ``l2`` carries the sqrt(h) weighting of the published norm; ``n`` is
    the node count per side, used for order estimates.
    """

    l2: float
    linf: float
    n: int


@dataclass
class OrderEstimate:
    """Two-grid convergence orders, one per norm."""

    l2: float
    linf: float


def error_norms(computed, exact, h):
    """Discrete L2/Linf error norms of ``computed`` against ``exact``.

    ``h`` is the per-node measure under the L2 sum: the grid spacing for a
    1D vector, the cell area hx*hy for a 2D field.  Shapes must match.
    """
    computed = np.asarray(computed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if computed.shape != exact.shape:
        raise ShapeMismatch(
            "computed %s vs exact %s" % (computed.shape, exact.shape)
        )
    if computed.ndim == 0:
        raise ShapeMismatch("computed and exact need at least one axis")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(
            "node measure h must be positive and finite, got %r" % (h,)
        )
    diff = np.abs(computed - exact)
    l2 = math.sqrt(h * float((diff * diff).sum()))
    linf = float(diff.max()) if diff.size else 0.0
    return ErrorReport(l2=l2, linf=linf, n=int(computed.shape[0]))


def convergence_order(coarse, fine):
    """Two-grid order estimate R = log(E_coarse/E_fine) / log(n_fine/n_coarse).

    The denominator uses the node-count ratio (log 2 under grid doubling),
    matching the published R columns.  Raises DegenerateError when either
    error is at rounding level (<= 1e-15), where the ratio is meaningless.
    """
    if fine.n <= coarse.n:
        raise DomainError(
            "fine grid must be finer: n=%d vs n=%d" % (fine.n, coarse.n)
        )
    ratio = math.log(fine.n / coarse.n)

    def order(e_coarse, e_fine):
        if e_coarse <= 1e-15 or e_fine <= 1e-15:
            raise DegenerateError(
                "error at rounding level (%g, %g); order undefined"
                % (e_coarse, e_fine)
            )
        return math.log(e_coarse / e_fine) / ratio

    return OrderEstimate(
        l2=order(coarse.l2, fine.l2),
        linf=order(coarse.linf, fine.linf),
    )


REFERENCE_TABLE_KEYS = ("1.1", "1.3", "2.1", "2.3", "3.1", "4.1")


def load_reference_table(key):
    """Load a published reference table shipped with the package.

    ``key`` is one of ``REFERENCE_TABLE_KEYS``.  Returns (fieldnames, rows)
    where rows are dicts with float values (None for blank cells).
    """
    if key not in REFERENCE_TABLE_KEYS:
        raise KeyError(
            "unknown reference table %r; available: %s"
            % (key, ", ".join(REFERENCE_TABLE_KEYS))
        )
    name = "table_%s.csv" % key.replace(".", "_")
    path = resources.files("burgers_dqm").joinpath("reference_tables", name)
    with path.open("r", encoding="utf-8") as f:
        reader = csv.DictReader(line for line in f if not line.startswith("#"))
        rows = []
        for raw in reader:
            rows.append(
                {k: (float(v) if v not in (None, "") else None)
                 for k, v in raw.items()}
            )
        return list(reader.fieldnames), rows
