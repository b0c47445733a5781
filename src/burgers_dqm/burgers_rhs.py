"""Semi-discrete right-hand sides for the coupled viscous Burgers' systems.

1D system:
    u_t = u_xx - eta u u_x - alpha (u v_x + v u_x)
    v_t = v_xx - xi  v v_x - beta  (u v_x + v u_x)

2D system (nu = 1/Re):
    u_t = nu (u_xx + u_yy) - u u_x - v u_y
    v_t = nu (v_xx + v_yy) - u v_x - v v_y

Spatial derivatives are weighted sums over all grid nodes.  ``rhs_1d`` and
``rhs_2d`` take both fields stacked in one ``(2, *shape)`` array, return them
stacked the same way in a new array, and apply each weight matrix to both
fields in one product.  In 1D one product takes both fields through both
weight matrices at once, stacked as ``(w1.T, w2.T)``, and the second
derivatives and the four quadratic convection terms enter both fields
through one product with the (2, 6) matrix ``[I | -Problem1D.coupling]``,
so a call makes 3 numpy calls; in 2D ``nu`` is folded into copies of the
second-derivative weights.  The 1D route sums its terms in another order
than one expression per term, so it agrees with that form to rounding
(over a whole run of problem 1 at 121 nodes, 1.5e-15 relative to the
largest value); the 2D route is bitwise the per-field products on the
folded weights.  ``rhs_*`` and ``boundary_forcing_*`` check their inputs
alike: every weight matrix square and of its axis' size, every field of
the grid's shape, else ``ShapeMismatch``.  Each ``rhs_*`` is that check, one
call of a private binding (``_bind_1d``/``_bind_2d``: the folded weights
and work buffers, and ``rhs(w, t, out)``, which leaves the boundary nodes
unwritten) and zeroed boundary nodes.  The solvers hold the same binding
for a solve and leave the boundary nodes to the driver, so ``step`` with
``rhs_*`` and ``apply_dirichlet_*`` repeats a solve byte for byte.  The
paper writes each sum as its interior part plus a boundary forcing term
(F for u, G for v) that collects the first/last-column contributions with
the convection coefficients frozen at the node value;
``boundary_forcing_*`` compute those terms on separate (u, v) fields.  The
interior-plus-forcing RHS built on them is a test oracle
(``tests/oracles.py``) that agrees with the full-sum route to rounding.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exceptions import ShapeMismatch


@dataclass(frozen=True)
class Problem1D:
    """1D coupled Burgers' problem: parameters, initial/boundary data, exact.

    Traces ``g1..g4(t)`` must broadcast over an array ``t`` of times with a
    trailing axis of 1, such as the ``(steps, 5, 1)`` array of a block of
    solver steps (a scalar return is allowed).

    ``coupling`` is built from the coefficients, not passed: the read-only
    (2, 4) matrix ``[[eta, alpha, alpha, 0], [0, beta, beta, xi]]`` that
    takes the products (u u_x, u v_x, v u_x, v v_x) to the convection terms
    of u and v.  ``dataclasses.replace`` rebuilds it.
    """

    eta: float
    xi: float
    alpha: float
    beta: float
    a: float
    b: float
    phi: Callable  # initial u(x)
    psi: Callable  # initial v(x)
    g1: Callable  # u at x=a, function of t
    g2: Callable  # u at x=b
    g3: Callable  # v at x=a
    g4: Callable  # v at x=b
    exact_u: Optional[Callable] = None  # (x, t)
    exact_v: Optional[Callable] = None
    name: str = "custom-1d"
    coupling: np.ndarray = field(init=False, repr=False, compare=False)
    nu = 1.0  # the 1D equations' viscosity: a class constant, not a field

    def __post_init__(self):
        c = np.array([[self.eta, self.alpha, self.alpha, 0.0],
                      [0.0, self.beta, self.beta, self.xi]])
        c.flags.writeable = False
        object.__setattr__(self, "coupling", c)


@dataclass(frozen=True)
class Problem2D:
    """2D coupled Burgers' problem on [a, b] x [c, d] with viscosity nu.

    The boundary traces ``bc_u(x, y, t)`` and ``bc_v`` are called with two
    equal-length arrays, the coordinates of every boundary-ring node, and an
    array ``t`` of times with a trailing axis of 1 (the solvers pass the
    ``(steps, 5, 1)`` stage and result times of a block of steps), and must
    broadcast elementwise over them; a scalar return is allowed and
    broadcasts over the ring.
    """

    nu: float
    a: float
    b: float
    c: float
    d: float
    phi: Callable  # initial u(x, y)
    psi: Callable  # initial v(x, y)
    bc_u: Callable  # boundary trace (x, y, t)
    bc_v: Callable
    exact_u: Optional[Callable] = None  # (x, y, t)
    exact_v: Optional[Callable] = None
    horizon: Optional[float] = None  # latest valid time, if limited
    name: str = "custom-2d"

    @property
    def re(self):
        return 1.0 / self.nu


def _check_state(shape, *fields):
    for w in fields:
        if w.shape != shape:
            raise ShapeMismatch(f"state shape {w.shape} does not match "
                                f"{shape}")


def apply_dirichlet_1d(u, v, t, prob, grid):
    """Overwrite the end entries of u and v with the g1..g4 traces at t.

    For an array of times with a trailing axis of 1, shape (..., 1), u and
    v have shape (..., n): one row per time.
    """
    u[..., :1] = prob.g1(t)
    u[..., -1:] = prob.g2(t)
    v[..., :1] = prob.g3(t)
    v[..., -1:] = prob.g4(t)


def apply_dirichlet_2d(U, V, t, prob, grid):
    """Overwrite the boundary ring of U and V with the traces at time t.

    One trace call per field covers the whole ring; each corner is evaluated
    once, at its own coordinates.  For an array of times with a trailing
    axis of 1, shape (..., 1), U and V are (..., m) arrays of the ring values
    in ``grid.ring`` order, one row per time.
    """
    ring = grid.ring if np.ndim(t) == 0 else ...
    U[ring] = prob.bc_u(grid.ring_x, grid.ring_y, t)
    V[ring] = prob.bc_v(grid.ring_x, grid.ring_y, t)


def _axis(*weights):
    """The node count of an axis whose weight matrices are ``weights``.

    Every matrix must be square and of the first one's size.
    """
    n = weights[0].shape[0]
    for m in weights:
        if m.shape != (n, n):
            raise ShapeMismatch(f"weight matrix shape {m.shape} does not "
                                f"match ({n}, {n})")
    return n


def _bind_1d(coupling, w1, w2, dtype):
    """``rhs(w, t, out)``: the 1D right-hand side of a ``(2, n)`` state
    written into ``out``, its ends unwritten.

    The weights are folded once, in their own dtype: ``wt`` is the
    C-contiguous (2, n, n) stack ``(w1.T, w2.T)`` and ``lhs`` the (2, 6)
    matrix ``[I | -coupling]``.  One (8, n) work buffer in ``dtype`` holds
    the first then the second derivatives of both fields (rows 0-3) and the
    products (u u_x, u v_x, v u_x, v v_x) (rows 4-7).  A call makes one
    product through both weight matrices, one multiply for the four
    products, and one product of ``lhs`` over rows 2-7, which writes ``out``.
    """
    n = _axis(w1, w2)
    wt = np.array((w1.T, w2.T))
    lhs = np.concatenate((np.eye(2), -coupling), 1, dtype=wt.dtype)
    work = np.empty((8, n), dtype)
    derivs, wx = work[:4].reshape(2, 2, n), work[:2]
    prods, terms = work[4:].reshape(2, 2, n), work[2:]

    def rhs(w, t, out):
        np.matmul(w, wt, out=derivs)
        np.multiply(w[:, None], wx, out=prods)
        return np.matmul(lhs, terms, out=out)

    return rhs


def rhs_1d(w, t, prob, w1, w2):
    """Full-sum semi-discrete RHS of the stacked ``(2, n)`` state (u, v).

    Returns (du, dv) stacked the same way, in a new array.  One batched
    product takes both fields through both weight matrices, and the second
    derivatives and the four products (u u_x, u v_x, v u_x, v v_x) enter
    both fields through one product with ``[I | -prob.coupling]``, as
    ``solve_1d`` does.  Boundary entries of the result are zero; its dtype
    follows the state and the weights, which share one dtype (float32
    inputs give a float32 result, complex inputs a complex one).
    """
    n = _axis(w1, w2)
    _check_state((2, n), w)
    dtype = np.result_type(w, w1, w2)
    out = np.empty((2, n), dtype)
    _bind_1d(prob.coupling, w1, w2, dtype)(w, t, out)
    out[:, ::n - 1] = 0.0  # both ends in one strided write
    return out


def boundary_forcing_1d(u, v, prob, w1, w2):
    """Boundary forcing terms (F, G): the first/last-column parts of each sum.

    The convection coefficients are frozen per node (eta_i = eta*u_i and so
    on), as in the published formula.
    """
    _check_state((_axis(w1, w2),), u, v)
    a1l, a1r = w1[:, 0], w1[:, -1]
    a2l, a2r = w2[:, 0], w2[:, -1]
    ub = a1l * u[0] + a1r * u[-1]  # boundary part of sum a1[i,l] u_l
    vb = a1l * v[0] + a1r * v[-1]
    f = (a2l * u[0] + a2r * u[-1]) - (prob.eta * u) * ub \
        - (prob.alpha * u) * vb - (prob.alpha * v) * ub
    g = (a2l * v[0] + a2r * v[-1]) - (prob.xi * v) * vb \
        - (prob.beta * u) * vb - (prob.beta * v) * ub
    return f, g


def _zero_ring(D):
    """Zero the boundary ring of the last two axes of D.

    Each write strides across a whole axis, so it hits only the first and
    last entries; a grid axis has at least 4 nodes, so the stride is never 0.
    """
    D[..., ::D.shape[-2] - 1, :] = 0.0
    D[..., ::D.shape[-1] - 1] = 0.0


def _bind_2d(nu, ax1, ax2, by1, by2, dtype):
    """``rhs(w, t, out)``: the 2D right-hand side of a ``(2, nx, ny)``
    state written into ``out``, its ring unwritten.

    ``nu`` is folded once into copies of ``ax2`` and ``by2``, each in its
    own dtype (``nu`` is cast to it, even a numpy scalar), and the
    y-matrices are taken in F order, so ``by.T`` is C-contiguous for the
    per-field y-products.  A (2, 2, nx, ny) stack ``conv`` in ``dtype``
    takes the y-diffusion sums, then the x-derivatives (``conv[0]``) and
    the y-derivatives (``conv[1]``), which one multiply scales by U and V.
    """
    nx, ny = _axis(ax1, ax2), _axis(by1, by2)
    ax2 = np.multiply(nu, ax2, dtype=ax2.dtype)
    by1 = np.asfortranarray(by1)
    by2 = np.multiply(nu, by2, dtype=by2.dtype, order="F")
    conv = np.empty((2, 2, nx, ny), dtype)

    def rhs(w, t, out):
        out = np.matmul(ax2, w, out=out)
        np.add(out, np.matmul(w, by2.T, out=conv[0]), out=out)
        np.matmul(ax1, w, out=conv[0])
        np.matmul(w, by1.T, out=conv[1])
        np.multiply(conv, w[:, None], out=conv)
        np.subtract(out, conv[0], out=out)
        return np.subtract(out, conv[1], out=out)

    return rhs


def rhs_2d(w, t, prob, ax1, ax2, by1, by2):
    """Full-sum 2D RHS of the stacked ``(2, nx, ny)`` state (U, V).

    Returns (dU, dV) stacked the same way, in a new array.  Each derivative
    is one batched product over both fields, which computes the per-field
    products: the x-axis matrix applies down each column of constant y
    (``ax @ w``), the y-axis matrix along each row of constant x
    (``w @ by.T``); ``prob.nu`` is folded into the weights as ``solve_2d``
    folds it.  The boundary ring of the result is zero; its dtype follows
    the state and the weights, which share one dtype (float32 inputs give a
    float32 result, complex inputs a complex one).
    """
    _check_state((2, _axis(ax1, ax2), _axis(by1, by2)), w)
    dtype = np.result_type(w, ax1, ax2, by1, by2)
    out = np.empty(w.shape, dtype)
    _bind_2d(prob.nu, ax1, ax2, by1, by2, dtype)(w, t, out)
    _zero_ring(out)
    return out


def boundary_forcing_2d(U, V, prob, ax1, ax2, by1, by2):
    """2D boundary forcing (F, G): first/last row and column contributions."""
    _check_state((_axis(ax1, ax2), _axis(by1, by2)), U, V)
    nu = prob.nu

    def forcing(W, conv_x, conv_y):
        # x-boundary columns enter through rows 1 and Nx of W
        fx2 = np.outer(ax2[:, 0], W[0, :]) + np.outer(ax2[:, -1], W[-1, :])
        fy2 = np.outer(by2[:, 0], W[:, 0]) + np.outer(by2[:, -1], W[:, -1])
        fx1 = np.outer(ax1[:, 0], W[0, :]) + np.outer(ax1[:, -1], W[-1, :])
        fy1 = np.outer(by1[:, 0], W[:, 0]) + np.outer(by1[:, -1], W[:, -1])
        return nu * (fx2 + fy2.T) - conv_x * fx1 - conv_y * fy1.T

    f = forcing(U, U, V)
    g = forcing(V, U, V)
    return f, g
