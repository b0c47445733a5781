"""Tests for the semi-discrete right-hand sides of the coupled system."""

import dataclasses
import math

import numpy as np
import pytest

from burgers_dqm import (
    Grid1D,
    Grid2D,
    Problem1D,
    first_order_weights,
    second_order_weights,
    weights_2d,
    rhs_1d,
    rhs_2d,
    problem1,
    problem2,
    problem3,
    problem4,
)
from burgers_dqm.burgers_rhs import apply_dirichlet_1d, apply_dirichlet_2d
from burgers_dqm.exceptions import ShapeMismatch
from oracles import rhs_1d_split, rhs_2d_split


def _weights_1d(grid):
    w1 = first_order_weights(grid)
    return w1, second_order_weights(w1, grid)


def _zero_problem():
    zero = lambda arg: np.zeros_like(np.asarray(arg, dtype=float))
    zero_t = lambda t: 0.0
    return Problem1D(eta=1.0, xi=1.0, alpha=1.0, beta=1.0, a=0.0, b=1.0,
                     phi=zero, psi=zero, g1=zero_t, g2=zero_t, g3=zero_t,
                     g4=zero_t, exact_u=None, exact_v=None, name="zero")


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

def test_zero_state_gives_zero_rhs():
    prob = _zero_problem()
    g = Grid1D(0.0, 1.0, 11)
    w1, w2 = _weights_1d(g)
    z = np.zeros(11)
    du, dv = rhs_1d(np.array((z, z)), 0.0, prob, w1, w2)
    np.testing.assert_array_equal(du, np.zeros(11))
    np.testing.assert_array_equal(dv, np.zeros(11))


def test_rhs_matches_exact_time_derivative():
    # On the decaying-wave solution u = v = exp(-t) sin x the time derivative
    # is -exp(-t) sin x; the semi-discrete operator should reproduce it.
    prob = problem1()
    g = Grid1D(prob.a, prob.b, 81)
    w1, w2 = _weights_1d(g)
    u = prob.exact_u(g.x, 0.0)
    v = prob.exact_v(g.x, 0.0)
    du, dv = rhs_1d(np.array((u, v)), 0.0, prob, w1, w2)
    want = -np.sin(g.x)
    assert np.abs(du - want)[1:-1].max() <= 5e-3
    assert np.abs(dv - want)[1:-1].max() <= 5e-3


def test_split_identity_1d():
    prob = problem1()
    g = Grid1D(prob.a, prob.b, 21)
    w1, w2 = _weights_1d(g)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(21)
    v = rng.standard_normal(21)
    apply_dirichlet_1d(u, v, 0.3, prob, g)
    full = rhs_1d(np.array((u, v)), 0.3, prob, w1, w2)
    split = rhs_1d_split(u, v, 0.3, prob, w1, w2)
    scale = max(np.abs(full[0]).max(), np.abs(full[1]).max(), 1.0)
    np.testing.assert_allclose(split[0], full[0], atol=1e-12 * scale)
    np.testing.assert_allclose(split[1], full[1], atol=1e-12 * scale)


def test_rhs_is_quadratic_in_amplitude():
    # With zero boundary data the right-hand side is L u + Q(u, u) with L
    # linear and Q bilinear, so values at amplitudes 1 and 2 determine the
    # value at amplitude 3.
    prob = _zero_problem()
    g = Grid1D(0.0, 1.0, 13)
    w1, w2 = _weights_1d(g)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(13)
    v = rng.standard_normal(13)
    u[0] = u[-1] = v[0] = v[-1] = 0.0

    def f(lam):
        du, dv = rhs_1d(np.array((lam * u, lam * v)), 0.0, prob, w1, w2)
        return np.concatenate([du, dv])

    r1, r2, r3 = f(1.0), f(2.0), f(3.0)
    lin = (4.0 * r1 - r2) / 2.0
    quad = (r2 - 2.0 * r1) / 2.0
    predicted = 3.0 * lin + 9.0 * quad
    scale = max(np.abs(r3).max(), 1.0)
    np.testing.assert_allclose(r3, predicted, atol=1e-10 * scale)


def test_shape_mismatch_rejected():
    prob = _zero_problem()
    g = Grid1D(0.0, 1.0, 11)
    w1, w2 = _weights_1d(g)
    for shape in ((11,), (2, 10), (3, 11)):
        with pytest.raises(ShapeMismatch):
            rhs_1d(np.zeros(shape), 0.0, prob, w1, w2)


def test_apply_dirichlet_1d_sets_traces():
    prob = problem1()
    g = Grid1D(prob.a, prob.b, 11)
    u = np.full(11, 99.0)
    v = np.full(11, 99.0)
    apply_dirichlet_1d(u, v, 0.5, prob, g)
    assert u[0] == prob.g1(0.5)
    assert u[-1] == prob.g2(0.5)
    assert v[0] == prob.g3(0.5)
    assert v[-1] == prob.g4(0.5)
    assert np.all(u[1:-1] == 99.0)


def test_rhs_1d_matches_per_field_products():
    # Two products over the stacked state give what four matrix-vector
    # products, one per field and matrix, give, to rounding.
    prob = problem1()
    rng = np.random.default_rng(11)
    for n in (9, 21, 121):
        g = Grid1D(prob.a, prob.b, n)
        w1, w2 = _weights_1d(g)
        u, v = rng.standard_normal((2, n))
        ux, vx = w1 @ u, w1 @ v
        cross = u * vx + v * ux
        du = w2 @ u - prob.eta * u * ux - prob.alpha * cross
        dv = w2 @ v - prob.xi * v * vx - prob.beta * cross
        du[0] = du[-1] = dv[0] = dv[-1] = 0.0
        out = rhs_1d(np.array((u, v)), 0.0, prob, w1, w2)
        scale = max(np.abs(du).max(), np.abs(dv).max(), 1.0)
        np.testing.assert_allclose(out[0], du, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(out[1], dv, rtol=0, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# semi-discrete consistency under refinement
# ---------------------------------------------------------------------------

def test_consistency_residual_shrinks_under_refinement():
    # The residual |RHS(exact samples) - exact du/dt| is dominated by the
    # low-order second-derivative recursion rows next to the closed boundary
    # rows, so globally it shrinks at first order; seven nodes in from the
    # first recursion row (3 and n-4) it is already orders of magnitude
    # smaller (measured on the grids where the interior O(h^4) error is not
    # the larger part).  The closed rows 1-2 and their mirrors converge at
    # second order or better.
    prob = problem1()
    res = {}
    deep = {}
    closed = {}
    for n in (41, 81, 161):
        g = Grid1D(prob.a, prob.b, n)
        w1, w2 = _weights_1d(g)
        u = prob.exact_u(g.x, 0.0)
        du, _ = rhs_1d(np.array((u, u)), 0.0, prob, w1, w2)
        e = np.abs(du + np.sin(g.x))
        res[n] = e[1:-1].max()
        deep[n] = e[10:-10].max() / max(e[3], e[n - 4])
        closed[n] = e[[1, 2, n - 3, n - 2]].max()
    assert res[81] < res[41]
    assert res[161] < res[81]
    assert res[161] <= res[41] / 3.0
    assert deep[81] <= 1e-3
    assert deep[161] <= 1e-3
    assert math.log2(closed[41] / closed[81]) >= 2.0
    assert math.log2(closed[81] / closed[161]) >= 2.0


# ---------------------------------------------------------------------------
# 2D
# ---------------------------------------------------------------------------

def _grid_and_weights(prob, n):
    g = Grid2D.square(prob.a, prob.b, n)
    return g, weights_2d(g)


def test_split_identity_2d():
    prob = problem4()
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 9)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((9, 9))
    v = rng.standard_normal((9, 9))
    apply_dirichlet_2d(u, v, 0.2, prob, g)
    full = rhs_2d(np.array((u, v)), 0.2, prob, ax1, ax2, by1, by2)
    split = rhs_2d_split(u, v, 0.2, prob, ax1, ax2, by1, by2)
    scale = max(np.abs(full[0]).max(), np.abs(full[1]).max(), 1.0)
    np.testing.assert_allclose(split[0], full[0], atol=1e-12 * scale)
    np.testing.assert_allclose(split[1], full[1], atol=1e-12 * scale)


@pytest.mark.parametrize("build", [problem2, problem3, problem4])
@pytest.mark.parametrize("nx, ny", [(9, 7), (7, 9)])
def test_rhs_2d_matches_per_field_products_bitwise(build, nx, ny):
    # One product per matrix over both fields writes the same bits as eight
    # products, one per field and matrix; on a non-square grid a swap of the
    # x and y axes in the row view would show.
    prob = build()
    g = Grid2D(Grid1D(prob.a, prob.b, nx), Grid1D(prob.c, prob.d, ny))
    ax1, ax2, by1, by2 = weights_2d(g)
    rng = np.random.default_rng(nx * ny)
    states = [(prob.phi(*g.coords), prob.psi(*g.coords)),
              tuple(rng.standard_normal((2, nx, ny)))]
    for U, V in states:
        nu = prob.nu
        dU = nu * (ax2 @ U + U @ by2.T) - U * (ax1 @ U) - V * (U @ by1.T)
        dV = nu * (ax2 @ V + V @ by2.T) - U * (ax1 @ V) - V * (V @ by1.T)
        for D in (dU, dV):
            D[0, :] = D[-1, :] = D[:, 0] = D[:, -1] = 0.0
        out = rhs_2d(np.array((U, V)), 0.0, prob, ax1, ax2, by1, by2)
        assert out.shape == (2, nx, ny)
        assert out[0].tobytes() == dU.tobytes()
        assert out[1].tobytes() == dV.tobytes()


@pytest.mark.parametrize("nx, ny", [(17, 17), (65, 65), (17, 9)])
def test_rhs_2d_matches_per_field_products_in_the_solvers_layout(nx, ny):
    # solve_2d passes F-ordered copies of the y-matrices; the batched
    # products still write the bits of one product per field and matrix, for
    # the DQM weights and for random matrices in the same layout
    prob = problem4()
    g = Grid2D(Grid1D(prob.a, prob.b, nx), Grid1D(prob.c, prob.d, ny))
    rng = np.random.default_rng(nx * ny + 1)
    random = (*rng.standard_normal((2, nx, nx)), *rng.standard_normal((2, ny, ny)))
    for ax1, ax2, by1, by2 in (weights_2d(g), random):
        by1, by2 = np.asfortranarray(by1), np.asfortranarray(by2)
        U, V = rng.standard_normal((2, nx, ny))
        nu = prob.nu
        dU = nu * (ax2 @ U + U @ by2.T) - U * (ax1 @ U) - V * (U @ by1.T)
        dV = nu * (ax2 @ V + V @ by2.T) - U * (ax1 @ V) - V * (V @ by1.T)
        for D in (dU, dV):
            D[0, :] = D[-1, :] = D[:, 0] = D[:, -1] = 0.0
        out = rhs_2d(np.array((U, V)), 0.0, prob, ax1, ax2, by1, by2)
        assert out[0].tobytes() == dU.tobytes()
        assert out[1].tobytes() == dV.tobytes()


def test_rhs_2d_matches_analytic_time_derivative():
    # The shifted-sigmoid solution has du/dt = -(Re/32) E / (4 (1+E)^2) with
    # E the exponential kernel; compare on the interior at t=0.
    prob = problem4(re=100.0)
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 21)
    x, y = g.coords
    u = prob.exact_u(x, y, 0.0)
    v = prob.exact_v(x, y, 0.0)
    du, dv = rhs_2d(np.array((u, v)), 0.0, prob, ax1, ax2, by1, by2)
    kernel = np.exp((-4.0 * x + 4.0 * y) * (100.0 / 32.0))
    want = -(100.0 / 32.0) * kernel / (4.0 * (1.0 + kernel) ** 2)
    # boundary-adjacent rows carry the usual low-order defect; a few nodes in
    # the agreement is two orders of magnitude tighter
    assert np.abs(du - want)[1:-1, 1:-1].max() <= 5e-2
    assert np.abs(dv + want)[1:-1, 1:-1].max() <= 5e-2
    assert np.abs(du - want)[4:-4, 4:-4].max() <= 1e-3
    assert np.abs(dv + want)[4:-4, 4:-4].max() <= 1e-3


def test_y_invariant_state_drops_y_convection():
    # With v = 0 and u constant along y, the y-convection term vanishes
    # identically, leaving diffusion plus x-convection only.
    prob = problem4()
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 11)
    f = np.sin(g.xgrid.x)
    u = np.repeat(f[:, None], 11, axis=1)
    v = np.zeros((11, 11))
    du, dv = rhs_2d(np.array((u, v)), 0.0, prob, ax1, ax2, by1, by2)
    want = prob.nu * (ax2 @ u + u @ by2.T) - u * (ax1 @ u)
    np.testing.assert_allclose(du[1:-1, 1:-1], want[1:-1, 1:-1], atol=1e-15)
    np.testing.assert_array_equal(dv[1:-1, 1:-1], np.zeros((9, 9)))


def test_apply_dirichlet_2d_corners_consistent():
    # Corner nodes belong to two edges; the trace functions agree there, so
    # the fill order cannot matter.
    for build in (problem2, problem3, problem4):
        prob = build()
        g = Grid2D.square(prob.a, prob.b, 7)
        u = np.zeros((7, 7))
        v = np.zeros((7, 7))
        t = 0.1
        apply_dirichlet_2d(u, v, t, prob, g)
        for xc in (prob.a, prob.b):
            for yc in (prob.a, prob.b):
                i = 0 if xc == prob.a else 6
                j = 0 if yc == prob.a else 6
                assert u[i, j] == pytest.approx(prob.bc_u(xc, yc, t), abs=1e-10)
                assert v[i, j] == pytest.approx(prob.bc_v(xc, yc, t), abs=1e-10)


def _edge_by_edge_fill(U, V, t, prob, grid):
    # the four-calls-per-field fill: y-edges first, x-edges (and corners) last
    x, y = grid.xgrid.x, grid.ygrid.x
    for A, f in ((U, prob.bc_u), (V, prob.bc_v)):
        A[:, 0] = f(x, y[0], t)
        A[:, -1] = f(x, y[-1], t)
        A[0, :] = f(x[0], y, t)
        A[-1, :] = f(x[-1], y, t)


@pytest.mark.parametrize("build", [problem2, problem3, problem4])
def test_apply_dirichlet_2d_ring_matches_edge_fill(build):
    # One trace call over the whole ring writes the same bits as the
    # edge-by-edge fill, and leaves the interior alone.
    prob = build()
    g = Grid2D(Grid1D(prob.a, prob.b, 9), Grid1D(prob.c, prob.d, 7))
    for t in (0.0, 0.1, 0.35):
        u, v = np.full((9, 7), np.nan), np.full((9, 7), np.nan)
        apply_dirichlet_2d(u, v, t, prob, g)
        ref_u, ref_v = np.full((9, 7), np.nan), np.full((9, 7), np.nan)
        _edge_by_edge_fill(ref_u, ref_v, t, prob, g)
        assert u.tobytes() == ref_u.tobytes()
        assert v.tobytes() == ref_v.tobytes()
        assert np.isnan(u[1:-1, 1:-1]).all() and np.isnan(v[1:-1, 1:-1]).all()
        assert np.isfinite(u[g.ring]).all() and np.isfinite(v[g.ring]).all()


TIMES = np.array([[0.0], [0.013], [0.2], [0.35]])


@pytest.mark.parametrize("build", [problem2, problem3, problem4])
def test_apply_dirichlet_2d_column_of_times_fills_ring_rows(build):
    # A (k, 1) column of times fills one row of ring values per time, each
    # bitwise equal to the imposition at that time alone.
    prob = build()
    g = Grid2D(Grid1D(prob.a, prob.b, 9), Grid1D(prob.c, prob.d, 7))
    ru, rv = np.full((2, len(TIMES), g.ring_x.size), np.nan)
    apply_dirichlet_2d(ru, rv, TIMES, prob, g)
    for k, t in enumerate(TIMES[:, 0]):
        u, v = np.zeros((9, 7)), np.zeros((9, 7))
        apply_dirichlet_2d(u, v, t, prob, g)
        assert ru[k].tobytes() == u[g.ring].tobytes()
        assert rv[k].tobytes() == v[g.ring].tobytes()


def test_apply_dirichlet_1d_column_of_times_fills_end_rows():
    prob = dataclasses.replace(
        problem1(), g1=lambda t: np.exp(-t), g2=lambda t: 2.0 * t,
        g3=lambda t: 1.0 + t * t, g4=lambda t: 0.5)
    g = Grid1D(prob.a, prob.b, 9)
    ru, rv = np.full((2, len(TIMES), 2), np.nan)
    apply_dirichlet_1d(ru, rv, TIMES, prob, g)
    for k, t in enumerate(TIMES[:, 0]):
        u, v = np.zeros(9), np.zeros(9)
        apply_dirichlet_1d(u, v, t, prob, g)
        assert ru[k].tobytes() == u[[0, -1]].tobytes()
        assert rv[k].tobytes() == v[[0, -1]].tobytes()


def test_apply_dirichlet_2d_broadcasts_scalar_traces():
    prob = dataclasses.replace(problem4(), bc_u=lambda x, y, t: 0.5,
                               bc_v=lambda x, y, t: -1.0)
    g = Grid2D(Grid1D(prob.a, prob.b, 9), Grid1D(prob.c, prob.d, 7))
    u, v = np.zeros((9, 7)), np.zeros((9, 7))
    apply_dirichlet_2d(u, v, 0.0, prob, g)
    assert (u[g.ring] == 0.5).all() and (v[g.ring] == -1.0).all()
    assert (u[~g.ring] == 0.0).all() and (v[~g.ring] == 0.0).all()


def test_rhs_returns_stacked_fields():
    prob = problem4()
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 9)
    out = rhs_2d(np.array((prob.phi(*g.coords), prob.psi(*g.coords))), 0.0,
                 prob, ax1, ax2, by1, by2)
    assert isinstance(out, np.ndarray) and out.shape == (2, 9, 9)
    prob1 = problem1()
    g1 = Grid1D(prob1.a, prob1.b, 11)
    w1, w2 = _weights_1d(g1)
    out = rhs_1d(np.array((prob1.phi(g1.x), prob1.psi(g1.x))), 0.0, prob1,
                 w1, w2)
    assert isinstance(out, np.ndarray) and out.shape == (2, 11)



def test_rhs_result_dtype_follows_complex_inputs():
    # complex states (as in a complex-step Jacobian) give a complex result
    # whose real part is the real RHS
    prob = problem4()
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 9)
    U, V = prob.phi(*g.coords), prob.psi(*g.coords)
    real = rhs_2d(np.array((U, V)), 0.0, prob, ax1, ax2, by1, by2)
    cplx = rhs_2d(np.array((U + 0j, V + 0j)), 0.0, prob, ax1, ax2, by1, by2)
    assert cplx.dtype == complex
    np.testing.assert_allclose(cplx.real, real, rtol=1e-13, atol=1e-13)
    assert not cplx.imag.any()
    prob1 = problem1()
    g1 = Grid1D(prob1.a, prob1.b, 11)
    w1, w2 = _weights_1d(g1)
    u, v = prob1.phi(g1.x), prob1.psi(g1.x)
    real = rhs_1d(np.array((u, v)), 0.0, prob1, w1, w2)
    cplx = rhs_1d(np.array((u + 0j, v + 0j)), 0.0, prob1, w1, w2)
    assert cplx.dtype == complex
    np.testing.assert_allclose(cplx.real, real, rtol=1e-13, atol=1e-13)
    assert not cplx.imag.any()

def test_rhs_2d_shape_mismatch():
    prob = problem4()
    g, (ax1, ax2, by1, by2) = _grid_and_weights(prob, 9)
    with pytest.raises(ShapeMismatch):
        rhs_2d(np.zeros((2, 9, 8)), 0.0, prob, ax1, ax2, by1, by2)
    # a transposed state on a non-square grid
    g = Grid2D(Grid1D(prob.a, prob.b, 9), Grid1D(prob.c, prob.d, 7))
    ax1, ax2, by1, by2 = weights_2d(g)
    for shape in ((2, 9, 6), (2, 7, 9), (9, 7), (3, 9, 7)):
        with pytest.raises(ShapeMismatch):
            rhs_2d(np.zeros(shape), 0.0, prob, ax1, ax2, by1, by2)
