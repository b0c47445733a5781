"""Acceptance suite: nine numbered criteria with their tolerances pinned.

Each test prints the measured numbers next to the bound it is held to, so a
verbose run doubles as a results table.  Criterion 3b is currently red: the
boundary rows of the first-derivative weight matrix are O(h) (they come from
the natural end condition of the modified spline basis), which caps the
max-norm order of problem 4 on the 16 -> 32 refinement below the published
figure, and no closure of those rows found so far keeps the coarse-grid
solution intact.  The tolerances are kept at their specified values rather
than being widened to fit; see the package README for the analysis.
"""

import cmath
import math
import time

import numpy as np
import pytest

from burgers_dqm import (
    Grid1D,
    FrozenParams,
    analyze,
    cli,
    convergence_order,
    error_norms,
    first_order_weights,
    problem1,
    problem2,
    problem3,
    problem4,
    second_order_weights,
    solve_1d,
    solve_2d,
    ssprk54,
    step,
)
from burgers_dqm.burgers_rhs import (
    apply_dirichlet_1d,
    apply_dirichlet_2d,
    rhs_1d,
    rhs_2d,
)
from burgers_dqm.dqm_weights import Grid2D, weights_2d
from burgers_dqm.spline_basis import make_coeffs, modified_tables
from burgers_dqm.stability import operator_matrices
from oracles import rhs_1d_split, rhs_2d_split


def _report(label, measured, bound, comparator="<="):
    print(f"{label}: measured {measured:.6e} (bound {comparator} {bound:.6e})")


def _p4_error_report(prob, sol):
    x = sol.grid.xgrid.x[:, None]
    y = sol.grid.ygrid.x[None, :]
    exact = prob.exact_u(x, y, sol.t)
    cell = sol.grid.xgrid.h * sol.grid.ygrid.h
    return error_norms(sol.u, exact, cell)


@pytest.fixture(scope="module")
def p4_runs():
    """Problem-4 solutions at 8/16/32 nodes per side (Re=100, dt=1e-4, t=1)."""
    prob = problem4(re=100.0)
    t0 = time.perf_counter()
    sols = {n: solve_2d(prob, n, 1e-4, 1.0) for n in (8, 16, 32)}
    elapsed = time.perf_counter() - t0
    return {"prob": prob, "sols": sols, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 1. problem-1 accuracy on the fine grid
# ---------------------------------------------------------------------------

def test_c1_problem1_fine_grid_accuracy():
    prob = problem1()
    t0 = time.perf_counter()
    sol = solve_1d(prob, 121, 1e-3, 1.0)
    elapsed = time.perf_counter() - t0
    rep = error_norms(sol.u, prob.exact_u(sol.grid.x, sol.t), sol.grid.h)
    _report("C1 runtime [s]", elapsed, 30.0)
    _report("C1 Linf(u)", rep.linf, 1.3e-6)
    _report("C1 L2(u)", rep.l2, 1.0e-6)
    assert elapsed <= 30.0
    assert rep.linf <= 1.3e-6
    assert rep.l2 <= 1.0e-6


# ---------------------------------------------------------------------------
# 2. problem-1 convergence orders
# ---------------------------------------------------------------------------

def test_c2_problem1_convergence_orders():
    prob = problem1()
    t0 = time.perf_counter()
    reports = []
    for n in (10, 20, 40, 80):
        sol = solve_1d(prob, n, 1e-3, 1.0)
        reports.append(error_norms(sol.u, prob.exact_u(sol.grid.x, sol.t),
                                   sol.grid.h))
    elapsed = time.perf_counter() - t0
    orders = [convergence_order(a, b).linf for a, b in zip(reports, reports[1:])]
    print("C2 Linf orders:", ["%.3f" % o for o in orders])
    _report("C2 runtime [s]", elapsed, 60.0)
    assert elapsed <= 60.0
    for o in orders:
        assert o >= 2.3
    assert max(orders) >= 2.8


# ---------------------------------------------------------------------------
# 3. problem-4 accuracy and orders
# ---------------------------------------------------------------------------

def test_c3_problem4_l2_accuracy(p4_runs):
    rep = _p4_error_report(p4_runs["prob"], p4_runs["sols"][32])
    _report("C3 L2(u) at 32 nodes", rep.l2, 2.5e-4)
    _report("C3 solve runtime [s]", p4_runs["elapsed"], 300.0)
    assert p4_runs["elapsed"] <= 300.0
    assert rep.l2 <= 2.5e-4


def test_c3_problem4_linf_order(p4_runs):
    reports = [_p4_error_report(p4_runs["prob"], p4_runs["sols"][n])
               for n in (8, 16, 32)]
    orders = [convergence_order(a, b).linf for a, b in zip(reports, reports[1:])]
    print("C3 Linf orders:", ["%.3f" % o for o in orders])
    for o in orders:
        assert o >= 2.8


# ---------------------------------------------------------------------------
# 4. problem-2 pointwise values
# ---------------------------------------------------------------------------

def test_c4_problem2_pointwise_values():
    prob = problem2(re=80.0)
    sol = solve_2d(prob, 21, 1e-4, 0.1)
    x = sol.grid.xgrid.x
    i1 = int(np.argmin(np.abs(x - 0.1)))
    i5 = int(np.argmin(np.abs(x - 0.5)))
    got1 = sol.u[i1, i1]
    got5 = sol.u[i5, i5]
    _report("C4 |u(0.1,0.1) - 0.183673|", abs(got1 - 0.183673), 5e-5)
    _report("C4 |u(0.5,0.5) - 0.918367|", abs(got5 - 0.918367), 5e-5)
    assert abs(got1 - 0.183673) <= 5e-5
    assert abs(got5 - 0.918367) <= 5e-5


# ---------------------------------------------------------------------------
# 5. problem-3 comparison against the published reference values
# ---------------------------------------------------------------------------

def test_c5_problem3_reference_values():
    prob = problem3(re=50.0)
    sol = solve_2d(prob, 21, 1e-4, 0.625)
    x = sol.grid.xgrid.x
    i1 = int(np.argmin(np.abs(x - 0.1)))
    i3 = int(np.argmin(np.abs(x - 0.3)))
    got_u = sol.u[i1, i1]
    got_v = sol.v[i3, i3]
    _report("C5 |u(0.1,0.1) - 0.97056|", abs(got_u - 0.97056), 5e-3)
    _report("C5 |v(0.3,0.3) - 0.22653|", abs(got_v - 0.22653), 5e-3)
    assert abs(got_u - 0.97056) <= 5e-3
    assert abs(got_v - 0.22653) <= 5e-3


# ---------------------------------------------------------------------------
# 6. integrator order and stability function
# ---------------------------------------------------------------------------

def test_c6_integrator_order_and_taylor_coefficients():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        u = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            u = step(u, t, dt, lambda u, t: -u)
            t += dt
        errs.append(abs(u[0] - math.exp(-1.0)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    print("C6 global orders:", ["%.3f" % o for o in orders])
    for o in orders:
        assert 3.8 <= o <= 4.2

    r0 = ssprk54.amplification(0.0)
    _report("C6 |R(0) - 1|", abs(r0 - 1.0), 1e-12)
    assert abs(r0 - 1.0) <= 1e-12

    radius = 0.5
    samples = [ssprk54.amplification(radius * cmath.exp(2j * cmath.pi * k / 6))
               for k in range(6)]
    for j, want in enumerate([1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]):
        coeff = sum(s * cmath.exp(-2j * cmath.pi * j * k / 6)
                    for k, s in enumerate(samples)) / (6 * radius ** j)
        _report(f"C6 |taylor[{j}] - 1/{j}!|", abs(coeff - want), 1e-12)
        assert abs(coeff - want) <= 1e-12


# ---------------------------------------------------------------------------
# 7. weight-matrix properties
# ---------------------------------------------------------------------------

def test_c7_weight_matrix_properties():
    for n in (11, 41, 81):
        g = Grid1D(-math.pi, math.pi, n)
        w2 = second_order_weights(first_order_weights(g), g)
        row_sums = np.abs(w2.sum(axis=1)).max()
        bound = 1e-10 * np.abs(w2).max()
        _report(f"C7 W2 row sums (N={n})", row_sums, bound)
        assert row_sums <= bound

    errs = {}
    for n in (41, 81):
        g = Grid1D(-math.pi, math.pi, n)
        w1 = first_order_weights(g)
        errs[n] = np.abs(w1 @ np.sin(g.x) - np.cos(g.x))[1:-1].max()
    order = math.log2(errs[41] / errs[81])
    _report("C7 W1 two-grid order", order, 2.0, comparator=">=")
    assert order >= 2.0


# ---------------------------------------------------------------------------
# 8. frozen-coefficient spectra
# ---------------------------------------------------------------------------

def test_c8_second_derivative_spectra_left_half_plane(tmp_path):
    deviations = []
    for n in (11, 21, 31):
        out = tmp_path / f"n{n}"
        rc = cli.main(["stability", "--nx", str(n), "--a", str(-math.pi),
                       "--b", str(math.pi), "--dt-list", "1e-4",
                       "--out", str(out)])
        assert rc == 0
        spectra = (out / "spectra.csv").read_text().splitlines()
        assert len(spectra) == 1 + 2 * (n - 2)  # header + both spectra

        g = Grid1D(-math.pi, math.pi, n)
        rep = analyze(g, FrozenParams(tau0=1.0, kappa0=1.0, nu=1.0), [1e-4])
        _, a2 = operator_matrices(g)
        threshold = 1e-8 * np.linalg.norm(a2, 2)
        worst = rep.lambda2.real.max()
        print(f"C8 N={n}: max Re(lambda2) = {worst:.6e} "
              f"(threshold {threshold:.3e}), lambda1 |Re|/|Im| ratio = "
              f"{rep.ratio_re_im:.3e}")
        if worst >= threshold:
            deviations.append((n, worst, threshold))
    if deviations:
        pytest.fail(
            "documented deviation: second-derivative spectra cross into the "
            f"right half-plane: {deviations}"
        )


# ---------------------------------------------------------------------------
# 9. property suite
# ---------------------------------------------------------------------------

def test_c9_property_suite(p4_runs):
    t0 = time.perf_counter()

    # interior/boundary split identity, 1D
    prob1 = problem1()
    g1 = Grid1D(prob1.a, prob1.b, 21)
    w1 = first_order_weights(g1)
    w2 = second_order_weights(w1, g1)
    rng = np.random.default_rng(42)
    u = rng.standard_normal(21)
    v = rng.standard_normal(21)
    apply_dirichlet_1d(u, v, 0.2, prob1, g1)
    full = rhs_1d(np.array((u, v)), 0.2, prob1, w1, w2)
    split = rhs_1d_split(u, v, 0.2, prob1, w1, w2)
    scale = max(np.abs(full[0]).max(), np.abs(full[1]).max(), 1.0)
    gap_1d = max(np.abs(split[0] - full[0]).max(),
                 np.abs(split[1] - full[1]).max())
    _report("C9 split identity 1D", gap_1d, 1e-12 * scale)
    assert gap_1d <= 1e-12 * scale

    # interior/boundary split identity, 2D
    prob4 = p4_runs["prob"]
    g2 = Grid2D.square(prob4.a, prob4.b, 9)
    ax1, ax2, by1, by2 = weights_2d(g2)
    uu = rng.standard_normal((9, 9))
    vv = rng.standard_normal((9, 9))
    apply_dirichlet_2d(uu, vv, 0.2, prob4, g2)
    full2 = rhs_2d(np.array((uu, vv)), 0.2, prob4, ax1, ax2, by1, by2)
    split2 = rhs_2d_split(uu, vv, 0.2, prob4, ax1, ax2, by1, by2)
    scale2 = max(np.abs(full2[0]).max(), np.abs(full2[1]).max(), 1.0)
    gap_2d = max(np.abs(split2[0] - full2[0]).max(),
                 np.abs(split2[1] - full2[1]).max())
    _report("C9 split identity 2D", gap_2d, 1e-12 * scale2)
    assert gap_2d <= 1e-12 * scale2

    # residual of the production weight system: row i of w1 solves the
    # collocation system whose right-hand side is column i of d1
    g40 = Grid1D(prob1.a, prob1.b, 40)
    val, d1 = modified_tables(g40.n, make_coeffs(g40.h))
    residual = (np.abs(val @ first_order_weights(g40).T - d1).max()
                / np.abs(d1).max())
    _report("C9 weight-system residual", residual, 1e-10)
    assert residual <= 1e-10

    # convex-combination identities of the scheme coefficients
    worst = max(abs(ssprk54.A20 + ssprk54.A21 - 1.0),
                abs(ssprk54.A30 + ssprk54.A32 - 1.0),
                abs(ssprk54.A40 + ssprk54.A43 - 1.0),
                abs(ssprk54.C2 + ssprk54.C3 + ssprk54.C4 - 1.0))
    _report("C9 convex-sum identities", worst, 1e-14)
    assert worst <= 1e-14

    # problem 4 conserves u + v = 3/2
    sol = p4_runs["sols"][32]
    dev = np.abs(sol.u + sol.v - 1.5)[1:-1, 1:-1].max()
    _report("C9 u+v deviation", dev, 1e-3)
    assert dev <= 1e-3

    elapsed = time.perf_counter() - t0 + p4_runs["elapsed"]
    _report("C9 runtime incl. shared solves [s]", elapsed, 600.0)
    assert elapsed <= 600.0
