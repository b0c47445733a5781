"""Tests for the benchmark problem definitions, norms, and reference tables."""

import math

import numpy as np
import pytest

from burgers_dqm import (
    problem1,
    problem2,
    problem3,
    problem4,
    PROBLEM_BUILDERS,
    error_norms,
    convergence_order,
    load_reference_table,
    ErrorReport,
    solve_2d,
)
from burgers_dqm.exceptions import DegenerateError, DomainError, ShapeMismatch
from burgers_dqm.problems import P2_TIME_LIMIT


# ---------------------------------------------------------------------------
# problem 1: decaying sine wave
# ---------------------------------------------------------------------------

def test_p1_exact_solution_values():
    prob = problem1()
    for t in (0.0, 0.5, 2.0):
        assert prob.exact_u(0.0, t) == pytest.approx(0.0, abs=1e-15)
    assert prob.exact_u(math.pi / 2, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    x = np.linspace(prob.a, prob.b, 9)
    np.testing.assert_allclose(prob.phi(x), np.sin(x), atol=1e-15)
    np.testing.assert_allclose(prob.psi(x), np.sin(x), atol=1e-15)


def test_p1_parameters():
    prob = problem1()
    assert (prob.eta, prob.xi) == (-2.0, -2.0)
    assert (prob.alpha, prob.beta) == (1.0, 1.0)
    assert (prob.a, prob.b) == (-math.pi, math.pi)


def test_p1_boundary_data_matches_exact():
    prob = problem1()
    for t in (0.0, 0.3, 1.0):
        assert prob.g1(t) == pytest.approx(prob.exact_u(prob.a, t), abs=1e-12)
        assert prob.g2(t) == pytest.approx(prob.exact_u(prob.b, t), abs=1e-12)
        assert prob.g3(t) == pytest.approx(prob.exact_v(prob.a, t), abs=1e-12)
        assert prob.g4(t) == pytest.approx(prob.exact_v(prob.b, t), abs=1e-12)


# ---------------------------------------------------------------------------
# problem 2: rational solution with finite blow-up time
# ---------------------------------------------------------------------------

def test_p2_exact_solution_values():
    prob = problem2()
    assert prob.exact_u(0.3, 0.2, 0.0) == pytest.approx(0.5, abs=1e-15)
    got = prob.exact_u(0.1, 0.1, 0.1)
    assert got == pytest.approx((0.2 - 0.02) / (1.0 - 0.02), abs=1e-12)
    assert got == pytest.approx(0.183673, abs=5e-7)
    assert prob.exact_v(0.5, 0.5, 0.1) == pytest.approx(-0.1 / 0.98, abs=1e-12)


def test_p2_domain_and_horizon():
    prob = problem2()
    assert (prob.a, prob.b) == (0.0, 0.5)
    assert prob.horizon == pytest.approx(0.6)


def test_p2_time_limit_guard():
    prob = problem2()
    limit = 1.0 / math.sqrt(2.0)
    assert P2_TIME_LIMIT == pytest.approx(limit, abs=1e-5)
    # the closed form is singular at t = +-1/sqrt 2; NaN is no time either
    for t in (limit, limit + 0.5, -limit, -0.7071066, -1.0, math.nan,
              np.array([0.1, math.nan]), np.array([0.1, -limit])):
        for exact in (prob.exact_u, prob.exact_v):
            with pytest.raises(DomainError):
                exact(0.1, 0.1, t)
    # just inside the limit on either side is fine
    for t in (limit - 1e-3, -limit + 1e-3):
        assert math.isfinite(prob.exact_u(0.1, 0.1, t))
        assert math.isfinite(prob.exact_v(0.1, 0.1, t))
    # a solve started beyond the singularity is refused, not unstable
    with pytest.raises(DomainError):
        solve_2d(prob, 9, 1e-3, 0.0, t0=-0.75)


def test_p2_viscosity_from_reynolds():
    prob = problem2(re=80.0)
    assert prob.nu == pytest.approx(1.0 / 80.0, abs=1e-15)
    assert prob.re == pytest.approx(80.0)


# ---------------------------------------------------------------------------
# problem 3: steady boundary data, no exact solution
# ---------------------------------------------------------------------------

def test_p3_initial_data():
    prob = problem3()
    assert prob.exact_u is None and prob.exact_v is None
    assert prob.phi(0.25, 0.0) == pytest.approx(math.sin(math.pi * 0.25) + 1.0, abs=1e-12)
    assert prob.psi(0.1, 0.3) == pytest.approx(0.4, abs=1e-15)


def test_p3_boundary_traces_are_steady_extensions_of_the_initial_data():
    prob = problem3()
    xs = np.linspace(0.0, 0.5, 11)
    for t in (0.0, 0.3, 0.625):
        for x in xs:
            assert prob.bc_u(x, 0.0, t) == pytest.approx(prob.phi(x, 0.0), abs=1e-12)
            assert prob.bc_u(x, 0.5, t) == pytest.approx(prob.phi(x, 0.5), abs=1e-12)
            assert prob.bc_u(0.0, x, t) == pytest.approx(prob.phi(0.0, x), abs=1e-12)
            assert prob.bc_u(0.5, x, t) == pytest.approx(prob.phi(0.5, x), abs=1e-12)
            assert prob.bc_v(x, 0.0, t) == pytest.approx(x, abs=1e-12)
            assert prob.bc_v(0.5, x, t) == pytest.approx(0.5 + x, abs=1e-12)


def test_p3_edge_values_pin_the_cosine_form():
    # the y-profile along x=0 is cos(pi y): 2 at the origin would be wrong
    prob = problem3()
    assert prob.phi(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert prob.phi(0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert prob.phi(0.5, 0.0) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# problem 4: shifted-sigmoid pair
# ---------------------------------------------------------------------------

def test_p4_sum_is_conserved_identically():
    prob = problem4()
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.uniform(0.0, 1.0, 2)
        t = rng.uniform(0.0, 2.0)
        total = prob.exact_u(x, y, t) + prob.exact_v(x, y, t)
        assert total == pytest.approx(1.5, abs=1e-14)


def test_p4_values_on_unit_kernel_line():
    # along -4x + 4y = t the kernel is 1, so u = 5/8 and v = 7/8
    prob = problem4()
    for x, t in ((0.2, 0.0), (0.1, 0.4)):
        y = x + t / 4.0
        assert prob.exact_u(x, y, t) == pytest.approx(0.625, abs=1e-14)
        assert prob.exact_v(x, y, t) == pytest.approx(0.875, abs=1e-14)


def test_p4_domain_and_viscosity():
    prob = problem4()
    assert (prob.a, prob.b) == (0.0, 1.0)
    assert prob.re == pytest.approx(100.0)
    assert problem4(re=50.0).nu == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# residual check: exact solutions satisfy the PDE (finite differences)
# ---------------------------------------------------------------------------

FD_H = 1e-4


def _d(f, args, idx, order=1):
    a = list(args)
    if order == 1:
        a[idx] = args[idx] + FD_H
        hi = f(*a)
        a[idx] = args[idx] - FD_H
        lo = f(*a)
        return (hi - lo) / (2.0 * FD_H)
    a[idx] = args[idx] + FD_H
    hi = f(*a)
    a[idx] = args[idx] - FD_H
    lo = f(*a)
    return (hi - 2.0 * f(*args) + lo) / (FD_H * FD_H)


def test_p1_exact_satisfies_pde():
    prob = problem1()
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.uniform(prob.a + 0.2, prob.b - 0.2)
        t = rng.uniform(0.05, 1.0)
        u, v = prob.exact_u, prob.exact_v
        args = (x, t)
        res = (_d(u, args, 1) - _d(u, args, 0, order=2)
               + prob.eta * u(x, t) * _d(u, args, 0)
               + prob.alpha * (u(x, t) * _d(v, args, 0) + v(x, t) * _d(u, args, 0)))
        assert abs(res) <= 1e-5


@pytest.mark.parametrize("build,tmax", [(problem2, 0.5), (problem4, 1.0)])
def test_2d_exact_solutions_satisfy_pde(build, tmax):
    prob = build()
    rng = np.random.default_rng(12)
    u, v = prob.exact_u, prob.exact_v
    for _ in range(20):
        x = rng.uniform(prob.a + 0.1, prob.b - 0.1)
        y = rng.uniform(prob.a + 0.1, prob.b - 0.1)
        t = rng.uniform(0.05, tmax)
        args = (x, y, t)
        res_u = (_d(u, args, 2) + u(*args) * _d(u, args, 0) + v(*args) * _d(u, args, 1)
                 - prob.nu * (_d(u, args, 0, order=2) + _d(u, args, 1, order=2)))
        res_v = (_d(v, args, 2) + u(*args) * _d(v, args, 0) + v(*args) * _d(v, args, 1)
                 - prob.nu * (_d(v, args, 0, order=2) + _d(v, args, 1, order=2)))
        assert abs(res_u) <= 1e-5
        assert abs(res_v) <= 1e-5


def test_initial_and_boundary_data_are_compatible():
    # 1D: corner values of the traces match the initial profile
    p1 = problem1()
    assert p1.g1(0.0) == pytest.approx(p1.phi(p1.a), abs=1e-12)
    assert p1.g2(0.0) == pytest.approx(p1.phi(p1.b), abs=1e-12)
    # 2D: the initial data are the traces at t = 0, bit for bit, on the
    # whole square; where an exact solution exists, it is the traces
    for build, res in ((problem2, (80.0, 1234.5)), (problem3, (50.0, 1234.5)),
                       (problem4, (100.0, 1234.5))):
        for re in res:
            prob = build(re)
            x, y = np.meshgrid(np.linspace(prob.a, prob.b, 13),
                               np.linspace(prob.c, prob.d, 11), indexing="ij")
            assert np.array_equal(prob.phi(x, y), prob.bc_u(x, y, 0.0))
            assert np.array_equal(prob.psi(x, y), prob.bc_v(x, y, 0.0))
            if build is problem3:
                assert prob.exact_u is None and prob.exact_v is None
            else:
                assert prob.exact_u is prob.bc_u
                assert prob.exact_v is prob.bc_v


# ---------------------------------------------------------------------------
# norms and convergence orders
# ---------------------------------------------------------------------------

def test_error_norms_zero_for_identical_fields():
    u = np.linspace(0.0, 1.0, 11)
    rep = error_norms(u, u.copy(), 0.1)
    assert rep.l2 == 0.0
    assert rep.linf == 0.0
    assert rep.n == 11


def test_error_norms_single_defect():
    u = np.zeros(9)
    e = u.copy()
    e[4] = 0.25
    rep = error_norms(u, e, 0.125)
    assert rep.linf == pytest.approx(0.25, abs=1e-15)
    assert rep.l2 == pytest.approx(math.sqrt(0.125) * 0.25, abs=1e-15)


def test_error_norms_uniform_defect():
    n = 11
    h = 1.0 / (n - 1)
    rep = error_norms(np.zeros(n), np.full(n, 0.3), h)
    assert rep.l2 == pytest.approx(0.3 * math.sqrt(h * n), abs=1e-15)


def test_error_norms_2d_cell_measure():
    field = np.zeros((5, 7))
    exact = field.copy()
    exact[2, 3] = 1.0
    rep = error_norms(field, exact, 0.25 * 0.125)
    assert rep.l2 == pytest.approx(math.sqrt(0.25 * 0.125), abs=1e-15)
    assert rep.n == 5  # leading dimension


def test_error_norms_validation():
    with pytest.raises(ShapeMismatch):
        error_norms(np.zeros(5), np.zeros(6), 0.1)
    with pytest.raises(DomainError):
        error_norms(np.zeros(5), np.zeros(5), 0.0)
    for h in (math.nan, math.inf):
        with pytest.raises(DomainError):
            error_norms(np.ones(3), np.zeros(3), h)
    with pytest.raises(ShapeMismatch):
        error_norms(1.0, 0.5, 0.1)


def test_convergence_order_on_exact_halving():
    coarse = ErrorReport(l2=1.0, linf=1.0, n=10)
    fine = ErrorReport(l2=0.5, linf=0.25, n=20)
    est = convergence_order(coarse, fine)
    assert est.l2 == pytest.approx(1.0, abs=1e-14)
    assert est.linf == pytest.approx(2.0, abs=1e-14)


def test_convergence_order_reproduces_published_rates():
    table = {float(r["N"]): r for r in load_reference_table("1.1")[1]}
    pairs = [(10, 20, 2.93), (20, 40, 3.08), (40, 80, 3.68)]
    for coarse_n, fine_n, want in pairs:
        coarse = ErrorReport(l2=table[coarse_n]["l2"], linf=table[coarse_n]["linf"],
                             n=coarse_n)
        fine = ErrorReport(l2=table[fine_n]["l2"], linf=table[fine_n]["linf"],
                           n=fine_n)
        assert convergence_order(coarse, fine).l2 == pytest.approx(want, abs=0.02)


def test_convergence_order_degenerate_and_misordered():
    good = ErrorReport(l2=1e-3, linf=1e-3, n=10)
    tiny = ErrorReport(l2=1e-16, linf=1e-16, n=20)
    with pytest.raises(DegenerateError):
        convergence_order(good, tiny)
    # a non-finite error on either grid, in either norm, has no order
    for bad in (math.nan, math.inf):
        for coarse, fine in (
                (good, ErrorReport(l2=bad, linf=1e-4, n=20)),
                (good, ErrorReport(l2=1e-4, linf=bad, n=20)),
                (ErrorReport(l2=bad, linf=1e-3, n=10),
                 ErrorReport(l2=1e-4, linf=1e-4, n=20))):
            with pytest.raises(DegenerateError):
                convergence_order(coarse, fine)
    fine = ErrorReport(l2=1e-4, linf=1e-4, n=10)
    with pytest.raises(DomainError):
        convergence_order(good, fine)


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def test_reference_table_keys_and_sizes():
    sizes = {"1.1": 5, "1.3": 4, "2.1": 30, "2.3": 12, "3.1": 8, "4.1": 5}
    for key, rows in sizes.items():
        fields, data = load_reference_table(key)
        assert len(data) == rows
        assert all(isinstance(r, dict) for r in data)
    with pytest.raises(KeyError):
        load_reference_table("9.9")


def test_reference_table_values_spot_checks():
    _, rows = load_reference_table("3.1")
    at = {(r["x"], r["y"]): r for r in rows}
    assert at[(0.1, 0.1)]["u_ref"] == pytest.approx(0.97056)
    assert at[(0.3, 0.3)]["v_ref"] == pytest.approx(0.22653)
    _, rows11 = load_reference_table("1.1")
    assert rows11[0]["r_l2"] is None  # first row has no rate
    assert rows11[1]["r_linf"] == pytest.approx(2.89)


def test_problem_builder_registry():
    assert set(PROBLEM_BUILDERS) == {"p1", "p2", "p3", "p4"}
    for name, build in PROBLEM_BUILDERS.items():
        prob = build()
        assert prob.name == name


def test_builders_reject_bad_reynolds():
    for build in (problem2, problem3, problem4):
        # at 1e-310 and 5e-324, nu = 1/re would be inf, which a solve met
        # only as a blow-up at its first stage
        for re in (0.0, -5.0, math.nan, math.inf, -math.inf, 1e-310, 5e-324):
            with pytest.raises(DomainError, match="re"):
                build(re=re)
        assert math.isfinite(build(re=1e-300).nu)
