"""Tests for the 1D/2D time-marching drivers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from burgers_dqm import (
    Grid1D,
    Grid2D,
    Problem1D,
    first_order_weights,
    problem1,
    problem2,
    problem4,
    second_order_weights,
    solve_1d,
    solve_2d,
    error_norms,
    step,
    weights_2d,
)
from burgers_dqm import solvers
from burgers_dqm.burgers_rhs import apply_dirichlet_1d, apply_dirichlet_2d
from burgers_dqm.exceptions import ConfigError, DomainError, NonFiniteState
from oracles import rhs_1d_split, rhs_2d_split, step_reference


def test_zero_horizon_returns_initial_condition():
    prob = problem1()
    sol = solve_1d(prob, 21, 1e-3, 0.0)
    want_u = prob.phi(sol.grid.x)
    want_u[0] = prob.g1(0.0)
    want_u[-1] = prob.g2(0.0)
    np.testing.assert_allclose(sol.u, want_u, atol=1e-15)
    assert sol.t == 0.0


def test_short_run_tracks_exact_solution():
    prob = problem1()
    sol = solve_1d(prob, 41, 1e-3, 0.1)
    rep = error_norms(sol.u, prob.exact_u(sol.grid.x, sol.t), sol.grid.h)
    assert rep.linf <= 2e-4


def test_snapshots_collected_at_requested_times():
    prob = problem1()
    sol = solve_1d(prob, 21, 0.05, 0.2, snapshots=(0.0, 0.1, 0.2))
    times = [t for t, _, _ in sol.snapshots]
    assert times == pytest.approx([0.0, 0.1, 0.2])
    # the final snapshot is the final state
    np.testing.assert_array_equal(sol.snapshots[-1][1], sol.u)
    # the first is the initial condition with boundary values applied
    ic = prob.phi(sol.grid.x)
    np.testing.assert_allclose(sol.snapshots[0][1][1:-1], ic[1:-1], atol=1e-15)


def test_misaligned_snapshot_rejected():
    prob = problem1()
    with pytest.raises(ConfigError):
        solve_1d(prob, 21, 0.05, 0.2, snapshots=(0.07,))
    with pytest.raises(ConfigError):
        solve_1d(prob, 21, 0.05, 0.2, snapshots=(0.3,))


def test_dt_must_divide_interval():
    prob = problem1()
    with pytest.raises(ConfigError):
        solve_1d(prob, 21, 0.3, 1.0)


@pytest.mark.parametrize("kwargs", [
    {"dt": math.nan}, {"dt": math.inf}, {"t_end": math.inf},
    {"t_end": math.nan}, {"t0": math.nan}, {"t0": -math.inf},
    {"snapshots": (math.nan,)}, {"snapshots": (math.inf,)},
])
def test_non_finite_times_rejected(kwargs):
    args = {"dt": 0.05, "t_end": 0.2, **kwargs}
    with pytest.raises(ConfigError):
        solve_1d(problem1(), 11, **args)
    with pytest.raises(ConfigError):
        solve_2d(problem4(), 5, **args)


@pytest.mark.parametrize("solve, build", [(solve_1d, problem4),
                                          (solve_2d, problem1)],
                         ids=["1d-solver-2d-problem", "2d-solver-1d-problem"])
def test_solvers_reject_the_other_dimensions_problem(solve, build):
    with pytest.raises(ConfigError, match="problem; use solve_"):
        solve(build(), 9, 1e-3, 0.01)
    # the check comes first: 3 nodes would otherwise fail as a DomainError
    with pytest.raises(ConfigError):
        solve(build(), 3, 1e-3, 0.01)


def test_stage_policy_runs_and_differs_from_base():
    # Every stage state carries the traces at its own time, which keeps the
    # run accurate where the traces vary in time (p2) as well as where they
    # vanish to rounding (p1).
    prob = problem1()
    sol = solve_1d(prob, 41, 1e-2, 0.5)
    assert np.abs(sol.u - prob.exact_u(sol.grid.x, 0.5)).max() <= 1e-4

    p2 = problem2(re=100.0)
    sol = solve_2d(p2, 9, 1e-3, 0.1)
    assert np.abs(sol.u - p2.exact_u(*sol.grid.coords, sol.t)).max() <= 1e-8


def test_p2_converges_at_fourth_order_in_time():
    # p2's traces vary in time; with each stage's traces at the stage's own
    # time the error falls about 16x per halving of dt (a stage that kept
    # the step's starting traces would give about 2x).
    p2 = problem2(re=100.0)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        sol = solve_2d(p2, 17, dt, 0.5)
        errors.append(np.abs(sol.u - p2.exact_u(*sol.grid.coords, sol.t)).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0, errors


def test_observer_sees_every_step():
    # Both drivers hand the observer read-only views of the state after the
    # Dirichlet data for the new time are in place.
    for solve, prob in ((solve_1d, problem1()), (solve_2d, problem4())):
        seen = []

        def observer(k, t, u, v):
            assert not u.flags.writeable and not v.flags.writeable
            seen.append((k, t, u.copy(), v.copy()))

        sol = solve(prob, 9, 0.05, 0.2, observer=observer)
        assert [k for k, _, _, _ in seen] == [1, 2, 3, 4]
        times = [t for _, t, _, _ in seen]
        assert times == pytest.approx([0.05, 0.1, 0.15, 0.2])
        np.testing.assert_array_equal(seen[-1][2], sol.u)
        np.testing.assert_array_equal(seen[-1][3], sol.v)
    # the 2D state seen after step 1 already carries the traces at t = dt
    t, u1 = seen[0][1], seen[0][2]
    x, y = sol.grid.xgrid.x, sol.grid.ygrid.x
    np.testing.assert_allclose(u1[:, 0], prob.bc_u(x, y[0], t), atol=1e-15)
    np.testing.assert_allclose(u1[0, :], prob.bc_u(x[0], y, t), atol=1e-15)



def test_observer_keeps_callers_floating_point_settings():
    # only the steps run with overflow/invalid warnings silenced
    seen = []

    def observer(k, t, u, v):
        seen.append(np.geterr())

    with np.errstate(over="raise", invalid="raise"):
        solve_1d(problem1(), 9, 0.05, 0.1, observer=observer)
    assert [(e["over"], e["invalid"]) for e in seen] == [("raise", "raise")] * 2


def test_traces_keep_callers_floating_point_settings():
    # the steps of a block share one silenced region; each block's trace
    # evaluation runs outside it
    seen = []
    base = problem4()

    def bc_u(x, y, t):
        seen.append(np.geterr())
        return base.bc_u(x, y, t)

    prob = dataclasses.replace(base, bc_u=bc_u)
    block = _block(2 * (2 * 9 + 2 * 5))
    steps = 2 * block + 5
    with np.errstate(over="raise", invalid="raise"):
        solve_2d(prob, 9, 1e-3, steps * 1e-3, ny=7)
    assert len(seen) == 1 + math.ceil(steps / block)
    assert [(e["over"], e["invalid"]) for e in seen] == [("raise", "raise")] * len(seen)


def test_unstable_run_raises_nonfinite_with_time():
    # An oversized step on a genuinely nonlinear system overflows quickly.
    # (problem 1 itself cannot be used here: on its invariant manifold u = v
    # the convection terms cancel exactly and the dynamics stays linear.)
    # The driver silences numpy's overflow warnings: the typed error is the
    # only signal, even with warnings turned into errors.
    zero_t = lambda t: 0.0
    prob = Problem1D(eta=1.0, xi=1.0, alpha=1.0, beta=1.0,
                     a=-math.pi, b=math.pi, phi=np.sin, psi=np.cos,
                     g1=zero_t, g2=zero_t, g3=zero_t, g4=zero_t,
                     exact_u=None, exact_v=None, name="blowup")
    with warnings.catch_warnings(), pytest.raises(NonFiniteState) as exc:
        warnings.simplefilter("error")
        solve_1d(prob, 41, 5.0, 150.0)
    assert exc.value.t is not None
    assert 0.0 <= exc.value.t <= 150.0


# ---------------------------------------------------------------------------
# 2D
# ---------------------------------------------------------------------------

def test_2d_zero_horizon_matches_initial_data():
    prob = problem4()
    sol = solve_2d(prob, 9, 1e-3, 0.0)
    np.testing.assert_allclose(sol.u, prob.phi(*sol.grid.coords), atol=1e-15)
    np.testing.assert_allclose(sol.v, prob.psi(*sol.grid.coords), atol=1e-15)


def test_2d_short_run_tracks_exact_solution():
    prob = problem4()
    sol = solve_2d(prob, 11, 1e-3, 0.1)
    err = np.abs(sol.u - prob.exact_u(*sol.grid.coords, sol.t)).max()
    assert err <= 5e-3


def test_2d_rectangular_node_counts():
    prob = problem4()
    sol = solve_2d(prob, 9, 1e-3, 0.01, ny=7)
    assert sol.u.shape == (9, 7)
    assert sol.v.shape == (9, 7)


def test_2d_horizon_guard():
    prob = problem2()
    with pytest.raises(DomainError):
        solve_2d(prob, 9, 1e-3, 0.7)


def test_fractional_node_count_rejected():
    with pytest.raises(DomainError):
        solve_1d(problem1(), 10.5, 1e-3, 1e-2)
    with pytest.raises(DomainError):
        solve_2d(problem4(), 9.5, 1e-3, 1e-2)
    with pytest.raises(DomainError):
        solve_2d(problem4(), 9, 1e-3, 1e-2, ny=7.5)


def test_2d_snapshots():
    prob = problem4()
    sol = solve_2d(prob, 9, 0.01, 0.04, snapshots=(0.02, 0.04))
    assert len(sol.snapshots) == 2
    np.testing.assert_array_equal(sol.snapshots[-1][1], sol.u)


# ---------------------------------------------------------------------------
# trace schedule: one evaluation per block of steps
# ---------------------------------------------------------------------------

def _block(boundary_nodes):
    """Steps per trace block for a grid with this many Dirichlet nodes over
    both fields."""
    return max(1, solvers.TRACE_BUDGET // (5 * boundary_nodes))


def _moved_problem1():
    # problem 1 moved to [-1, 2], so the boundary traces vary in time
    prob = problem1()
    a, b = -1.0, 2.0
    ga = lambda t: prob.exact_u(a, t)
    gb = lambda t: prob.exact_u(b, t)
    return dataclasses.replace(prob, a=a, b=b, g1=ga, g2=gb, g3=ga, g4=gb)


def _counted(prob, calls):
    """``prob`` with each trace named in ``calls`` counting its calls there."""
    def wrap(name):
        f = getattr(prob, name)

        def trace(*args):
            calls[name] += 1
            return f(*args)

        return trace

    return dataclasses.replace(prob, **{name: wrap(name) for name in calls})


def test_solve_1d_calls_each_trace_once_per_block():
    # Each trace is evaluated once at t0, then once per block of steps over
    # the stage and result times of every step in the block.
    block = _block(4)
    steps = 2 * block + 5  # three blocks, the last one partial
    calls = dict.fromkeys(("g1", "g2", "g3", "g4"), 0)
    prob = _counted(problem1(), calls)
    sol = solve_1d(prob, 9, 1e-3, steps * 1e-3)
    assert calls == dict.fromkeys(calls, 1 + math.ceil(steps / block))
    ref = solve_1d(problem1(), 9, 1e-3, steps * 1e-3)
    np.testing.assert_array_equal(sol.u, ref.u)
    np.testing.assert_array_equal(sol.v, ref.v)


def test_solve_2d_calls_each_trace_once_per_block():
    block = _block(2 * (2 * 9 + 2 * 5))  # the 9x7 ring, both fields
    steps = 2 * block + 5
    calls = {"bc_u": 0, "bc_v": 0}
    prob = _counted(problem4(), calls)
    sol = solve_2d(prob, 9, 1e-3, steps * 1e-3, ny=7)
    assert calls == dict.fromkeys(calls, 1 + math.ceil(steps / block))
    ref = solve_2d(problem4(), 9, 1e-3, steps * 1e-3, ny=7)
    np.testing.assert_array_equal(sol.u, ref.u)
    np.testing.assert_array_equal(sol.v, ref.v)


@pytest.mark.parametrize("case", ["p1-moved", "p2", "p4"])
def test_block_schedule_is_bitwise_the_per_step_schedule(case, monkeypatch):
    # Evaluating the traces a block of steps ahead gives the same floats as
    # evaluating them one step at a time (a budget too small for two steps).
    if case == "p1-moved":
        prob, block = _moved_problem1(), _block(4)
        run = lambda **kw: solve_1d(prob, 9, 1e-3, steps * 1e-3, **kw)
    else:
        prob = problem2(re=100.0) if case == "p2" else problem4()
        block = _block(2 * (2 * 9 + 2 * 5))
        run = lambda **kw: solve_2d(prob, 9, 1e-3, steps * 1e-3, ny=7, **kw)
    steps = 2 * block + 7
    marks = (0, block - 1, block, block + 1, 2 * block, steps)
    snaps = [k * 1e-3 for k in marks]
    first_steps = range(1, steps + 1, block)
    seen = {}

    def observer(k, t, u, v):
        if k in first_steps:
            seen[k] = (t, u.copy(), v.copy())

    got = run(snapshots=snaps, observer=observer)
    assert sorted(seen) == list(first_steps)
    for t, u, v in seen.values():
        if u.ndim == 1:
            bu, bv = u[[0, -1]], v[[0, -1]]
            want_u, want_v = (prob.g1(t), prob.g2(t)), (prob.g3(t), prob.g4(t))
        else:
            grid = got.grid
            bu, bv = u[grid.ring], v[grid.ring]
            want_u = prob.bc_u(grid.ring_x, grid.ring_y, t)
            want_v = prob.bc_v(grid.ring_x, grid.ring_y, t)
        np.testing.assert_array_equal(bu, want_u)
        np.testing.assert_array_equal(bv, want_v)

    monkeypatch.setattr(solvers, "TRACE_BUDGET", 1)
    want = run(snapshots=snaps)
    assert got.t == want.t
    np.testing.assert_array_equal(got.u, want.u)
    np.testing.assert_array_equal(got.v, want.v)
    assert len(got.snapshots) == len(marks)
    for (tg, ug, vg), (tw, uw, vw) in zip(got.snapshots, want.snapshots):
        assert tg == tw
        np.testing.assert_array_equal(ug, uw)
        np.testing.assert_array_equal(vg, vw)


@pytest.mark.parametrize("case", ["p4-17", "p1-121"])
def test_solvers_step_bitwise_as_with_the_step_oracle(case, monkeypatch):
    # the buffered step drives a solve to the bits of the expression form
    if case == "p4-17":
        run = lambda: solve_2d(problem4(), 17, 1e-4, 0.004, snapshots=(0.002,))
    else:
        run = lambda: solve_1d(problem1(), 121, 1e-3, 0.04, snapshots=(0.02,))
    got = run()
    monkeypatch.setattr(solvers, "step", step_reference)
    want = run()
    assert got.t == want.t
    assert got.u.tobytes() == want.u.tobytes()
    assert got.v.tobytes() == want.v.tobytes()
    assert len(got.snapshots) == len(want.snapshots) == 1
    for (tg, ug, vg), (tw, uw, vw) in zip(got.snapshots, want.snapshots):
        assert tg == tw
        assert ug.tobytes() == uw.tobytes() and vg.tobytes() == vw.tobytes()


# ---------------------------------------------------------------------------
# driver oracle: the paper's F/G formulation stepped directly
# ---------------------------------------------------------------------------

def _reference_run(u, v, dt, steps, trace_time, dirichlet, split_rhs):
    """SSP-RK54 on a flat (u, v) state; every stage RHS imposes the traces at
    ``trace_time(t_base, t_stage)`` on a copy and evaluates the boundary-split
    RHS."""
    shape, size = u.shape, u.size

    def unpack(w):
        return w[:size].reshape(shape), w[size:].reshape(shape)

    def rhs(w, t):
        uu, vv = (a.copy() for a in unpack(w))
        dirichlet(uu, vv, trace_time(t_base, t))
        return np.concatenate([d.ravel() for d in split_rhs(uu, vv, t)])

    w = np.concatenate([u.ravel(), v.ravel()]).astype(float)
    dirichlet(*unpack(w), 0.0)
    for m in range(steps):
        t_base = m * dt
        w = step(w, t_base, dt, rhs)
        dirichlet(*unpack(w), (m + 1) * dt)
    return unpack(w)


# The solver imposes each stage's traces at the stage's own time; the
# reference runs take them there too.
STAGE_TIMING = pytest.mark.parametrize(
    "trace_time", [pytest.param(lambda t_base, t: t, id="stage")])


def _assert_rel_close(got, want, rtol=1e-12):
    scale = max(np.abs(want[0]).max(), np.abs(want[1]).max())
    assert np.abs(got[0] - want[0]).max() <= rtol * scale
    assert np.abs(got[1] - want[1]).max() <= rtol * scale


def _check_1d_against_reference(trace_time, dt, steps):
    prob = _moved_problem1()
    n = 21
    grid = Grid1D(prob.a, prob.b, n)
    w1 = first_order_weights(grid)
    w2 = second_order_weights(w1, grid)
    want = _reference_run(
        prob.phi(grid.x), prob.psi(grid.x), dt, steps, trace_time,
        lambda u, v, t: apply_dirichlet_1d(u, v, t, prob, grid),
        lambda u, v, t: rhs_1d_split(u, v, t, prob, w1, w2))
    sol = solve_1d(prob, n, dt, steps * dt)
    _assert_rel_close((sol.u, sol.v), want)


@STAGE_TIMING
def test_solve_1d_matches_split_reference(trace_time):
    _check_1d_against_reference(trace_time, 1e-2, 50)  # inside one block


@STAGE_TIMING
def test_solve_1d_matches_split_reference_across_blocks(trace_time):
    # three trace blocks, the last one partial
    _check_1d_against_reference(trace_time, 2e-3, 2 * _block(4) + 82)


@STAGE_TIMING
def test_solve_2d_matches_split_reference(trace_time):
    prob = problem4()
    nx, ny, dt, steps = 9, 7, 1e-3, 50
    assert steps > _block(2 * (2 * nx + 2 * ny - 4))  # crosses a trace block
    grid = Grid2D(Grid1D(prob.a, prob.b, nx), Grid1D(prob.c, prob.d, ny))
    ax1, ax2, by1, by2 = weights_2d(grid)
    want = _reference_run(
        prob.phi(*grid.coords), prob.psi(*grid.coords), dt, steps, trace_time,
        lambda u, v, t: apply_dirichlet_2d(u, v, t, prob, grid),
        lambda u, v, t: rhs_2d_split(u, v, t, prob, ax1, ax2, by1, by2))
    sol = solve_2d(prob, nx, dt, steps * dt, ny=ny)
    _assert_rel_close((sol.u, sol.v), want)
