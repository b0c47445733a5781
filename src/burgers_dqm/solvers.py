"""Time-stepping drivers for the 1D and 2D coupled Burgers' problems.

``solve_1d`` and ``solve_2d`` build the grid, the quadrature weights and the
initial state, then hand one shared driver two closures: ``impose(w, t)``,
which writes the Dirichlet traces at time ``t`` into a stacked ``(2, *shape)``
state, and ``rhs(w, t)``, the full-sum semi-discrete right-hand side.  The
driver advances the state with the five-stage Runge-Kutta step and reimposes
Dirichlet data after every step, so boundary entries track the prescribed
traces exactly.

During stages the boundary entries hold the traces at the step base time
(``boundary_policy='base'``, the default): the right-hand side is zero on
boundary nodes, so every stage keeps them to rounding, and time-varying
traces lag by O(dt).  Under ``'stage'`` each stage imposes the traces at its
own abscissa on the stage state before evaluating the right-hand side.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .burgers_rhs import apply_dirichlet_1d, apply_dirichlet_2d, rhs_1d, rhs_2d
from .dqm_weights import (
    Grid1D,
    Grid2D,
    first_order_weights,
    second_order_weights,
    weights_2d,
)
from .exceptions import ConfigError, DomainError
from .ssprk54 import num_steps, step

BOUNDARY_POLICIES = ("base", "stage")

# Relative slack when matching a requested snapshot time to a step multiple.
SNAP_TOL = 1e-9


@dataclass
class Solution:
    """Final state of a run; 2D fields have shape (nx, ny), first axis x."""

    grid: Grid1D | Grid2D
    t: float
    u: np.ndarray
    v: np.ndarray
    snapshots: list = field(default_factory=list)  # (t, u, v) triples


def _snapshot_steps(snapshots, t0, dt, steps):
    """Map requested snapshot times to step indices, validating alignment."""
    table = {}
    for s in snapshots:
        s = float(s)
        if not math.isfinite(s):
            raise ConfigError("snapshot time %r is not finite" % s)
        k = int(round((s - t0) / dt))
        if abs(t0 + k * dt - s) > SNAP_TOL * max(dt, abs(s), 1e-300):
            raise ConfigError(
                "snapshot time %r is not a multiple of dt=%r" % (s, dt)
            )
        if k < 0 or k > steps:
            raise ConfigError(
                "snapshot time %r outside [%r, %r]" % (s, t0, t0 + steps * dt)
            )
        table[k] = s
    return table


def _drive(u0, v0, shape, impose, rhs, dt, t_end, t0, boundary_policy,
           snapshots, observer):
    """Integrate the stacked state from t0 to t_end; returns (t, u, v, snaps).

    ``observer(step_index, t, u, v)`` is called after every step, once the
    Dirichlet data are reimposed, with read-only views of the solver state;
    copy them to keep them past the call.

    Each step runs with numpy's overflow and invalid-value warnings
    silenced: a blow-up ends in ``NonFiniteState``, which carries the time
    and stage, and the warnings on the way there are noise.  ``impose``
    after the step and the observer keep the caller's floating-point
    settings.
    """
    if boundary_policy not in BOUNDARY_POLICIES:
        raise ConfigError(
            "boundary_policy must be one of %s, got %r"
            % (BOUNDARY_POLICIES, boundary_policy)
        )
    steps = num_steps(t0, t_end, dt)
    snap_at = _snapshot_steps(snapshots, t0, dt, steps)

    w = np.array([np.broadcast_to(u0, shape), np.broadcast_to(v0, shape)],
                 dtype=float)
    impose(w, t0)
    collected = []
    if 0 in snap_at:
        collected.append((snap_at[0], w[0].copy(), w[1].copy()))

    if boundary_policy == "stage":
        # The traces are written into the stage state itself: stages 2-5
        # are fresh arrays inside ``step``, stage 1's is ``w``, which already
        # holds them at that time, and the RK combinations are elementwise,
        # so interior entries and the reimposed result do not change.
        def stage_rhs(x, t):
            impose(x, t)
            return rhs(x, t)
    else:
        stage_rhs = rhs

    for m in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            w = step(w, t0 + m * dt, dt, stage_rhs)
        t_new = t0 + (m + 1) * dt
        impose(w, t_new)
        if observer is not None:
            ro = w.view()
            ro.flags.writeable = False
            observer(m + 1, t_new, ro[0], ro[1])
        if m + 1 in snap_at:
            collected.append((snap_at[m + 1], w[0].copy(), w[1].copy()))

    return t0 + steps * dt, w[0].copy(), w[1].copy(), collected


def solve_1d(prob, n, dt, t_end, t0=0.0, boundary_policy="base",
             snapshots=(), observer=None):
    """Integrate a 1D problem to ``t_end`` on an ``n``-node uniform grid.

    ``snapshots`` is an iterable of output times (each must be a step
    multiple); the state at those times is collected on the returned
    ``Solution``.  ``observer(step_index, t, u, v)`` is called after every
    step with read-only views of the state, Dirichlet data already applied.
    """
    grid = Grid1D(prob.a, prob.b, n)
    w1 = first_order_weights(grid)
    w2 = second_order_weights(w1, grid)

    def impose(w, t):
        apply_dirichlet_1d(w[0], w[1], t, prob, grid)

    def rhs(w, t):
        return rhs_1d(w, t, prob, w1, w2)

    return Solution(grid, *_drive(
        prob.phi(grid.x), prob.psi(grid.x), (n,), impose, rhs, dt, t_end, t0,
        boundary_policy, snapshots, observer))


def solve_2d(prob, nx, dt, t_end, ny=None, t0=0.0, boundary_policy="base",
             snapshots=(), observer=None):
    """Integrate a 2D problem to ``t_end`` on an nx-by-ny node grid.

    ``ny`` defaults to ``nx``.  Snapshot and observer semantics match
    ``solve_1d``; fields are returned with shape (nx, ny), first axis x.
    """
    if ny is None:
        ny = nx
    if prob.horizon is not None and t_end > prob.horizon + 1e-12:
        raise DomainError(
            "t_end=%r beyond problem horizon %r" % (t_end, prob.horizon)
        )
    grid = Grid2D(Grid1D(prob.a, prob.b, nx), Grid1D(prob.c, prob.d, ny))
    ax1, ax2, by1, by2 = weights_2d(grid)

    def impose(w, t):
        apply_dirichlet_2d(w[0], w[1], t, prob, grid)

    def rhs(w, t):
        return rhs_2d(w, t, prob, ax1, ax2, by1, by2)

    xc = grid.xgrid.x[:, None]
    yc = grid.ygrid.x[None, :]
    return Solution(grid, *_drive(
        prob.phi(xc, yc), prob.psi(xc, yc), (nx, ny), impose, rhs, dt, t_end,
        t0, boundary_policy, snapshots, observer))
