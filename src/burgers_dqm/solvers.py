"""Time-stepping drivers for the 1D and 2D coupled Burgers' problems.

``_solve``, the one dimension dispatch of ``solve_1d``, ``solve_2d`` and
the command line, builds the grid, reads its quadrature weights from the
per-process memo of ``dqm_weights``, then hands one shared driver the
problem, the grid, ``apply_dirichlet_1d`` or ``_2d``, which write the
Dirichlet traces at a column of times into rows of boundary values, and the
preparer ``at(w)`` that ``burgers_rhs._bind_1d`` or ``_bind_2d`` binds for
the solve.  The driver starts from the initial fields on the grid's
``coords`` and advances the state with the five-stage Runge-Kutta step
(``ssprk54._stacked_stepper``), also held for the solve, which pins the
Dirichlet nodes of every stage state and result to the traces the driver
hands it.  Time enters only through the traces, each stage state's at its
own time, so time-varying traces keep the scheme's fourth order.  Every
time a run needs traces at is known before its first step, so each
field's traces are evaluated once per block of steps, over a ``(steps, 5,
1)`` array of the block's stage and result times: they receive an array
``t`` and must broadcast over it (a scalar return is allowed).  ``t_end``
and each snapshot meet ``num_steps``' rule.
"""

from dataclasses import dataclass, field

import numpy as np

from .burgers_rhs import (Problem2D, _bind_1d, _bind_2d, apply_dirichlet_1d,
                          apply_dirichlet_2d)
from .dqm_weights import Grid1D, Grid2D, _grid_weights, weights_2d
from .exceptions import ConfigError, DomainError
from .ssprk54 import ABSCISSAE, _stacked_stepper, num_steps

# Fractions of dt at which a step needs traces: stages 2-5, then the result.
_TRACE_OFFSETS = np.array(ABSCISSAE[1:] + (1.0,))[:, None]

# Trace values evaluated per ``impose`` call; a block holds as many steps as
# fit, so small grids share one call among many steps while large grids
# keep the call's temporaries in cache.
TRACE_BUDGET = 8192


@dataclass
class Solution:
    """Final state of a run; 2D fields have shape (nx, ny), first axis x."""

    grid: Grid1D | Grid2D
    t: float
    u: np.ndarray
    v: np.ndarray
    snapshots: list = field(default_factory=list)  # (t, u, v) triples


def _snapshot_steps(snapshots, t0, dt, steps):
    """Map requested snapshot times to step indices, validating alignment;
    equal times collapse, distinct times on one step raise ``ConfigError``."""
    table = {}
    for s in snapshots:
        k = num_steps(t0, s, dt)
        if k > steps:
            raise ConfigError(
                "snapshot time %r outside [%r, %r]" % (s, t0, t0 + steps * dt)
            )
        s = float(s)
        if table.setdefault(k, s) != s:
            raise ConfigError(
                "snapshot times %r and %r fall on one step" % (table[k], s))
    return table


def _drive(prob, grid, impose, at, dt, t_end, t0, snapshots, observer):
    """Integrate the stacked state from t0 to t_end; returns (t, u, v, snaps).

    The state starts as ``prob.phi``/``prob.psi`` on ``grid.coords``, and
    ``grid.ring`` masks a field's Dirichlet nodes.  ``impose(u, v, t, prob,
    grid)`` fills two fields, or (..., b) rows of the masked values for an
    array t of times with a trailing axis of 1.  ``at(x)`` prepares each
    array x of the stepper, whatever its stage, and the stepper pins the
    masked nodes to the running step's traces.

    The traces are evaluated one block of steps ahead: one ``impose`` call
    covers the stage and result times of up to ``TRACE_BUDGET // (5 *
    boundary nodes)`` steps, and the last block stops at t_end.  A trace
    that raises therefore raises before the observer sees the earlier steps
    of its block.

    ``observer(step_index, t, u, v)`` is called after every step, once the
    Dirichlet data are reimposed, with read-only views of the solver state;
    their memory is overwritten two steps later, so copy them to keep them
    past the call.  Snapshots and the returned fields are copies.

    The steps of a block run in one region with numpy's overflow and
    invalid-value warnings silenced: a blow-up ends in ``NonFiniteState``,
    which carries the time and stage, and the warnings on the way there are
    noise.  The block's trace evaluation runs before that region, and each
    observer call runs under the floating-point settings in force when
    ``_drive`` was entered, so both keep the caller's settings.
    """
    steps = num_steps(t0, t_end, dt)
    snap_at = _snapshot_steps(snapshots, t0, dt, steps)

    # flat[j, i]: both fields' traces at step j's i-th time, in ``nodes`` order
    nodes = np.flatnonzero(np.array((grid.ring, grid.ring)))
    block = max(1, TRACE_BUDGET // (len(_TRACE_OFFSETS) * nodes.size))
    rows = np.empty((block, len(_TRACE_OFFSETS), 2, nodes.size // 2))
    flat = rows.reshape(block, len(_TRACE_OFFSETS), -1)
    offsets = dt * _TRACE_OFFSETS

    w = np.array([np.broadcast_to(prob.phi(*grid.coords), grid.ring.shape),
                  np.broadcast_to(prob.psi(*grid.coords), grid.ring.shape)],
                 dtype=float)
    impose(w[0], w[1], t0, prob, grid)

    w, advance = _stacked_stepper(w, dt, lambda k, x: at(x), nodes)
    collected = []
    if 0 in snap_at:
        collected.append((snap_at[0], w[0].copy(), w[1].copy()))

    caller = np.geterr()
    for first in range(0, steps, block):
        size = min(block, steps - first)
        base = t0 + np.arange(first, first + size + 1) * dt
        times = base[:-1, None, None] + offsets
        times[:, -1, 0] = base[1:]  # exactly the time the next step starts from
        impose(rows[:size, :, 0], rows[:size, :, 1], times, prob, grid)
        base = base.tolist()

        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(size):
                k = first + j + 1
                w = advance(w, base[j], flat[j])
                if observer is not None:
                    ro = w.view()
                    ro.flags.writeable = False
                    with np.errstate(**caller):
                        observer(k, base[j + 1], ro[0], ro[1])
                if k in snap_at:
                    collected.append((snap_at[k], w[0].copy(), w[1].copy()))

    return t0 + steps * dt, w[0].copy(), w[1].copy(), collected


def _solve(prob, nx, dt, t_end, ny=None, t0=0.0, snapshots=(),
           observer=None):
    """Integrate a problem of either dimension; returns its ``Solution``.

    A ``Problem2D`` runs on an nx-by-ny grid (``ny`` defaults to ``nx``),
    any other problem on an nx-node line.  The Dirichlet writers are looked
    up at call time, so a caller that rebinds them is seen.
    """
    if isinstance(prob, Problem2D):
        if prob.horizon is not None and t_end > prob.horizon + 1e-12:
            raise DomainError(
                "t_end=%r beyond problem horizon %r" % (t_end, prob.horizon)
            )
        grid = Grid2D(Grid1D(prob.a, prob.b, nx),
                      Grid1D(prob.c, prob.d, nx if ny is None else ny))
        impose = apply_dirichlet_2d
        at = _bind_2d(prob, *weights_2d(grid), float)
    elif ny is not None:
        raise ConfigError("ny applies to the 2D problems only")
    else:
        grid = Grid1D(prob.a, prob.b, nx)
        weights = _grid_weights(grid)
        impose = apply_dirichlet_1d
        at = _bind_1d(prob, weights.w1, weights.w2, float)
    return Solution(grid, *_drive(prob, grid, impose, at, dt, t_end, t0,
                                  snapshots, observer))


def solve_1d(prob, n, dt, t_end, t0=0.0, snapshots=(), observer=None):
    """Integrate a 1D problem to ``t_end`` on an ``n``-node uniform grid.

    ``snapshots`` is an iterable of output times, each on the step grid by
    the rule ``t_end`` obeys; the state at those times is collected on the
    returned ``Solution``.  ``observer(step_index, t, u, v)`` is called after
    every step with read-only views of the state, Dirichlet data applied.
    """
    if isinstance(prob, Problem2D):
        raise ConfigError("solve_1d takes a 1D problem; use solve_2d")
    return _solve(prob, n, dt, t_end, t0=t0, snapshots=snapshots,
                  observer=observer)


def solve_2d(prob, nx, dt, t_end, ny=None, t0=0.0, snapshots=(),
             observer=None):
    """Integrate a 2D problem to ``t_end`` on an nx-by-ny node grid.

    ``ny`` defaults to ``nx``.  Snapshot and observer semantics match
    ``solve_1d``; fields are returned with shape (nx, ny), first axis x.
    """
    if not isinstance(prob, Problem2D):
        raise ConfigError("solve_2d takes a 2D problem; use solve_1d")
    return _solve(prob, nx, dt, t_end, ny, t0, snapshots, observer)
