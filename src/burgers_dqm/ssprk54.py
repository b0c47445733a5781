"""Five-stage, fourth-order strong-stability-preserving Runge-Kutta stepper.

Each stage is a convex combination of previous stages and forward-Euler
substeps, which is what gives the scheme its strong-stability property.
The eleven coefficients are kept at full published precision.

One private routine, ``_step_into``, does the arithmetic: it writes every
stage into buffers the caller supplies.  ``step`` lets it allocate them
for the one call; the solvers hand it buffers held for a whole solve.
"""

import cmath
import math

import numpy as np

from .exceptions import ConfigError, NonFiniteState

# stage 1: u1 = u + B10 dt L(u)
B10 = 0.391752226571890
# stage 2: u2 = A20 u + A21 u1 + B21 dt L(u1)
A20 = 0.444370493651235
A21 = 0.555629506348765
B21 = 0.368410593050371
# stage 3: u3 = A30 u + A32 u2 + B32 dt L(u2)
A30 = 0.620101851488403
A32 = 0.379898148511597
B32 = 0.251891774271694
# stage 4: u4 = A40 u + A43 u3 + B43 dt L(u3)
A40 = 0.178079954393132
A43 = 0.821920045606868
B43 = 0.544974750228521
# final: u+ = C2 u2 + C3 u3 + D3 dt L(u3) + C4 u4 + D4 dt L(u4)
C2 = 0.517231671970585
C3 = 0.096059710526147
D3 = 0.063692468666290
C4 = 0.386708617503269
D4 = 0.226007483236906

# effective stage abscissae (fraction of dt at which each L argument lives),
# derived from the combination weights
_C1 = 0.0
_C2 = B10
_C3 = A21 * _C2 + B21
_C4 = A32 * _C3 + B32
_C5 = A43 * _C4 + B43
ABSCISSAE = (_C1, _C2, _C3, _C4, _C5)


def _check(u, t, stage):
    if not np.all(np.isfinite(u)):
        raise NonFiniteState(
            f"non-finite state after stage {stage} at t={t!r}", t=t, stage=stage
        )


def step(u, t, dt, rhs):
    """Advance u from t to t + dt with one SSP-RK54 step.

    rhs(u, t) returns du/dt.  Stage k evaluates rhs at its abscissa
    ``t + ABSCISSAE[k-1] * dt``, so a time-dependent rhs is integrated to
    fourth order.

    Each stage is the convex combination above, its terms multiplied and
    added in left-to-right order; after the first stage every product and
    sum is written into buffers of the first stage's dtype (so an integer u
    gives a float result), one per stage state and one shared temporary,
    allocated for this call.  rhs must return that dtype, or one that casts
    to it, at every stage.  Neither u nor an array that rhs returns is
    written to; a 0-d u gives a numpy scalar.  rhs receives the step's own
    stage buffers and may write to its argument (the solvers write each
    stage's traces there).

    Only the result is checked for finiteness: every stage enters it with a
    nonzero weight, so a non-finite stage always reaches it.  When the
    result is non-finite, ``NonFiniteState`` names the base time ``t`` and
    the first stage (1-5) whose state is non-finite.
    """
    return _step_into(np.asarray(u), t, dt, rhs)[()]


def _step_into(u, t, dt, rhs, bufs=None):
    """``step`` on an array u, every stage written into ``bufs``.

    ``bufs`` is ``(u1, u2, u3, u4, tmp, out)``: the four stage states, the
    shared temporary and the result, arrays of u's shape that are not u and
    hold a dtype every stage casts to; the result is returned in ``out``.
    With ``bufs=None``, stage 1 allocates u1 and fixes the dtype of the
    other five, as ``step`` does.

    rhs may return the same array at every call, overwritten by the next
    call: each result is used up before rhs is called again (``l3`` enters
    both u4 and the result before ``rhs(u4)`` runs).
    """
    ts = [t + c * dt for c in ABSCISSAE]
    mul, add = np.multiply, np.add
    u1, u2, u3, u4, tmp, out = bufs or (None,) * 6

    # without buffers the first product is the operator's, so that a Python
    # scalar from rhs stays weakly typed, as in ``u + B10 * dt * l1``
    l1 = rhs(u, ts[0])
    l1 = (B10 * dt) * l1 if tmp is None else mul(B10 * dt, l1, tmp)
    u1 = add(u, l1, u1)
    if out is None:
        u2, u3, u4, tmp, out = (np.empty_like(u1) for _ in range(5))
    mul(A20, u, u2)
    add(u2, mul(A21, u1, tmp), u2)
    add(u2, mul(B21 * dt, rhs(u1, ts[1]), tmp), u2)
    mul(A30, u, u3)
    add(u3, mul(A32, u2, tmp), u3)
    add(u3, mul(B32 * dt, rhs(u2, ts[2]), tmp), u3)
    l3 = rhs(u3, ts[3])
    mul(A40, u, u4)
    add(u4, mul(A43, u3, tmp), u4)
    add(u4, mul(B43 * dt, l3, tmp), u4)
    mul(C2, u2, out)
    add(out, mul(C3, u3, tmp), out)
    add(out, mul(D3 * dt, l3, tmp), out)
    add(out, mul(C4, u4, tmp), out)
    add(out, mul(D4 * dt, rhs(u4, ts[4]), tmp), out)

    # a finite sum proves every entry finite; only a non-finite sum (which
    # may be an overflow of finite entries) needs the entrywise check
    if not cmath.isfinite(np.add.reduce(out, None)) \
            and not np.isfinite(out).all():
        for stage, uk in enumerate((u1, u2, u3, u4, out), start=1):
            _check(uk, t, stage)
    return out


def num_steps(t0, t_end, dt):
    """Step count for a fixed-dt integration; dt must divide the interval."""
    if not all(math.isfinite(x) for x in (t0, t_end, dt)):
        raise ConfigError(
            f"t0={t0!r}, t_end={t_end!r} and dt={dt!r} must all be finite")
    if dt <= 0.0:
        raise ConfigError(f"dt must be positive, got {dt!r}")
    if t_end < t0:
        raise ConfigError(f"t_end={t_end!r} precedes t0={t0!r}")
    steps = round((t_end - t0) / dt)
    if abs(t0 + steps * dt - t_end) > 1e-9 * dt:
        raise ConfigError(f"dt={dt!r} does not divide [{t0!r}, {t_end!r}]")
    return steps


def amplification(z):
    """Stability function R(z) of the scheme, elementwise over complex z.

    R is the degree-5 polynomial that one ``step`` of u' = z*u makes of
    u = 1 with dt = 1; the region of absolute stability is {z : |R(z)| <= 1}.
    A scalar z gives a Python complex, an array z an array of its shape; a
    z whose R(z) is not finite raises ``NonFiniteState``, as ``step`` does.
    """
    z = np.asarray(z, dtype=complex)
    r = step(np.ones_like(z), 0.0, 1.0, lambda u, t: z * u)
    if np.ndim(r) == 0:
        return complex(r)
    return r
