"""Five-stage, fourth-order strong-stability-preserving Runge-Kutta stepper.

The scheme is Spiteri & Ruuth's optimal SSP-RK54, published in Shu-Osher
form: each stage is a convex combination of previous stages and
forward-Euler substeps, which is what gives the scheme its strong-stability
property.  Ten of the eleven coefficients are kept at full published
precision; C2 is computed as ``1 - C3 - C4``, as the published
C2 + C3 + C4 is 1 + 1e-15.

Those coefficients only derive, at import, the stage abscissae and the
increment (Butcher) table by which ``_stacked_stepper`` runs the scheme:
stage state k is ``u + dt * sum_j INCREMENTS[k - 1, j] * L_j``, where L_j
is the right-hand side at stage state j (stage state 0 is u), and row 4
gives the result.  The coefficient on u is exactly 1, so a zero
right-hand side leaves the state unchanged and the roundings of u's
multiples do not pile up over a run.  The solvers hold one stepper for a
whole run, ``step`` builds one per call, and ``amplification`` evaluates
the stability polynomial whose coefficients the table gives.
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
C3 = 0.096059710526147
D3 = 0.063692468666290
C4 = 0.386708617503269
D4 = 0.226007483236906
C2 = 1.0 - C3 - C4  # published as 0.517231671970585

# effective stage abscissae (fraction of dt at which each L argument lives),
# derived from the combination weights
_C1 = 0.0
_C2 = B10
_C3 = A21 * _C2 + B21
_C4 = A32 * _C3 + B32
_C5 = A43 * _C4 + B43
ABSCISSAE = (_C1, _C2, _C3, _C4, _C5)


def _increments():
    """Row k - 1: stage state k's weights on L(u), L(u1), ..., L(u4); row 4:
    the result's.  Each Shu-Osher stage is substituted into the next one."""
    a = np.zeros((5, 5))
    a[0, 0] = B10
    for k, (ak, bk) in enumerate(((A21, B21), (A32, B32), (A43, B43)), 1):
        a[k] = ak * a[k - 1]
        a[k, k] = bk
    a[4] = C2 * a[1] + C3 * a[2] + C4 * a[3]
    a[4, 3] += D3
    a[4, 4] = D4
    a.flags.writeable = False
    return a


INCREMENTS = _increments()


def _taylor():
    """R(z)'s coefficients on z^0..z^5: 1, then b A^(j-1) 1 for j = 1..5, with
    b row 4 of ``INCREMENTS`` and A its rows 0-3 below a zero row for u."""
    a, v, coeffs = np.vstack((np.zeros(5), INCREMENTS[:4])), np.ones(5), [1.0]
    for _ in range(5):
        coeffs.append(float(INCREMENTS[4] @ v))
        v = a @ v
    return tuple(coeffs)


_TAYLOR = _taylor()


def _check(u, t, stage):
    if not np.all(np.isfinite(u)):
        raise NonFiniteState(
            f"non-finite state after stage {stage} at t={t!r}", t=t, stage=stage
        )


def _check_result(out, t, stages):
    """Raise ``NonFiniteState`` naming the first non-finite of ``stages``
    (stages 1-4, then the result ``out``) if ``out`` is not finite."""
    # a finite sum proves every entry finite; only a non-finite sum (which
    # may be an overflow of finite entries) needs the entrywise check
    if not cmath.isfinite(np.add.reduce(out, None)) \
            and not np.isfinite(out).all():
        for stage, uk in enumerate((*stages, out), start=1):
            _check(uk, t, stage)


def step(u, t, dt, rhs):
    """Advance u from t to t + dt with one SSP-RK54 step.

    rhs(u, t) returns du/dt, broadcastable to u's shape, and is evaluated at
    each stage's abscissa ``t + ABSCISSAE[k-1] * dt``.  The step is one
    ``advance`` of a ``_stacked_stepper`` built for the call, in the dtype
    of the expression form's first stage ``u + (B10 * dt) * rhs(u, t)`` (an
    integer u gives a float result; a Python scalar from rhs is weakly
    typed), to which later right-hand sides must cast by same-kind casting.
    A 0-d u gives a numpy scalar.  Neither u nor an array rhs returns is
    written, and rhs may return one array, overwritten at every call.  rhs
    is handed u, which it must not write, then the step's own stage states;
    a write to one of those reaches only that call's right-hand side, as
    each stage state is built from u and the right-hand sides alone.  A
    non-finite result raises ``NonFiniteState`` naming ``t`` and the first
    non-finite stage (1-5).
    """
    u = np.asarray(u)
    l0 = rhs(u, t)
    dtype = np.result_type(u, (B10 * dt) * l0)
    state, advance = _stacked_stepper(np.asarray(u, dtype), dt)

    def stage(k, x, s, row):
        np.copyto(row, rhs(x, s) if k else l0, casting="same_kind")

    # a copy, so that the result does not keep the stepper's stacks alive
    return advance(state, t, stage).copy()[()]


def _stacked_stepper(u, dt):
    """The solvers' step: SSP-RK54 in increment form, on stacks held for a
    whole run at one dt.  Returns ``(state, advance)``.

    ``state`` is a copy of the array u, in u's dtype.  It is row 0 of one
    of two stacks of shape ``(6, *u.shape)``, whose rows 1-5 take the
    right-hand sides L0..L4 of a step from that row.  ``advance(w, t,
    stage)`` steps w, which must be ``state`` or a result of ``advance``,
    from t to t + dt and returns the result: row 0 of the other stack, so
    that results alternate between two arrays and w is not written.  For
    k = 0..4 it calls ``stage(k, x, t_k, row)``, which must write the
    right-hand side of x at ``t_k = t + ABSCISSAE[k] * dt`` into ``row``,
    the stack row of L_k; x is w for k = 0, which ``stage`` must not write,
    and then one of four held stage-state arrays, which it may write (the
    solvers write each stage's traces there).  Stage state k + 1, or the
    result after k = 4, is then one ``np.dot`` of its coefficient row over
    rows 0..k + 1 of the stack.  The stacks, the stage states and the
    dt-scaled ``[1 | INCREMENTS]`` table are made here, once; a stack's
    plan, every view a step from it uses (its coefficient rows among them),
    is made once too, by the first ``advance`` from that stack, so that a
    one-shot ``step`` builds only the plan it runs.

    Only the result is checked for finiteness: each L_k enters it with a
    nonzero weight.  When it is non-finite, ``NonFiniteState`` names t and
    the first non-finite stage state (1-5).
    """
    stacks = np.empty((2, 6) + u.shape, u.dtype)
    stacks[0, 0] = u
    stages = np.empty((4,) + u.shape, u.dtype)
    flat = stacks.reshape(2, 6, -1)
    offsets = [c * dt for c in ABSCISSAE]
    coeffs = np.ones((5, 6), u.dtype)
    coeffs[:, 1:] = dt * INCREMENTS
    # ``...`` keeps a 0-d state's rows views rather than scalars
    heads = (stacks[0, 0, ...], stacks[1, 0, ...])
    states = [stages[k, ...] for k in range(4)]
    plans = dict.fromkeys(map(id, heads))  # built by a stack's first step

    def build(s):
        xs = (heads[s], *states)
        targets = (*stages.reshape(4, -1), flat[1 - s, 0])
        return heads[1 - s], tuple(
            (k, xs[k], stacks[s, k + 1, ...], offsets[k], coeffs[k, :k + 2],
             flat[s, :k + 2], targets[k]) for k in range(5))

    def advance(w, t, stage):
        entry = plans[id(w)]
        if entry is None:
            entry = plans[id(w)] = build(int(w is heads[1]))
        result, plan = entry
        for k, x, row, offset, c, prefix, target in plan:
            stage(k, x, t + offset, row)
            np.dot(c, prefix, out=target)
        _check_result(result, t, stages)
        return result

    return heads[0], advance


def num_steps(t0, t_end, dt):
    """Step count from t0 to t_end or a snapshot time; dt must divide it."""
    if not all(math.isfinite(x) for x in (t0, t_end, dt)):
        raise ConfigError(
            f"t0={t0!r}, time {t_end!r} and dt={dt!r} must all be finite")
    if dt <= 0.0:
        raise ConfigError(f"dt must be positive, got {dt!r}")
    if t_end < t0:
        raise ConfigError(f"time {t_end!r} precedes t0={t0!r}")
    steps = round((t_end - t0) / dt)
    if abs(t0 + steps * dt - t_end) > 1e-9 * dt:
        raise ConfigError(f"dt={dt!r} does not divide [{t0!r}, {t_end!r}]")
    return steps


def amplification(z):
    """Stability function R(z) of the scheme, elementwise over complex z.

    R is the degree-5 polynomial that one step of u' = z*u makes of u = 1
    with dt = 1; the region of absolute stability is {z : |R(z)| <= 1}.  It
    is evaluated by Horner's rule on the coefficients derived from
    ``INCREMENTS``.  A scalar z gives a Python complex, an array z an array
    of its shape; a z whose R(z) is not finite raises ``NonFiniteState``.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _TAYLOR[5]
        for c in _TAYLOR[4::-1]:
            r = r * z + c
    if not np.isfinite(r).all():
        raise NonFiniteState("R(z) is not finite")
    return complex(r) if np.ndim(r) == 0 else r
