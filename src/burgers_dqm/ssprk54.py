"""Five-stage, fourth-order strong-stability-preserving Runge-Kutta stepper.

The scheme is Spiteri & Ruuth's optimal SSP-RK54, published in Shu-Osher
form: each stage is a convex combination of previous stages and
forward-Euler substeps, which is what gives the scheme its strong-stability
property.  Ten of the eleven coefficients are kept at full published
precision; C2 is computed as ``1 - C3 - C4``, as the published
C2 + C3 + C4 is 1 + 1e-15.

Those coefficients only derive, at import, the increment (Butcher) table
by which ``_stacked_stepper`` runs the scheme: stage state k is
``u + dt * sum_j INCREMENTS[k - 1, j] * L_j``, where L_j is the right-hand
side at stage state j (stage state 0 is u), and row 4 gives the result.
The stage abscissae are the sums of rows 0-3 (Butcher's c = A 1).  The
coefficient on u is exactly 1, so a zero right-hand side leaves the state
unchanged and the roundings of u's multiples do not pile up over a run.
The solvers hold one stepper for a whole run, ``step`` builds one per call,
and ``amplification`` evaluates the stability polynomial whose coefficients
the table gives.
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

# stage abscissae (fraction of dt at which each L argument lives)
ABSCISSAE = (0.0, *INCREMENTS[:4].sum(axis=1).tolist())


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


def _check_result(flat, ones, t, stages):
    """Raise ``NonFiniteState`` naming the first non-finite of ``stages``
    (stages 1-4, then the result, whose entries the 1D ``flat`` holds) if
    ``flat`` is not finite; ``ones`` is a vector of ones of its size."""
    # a finite sum of the entries, ``ones @ flat``, proves every entry
    # finite; only a non-finite sum (which may be an overflow of finite
    # entries) needs the entrywise check
    if not cmath.isfinite(np.dot(ones, flat)) and not np.isfinite(flat).all():
        for stage, uk in enumerate((*stages, flat), start=1):
            _check(uk, t, stage)


# ``step`` pins no entries
_NO_NODES, _NO_PINS = np.empty(0, np.intp), np.empty((5, 0))


def step(u, t, dt, rhs):
    """Advance u from t to t + dt with one SSP-RK54 step.

    The result has the dtype of the expression form's first stage ``u +
    (B10 * dt) * rhs(u, t)`` (an integer u gives a float result; a Python
    scalar from rhs is weakly typed).  rhs(u, t) returns du/dt,
    broadcastable to u's shape; stage k evaluates it at ``t + ABSCISSAE[k]
    * dt`` (stage 0 reuses that first call), and each result must cast by
    same-kind casting.  A 0-d u gives a numpy scalar.  Neither u nor an
    array rhs returns is written, and rhs may return one array, overwritten
    at every call.  rhs is handed u, which it must not write, then the
    step's own stage states; a write to one of those reaches only that
    call's right-hand side, as each stage state is built from u and the
    right-hand sides alone.  A non-finite result raises ``NonFiniteState``
    naming ``t`` and the first non-finite stage (1-5).
    """
    u = np.asarray(u)
    l0 = rhs(u, t)
    dtype = np.result_type(u, (B10 * dt) * l0)

    def prepare(k, x):
        tk = t + ABSCISSAE[k] * dt
        return lambda row: np.copyto(row, rhs(x, tk) if k else l0,
                                     casting="same_kind")

    state, advance = _stacked_stepper(np.asarray(u, dtype), dt, prepare,
                                      _NO_NODES)
    # a copy, so that the result does not keep the stepper's stacks alive
    return advance(state, t, _NO_PINS).copy()[()]


def _stacked_stepper(u, dt, prepare, nodes):
    """The solvers' step: SSP-RK54 in increment form, on stacks held for a
    whole run at one dt.  Returns ``(state, advance)``.

    ``state`` is a copy of the array u, in u's dtype.  It is row 0 of one
    of two stacks of shape ``(6, *u.shape)``, whose rows 1-5 take the
    right-hand sides L0..L4 of a step from that row.  As it makes the six
    arrays a step evaluates, the two heads and four stage states, the
    stepper calls ``prepare(k, x)`` once for each (k is 0 for a head and k
    for stage state k), which returns ``rhs(row)``: it writes the
    right-hand side of x's entries at the time of the call into ``row``,
    and may write a stage state, never a head.

    ``advance(w, t, pinned)`` steps w, which must be ``state`` or the
    result of an ``advance``, and returns the result: the other head, so
    results alternate between two arrays and w is not written; t only
    names a failure.  For each k = 0..4, the ``rhs`` of w or of stage state
    k writes L_k into its stack row, and stage state k + 1, or the result,
    is one ``np.dot`` of its coefficient row over rows 0..k + 1.  ``nodes``
    are the flat (C-order) indices of the pinned entries, such as the
    Dirichlet nodes, and ``pinned`` a (5, nodes.size) array of their
    values: stage state k + 1 takes row k right after its product, so
    before its ``rhs`` runs, and the result takes row 4 after the
    finiteness check.  An ``rhs`` may thus leave any finite values on the
    pinned entries of its row: stages combine pointwise, so these reach
    only pinned entries, which are overwritten.  The stacks, the stage
    states, the dt-scaled ``[1 | INCREMENTS]`` table, a vector of ones of
    the state's size and both stacks' plans (every view and ``rhs`` a step
    uses) are made here, once.

    Only the result is checked for finiteness: each L_k enters it with a
    nonzero weight.  The check is one ``np.dot`` of the ones with the
    result's flat view, the sum of the result's entries: a finite sum
    proves every entry finite, and only a non-finite one (which may be an
    overflow of finite entries) leads to the entrywise check.  When the
    result is non-finite, ``NonFiniteState`` names t and the first
    non-finite stage state (1-5).
    """
    stacks = np.empty((2, 6) + u.shape, u.dtype)
    stacks[0, 0] = u
    stages = np.empty((4,) + u.shape, u.dtype)
    flat = stacks.reshape(2, 6, -1)
    sflat = stages.reshape(4, -1)
    coeffs = np.ones((5, 6), u.dtype)
    coeffs[:, 1:] = dt * INCREMENTS
    ones = np.ones(u.size, u.dtype)
    # ``...`` keeps a 0-d state's rows views rather than scalars
    heads = (stacks[0, 0, ...], stacks[1, 0, ...])
    staged = [prepare(k + 1, stages[k, ...]) for k in range(4)]

    def build(s):
        fs = (prepare(0, heads[s]), *staged)
        targets = (*sflat, flat[1 - s, 0])
        return (heads[1 - s], targets[4]), tuple(
            (fs[k], stacks[s, k + 1, ...], coeffs[k, :k + 2],
             flat[s, :k + 2], targets[k], k) for k in range(5))

    plans = {id(heads[s]): build(s) for s in (0, 1)}

    def advance(w, t, pinned):
        (result, rflat), plan = plans[id(w)]
        for f, row, c, prefix, target, k in plan:
            f(row)
            np.dot(c, prefix, out=target)
            if k < 4:
                target[nodes] = pinned[k]
        _check_result(rflat, ones, t, stages)
        rflat[nodes] = pinned[4]
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
    steps = (t_end - t0) / dt
    if not math.isfinite(steps):
        raise ConfigError(f"dt={dt!r} gives an infinite step count over "
                          f"[{t0!r}, {t_end!r}]")
    steps = round(steps)
    # within 1e-9 of dt, or of the times where they are smaller, so that a
    # dt far beyond the span cannot round a positive span to no step
    scale = min(dt, max(abs(t0), abs(t_end)))
    if abs(t0 + steps * dt - t_end) > 1e-9 * scale:
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
