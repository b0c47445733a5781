"""Tests for the five-stage fourth-order strong-stability-preserving scheme."""

import cmath
import math

import numpy as np
import pytest

from burgers_dqm import ssprk54
from burgers_dqm import step
from burgers_dqm.exceptions import ConfigError, NonFiniteState
from burgers_dqm.ssprk54 import amplification, num_steps
from oracles import step_reference


# ---------------------------------------------------------------------------
# coefficient identities
# ---------------------------------------------------------------------------

def test_stage_weights_are_convex():
    c = ssprk54
    assert abs(c.A20 + c.A21 - 1.0) <= 1e-14
    assert abs(c.A30 + c.A32 - 1.0) <= 1e-14
    assert abs(c.A40 + c.A43 - 1.0) <= 1e-14
    assert abs(c.C2 + c.C3 + c.C4 - 1.0) <= 1e-14
    for name in ("B10", "A20", "A21", "B21", "A30", "A32", "B32",
                 "A40", "A43", "B43", "C2", "C3", "D3", "C4", "D4"):
        assert getattr(c, name) >= 0.0


def test_first_stage_weight_value():
    assert ssprk54.B10 == 0.391752226571890


# ---------------------------------------------------------------------------
# stepping accuracy
# ---------------------------------------------------------------------------

def test_zero_rhs_leaves_state_unchanged():
    u0 = np.array([1.0, -2.0, 3.5])
    # C2 is 1 - C3 - C4: the published C2 + C3 + C4 is 1 + 1e-15, which
    # scaled the state by 1 + 9e-16 here
    u1 = step(u0, 0.0, 0.1, lambda u, t: np.zeros_like(u))
    assert u1.tobytes() == u0.tobytes()


def test_single_step_on_exponential_decay():
    u1 = step(np.array([1.0]), 0.0, 0.1, lambda u, t: -u)
    assert abs(u1[0] - math.exp(-0.1)) <= 2e-7


def test_halving_dt_cuts_global_error_sixteenfold():
    def err(dt):
        u = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            u = step(u, t, dt, lambda u, t: -u)
            t += dt
        return abs(u[0] - math.exp(-1.0))

    assert err(0.1) / err(0.05) >= 16.0


def test_global_order_is_four():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        u = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            u = step(u, t, dt, lambda u, t: -u)
            t += dt
        errs.append(abs(u[0] - math.exp(-1.0)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.8 <= math.log2(coarse / fine) <= 4.2


def test_step_is_linear_for_linear_systems():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))

    def rhs(u, t):
        return a @ u

    u = rng.standard_normal(3)
    w = rng.standard_normal(3)
    alpha, beta = 0.7, -1.3
    lhs = step(alpha * u + beta * w, 0.0, 0.05, rhs)
    rhs_combo = alpha * step(u, 0.0, 0.05, rhs) + beta * step(w, 0.0, 0.05, rhs)
    np.testing.assert_allclose(lhs, rhs_combo, atol=1e-12)


def test_step_evaluates_stages_at_their_abscissae():
    # each stage sees t + c_k dt, so a fourth-order step integrates the
    # quadratic u = t^2 exactly; at the base time alone u' = 2t gives 0
    out = step(np.array([0.0]), 0.0, 0.5, lambda u, t: np.array([2.0 * t]))
    assert abs(out[0] - 0.25) <= 1e-15
    times = []
    step(np.zeros(2), 0.5, 0.1, lambda u, t: times.append(t) or u)
    assert times == [0.5 + c * 0.1 for c in ssprk54.ABSCISSAE]


def test_time_dependent_rhs_converges_at_fourth_order():
    # u' = cos t on [0, 1]: the error falls about 16x per halving of dt; a
    # step that froze t at the base time would only halve it
    def err(n):
        dt = 1.0 / n
        u = np.array([0.0])
        for m in range(n):
            u = step(u, m * dt, dt, lambda u, t: np.array([math.cos(t)]))
        return abs(u[0] - math.sin(1.0))

    errs = [err(n) for n in (10, 20, 40)]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 12.0


def test_stage_abscissae_derivation():
    c = ssprk54.ABSCISSAE
    assert c[0] == 0.0
    assert c[1] == ssprk54.B10
    assert c[2] == ssprk54.A21 * c[1] + ssprk54.B21
    assert c[3] == ssprk54.A32 * c[2] + ssprk54.B32
    assert c[4] == ssprk54.A43 * c[3] + ssprk54.B43
    assert all(0.0 <= ci <= 1.5 for ci in c)


# ---------------------------------------------------------------------------
# the public step against its expression form
# ---------------------------------------------------------------------------

def _nonlinear_rhs(u, t):
    # nonlinear and time-dependent; complex states stay complex
    return np.cos(3.0 * t) * u * u - (1.0 + t) * u + np.sin(t)


def test_an_rhs_write_to_its_stage_state_reaches_only_its_own_result():
    # each stage state is built from u and the right-hand sides alone, so a
    # write to one reaches only the right-hand side of that call
    u = np.linspace(-1.0, 1.0, 5)

    def rhs(x, t):
        if x is not u:
            x[0] = 1e6
        return np.zeros_like(x)

    assert step(u, 0.0, 0.1, rhs).tobytes() == u.tobytes()


def test_a_complex_rhs_at_a_later_stage_of_a_real_state_raises():
    # the stage's right-hand side is copied with same-kind casting, so an
    # imaginary part is not dropped
    calls = []

    def rhs(x, t):
        calls.append(t)
        return -x if len(calls) == 1 else -1j * x

    with pytest.raises(TypeError):
        step(np.ones(3), 0.0, 0.1, rhs)


def test_step_keeps_the_expression_forms_types():
    zero = lambda u, t: np.zeros_like(u)
    # integer input gives a float result
    for u in (np.array([1, 2, 3]), 2, np.int64(4)):
        got = step(u, 0.0, 0.1, zero)
        want = step_reference(u, 0.0, 0.1, zero)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    # a scalar state gives a numpy scalar, not a 0-d array
    for u in (1.0, np.float64(1.0), np.array(1.0)):
        got = step(u, 0.0, 0.1, lambda u, t: -u)
        assert type(got) is np.float64
        assert got == step_reference(u, 0.0, 0.1, lambda u, t: -u)
    assert type(step(1.0 + 2.0j, 0.0, 0.1, lambda u, t: -1j * u)) is np.complex128


def test_a_python_scalar_from_rhs_keeps_the_states_dtype():
    # as in the expression form, a Python float is weakly typed
    for u in (np.ones(3, np.float32), np.float32(1.0)):
        got = step(u, 0.0, 0.1, lambda u, t: 0.5)
        assert got.dtype == np.float32
        assert got.dtype == step_reference(u, 0.0, 0.1, lambda u, t: 0.5).dtype


def test_step_writes_neither_its_input_nor_the_rhs_results():
    # read-only arrays make any write raise
    u = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    u.flags.writeable = False
    cached = np.full_like(u, 0.25)
    cached.flags.writeable = False
    calls = []

    def rhs(x, t):
        # a cached array at stages 1 and 4, fresh read-only arrays between
        calls.append(t)
        if len(calls) in (1, 4):
            return cached
        r = -x
        r.flags.writeable = False
        return r

    got = step(u, 0.0, 0.1, rhs)
    assert len(calls) == 5 and got.flags.writeable
    np.testing.assert_array_equal(u, np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    assert (cached == 0.25).all()


@pytest.mark.parametrize("shape", [(3,), (2, 121), (2, 17, 17)])
def test_an_rhs_that_returns_one_held_array_changes_no_bit(shape):
    # An rhs may return one array, overwritten at every call: each result
    # is used up before the next call, so ``step`` gives the bits of a
    # right-hand side that returns fresh arrays.
    rng = np.random.default_rng(len(shape))
    u = rng.uniform(-1.0, 1.0, shape)
    held = np.empty_like(u)

    def held_rhs(x, t):
        np.copyto(held, _nonlinear_rhs(x, t))
        return held

    for t, dt in ((0.0, 0.1), (0.37, 1e-3)):
        want = step(u, t, dt, _nonlinear_rhs)
        assert step(u, t, dt, held_rhs).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the solvers' step: increment form over a held stack
# ---------------------------------------------------------------------------

def _prepare(rhs, t, dt):
    """The ``prepare`` of ``_stacked_stepper`` for ``rhs(x, t)`` on steps
    from t: each array's ``rhs(row)`` evaluates it at the abscissa of its
    stage k, as ``step`` makes them."""
    def prepare(k, x):
        def at_stage(row):
            row[...] = rhs(x, t + ssprk54.ABSCISSAE[k] * dt)
        return at_stage
    return prepare


def _stepper(u, dt, prepare):
    """A stepper that pins no entries, as ``step``'s, and its
    ``advance(w, t)``."""
    state, advance = ssprk54._stacked_stepper(u, dt, prepare,
                                              ssprk54._NO_NODES)
    return state, lambda w, t: advance(w, t, ssprk54._NO_PINS)


def _stacked_step(u, t, dt, rhs):
    state, advance = _stepper(u, dt, _prepare(rhs, t, dt))
    return advance(state, t)


def test_increment_table_rows_sum_to_the_abscissae():
    a = ssprk54.INCREMENTS
    assert not a.flags.writeable
    assert np.array_equal(a, np.tril(a))
    np.testing.assert_allclose(a[:4].sum(axis=1), ssprk54.ABSCISSAE[1:],
                               rtol=1e-15)
    assert abs(a[4].sum() - 1.0) <= 1e-15


def test_increment_table_gives_the_amplification_polynomial():
    # Butcher form: R(z) = 1 + sum_j z^j b A^(j-1) 1, where row s of A is
    # stage state s's weights (stage state 0 is u) and b the result's
    a = np.zeros((5, 5))
    a[1:] = ssprk54.INCREMENTS[:4]
    b = ssprk54.INCREMENTS[4]
    taylor = [1.0] + [b @ np.linalg.matrix_power(a, j) @ np.ones(5)
                      for j in range(5)]
    for got, want in zip(taylor, [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]):
        assert abs(got - want) <= 1e-14
    assert 0.0 < taylor[5] < 1.0 / 24.0
    zs = np.array([-2.5, -1.0 + 0.5j, 0.3j, 0.25 - 1.5j, 0.0, -0.01])
    np.testing.assert_allclose(np.polyval(taylor[::-1], zs),
                               amplification(zs), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("shape", [(3,), (2, 121), (2, 17, 17)])
def test_a_zero_rhs_leaves_the_stacked_state_unchanged(shape):
    u = np.random.default_rng(sum(shape)).uniform(-1e3, 1e3, shape)
    got = _stacked_step(u, 0.25, 0.1, lambda x, t: np.zeros_like(x))
    assert got.tobytes() == u.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 121), (2, 17, 17), (2, 65, 65), ()])
def test_a_stacked_step_is_within_ulps_of_the_expression_form(shape):
    rng = np.random.default_rng(sum(shape) + 7)
    real = rng.uniform(-1.0, 1.0, shape)
    for u in (real, real + 1j * rng.uniform(-1.0, 1.0, shape)):
        for t, dt in ((0.0, 0.1), (0.37, 1e-3)):
            want = step_reference(u, t, dt, _nonlinear_rhs)
            got = _stacked_step(u, t, dt, _nonlinear_rhs)
            assert got.shape == shape and got.dtype == want.dtype
            # at most 4 ulps of the largest entry here; the two forms round
            # u's multiples differently
            assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max())


@pytest.mark.parametrize("shape", [(), (3,), (2, 121), (2, 17, 17), (2, 65, 65)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_step_is_bitwise_the_expression_form(shape, dtype):
    # step gives the expression form's type, dtype and shape, and the bits
    # of the solvers' stepper run on u in that dtype; its values are the
    # stepper's, within ulps of the expression form (test above)
    rng = np.random.default_rng(sum(shape) + 7)
    u = rng.uniform(-1.0, 1.0, shape).astype(dtype)
    if dtype is complex:
        u += 1j * rng.uniform(-1.0, 1.0, shape)
    for t, dt in ((0.0, 0.1), (0.37, 1e-3)):
        got = step(u, t, dt, _nonlinear_rhs)
        want = step_reference(u, t, dt, _nonlinear_rhs)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert np.shape(got) == shape
        stacked = _stacked_step(np.asarray(u, want.dtype), t, dt, _nonlinear_rhs)
        assert got.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("shape", [(), (3,), (2, 9, 7)])
def test_a_stepper_prepares_each_of_its_six_arrays_once(shape):
    u = np.random.default_rng(sum(shape) + 5).uniform(-1.0, 1.0, shape)
    prepare, made = _prepare(_nonlinear_rhs, 0.5, 0.1), []

    def recorded(k, x):
        made.append((k, x))
        return prepare(k, x)

    state, advance = _stepper(u, 0.1, recorded)
    # the two stack heads at k = 0 and stage states 1-4, in any order
    assert sorted(k for k, _ in made) == [0, 0, 1, 2, 3, 4]
    assert any(x is state for k, x in made if k == 0)
    other, = [x for k, x in made if k == 0 and x is not state]
    for i, (_, x) in enumerate(made):
        assert x.shape == shape
        assert not any(np.shares_memory(x, y) for _, y in made[i + 1:])
    assert state.tobytes() == u.tobytes()

    # three steps, whose results alternate between the heads, prepare none
    w = state
    for head in (other, state, other):
        w = advance(w, 0.5)
        assert w is head
    assert len(made) == 6


def test_stacked_results_alternate_and_leave_their_input_unchanged():
    u = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    prepare, calls = _prepare(_nonlinear_rhs, 0.5, 0.1), []

    def recorded(k, x):
        rhs = prepare(k, x)

        def called(row):
            calls.append((k, x))
            rhs(row)
        return called

    state, advance = _stepper(u, 0.1, recorded)
    assert state.tobytes() == u.tobytes() and not np.shares_memory(state, u)
    first = advance(state, 0.5)
    assert type(first) is np.ndarray and first.shape == u.shape
    assert [k for k, _ in calls] == [0, 1, 2, 3, 4]
    assert [x is state for _, x in calls] == [True] + 4 * [False]
    assert state.tobytes() == u.tobytes()
    assert advance(state, 0.5) is first
    calls.clear()
    second = advance(first, 0.6)
    assert [x is first for _, x in calls] == [True] + 4 * [False]
    assert advance(second, 0.7) is first
    assert not np.shares_memory(first, second)
    with pytest.raises(KeyError):
        advance(u, 0.5)


@pytest.mark.parametrize("shape", [(), (3,), (2, 121), (2, 9, 7)])
def test_a_stepper_pins_each_stage_state_before_its_rhs_runs(shape):
    # every stage state holds its row of ``pinned`` at ``nodes`` when its
    # right-hand side runs, the result holds row 4, and no entry off
    # ``nodes`` is written: with a pointwise rhs, those entries have the
    # bits of a stepper that pins none
    rng = np.random.default_rng(sum(shape) + 3)
    u = rng.uniform(-1.0, 1.0, shape)
    nodes = np.array([0] if u.size == 1 else [0, 1, u.size - 1])
    off = np.setdiff1d(np.arange(u.size), nodes)
    prepare, seen = _prepare(_nonlinear_rhs, 0.5, 0.1), []

    def checked(k, x):
        rhs = prepare(k, x)

        def at_stage(row):
            seen.append(k)
            if k == 0:
                # a view of the state stepped from, not a copy of it
                assert x is w
            else:
                assert x.reshape(-1)[nodes].tobytes() == \
                    pinned[k - 1].tobytes()
            rhs(row)
        return at_stage

    state, advance = ssprk54._stacked_stepper(u, 0.1, checked, nodes)
    plain_state, plain = _stepper(u, 0.1, prepare)
    # both stacks' plans: a step from ``state`` and one from its result
    w, v = state, plain_state
    for step_index in range(2):
        pinned = rng.uniform(2.0, 3.0, (5, nodes.size))
        seen.clear()
        got, want = advance(w, 0.5, pinned), plain(v, 0.5)
        assert seen == [0, 1, 2, 3, 4]
        assert got.reshape(-1)[nodes].tobytes() == pinned[4].tobytes()
        assert got.reshape(-1)[off].tobytes() == want.reshape(-1)[off].tobytes()
        # ``plain`` carries on from pinned values, as the solvers do
        v = want
        v.reshape(-1)[nodes] = pinned[4]
        w = got


def test_the_result_is_pinned_after_its_finiteness_check():
    # a right-hand side that is non-finite only on a pinned entry reaches
    # only that entry of the result; the check sees it before the pin
    # overwrites it, and names the result (stage 5)
    t, dt, nodes = 0.5, 0.5, np.array([0, 4])
    bad_t = t + ssprk54.ABSCISSAE[4] * dt

    def rhs(u, s):
        r = -u
        if s == bad_t:
            r[0] = np.nan
        return r

    state, advance = ssprk54._stacked_stepper(
        np.ones(5), dt, _prepare(rhs, t, dt), nodes)
    with pytest.raises(NonFiniteState) as exc:
        advance(state, t, np.zeros((5, 2)))
    assert exc.value.t == t and exc.value.stage == 5


@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
def test_nonfinite_stacked_step_names_the_failing_stage(stage):
    t, dt = 0.5, 0.5
    bad_t = t + ssprk54.ABSCISSAE[stage - 1] * dt

    def rhs(u, s):
        return np.full_like(u, np.nan) if s == bad_t else -u

    with pytest.raises(NonFiniteState) as exc:
        with np.errstate(invalid="ignore"):
            _stacked_step(np.ones(3), t, dt, rhs)
    assert exc.value.t == t
    assert exc.value.stage == stage


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_a_finite_state_near_the_float_limit_is_not_refused(scale):
    # at 1e200 a product of the state with itself overflows; at 1e308 the
    # sum of its entries does too, and only the entrywise check can tell
    # that every entry is finite
    u = scale * np.array([1.0, 0.5, 1.0, 0.25])
    with np.errstate(over="ignore" if scale > 1e300 else "raise"):
        got = step(u, 0.0, 0.5, lambda x, t: np.zeros_like(x))
    assert got.tobytes() == u.tobytes()


def test_an_infinite_third_stage_is_named_by_step():
    # the third right-hand side is infinite, so stage state 3 is the first
    # non-finite one; later stages may meet inf - inf
    t, dt = 0.5, 0.5
    bad_t = t + ssprk54.ABSCISSAE[2] * dt

    def rhs(u, s):
        return np.full_like(u, np.inf) if s == bad_t else -u

    with pytest.raises(NonFiniteState) as exc:
        with np.errstate(invalid="ignore"):
            step(np.ones(3), t, dt, rhs)
    assert exc.value.t == t
    assert exc.value.stage == 3


# ---------------------------------------------------------------------------
# amplification factor
# ---------------------------------------------------------------------------

def test_amplification_at_zero_is_one():
    assert amplification(0.0) == 1.0


def test_amplification_on_arrays_matches_scalar_calls():
    assert type(amplification(0.0)) is complex
    zs = np.array([-2.5, -1.0 + 0.5j, 0.3j, 0.25 - 1.5j, 0.0])
    r = amplification(zs)
    assert r.shape == zs.shape and r.dtype == complex
    scalars = np.array([amplification(z) for z in zs])
    assert np.array_equal(r, scalars)


@pytest.mark.parametrize("z", [1e80, np.array([0.0, -1.0 + 0.5j, 1e80])])
def test_amplification_raises_where_r_overflows(z):
    with pytest.raises(NonFiniteState):
        amplification(z)


def test_amplification_taylor_coefficients():
    # recover the polynomial coefficients exactly from six samples on a circle
    r = 0.5
    samples = [amplification(r * cmath.exp(2j * cmath.pi * k / 6)) for k in range(6)]
    coeffs = []
    for j in range(6):
        acc = 0.0 + 0.0j
        for k, s in enumerate(samples):
            acc += s * cmath.exp(-2j * cmath.pi * j * k / 6)
        coeffs.append(acc / (6 * r ** j))
    want = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]
    for got, expect in zip(coeffs[:5], want):
        assert abs(got - expect) <= 1e-12
    # degree five with a small positive leading coefficient
    assert 0.0 < coeffs[5].real < 1.0 / 24.0
    assert abs(coeffs[5].imag) <= 1e-12


def test_amplification_contracts_on_negative_real_axis():
    assert abs(amplification(-1.0)) < 1.0
    zs = np.arange(-3.0, 0.0, 0.01)
    vals = np.abs([amplification(z) for z in zs])
    bad = [(z, v) for z, v in zip(zs, vals) if v > 1.0 + 1e-12]
    assert not bad, f"|R(z)| exceeds 1 inside [-3, 0]: {bad[:5]}"


# ---------------------------------------------------------------------------
# repeated steps and step-count validation
# ---------------------------------------------------------------------------

def _march(u, dt, steps, rhs):
    for m in range(steps):
        u = step(u, m * dt, dt, rhs)
    return u


def test_step_diagonal_system_componentwise():
    rates = np.array([-1.0, -0.5, -2.0])

    def rhs(u, t):
        return rates * u

    out = _march(np.ones(3), 0.01, 100, rhs)
    for i, rate in enumerate(rates):
        scalar = _march(np.ones(1), 0.01, 100, lambda u, t: rate * u)
        assert abs(out[i] - scalar[0]) <= 1e-12


def test_num_steps_validation():
    assert num_steps(0.0, 1.0, 0.25) == 4
    with pytest.raises(ConfigError):
        num_steps(0.0, 1.0, 0.3)
    with pytest.raises(ConfigError):
        num_steps(0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        num_steps(1.0, 0.0, 0.1)
    for bad in ((0.0, 1.0, float("nan")), (0.0, 1.0, float("inf")),
                (0.0, float("inf"), 0.1), (float("nan"), 1.0, 0.1),
                (0.0, 1.0, 1e-310)):  # (t_end - t0) / dt overflows
        with pytest.raises(ConfigError):
            num_steps(*bad)
    # a positive span that no step reaches: a dt of 1e9 spans or more
    # rounded it to no step, which a tolerance of 1e-9 dt accepted
    for bad in ((0.0, 0.02, 1e308), (0.0, 1.0, 1e10), (1.0, 1.5, 1e12),
                (0.0, 1e-20, 1e-3)):
        with pytest.raises(ConfigError, match="does not divide"):
            num_steps(*bad)
    # a zero horizon at any dt, and t0 plus rounding noise at an ordinary
    # dt, take no step
    for t0, dt in ((0.0, 1e308), (1.0, 1e308), (0.3, 1e-3)):
        assert num_steps(t0, t0, dt) == 0
    assert 0.1 + 0.2 != 0.3 and num_steps(0.3, 0.1 + 0.2, 1e-3) == 0
    assert num_steps(0.0, 1e-3, 1e-3) == 1
    assert num_steps(-0.05, 0.05, 0.1) == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_state_is_reported_with_time():
    def explode(u, t):
        return u * 1e308

    # stage 1 stays finite (1 + B10 * 0.5e308); stage 2 overflows
    with pytest.raises(NonFiniteState) as exc:
        step(np.ones(1), 0.5, 0.5, explode)
    assert exc.value.t == 0.5
    assert exc.value.stage == 2


@pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
def test_nonfinite_step_names_the_failing_stage(stage):
    # step checks only its result, then names the first non-finite stage
    # from the stage states it holds, without calling rhs again.  The RHS
    # goes non-finite only at the abscissa of the chosen stage's evaluation.
    t, dt = 0.5, 0.5
    bad_t = t + ssprk54.ABSCISSAE[stage - 1] * dt
    calls = []

    def rhs(u, s):
        calls.append(s)
        return np.full_like(u, np.nan) if s == bad_t else -u

    assert len(set(ssprk54.ABSCISSAE)) == 5
    with pytest.raises(NonFiniteState) as exc:
        step(np.ones(3), t, dt, rhs)
    assert exc.value.t == t
    assert exc.value.stage == stage
    assert len(calls) == 5
