"""Property tests of the right-hand sides: on any grid and state, the
full-sum ``rhs_1d``/``rhs_2d`` over the stacked state agrees with the
paper's split formulation ``rhs_1d_split``/``rhs_2d_split`` on the separate
fields, to rounding; in 1D also for any four coupling coefficients.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burgers_dqm import (  # noqa: E402
    Grid1D,
    Grid2D,
    first_order_weights,
    problem1,
    problem2,
    problem3,
    problem4,
    rhs_1d,
    rhs_2d,
    second_order_weights,
    weights_2d,
)
from oracles import rhs_1d_split, rhs_2d_split  # noqa: E402

AMPLITUDE = st.sampled_from([1e-3, 1.0, 1e3])
COEFFICIENT = st.floats(-3.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 40), eta=COEFFICIENT, xi=COEFFICIENT,
       alpha=COEFFICIENT, beta=COEFFICIENT,
       seed=st.integers(0, 2**32 - 1), amplitude=AMPLITUDE)
def test_rhs_1d_matches_split(n, eta, xi, alpha, beta, seed, amplitude):
    prob = dataclasses.replace(problem1(), eta=eta, xi=xi, alpha=alpha,
                               beta=beta)
    g = Grid1D(prob.a, prob.b, n)
    w1 = first_order_weights(g)
    w2 = second_order_weights(w1, g)
    u, v = amplitude * np.random.default_rng(seed).standard_normal((2, n))
    full = rhs_1d(np.array((u, v)), 0.0, prob, w1, w2)
    split = rhs_1d_split(u, v, 0.0, prob, w1, w2)
    scale = max(np.abs(full).max(), 1.0)
    np.testing.assert_allclose(split[0], full[0], rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(split[1], full[1], rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(build=st.sampled_from([problem2, problem3, problem4]),
       nx=st.integers(4, 12), ny=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1),
       amplitude=AMPLITUDE)
def test_rhs_2d_matches_split(build, nx, ny, seed, amplitude):
    prob = build()
    g = Grid2D(Grid1D(prob.a, prob.b, nx), Grid1D(prob.c, prob.d, ny))
    ax1, ax2, by1, by2 = weights_2d(g)
    U, V = amplitude * np.random.default_rng(seed).standard_normal((2, nx, ny))
    full = rhs_2d(np.array((U, V)), 0.0, prob, ax1, ax2, by1, by2)
    split = rhs_2d_split(U, V, 0.0, prob, ax1, ax2, by1, by2)
    scale = max(np.abs(full).max(), 1.0)
    np.testing.assert_allclose(split[0], full[0], rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(split[1], full[1], rtol=0, atol=1e-12 * scale)
