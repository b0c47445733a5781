"""Property test of the 2D right-hand side: on any grid and state, the
full-sum ``rhs_2d`` over the stacked state agrees with the paper's split
formulation ``rhs_2d_split`` on the separate fields, to rounding.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burgers_dqm import (  # noqa: E402
    Grid1D,
    Grid2D,
    problem2,
    problem3,
    problem4,
    rhs_2d,
    weights_2d,
)
from oracles import rhs_2d_split  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(build=st.sampled_from([problem2, problem3, problem4]),
       nx=st.integers(4, 12), ny=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1),
       amplitude=st.sampled_from([1e-3, 1.0, 1e3]))
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
