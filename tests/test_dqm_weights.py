"""Tests for grids and quadrature weight matrices."""

import math

import numpy as np
import pytest

from burgers_dqm import (
    Grid1D,
    Grid2D,
    first_order_weights,
    second_order_weights,
    weights_2d,
)
from burgers_dqm import dqm_weights
from burgers_dqm.dqm_weights import dump_weights_csv
from burgers_dqm.exceptions import DomainError
from burgers_dqm.spline_basis import make_coeffs, modified_tables
from oracles import dump_weights_csv_reference


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_nodes_and_spacing():
    g = Grid1D(0.0, 1.0, 11)
    assert g.n == 11
    assert g.h == pytest.approx(0.1)
    np.testing.assert_allclose(g.x, np.linspace(0.0, 1.0, 11), atol=1e-15)


def test_grid_rejects_bad_input():
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        Grid1D(1.0, 0.0, 11)
    with pytest.raises(DomainError):
        Grid1D(1.0, 1.0, 11)
    # spacing must stay below the admissible limit for the spline constants
    with pytest.raises(DomainError):
        Grid1D(0.0, 100.0, 5)
    # a node count must be whole; an integral float is still accepted
    for n in (10.7, 10.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, n)
    assert Grid1D(0.0, 1.0, 10.0).n == 10


def test_grid2d_square():
    g = Grid2D.square(0.0, 0.5, 21)
    assert g.xgrid.n == g.ygrid.n == 21
    assert g.xgrid.h == g.ygrid.h


@pytest.mark.parametrize("grid", [
    Grid1D(-1.0, 2.0, 11),
    Grid2D(Grid1D(0.0, 2.0, 17), Grid1D(-1.0, 0.5, 9)),
], ids=["1d-11", "2d-17x9"])
def test_grid_coords_measure_and_ring(grid):
    # coords broadcast to the field shape, x first; measure is the L2 weight
    # of one cell; ring marks exactly the nodes on an end of some axis
    axes = [grid] if isinstance(grid, Grid1D) else [grid.xgrid, grid.ygrid]
    shape = tuple(axis.n for axis in axes)
    assert np.broadcast_shapes(*(c.shape for c in grid.coords)) == shape
    mesh = np.meshgrid(*(axis.x for axis in axes), indexing="ij")
    for got, want in zip(np.broadcast_arrays(*grid.coords), mesh):
        np.testing.assert_array_equal(got, want)
    assert grid.measure == (grid.h if len(axes) == 1
                            else grid.xgrid.h * grid.ygrid.h)
    want_ring = np.zeros(shape, dtype=bool)
    for index, n in zip(np.indices(shape), shape):
        want_ring |= (index == 0) | (index == n - 1)
    np.testing.assert_array_equal(grid.ring, want_ring)


# ---------------------------------------------------------------------------
# first-order weights
# ---------------------------------------------------------------------------

def test_w1_differentiates_sine_with_fourth_order_interior():
    errs = {}
    for n in (41, 81):
        g = Grid1D(-math.pi, math.pi, n)
        w1 = first_order_weights(g)
        errs[n] = np.abs(w1 @ np.sin(g.x) - np.cos(g.x))[1:-1].max()
    order = math.log2(errs[41] / errs[81])
    assert order >= 2.0
    assert errs[81] <= 5e-7


def test_w1_annihilates_zero():
    g = Grid1D(0.0, 1.0, 11)
    w1 = first_order_weights(g)
    np.testing.assert_array_equal(w1 @ np.zeros(11), np.zeros(11))


@pytest.mark.parametrize("n", [5, 11])
def test_w1_centro_antisymmetry(n):
    # reversing the grid flips the sign of every weight
    g = Grid1D(-1.0, 1.0, n)
    w1 = first_order_weights(g)
    flipped = -w1[::-1, ::-1]
    np.testing.assert_allclose(w1, flipped, atol=1e-10)


@pytest.mark.parametrize("n", [4, 8, 17, 65, 121])
def test_w1_rows_satisfy_collocation_systems(n):
    # each row of weights solves the system assembled from the modified
    # basis: sum_l a[i,l] * sigma_m(x_l) = sigma_m'(x_i) for all m
    g = Grid1D(0.0, 2.0, n)
    c = make_coeffs(g.h)
    val, d1 = modified_tables(n, c)
    w1 = first_order_weights(g)
    # column i of the residual is row i's system
    res = np.abs(val @ w1.T - d1).max()
    assert res <= 1e-10 * np.abs(d1).max()


def test_w1_interior_error_shrinks_at_second_order_or_better():
    errs = []
    for n in (20, 40, 80):
        g = Grid1D(-math.pi, math.pi, n)
        w1 = first_order_weights(g)
        errs.append(np.abs(w1 @ np.sin(g.x) - np.cos(g.x))[1:-1].max())
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= 2.0


def test_w1_boundary_rows_lose_accuracy_on_nonvanishing_functions():
    # The boundary-modified basis functions lower the accuracy of the rows
    # next to the ends.  With sin on a period the endpoint values vanish and
    # the defect is invisible (see the fourth-order test above); with exp it
    # dominates and the interior error only shrinks at first order.
    errs = []
    for n in (20, 40, 80):
        g = Grid1D(0.0, 1.0, n)
        w1 = first_order_weights(g)
        f = np.exp(g.x)
        e = np.abs(w1 @ f - f)
        assert e.argmax() in (0, 1, n - 2, n - 1)
        errs.append(e[1:-1].max())
    for coarse, fine in zip(errs, errs[1:]):
        assert 0.8 <= math.log2(coarse / fine) <= 1.5


# ---------------------------------------------------------------------------
# second-order weights
# ---------------------------------------------------------------------------

def test_w2_row_sums_vanish():
    for n in (11, 41, 81):
        g = Grid1D(-math.pi, math.pi, n)
        w2 = second_order_weights(first_order_weights(g), g)
        assert np.abs(w2.sum(axis=1)).max() <= 1e-10 * np.abs(w2).max()


def test_w2_annihilates_constants():
    g = Grid1D(0.0, 1.0, 21)
    w2 = second_order_weights(first_order_weights(g), g)
    out = w2 @ np.ones(21)
    assert np.abs(out).max() <= 1e-10 * np.abs(w2).max()


def test_w2_on_sine_interior_behaviour():
    # Rows 1-2 and their mirrors are closed with centred polynomial stencils
    # and converge at second order or better.  The product recursion in the
    # remaining rows inherits the low-order boundary rows of the first-order
    # matrix, so the global interior error, now largest at the first
    # recursion row (3 and n-4), only shrinks at first order under
    # refinement, while the pollution decays quickly with distance from that
    # row (three orders of magnitude seven nodes further in).  At n=41 the
    # interior O(h^4) error alone is 2e-3 of the row-3 error, so the decay is
    # measured on the finer grids.
    errs = {}
    mid = {}
    closed = {}
    for n in (41, 81, 161):
        g = Grid1D(-math.pi, math.pi, n)
        w2 = second_order_weights(first_order_weights(g), g)
        e = np.abs(w2 @ np.sin(g.x) + np.sin(g.x))
        errs[n] = e[1:-1].max()
        mid[n] = e[10:-10].max() / max(e[3], e[n - 4])
        f = np.sin(g.x + 0.3)
        closed[n] = np.abs(w2 @ f + f)[[1, 2, n - 3, n - 2]].max()
    assert errs[81] < errs[41]
    assert math.log2(errs[41] / errs[81]) >= 0.8
    assert mid[81] <= 1e-3
    assert mid[161] <= 1e-3
    assert math.log2(closed[41] / closed[81]) >= 2.0
    assert math.log2(closed[81] / closed[161]) >= 2.0


def test_w2_recursion_matches_naive_double_loop():
    # same arithmetic executed two ways must agree to rounding; the rows
    # next to the ends are closed with the centred 3- and 5-point stencils,
    # and at n=9 the middle rows 3-5 keep the recursion
    for n in (5, 9):
        _check_w2_against_naive_double_loop(n)


def _check_w2_against_naive_double_loop(n):
    g = Grid1D(0.0, 1.0, n)
    w1 = first_order_weights(g)
    w2 = second_order_weights(w1, g)
    naive = np.zeros((n, n))
    for i in range(n):
        for l in range(n):
            if i == l:
                continue
            naive[i, l] = 2.0 * (w1[i, l] * w1[i, i] - w1[i, l] / (g.x[i] - g.x[l]))
    for i in range(n):
        naive[i, i] = -sum(naive[i, l] for l in range(n) if l != i)
    for i in (1, n - 2):
        naive[i, :] = 0.0
        for l, c in zip((i - 1, i, i + 1), (1.0, -2.0, 1.0)):
            naive[i, l] = c / g.h ** 2
    for i in (2, n - 3):
        naive[i, :] = 0.0
        for l, c in zip(range(i - 2, i + 3), (-1.0, 16.0, -30.0, 16.0, -1.0)):
            naive[i, l] = c / (12.0 * g.h ** 2)
    np.testing.assert_allclose(w2, naive, atol=1e-12)


# ---------------------------------------------------------------------------
# 2D weight tuples
# ---------------------------------------------------------------------------

def test_weights_2d_square_grid_shares_matrices():
    g = Grid2D.square(0.0, 1.0, 21)
    ax1, ax2, by1, by2 = weights_2d(g)
    assert ax1 is by1 and ax2 is by2


def test_weights_2d_differentiates_plane():
    g = Grid2D.square(0.0, 1.0, 21)
    ax1, ax2, by1, by2 = weights_2d(g)
    x, y = g.coords
    f = x + y
    np.testing.assert_allclose((ax1 @ f)[1:-1, :], 1.0, atol=5e-3)
    np.testing.assert_allclose((f @ by1.T)[:, 1:-1], 1.0, atol=5e-3)
    assert np.abs(ax2.sum(axis=1)).max() <= 1e-10 * np.abs(ax2).max()
    assert np.abs(by2.sum(axis=1)).max() <= 1e-10 * np.abs(by2).max()


def test_weights_2d_rectangular():
    g = Grid2D(Grid1D(0.0, 1.0, 11), Grid1D(0.0, 2.0, 15))
    ax1, ax2, by1, by2 = weights_2d(g)
    assert ax1.shape == (11, 11)
    assert by1.shape == (15, 15)


# ---------------------------------------------------------------------------
# per-process weight memo
# ---------------------------------------------------------------------------

MEMO_CASES = {
    "square": lambda n: Grid2D.square(0.0, 1.0, n),
    "rectangular": lambda n: Grid2D(Grid1D(0.0, 1.0, n),
                                    Grid1D(-1.0, 2.0, n + 4)),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_weight_memo_is_bitwise_the_builders_and_read_only(case):
    g = MEMO_CASES[case](21)
    dqm_weights._memo.cache_clear()
    got = weights_2d(g)
    want = []
    for axis in (g.xgrid, g.ygrid):
        w1 = first_order_weights(axis)
        want += [w1, second_order_weights(w1, axis)]
    for memo, fresh in zip(got, want):
        assert memo.dtype == fresh.dtype and memo.shape == fresh.shape
        assert memo.tobytes() == fresh.tobytes()  # sign bits of zeros too
        with pytest.raises(ValueError):
            memo[1, 1] = 0.0
    # a warm call hands out the same arrays again
    assert all(a is b for a, b in zip(weights_2d(g), got))


def test_weight_memo_keeps_the_last_grids_up_to_its_node_cap():
    bound = dqm_weights._MEMO_GRIDS
    grids = [Grid1D(0.0, 1.0, n) for n in range(8, 8 + bound + 3)]
    dqm_weights._memo.cache_clear()
    entries = [dqm_weights._grid_weights(g) for g in grids]
    assert dqm_weights._memo.cache_info().currsize == bound
    # the last `bound` grids are kept; the first is gone and built anew
    kept = [dqm_weights._grid_weights(g) for g in grids[-bound:]]
    assert all(a is b for a, b in zip(kept, entries[-bound:]))
    assert dqm_weights._grid_weights(grids[0]) is not entries[0]
    # a grid above the node cap is built afresh on every call, kept nowhere
    big = Grid1D(0.0, 1.0, dqm_weights._MEMO_MAX_N + 1)
    assert dqm_weights._grid_weights(big) is not dqm_weights._grid_weights(big)
    assert dqm_weights._memo.cache_info().currsize == bound
    assert all(dqm_weights._grid_weights(g).w1.shape == (g.n, g.n)
               for g in (grids[-1], big))


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------

def test_dump_weights_csv_round_trips(tmp_path):
    g = Grid1D(0.0, 1.0, 6)
    w1 = first_order_weights(g)
    path = tmp_path / "w1.csv"
    dump_weights_csv(w1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 1 + 36
    back = np.zeros_like(w1)
    for line in lines[1:]:
        r, cidx, v = line.split(",")
        back[int(r) - 1, int(cidx) - 1] = float(v)
    np.testing.assert_array_equal(back, w1)
    # the exact bytes: 1-based indices, 17 significant digits, LF endings
    dump_weights_csv(np.array([[0.1, -2.0], [1e-300, 1.0 / 3.0]]), path)
    assert path.read_bytes() == (
        b"row,col,value\n"
        b"1,1,0.10000000000000001\n"
        b"1,2,-2\n"
        b"2,1,1e-300\n"
        b"2,2,0.33333333333333331\n"
    )


def _assert_dump_matches_oracle(tmp_path, w):
    dump_weights_csv(w, tmp_path / "by_row.csv")
    dump_weights_csv_reference(w, tmp_path / "by_entry.csv")
    assert (tmp_path / "by_row.csv").read_bytes() == \
        (tmp_path / "by_entry.csv").read_bytes()


@pytest.mark.parametrize("n", [4, 5, 121])
@pytest.mark.parametrize("order", [1, 2])
def test_dump_weights_csv_matches_per_entry_oracle(tmp_path, order, n):
    g = Grid1D(0.0, 1.0, n)
    w = first_order_weights(g)
    if order == 2:
        w = second_order_weights(w, g)
    _assert_dump_matches_oracle(tmp_path, w)


@pytest.mark.parametrize("w", [
    np.arange(1.0, 7.0).reshape(2, 3) / 7.0,
    np.array([[-0.0, 5e-324, 1e-300, 1e308],
              [np.inf, -np.inf, np.nan, 1.0 / 3.0]]),
], ids=["2x3", "edge-values"])
def test_dump_weights_csv_matches_oracle_on_other_matrices(tmp_path, w):
    _assert_dump_matches_oracle(tmp_path, w)
