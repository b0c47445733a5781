"""Differential quadrature weight matrices.

The weights a[i, l] approximate derivatives at node x_i as weighted sums of
function values at all nodes: f'(x_i) ~= sum_l a[i, l] f(x_l).  First-order
weights come from requiring exactness on the modified spline basis, which
yields one system per node, all sharing the same matrix; one dense solve
takes every node's right-hand side at once.  Second-order weights follow
from the first by Shu's recursion, except in rows 1, 2 and their mirrors:
there the recursion, derived for polynomial bases, does not converge on the
spline weights, and the rows are closed with the centred 3- and 5-point
polynomial weights instead (a deviation from the paper's pure construction;
see second_order_weights).

The weights depend on the grid alone, so the solvers, the stability
analysis and the CLI read them from one per-process memo keyed by the
grid's (a, b, n) (``_grid_weights``), which saves a build whenever a grid
comes back within one process; the public builders stay pure.
"""

import functools

import numpy as np

from .exceptions import DomainError, ShapeMismatch
from .spline_basis import H_MAX, make_coeffs, modified_tables


class Grid1D:
    """Uniform grid of n nodes on [a, b], spacing h = (b - a)/(n - 1).

    ``coords``, ``measure`` and ``ring`` are as on ``Grid2D``; here they are
    ``(x,)``, ``h`` and the mask of the two ends.
    """

    def __init__(self, a, b, n):
        if not float(n).is_integer():
            raise DomainError(f"node count must be a whole number, got n={n!r}")
        if n < 4:
            raise DomainError(f"need at least 4 nodes, got n={n}")
        if not b > a:
            raise DomainError(f"empty interval [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)
        self.n = int(n)
        self.h = (self.b - self.a) / (self.n - 1)
        self.x = np.linspace(self.a, self.b, self.n)
        if not (0.0 < self.h < H_MAX):
            raise DomainError(f"grid spacing h={self.h} outside (0, 2*pi/3)")
        self.coords = (self.x,)
        self.measure = self.h
        self.ring = np.zeros(self.n, dtype=bool)
        self.ring[[0, -1]] = True

    def __repr__(self):
        return f"Grid1D(a={self.a}, b={self.b}, n={self.n})"


class Grid2D:
    """Tensor grid: xgrid on [a, b] crossed with ygrid on [c, d].

    ``coords`` holds one node array per axis, shaped to broadcast against a
    field; ``measure``, the cell area, weights the discrete L2 norm.
    ``ring`` is the boolean (nx, ny) mask of the Dirichlet nodes, and
    ``ring_x``/``ring_y`` are their coordinates in the row-major order that
    ``A[ring]`` reads and writes; each corner appears once.
    """

    def __init__(self, xgrid, ygrid):
        self.xgrid = xgrid
        self.ygrid = ygrid
        self.coords = (xgrid.x[:, None], ygrid.x[None, :])
        self.measure = xgrid.h * ygrid.h
        self.ring = np.ones((xgrid.n, ygrid.n), dtype=bool)
        self.ring[1:-1, 1:-1] = False
        i, j = np.nonzero(self.ring)
        self.ring_x = xgrid.x[i]
        self.ring_y = ygrid.x[j]

    @classmethod
    def square(cls, a, b, n):
        return cls(Grid1D(a, b, n), Grid1D(a, b, n))


def first_order_weights(grid):
    """First-derivative weight matrix on a 1D grid.

    For each node x_i the weights solve sum_l sigma_m(x_l) a[i, l] =
    sigma_m'(x_i) over all basis functions m.  All n systems share the
    value table as their matrix, so one dense solve against the columns of
    the first-derivative table gives every row.
    """
    val, d1 = modified_tables(grid.n, make_coeffs(grid.h))
    # column i of d1 is the rhs for node i; solutions stack as columns
    return np.linalg.solve(val, d1).T


def second_order_weights(w1, grid):
    """Second-derivative weights: Shu's recursion, closed near the ends.

    Off-diagonal: a2[i, l] = 2 (w1[i, l] w1[i, i] - w1[i, l]/(x_i - x_l));
    diagonal: minus the off-diagonal row sum, so rows sum to zero.

    The recursion is exact for polynomial bases only; on the spline w1 the
    rows next to the ends carry an error that does not shrink under
    refinement.  Rows 1 and n-2 are therefore replaced by the centred
    3-point weights [1, -2, 1]/h^2, and rows 2 and n-3 (when n >= 5) by the
    5-point weights [-1, 16, -30, 16, -1]/(12 h^2): the polynomial DQ
    weights on those stencils; their rows also sum to zero.  Rows 0 and n-1
    are Dirichlet rows, read by no solver, and keep the recursion.
    """
    n = grid.n
    if w1.shape != (n, n):
        raise ShapeMismatch(f"weight matrix {w1.shape} does not match grid n={n}")
    dx = grid.x[:, None] - grid.x[None, :]
    np.fill_diagonal(dx, 1.0)  # placeholder; diagonal rewritten below
    w2 = 2.0 * (w1 * np.diag(w1)[:, None] - w1 / dx)
    np.fill_diagonal(w2, 0.0)
    np.fill_diagonal(w2, -w2.sum(axis=1))
    if not np.all(np.isfinite(w2)):
        raise ArithmeticError("non-finite second-order weights")
    _close_boundary_rows(w2, grid.h)
    return w2


_CENTRED_3 = np.array([1.0, -2.0, 1.0])
_CENTRED_5 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _close_boundary_rows(w2, h):
    """Overwrite rows 1, n-2 (and 2, n-3 when n >= 5) with centred stencils."""
    n = w2.shape[0]
    closures = [(1, _CENTRED_3), (n - 2, _CENTRED_3)]
    if n >= 5:
        closures += [(2, _CENTRED_5), (n - 3, _CENTRED_5)]
    for row, stencil in closures:
        half = len(stencil) // 2
        w2[row] = 0.0
        w2[row, row - half:row + half + 1] = stencil / (h * h)


# The memo keeps the last 4 grids, the least recently used dropped first,
# and only grids of at most 512 nodes: an entry holds two n-by-n float64
# matrices (2 n^2 8 bytes, 4.2 MB at 512 nodes), so the memo never holds
# more than about 17 MB of weights.  Larger grids are built afresh per call.
_MEMO_GRIDS = 4
_MEMO_MAX_N = 512


def _read_only(a):
    a.flags.writeable = False
    return a


class _GridData:
    """Read-only w1 and w2 of one 1D grid, each built on first use, w2 from
    w1, so a caller that needs only w1 never builds w2.  ``spectra`` holds
    the stability module's interior block spectra, kept and dropped with
    the weights."""

    spectra = None

    def __init__(self, grid):
        self.grid = grid

    @functools.cached_property
    def w1(self):
        return _read_only(first_order_weights(self.grid))

    @functools.cached_property
    def w2(self):
        return _read_only(second_order_weights(self.w1, self.grid))


@functools.lru_cache(maxsize=_MEMO_GRIDS)
def _memo(a, b, n):
    return _GridData(Grid1D(a, b, n))


def _grid_weights(grid):
    """The weights of a 1D grid (``.w1``, ``.w2``): bitwise the builders'
    results, but read-only.  They pay off when the same grid comes back
    within one process, so up to ``_MEMO_MAX_N`` nodes they are memoized and
    shared by every caller in the process."""
    if grid.n > _MEMO_MAX_N:
        return _GridData(grid)
    return _memo(grid.a, grid.b, grid.n)


def weights_2d(grid):
    """Per-axis weight matrices (Ax1, Ax2, By1, By2) for a tensor grid.

    The arrays are read-only and, up to 512 nodes per axis, memoized per
    process; a square grid gets the same arrays for both axes.
    """
    x, y = _grid_weights(grid.xgrid), _grid_weights(grid.ygrid)
    return x.w1, x.w2, y.w1, y.w2


def dump_weights_csv(w, path):
    """Write a weight matrix as (row, col, value) CSV, 17 significant digits.

    Each row is formatted by one ``%``: its template is the column template
    (``"j,%.17g\\n"`` for every column, built once) with the row's ``"i,"``
    joined in ahead of each column.
    """
    cols = [""] + ["%d,%%.17g\n" % j for j in range(1, w.shape[1] + 1)]
    lines = ["row,col,value\n"]
    for i, row in enumerate(w.tolist(), start=1):
        lines.append(("%d," % i).join(cols) % tuple(row))
    with open(path, "w", newline="") as f:
        f.write("".join(lines))
