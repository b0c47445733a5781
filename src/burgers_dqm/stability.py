"""Frozen-coefficient matrix stability analysis.

Linearizing the semi-discrete system around locally constant convection
velocities (tau0, kappa0) gives a linear operator built from the interior
blocks of the first- and second-derivative weight matrices.  This module
computes those spectra once per grid and set of frozen parameters, forms
the derived eigenvalues lambda_B = 2 nu lambda2 - (tau0 + kappa0) lambda1,
and judges each candidate time step against them: dt only scales the
spectrum, so membership of lambda_B * dt in the integrator's stability
region (via the amplification factor R(z)) needs no further eigenvalues.

The spectra of A1 and A2 depend on the grid alone; they are kept with the
grid's memoized weights (``dqm_weights._grid_weights``), so a later call on
the same grid within one process makes one eigensolve (``analyze``'s
assembled operator, always certified afresh) or none (``max_stable_dt``).

The lambda_B construction pairs eigenvalues of two non-commuting matrices,
which is heuristic; the report therefore also carries the exact spectrum of
the assembled operator -(tau0 + kappa0) A1 + 2 nu A2 so the two routes can
be compared.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dqm_weights import _grid_weights
from .exceptions import ConvergenceFailure, DomainError, NoStableDt
from .ssprk54 import amplification

# Slack on |R(z)| <= 1 membership to absorb roundoff on the region boundary.
MEMBERSHIP_TOL = 1e-12

# Largest matrix size accepted by eigen_spectrum (desk scale).
MAX_EIGEN_SIZE = 2000

# Relative tolerance of the smallest-singular-value eigenvalue probe.
PROBE_TOL = 1e-7


@dataclass(frozen=True)
class FrozenParams:
    """Locally frozen convection velocities and viscosity."""

    tau0: float
    kappa0: float
    nu: float

    def __post_init__(self):
        for name in ("tau0", "kappa0", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("%s must be finite, got %r"
                                  % (name, getattr(self, name)))
        if self.nu < 0.0:
            raise DomainError("nu must be >= 0, got %r" % (self.nu,))


@dataclass
class StabilityReport:
    """Spectra of one (grid, params) pair and a verdict per candidate dt.

    ``lambda1``/``lambda2`` are the interior first-/second-derivative
    spectra (sorted as paired), ``lambda_b`` the heuristic combination, and
    ``assembled`` the exact spectrum of -(tau0+kappa0) A1 + 2 nu A2.
    ``ratio_re_im`` is max|Re lambda1| / max|Im lambda1|, an observability
    measure of how close the convection spectrum is to purely imaginary.
    ``max_abs_r``/``all_inside`` hold max|R(lambda_b * dt)| and whether it
    is <= 1 (up to roundoff), one entry per requested dt, in order.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda_b: np.ndarray
    assembled: np.ndarray
    ratio_re_im: float
    max_abs_r: tuple
    all_inside: tuple


def interior_weight_matrix(w):
    """Interior block of a weight matrix: boundary rows/columns removed."""
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (w.shape,))
    if w.shape[0] < 4:
        raise DomainError("need at least 4 nodes, got %d" % w.shape[0])
    return w[1:-1, 1:-1].copy()


def eigen_spectrum(m):
    """Eigenvalues of a dense, real, non-empty square matrix, with a residual
    spot-check.

    A sample of five eigenvalues is verified by the probe
    sigma_min(M - lambda I) <= 1e-7 * ||M||_2.  Each sampled lambda first
    gets one shifted solve (M - lambda I) x = b with a fixed b: since
    ||b|| / ||x|| >= sigma_min(M - lambda I) for any x, and the largest
    column 2-norm c of M is <= ||M||_2, ||b|| / ||x|| <= 1e-7 * c implies
    the probe (an exactly singular shift, sigma_min = 0, passes too).  Only
    when that certificate fails are sigma_min and ||M||_2 computed by SVD,
    to confirm the rejection or overturn it.  Raises ConvergenceFailure if
    the QR iteration fails or the probe rejects a value.
    """
    if np.iscomplexobj(m):
        raise DomainError("expected a real matrix, got complex entries")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (m.shape,))
    if m.shape[0] == 0:
        raise DomainError("expected a non-empty matrix, got shape %s"
                          % (m.shape,))
    if m.shape[0] > MAX_EIGEN_SIZE:
        raise DomainError(
            "matrix size %d exceeds limit %d" % (m.shape[0], MAX_EIGEN_SIZE)
        )
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    try:
        lam = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigenvalue iteration failed: %s" % exc)
    n = len(lam)
    sample = sorted(set(int(round(k * (n - 1) / 4.0)) for k in range(5)))
    # not all ones: the odd modes of the derivative blocks are orthogonal
    # to a constant vector
    b = np.cos(2.0 * np.arange(n))
    cert = PROBE_TOL * float(np.linalg.norm(m, axis=0).max())
    shifted = m.astype(complex)
    diag = np.diag(m)
    for idx in sample:
        np.fill_diagonal(shifted, diag - lam[idx])
        try:
            x = np.linalg.solve(shifted, b)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(b) <= cert * np.linalg.norm(x):
            continue
        smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
        scale = float(np.linalg.norm(m, 2)) or 1.0
        if smin > PROBE_TOL * scale:
            raise ConvergenceFailure(
                "eigenvalue %r failed the residual probe: "
                "sigma_min=%.3e > %.3e" % (lam[idx], smin, PROBE_TOL * scale)
            )
    return lam


def operator_matrices(grid):
    """Interior first- and second-derivative blocks (A1, A2) for a grid."""
    weights = _grid_weights(grid)
    return (interior_weight_matrix(weights.w1),
            interior_weight_matrix(weights.w2))


def _block_spectra(weights):
    """Read-only spectra of A1, sorted by imaginary part, and of A2, sorted
    by real part (the other component breaking ties), kept in the grid's
    memo entry ``weights``."""
    if weights.spectra is None:
        lam1 = eigen_spectrum(interior_weight_matrix(weights.w1))
        lam2 = eigen_spectrum(interior_weight_matrix(weights.w2))
        lam1 = lam1[np.lexsort((lam1.real, lam1.imag))]
        lam2 = lam2[np.lexsort((lam2.imag, lam2.real))]
        lam1.flags.writeable = lam2.flags.writeable = False
        weights.spectra = lam1, lam2
    return weights.spectra


def _spectra(weights, params):
    """The block spectra lambda1, lambda2 and lambda_B, which pairs them by
    index."""
    lam1, lam2 = _block_spectra(weights)
    lam_b = 2.0 * params.nu * lam2 - (params.tau0 + params.kappa0) * lam1
    return lam1, lam2, lam_b


def _max_abs_r(lam_b, dt):
    return float(np.abs(amplification(lam_b * dt)).max())


def analyze(grid, params, dts):
    """Stability report for one grid, one set of frozen parameters and each
    candidate step in ``dts`` (each finite and > 0)."""
    dts = tuple(dts)
    for dt in dts:
        if not math.isfinite(dt):
            raise DomainError("dt must be finite, got %r" % (dt,))
        if dt <= 0.0:
            raise DomainError("dt must be > 0, got %r" % (dt,))
    # one entry serves the spectra and the assembled operator, so a grid
    # above the memo's node cap is still built once
    weights = _grid_weights(grid)
    lam1, lam2, lam_b = _spectra(weights, params)
    a1 = interior_weight_matrix(weights.w1)
    a2 = interior_weight_matrix(weights.w2)
    speed = params.tau0 + params.kappa0
    assembled = eigen_spectrum(-speed * a1 + 2.0 * params.nu * a2)
    im_max = float(np.abs(lam1.imag).max())
    re_max = float(np.abs(lam1.real).max())
    ratio = re_max / im_max if im_max > 0.0 else math.inf
    max_abs_r = tuple(_max_abs_r(lam_b, dt) for dt in dts)
    return StabilityReport(
        lambda1=lam1.copy(),
        lambda2=lam2.copy(),
        lambda_b=lam_b,
        assembled=assembled,
        ratio_re_im=ratio,
        max_abs_r=max_abs_r,
        all_inside=tuple(r <= 1.0 + MEMBERSHIP_TOL for r in max_abs_r),
    )


def max_stable_dt(grid, params):
    """Largest dt in (0, 10] whose scaled spectrum stays inside the region.

    The grid's memoized spectra serve every dt (z is linear in dt), so a
    grid seen before needs no eigensolve, and the boundary is located by
    bisection to relative width 1e-3.  Raises NoStableDt when
    even dt = 1e-9 falls outside.
    """
    lam_b = _spectra(_grid_weights(grid), params)[-1]

    def inside(dt):
        return _max_abs_r(lam_b, dt) <= 1.0 + MEMBERSHIP_TOL

    lo = 1e-9
    if not inside(lo):
        raise NoStableDt(
            "spectrum escapes the stability region even at dt=1e-9"
        )
    hi = 10.0
    if inside(hi):
        return hi
    while (hi - lo) > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


# Size cap for the assembled-2D validation path (interior nodes per axis).
MAX_KRONECKER_NODES = 12


def kronecker_spectrum_check(gridx, gridy, params):
    """Validation path: assemble the full 2D frozen operator and compare.

    The 2D operator nu (A2 (x) I + I (x) B2) - tau0 A1 (x) I - kappa0 I (x) B1
    is the Kronecker sum of C = nu A2 - tau0 A1 and D = nu B2 - kappa0 B1,
    so its spectrum equals the pairwise sums {c_i + d_j} exactly.  Returns
    (mismatch, full_spectrum, pair_sums) where mismatch is the largest
    distance from a computed 2D eigenvalue to the pairwise-sum set, scaled
    by the operator norm.  Only available on small grids.
    """
    if gridx.n > MAX_KRONECKER_NODES or gridy.n > MAX_KRONECKER_NODES:
        raise DomainError(
            "validation path limited to grids with <= %d nodes per side"
            % MAX_KRONECKER_NODES
        )
    a1, a2 = operator_matrices(gridx)
    b1, b2 = operator_matrices(gridy)
    c = params.nu * a2 - params.tau0 * a1
    d = params.nu * b2 - params.kappa0 * b1
    ix = np.eye(c.shape[0])
    iy = np.eye(d.shape[0])
    full = np.kron(c, iy) + np.kron(ix, d)
    spectrum = eigen_spectrum(full)
    pair_sums = (eigen_spectrum(c)[:, None] + eigen_spectrum(d)[None, :]).ravel()
    scale = float(np.linalg.norm(full, 2))
    if scale == 0.0:
        scale = 1.0
    mismatch = 0.0
    for lam in spectrum:
        mismatch = max(mismatch, float(np.abs(pair_sums - lam).min()))
    return mismatch / scale, spectrum, pair_sums
