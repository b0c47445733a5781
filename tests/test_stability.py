"""Tests for the matrix (frozen-coefficient) stability analysis."""

import math

import numpy as np
import pytest

from burgers_dqm import (
    Grid1D,
    first_order_weights,
    second_order_weights,
    FrozenParams,
    analyze,
    max_stable_dt,
    kronecker_spectrum_check,
)
from burgers_dqm import cli, dqm_weights, stability
from burgers_dqm.exceptions import ConvergenceFailure, DomainError, NoStableDt
from burgers_dqm.stability import (
    eigen_spectrum,
    interior_weight_matrix,
    operator_matrices,
)


# ---------------------------------------------------------------------------
# interior blocks
# ---------------------------------------------------------------------------

def test_interior_weight_matrix_strips_boundary_ring():
    w = np.arange(16.0).reshape(4, 4)
    inner = interior_weight_matrix(w)
    np.testing.assert_array_equal(inner, np.array([[5.0, 6.0], [9.0, 10.0]]))


def test_interior_weight_matrix_rejects_small_or_nonsquare():
    with pytest.raises(DomainError):
        interior_weight_matrix(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        interior_weight_matrix(np.zeros((4, 5)))


def test_operator_matrices_shapes():
    g = Grid1D(-math.pi, math.pi, 11)
    a1, a2 = operator_matrices(g)
    assert a1.shape == (9, 9)
    assert a2.shape == (9, 9)
    w1 = first_order_weights(g)
    np.testing.assert_array_equal(a1, w1[1:-1, 1:-1])


# ---------------------------------------------------------------------------
# eigenvalue computation
# ---------------------------------------------------------------------------

def test_eigen_spectrum_diagonal():
    lam = eigen_spectrum(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(sorted(lam.real), [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(lam.imag, 0.0, atol=1e-12)


def test_eigen_spectrum_rotation_gives_pure_imaginary_pair():
    lam = eigen_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(sorted(lam.imag), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(lam.real, 0.0, atol=1e-12)


def test_eigen_spectrum_trace_identity():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((8, 8))
    lam = eigen_spectrum(m)
    assert abs(lam.sum().real - np.trace(m)) <= 1e-8 * max(1.0, abs(np.trace(m)))
    assert abs(lam.sum().imag) <= 1e-8


def test_eigen_spectrum_validation():
    with pytest.raises(DomainError):
        eigen_spectrum(np.zeros((3, 4)))
    with pytest.raises(DomainError):
        eigen_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # a complex matrix would lose its imaginary part in the cast to float
    with pytest.raises(DomainError):
        eigen_spectrum(np.array([[1j, 0.0], [0.0, 2.0]]))
    with pytest.raises(DomainError):
        eigen_spectrum(np.zeros((0, 0)))


def _count_svd(monkeypatch):
    """List that records the shape of every np.linalg.svd call from now."""
    true_svd = np.linalg.svd
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return true_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _perturb_eigvals(monkeypatch):
    """Make the eigvals that stability calls move every eigenvalue off the
    spectrum, by far more than the probe tolerance."""
    true_eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: true_eigvals(m) + 0.1 * (1.0 + 1.0j))


def test_eigen_spectrum_probe_rejects_a_wrong_eigenvalue(monkeypatch):
    a1, _ = operator_matrices(Grid1D(-math.pi, math.pi, 11))
    _perturb_eigvals(monkeypatch)
    svd_calls = _count_svd(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="sigma_min"):
        eigen_spectrum(a1)
    # the failed certificate is confirmed by the exact smallest singular value
    assert svd_calls


def test_stability_cli_exits_4_on_a_rejected_eigenvalue(monkeypatch, tmp_path,
                                                         capsys):
    dqm_weights._memo.cache_clear()
    _perturb_eigvals(monkeypatch)
    out = tmp_path / "stab"
    rc = cli.main(["stability", "--nx", "11", "--dt-list", "1e-3",
                   "--out", str(out)])
    assert rc == 4
    assert "sigma_min" in capsys.readouterr().err
    assert not out.exists()


def test_stability_cli_exits_4_on_a_rejected_eigenvalue_with_warm_memo(
        monkeypatch, tmp_path, capsys):
    # the memoized block spectra are not re-checked, but the assembled
    # operator's spectrum is computed and certified on every call
    argv = ["stability", "--nx", "11", "--dt-list", "1e-3", "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    _perturb_eigvals(monkeypatch)
    out = tmp_path / "stab"
    assert cli.main(argv + [str(out)]) == 4
    assert "sigma_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [11, 41, 121, 241])
def test_eigen_spectrum_certifies_operator_blocks_without_svd(monkeypatch, n):
    # the shifted-solve certificate accepts every sampled eigenvalue of the
    # operator blocks, so no SVD runs, and the spectrum is eigvals' own, so
    # spectra.csv and assembled_spectrum.csv cannot drift
    a1, a2 = operator_matrices(Grid1D(-math.pi, math.pi, n))
    blocks = [a1, a2] + [-(p.tau0 + p.kappa0) * a1 + 2.0 * p.nu * a2
                         for p in (UNIT, FrozenParams(0.5, 0.5, 0.01))]
    svd_calls = _count_svd(monkeypatch)
    for m in blocks:
        np.testing.assert_array_equal(eigen_spectrum(m), np.linalg.eigvals(m))
    assert svd_calls == []


# ---------------------------------------------------------------------------
# frozen-coefficient analysis
# ---------------------------------------------------------------------------

UNIT = FrozenParams(tau0=1.0, kappa0=1.0, nu=1.0)


def test_analyze_small_dt_is_stable():
    g = Grid1D(-math.pi, math.pi, 11)
    rep = analyze(g, UNIT, [1e-9])
    assert rep.all_inside == (True,)
    assert rep.max_abs_r[0] <= 1.0 + 1e-12
    assert len(rep.lambda_b) == 9


def test_analyze_huge_dt_is_unstable():
    g = Grid1D(-math.pi, math.pi, 11)
    rep = analyze(g, UNIT, [10.0])
    assert rep.all_inside == (False,)
    assert rep.max_abs_r[0] > 1.0


def test_analyze_first_derivative_spectrum_is_essentially_imaginary():
    g = Grid1D(-math.pi, math.pi, 11)
    rep = analyze(g, UNIT, [1e-3])
    assert rep.ratio_re_im <= 1e-10


def test_analyze_second_derivative_spectrum_has_negative_real_parts():
    # n=121 covers the finest 1D grid the solvers run at, where a boundary
    # closure of the second-derivative rows could first turn unstable
    for n in (11, 21, 121):
        g = Grid1D(-math.pi, math.pi, n)
        rep = analyze(g, UNIT, [1e-3])
        assert rep.lambda2.real.max() < 0.0
        assert rep.assembled.real.max() < 0.0


def test_analyze_is_deterministic():
    g = Grid1D(-math.pi, math.pi, 11)
    a = analyze(g, UNIT, [1e-3])
    b = analyze(g, UNIT, [1e-3])
    np.testing.assert_array_equal(a.lambda_b, b.lambda_b)
    assert a.max_abs_r == b.max_abs_r


def test_analyze_many_dts_equals_one_call_per_dt():
    # the spectra do not depend on dt, so one shared analysis must give
    # exactly what separate single-dt analyses give, verdicts in order
    g = Grid1D(-math.pi, math.pi, 121)
    dts = [1.8e-3, 1e-4, 1.1e-3, 5e-4]
    rep = analyze(g, UNIT, dts)
    assert len(rep.max_abs_r) == len(rep.all_inside) == len(dts)
    for k, dt in enumerate(dts):
        one = analyze(g, UNIT, [dt])
        assert one.max_abs_r == (rep.max_abs_r[k],)
        assert one.all_inside == (rep.all_inside[k],)
        np.testing.assert_array_equal(one.lambda_b, rep.lambda_b)
        np.testing.assert_array_equal(one.assembled, rep.assembled)
    assert rep.all_inside == (False, True, True, True)
    assert analyze(g, UNIT, []).max_abs_r == ()


def test_analyze_reuses_the_grid_spectra(monkeypatch):
    g = Grid1D(-math.pi, math.pi, 41)
    dts = [1e-4, 3e-3]
    other = FrozenParams(tau0=0.3, kappa0=1.0, nu=0.5)
    analyze(g, UNIT, dts)
    real = stability.eigen_spectrum
    calls = []
    monkeypatch.setattr(stability, "eigen_spectrum",
                        lambda m: calls.append(m.shape) or real(m))
    warm = analyze(g, other, dts)
    assert calls == [(39, 39)]  # the assembled operator only
    warm_dt = max_stable_dt(g, other)
    assert calls == [(39, 39)]
    # the report's spectra are copies: writing to them leaves the memo be
    warm.lambda1[:] = warm.lambda2[:] = 0.0
    warm = analyze(g, other, dts)

    dqm_weights._memo.cache_clear()
    cold = analyze(g, other, dts)
    assert len(calls) == 2 + 3
    for name in ("lambda1", "lambda2", "lambda_b", "assembled"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()
    assert cold.max_abs_r == warm.max_abs_r
    dqm_weights._memo.cache_clear()
    assert max_stable_dt(g, other) == warm_dt


def test_analyze_above_the_memo_node_cap_builds_the_weights_once(monkeypatch):
    g = Grid1D(-math.pi, math.pi, 11)
    memoized = analyze(g, UNIT, [1e-3])
    monkeypatch.setattr(dqm_weights, "_MEMO_MAX_N", 10)
    real = dqm_weights.first_order_weights
    builds = []
    monkeypatch.setattr(dqm_weights, "first_order_weights",
                        lambda grid: builds.append(grid.n) or real(grid))
    rep = analyze(g, UNIT, [1e-3])
    assert builds == [11]  # the grid is kept nowhere, yet built once
    for name in ("lambda1", "lambda2", "lambda_b", "assembled"):
        assert getattr(rep, name).tobytes() == getattr(memoized, name).tobytes()
    assert max_stable_dt(g, UNIT) == max_stable_dt(g, UNIT)
    assert builds == [11, 11, 11]


def test_analyze_reports_assembled_operator_spectrum():
    g = Grid1D(-math.pi, math.pi, 11)
    p = FrozenParams(tau0=0.5, kappa0=0.25, nu=2.0)
    rep = analyze(g, p, [1e-3])
    a1, a2 = operator_matrices(g)
    want = eigen_spectrum(-(p.tau0 + p.kappa0) * a1 + 2.0 * p.nu * a2)
    got = np.sort_complex(rep.assembled)
    np.testing.assert_allclose(got, np.sort_complex(want), atol=1e-10)


def test_frozen_params_validation():
    with pytest.raises(DomainError):
        FrozenParams(tau0=1.0, kappa0=1.0, nu=-1.0)
    good = dict(tau0=1.0, kappa0=1.0, nu=1.0)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                FrozenParams(**{**good, name: bad})
    # the candidate steps are checked by analyze, each one of them
    g = Grid1D(-math.pi, math.pi, 11)
    for bad in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            analyze(g, UNIT, [bad])
        with pytest.raises(DomainError):
            analyze(g, UNIT, [1e-3, bad])


# ---------------------------------------------------------------------------
# largest stable step
# ---------------------------------------------------------------------------

def test_max_stable_dt_scales_with_diffusion_grid():
    # pure diffusion: dt_max ~ h^2, so halving h cuts it roughly fourfold
    g1 = Grid1D(-math.pi, math.pi, 11)
    g2 = Grid1D(-math.pi, math.pi, 21)
    diffusion = FrozenParams(tau0=0.0, kappa0=0.0, nu=1.0)
    dt1 = max_stable_dt(g1, diffusion)
    dt2 = max_stable_dt(g2, diffusion)
    assert 3.0 <= dt1 / dt2 <= 5.0


def test_max_stable_dt_scales_with_advection_rate():
    # pure advection: dt_max ~ 1/(tau0 + kappa0)
    g = Grid1D(-math.pi, math.pi, 21)
    dt_slow = max_stable_dt(g, FrozenParams(tau0=1.0, kappa0=1.0, nu=0.0))
    dt_fast = max_stable_dt(g, FrozenParams(tau0=2.0, kappa0=2.0, nu=0.0))
    assert dt_slow > 0.0
    assert dt_fast == pytest.approx(dt_slow / 2.0, rel=0.1)


def test_max_stable_dt_honours_bisection_width():
    g = Grid1D(-math.pi, math.pi, 11)
    dt = max_stable_dt(g, UNIT)
    assert analyze(g, UNIT, [dt, dt * 1.01]).all_inside == (True, False)


def test_max_stable_dt_kept_by_boundary_closure():
    # the centred closure of the second-derivative rows 1-2 (and mirrors)
    # must not shrink the stable step by more than 10% against the
    # recursion-only rows, whose largest steps were 0.1482, 0.009928 and
    # 0.001108 at n = 11, 41, 121
    for n, unclosed in ((11, 0.1482), (41, 0.009928), (121, 0.001108)):
        g = Grid1D(-math.pi, math.pi, n)
        assert max_stable_dt(g, UNIT) >= 0.9 * unclosed


def test_max_stable_dt_caps_a_zero_operator():
    # a zero operator is stable at every dt, so the search returns its cap
    g = Grid1D(0.0, 1.0, 9)
    assert max_stable_dt(g, FrozenParams(0.0, 0.0, 0.0)) == 10.0


def test_max_stable_dt_no_stable_step(monkeypatch):
    g = Grid1D(-math.pi, math.pi, 11)
    always_two = lambda z: np.full_like(np.asarray(z, dtype=complex), 2.0)
    monkeypatch.setattr(stability, "amplification", always_two)
    with pytest.raises(NoStableDt):
        max_stable_dt(g, UNIT)


# ---------------------------------------------------------------------------
# 2D spectrum via Kronecker sums
# ---------------------------------------------------------------------------

def test_kronecker_spectrum_is_pairwise_sums():
    gx = Grid1D(0.0, 1.0, 7)
    gy = Grid1D(0.0, 2.0, 6)
    p = FrozenParams(tau0=0.7, kappa0=0.4, nu=0.05)
    mismatch, spectrum, pair_sums = kronecker_spectrum_check(gx, gy, p)
    assert mismatch <= 1e-6
    assert len(spectrum) == (7 - 2) * (6 - 2)
    assert len(pair_sums) == len(spectrum)


def test_kronecker_check_of_a_zero_operator():
    # a zero operator has norm 0, so the mismatch is taken unscaled
    p = FrozenParams(tau0=0.0, kappa0=0.0, nu=0.0)
    mismatch, _, _ = kronecker_spectrum_check(Grid1D(0.0, 1.0, 9),
                                              Grid1D(0.0, 1.0, 7), p)
    assert mismatch == 0.0


def test_kronecker_check_rejects_large_grids():
    gx = Grid1D(0.0, 1.0, 13)
    gy = Grid1D(0.0, 1.0, 13)
    p = FrozenParams(tau0=1.0, kappa0=1.0, nu=0.05)
    with pytest.raises(DomainError):
        kronecker_spectrum_check(gx, gy, p)


# ---------------------------------------------------------------------------
# verdict sweep
# ---------------------------------------------------------------------------

def test_stability_verdict_is_monotone_in_dt():
    g = Grid1D(-math.pi, math.pi, 11)
    verdicts = analyze(g, UNIT, (1e-6, 1e-4, 1e-2, 1e-1, 1.0, 10.0)).all_inside
    # once unstable, stays unstable
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert flips <= 1
    assert verdicts[0]
    assert not verdicts[-1]
