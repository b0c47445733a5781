"""Frozen-coefficient stability analysis of the semi-discrete system.

Freezes the convection speeds, builds the interior derivative matrices,
and asks whether dt * spectrum fits inside the stability region of the
five-stage scheme.  Also finds the largest stable step by bisection and
verifies the 2D spectrum is the Kronecker pairwise-sum of 1D spectra.
"""

import math

import numpy as np

from burgers_dqm import (
    FrozenParams,
    Grid1D,
    analyze,
    kronecker_spectrum_check,
    max_stable_dt,
)


def main():
    g = Grid1D(-math.pi, math.pi, 11)
    params = FrozenParams(tau0=1.0, kappa0=1.0, nu=1.0)

    # the grid's spectra are computed once per process and memoized, so the
    # max_stable_dt call below reuses them; each dt only scales them
    print("verdict sweep at N = 11 (tau0 = kappa0 = nu = 1)")
    dts = (1e-4, 1e-3, 1e-2, 1e-1, 0.5)
    rep = analyze(g, params, dts)
    for dt, inside, max_abs_r in zip(dts, rep.all_inside, rep.max_abs_r):
        print(f"  dt = {dt:<7g} all_inside = {str(inside):<5} "
              f"max|R(z)| = {max_abs_r:.6f}")

    print(f"\nfirst-derivative spectrum is essentially imaginary: "
          f"max|Re|/max|Im| = {rep.ratio_re_im:.2e}")
    print(f"second-derivative spectrum stays in the left half-plane: "
          f"max Re = {rep.lambda2.real.max():.4f}")

    dt_max = max_stable_dt(g, params)
    print(f"\nlargest stable step by bisection: dt_max = {dt_max:.5f}")
    for n in (21, 31):
        dtn = max_stable_dt(Grid1D(-math.pi, math.pi, n), params)
        print(f"  N = {n}: dt_max = {dtn:.5f}  (diffusion-limited ~ h^2)")

    gx = Grid1D(0.0, 1.0, 8)
    gy = Grid1D(0.0, 1.0, 7)
    mismatch, spectrum, _ = kronecker_spectrum_check(
        gx, gy, FrozenParams(tau0=0.7, kappa0=0.4, nu=0.05))
    print(f"\n2D operator spectrum vs pairwise 1D sums "
          f"({len(spectrum)} eigenvalues): relative mismatch = {mismatch:.2e}")


if __name__ == "__main__":
    main()
