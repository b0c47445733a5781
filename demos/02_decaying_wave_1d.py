"""Coupled 1D system with an exact decaying-wave solution.

Integrates the first benchmark problem (u = v = exp(-t) sin x) and prints the
error norms at a few output times.  A neat structural fact about this
problem: with its particular coefficients the two convection terms cancel
exactly on the invariant manifold u = v, so the exact dynamics is linear
diffusion in disguise -- which is why the wave just decays.

Its boundary traces are rounding-level zeros.  The last part turns to
problem 2, whose traces move with time: each Runge-Kutta stage carries the
traces at its own time, so halving dt cuts the error about 16x, the
scheme's fourth order.
"""

import numpy as np

from burgers_dqm import error_norms, problem1, problem2, solve_1d, solve_2d


def main():
    prob = problem1()
    times = (0.5, 1.0, 2.0, 3.0)
    sol = solve_1d(prob, 121, 1e-3, 3.0, snapshots=times)

    print("problem 1 on a 121-node grid, dt = 1e-3")
    print(f"  {'t':>4}  {'Linf(u)':>12}  {'L2(u)':>12}  {'max|u-v|':>10}")
    for t, u, v in sol.snapshots:
        rep = error_norms(u, prob.exact_u(sol.grid.x, t), sol.grid.h)
        print(f"  {t:>4.1f}  {rep.linf:>12.3e}  {rep.l2:>12.3e}  "
              f"{np.abs(u - v).max():>10.1e}")

    print("\nthe u = v symmetry is preserved to rounding, as it should be:")
    print("both components see identical equations and identical data.")

    # moving traces: fourth order in time
    p2 = problem2(re=100.0)
    print("\nproblem 2 (Re = 100, 17x17 nodes, t = 0.5), halving dt:")
    print(f"  {'dt':>7}  {'Linf(u)':>10}  {'ratio':>6}")
    previous = None
    for dt in (1e-2, 5e-3, 2.5e-3):
        sol = solve_2d(p2, 17, dt, 0.5)
        x, y = sol.grid.xgrid.x[:, None], sol.grid.ygrid.x[None, :]
        err = np.abs(sol.u - p2.exact_u(x, y, sol.t)).max()
        ratio = "-" if previous is None else f"{previous / err:.1f}"
        print(f"  {dt:>7.1e}  {err:>10.2e}  {ratio:>6}")
        previous = err
    print("each halving cuts the error about 2^4 = 16x: fourth order in time.")


if __name__ == "__main__":
    main()
