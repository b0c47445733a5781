"""Grid-refinement study on both benchmark families.

Runs the 1D decaying-wave problem over a doubling sequence of grids and the
2D shifted-sigmoid problem over a short one, printing observed orders next
to the published ones.  The observed orders are 3.2-4.7 in 1D (published:
2.9-3.7) and 2.0-2.1 in 2D.  The 2D orders are capped by the O(h) boundary
rows of the first-derivative matrix, which come from the natural end
condition of the modified basis -- see README "Testing" for the analysis.
"""

import numpy as np

from burgers_dqm import (
    convergence_order,
    error_norms,
    load_reference_table,
    problem1,
    problem4,
    solve_1d,
    solve_2d,
)


def main():
    print("1D decaying wave, dt = 1e-3, t = 1")
    _, published = load_reference_table("1.1")
    pub_by_n = {int(r["N"]): r for r in published}
    prev = None
    print(f"  {'N':>4}  {'Linf':>10}  {'order':>6}  {'published':>9}")
    for n in (10, 20, 40, 80):
        sol = solve_1d(problem1(), n, 1e-3, 1.0)
        rep = error_norms(sol.u, problem1().exact_u(*sol.grid.coords, sol.t),
                          sol.grid.measure)
        order = convergence_order(prev, rep).linf if prev else float("nan")
        pub = pub_by_n[n].get("r_linf")
        print(f"  {n:>4}  {rep.linf:>10.2e}  {order:>6.2f}  "
              f"{pub if pub is not None else '-':>9}")
        prev = rep

    print("\n2D shifted sigmoid (Re = 100), dt = 1e-3, t = 0.5")
    prob = problem4()
    prev = None
    print(f"  {'N':>4}  {'Linf':>10}  {'order':>6}")
    for n in (8, 16, 32):
        sol = solve_2d(prob, n, 1e-3, 0.5)
        rep = error_norms(sol.u, prob.exact_u(*sol.grid.coords, sol.t),
                          sol.grid.measure)
        order = convergence_order(prev, rep).linf if prev else float("nan")
        print(f"  {n:>4}  {rep.linf:>10.2e}  {order:>6.2f}")
        prev = rep


if __name__ == "__main__":
    main()
