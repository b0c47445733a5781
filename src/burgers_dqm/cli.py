"""Experiment runner for the spline-quadrature Burgers' solver.

Subcommands
-----------
solve         integrate one problem and dump per-snapshot solution CSVs
convergence   grid-refinement study with two-grid order estimates
stability     frozen-coefficient spectra and step-size verdicts
weights-dump  derivative weight matrices as CSV
table         rerun a published benchmark table and compare side by side

All numeric CSV output uses 17 significant digits so doubles round-trip
exactly; identical configurations produce byte-identical CSV bodies.  Every
run writes a ``manifest.json`` recording the configuration, per-phase wall
times, and a checksum per output file.

Config files are flat ``key = value`` text (``#`` comments).  Each key is a
flag of the subcommand spelled with ``_`` (``t_end`` for ``--t-end``); the
lines are parsed as ``--key=value`` flags placed before the command line,
so command-line flags override file values.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .burgers_rhs import Problem2D
from .dqm_weights import Grid1D, _grid_weights, dump_weights_csv
from .exceptions import (
    ConfigError,
    DegenerateError,
    DomainError,
    NonFiniteState,
    ShapeMismatch,
)
from .problems import (
    PROBLEM_BUILDERS,
    convergence_order,
    error_norms,
    load_reference_table,
    problem1,
    problem2,
    problem3,
    problem4,
)
from .solvers import solve_1d, solve_2d
from .stability import FrozenParams, analyze


# ---------------------------------------------------------------------------
# formatting / hashing helpers

def _cell(value):
    """One CSV cell; floats get 17 significant digits (exact round trip)."""
    if isinstance(value, (float, np.floating)):  # float first: most cells
        return "%.17g" % value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    """Write rows of mixed int/float/str cells with LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="")


def sha256_of(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class Manifest:
    """Collects config echo, phase timings, and output-file checksums.

    Output files and ``manifest.json`` go to ``out_dir``.
    """

    def __init__(self, config, out_dir):
        self.config = config
        self.out_dir = Path(out_dir)
        self.phases = {}
        self.files = {}
        self._t0 = None
        self._phase = None

    def start(self, phase):
        self.finish()
        self._phase = phase
        self._t0 = time.perf_counter()

    def finish(self):
        if self._phase is not None:
            elapsed = time.perf_counter() - self._t0
            self.phases[self._phase] = self.phases.get(self._phase, 0.0) + elapsed
            self._phase = None

    def add_file(self, path):
        path = Path(path)
        self.files[path.name] = {
            "path": str(path),
            "sha256": sha256_of(path),
            "bytes": path.stat().st_size,
        }

    def path(self, name):
        """Path of output file ``name``; creates the output directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write_csv(self, name, header, rows):
        path = self.path(name)
        write_csv(path, header, rows)
        self.add_file(path)

    def write(self):
        self.finish()
        payload = {
            "version": __version__,
            "config": self.config,
            "phases_seconds": self.phases,
            "files": self.files,
        }
        self.path("manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="",
        )


# ---------------------------------------------------------------------------
# config files

# Namespace entries that are not run settings: never config keys, not echoed.
_NOT_SETTINGS = ("command", "config", "func")


def _config_tokens(path, defaults):
    """Read a flat ``key = value`` config file as ``--key=value`` tokens.

    ``defaults`` maps each flag of the subcommand, by its destination name
    (``t_end`` for ``--t-end``), to its default; every key must name one
    exactly.  A switch (default ``False``) takes a boolean value and yields
    its bare flag when true.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config file not found: %s" % path)
    tokens = []
    text = path.read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults or key in _NOT_SETTINGS:
            raise ConfigError("line %d: unknown config key %r" % (lineno, key))
        flag = "--" + key.replace("_", "-")
        if defaults[key] is False:
            if value.lower() in ("true", "1", "yes", "on"):
                tokens.append(flag)
            elif value.lower() not in ("false", "0", "no", "off"):
                raise ConfigError("line %d: %s expects a boolean, got %r"
                                  % (lineno, key, value))
        else:
            tokens.append(flag + "=" + value)
    return tokens


def _config_echo(args):
    return {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}


def _comma_floats(text):
    """Comma-separated numbers, e.g. ``0.1,0.5``."""
    return [float(p) for p in text.split(",") if p.strip()]


def _comma_ints(text):
    """Comma-separated integers (``10.0`` counts as 10)."""
    values = _comma_floats(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(text)
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# problems, solves and grids

def _build_problem(args):
    builder = PROBLEM_BUILDERS[args.problem]
    if args.re is None:
        return builder()
    if args.problem == "p1":
        raise ConfigError("re applies to the 2D problems only")
    return builder(re=args.re)


def _solve(prob, n, dt, t_end, ny=None, **kwargs):
    """``solve_2d`` for a 2D problem, ``solve_1d`` for a 1D one."""
    if isinstance(prob, Problem2D):
        return solve_2d(prob, n, dt, t_end, ny=ny, **kwargs)
    if ny is not None:
        raise ConfigError("ny applies to the 2D problems only")
    return solve_1d(prob, n, dt, t_end, **kwargs)


# ---------------------------------------------------------------------------
# solve

def _time_token(t):
    return ("%g" % t).replace("-", "m")


def _solution_rows(coords, u, v, exact):
    """Header and rows of one snapshot, one row per node (x before y).

    ``exact`` is the pair of exact fields, or None when there is none.
    """
    header = ["x", "y"][:len(coords)] + ["u", "v"]
    cols = [*coords, u, v]
    if exact is not None:
        eu, ev = exact
        header += ["exact_u", "exact_v", "err_u", "err_v"]
        cols += [eu, ev, u - eu, v - ev]
    return header, zip(*(np.broadcast_to(c, u.shape).ravel() for c in cols))


def run_solve(args):
    """Integrate one problem and write solution/error CSVs."""
    prob = _build_problem(args)
    dt, t_end = args.dt, args.t_end
    snapshots = sorted(set(args.snapshots or [t_end]))

    manifest = Manifest(_config_echo(args), args.out)
    manifest.start("integrate")
    sol = _solve(prob, args.nx, dt, t_end, ny=args.ny, snapshots=snapshots)
    coords = sol.grid.coords
    manifest.start("output")

    error_rows = []
    for snap_t, su, sv in sol.snapshots:
        exact = None
        if prob.exact_u is not None:
            exact = (prob.exact_u(*coords, snap_t), prob.exact_v(*coords, snap_t))
        manifest.write_csv("solution_t%s.csv" % _time_token(snap_t),
                           *_solution_rows(coords, su, sv, exact))
        if exact is not None:
            ru = error_norms(su, exact[0], sol.grid.measure)
            rv = error_norms(sv, exact[1], sol.grid.measure)
            error_rows.append([snap_t, args.nx, dt, ru.l2, ru.linf, rv.l2, rv.linf])

    if error_rows:
        manifest.write_csv("errors.csv", ["t", "n", "dt", "l2_u", "linf_u",
                                          "l2_v", "linf_v"], error_rows)
        for row in error_rows:
            print("t=%g  L2(u)=%.6e  Linf(u)=%.6e  L2(v)=%.6e  Linf(v)=%.6e"
                  % (row[0], row[3], row[4], row[5], row[6]))

    if args.stability_check:
        manifest.start("stability")
        if isinstance(prob, Problem2D):
            grid, nu = sol.grid.xgrid, prob.nu
        else:
            grid, nu = sol.grid, 1.0  # the 1D equations have unit viscosity
        params = FrozenParams(tau0=float(np.abs(prob.phi(*coords)).max()),
                              kappa0=float(np.abs(prob.psi(*coords)).max()),
                              nu=nu)
        report = analyze(grid, params, [dt])
        inside, max_abs_r = report.all_inside[0], report.max_abs_r[0]
        print("stability check: max|R(z)| = %.6f (%s), "
              "lambda1 max|Re|/max|Im| = %.3e"
              % (max_abs_r, "inside" if inside else "OUTSIDE",
                 report.ratio_re_im))
        manifest.config["stability_verdict"] = {"all_inside": inside,
                                                "max_abs_r": max_abs_r}

    manifest.write()
    return 0


# ---------------------------------------------------------------------------
# grid sweeps: convergence studies and published tables

@dataclass(frozen=True)
class TableSpec:
    """What one comparison solves and which values it reports.

    ``n_values`` are the grid labels, nodes per side unless ``intervals``
    (then each label counts intervals and the grid has one node more);
    ``times`` are the output times, the last one the horizon.  A norm table
    measures the error of ``field`` on each grid at each time, with two-grid
    orders when ``columns`` has ``r_l2``; a pointwise table (``field=None``)
    reads u and v at the published points.  ``columns`` is the header; an
    entry ``"name=key"`` prints the row value ``key`` under ``name``.
    """

    problem: object
    n_values: tuple
    dt: float
    times: tuple
    columns: tuple
    field: str = None
    intervals: bool = False
    notes: tuple = ()


def _ratio(computed, published):
    if computed is None or published in (None, 0.0):
        return None
    return computed / published


def _matching(refs, **keys):
    """The first reference row that agrees with ``keys`` on every key it has."""
    for ref in refs:
        if all(ref.get(k, v) == v for k, v in keys.items()):
            return ref
    return {}


def _row(columns, values, ref):
    """Select ``columns`` from ``values`` plus their published counterparts."""
    for name in ("u", "v", "l2", "linf", "r_l2", "r_linf"):
        if name in values:
            published = ref.get(name, ref.get(name + "_ref"))
            values[name + "_pub"] = published
            values[name + "_ratio"] = _ratio(values[name], published)
    return [values[c.partition("=")[2] or c] for c in columns]


def _sweep(spec, refs=()):
    """Solve on each grid; rows per grid and time, or per published point."""
    prob = spec.problem
    with_orders = "r_l2" in spec.columns
    rows, previous = [], {}
    for n in spec.n_values:
        sol = _solve(prob, n + 1 if spec.intervals else n, spec.dt,
                     max(spec.times), snapshots=spec.times)
        coords = sol.grid.coords
        for t, u, v in sol.snapshots:
            if spec.field is None:
                for ref in refs:
                    if ref.get("t", t) != t:
                        continue
                    i = int(np.abs(coords[0] - ref["x"]).argmin())
                    j = int(np.abs(coords[1] - ref["y"]).argmin())
                    values = {"x": ref["x"], "y": ref["y"], "t": t,
                              "u": float(u[i, j]), "v": float(v[i, j])}
                    rows.append(_row(spec.columns, values, ref))
                continue
            computed = u if spec.field == "u" else v
            exact = getattr(prob, "exact_" + spec.field)(*coords, t)
            # orders are taken on the grid labels (log 2 under doubling)
            rep = replace(error_norms(computed, exact, sol.grid.measure), n=n)
            values = {"n": n, "t": t, "l2": rep.l2, "linf": rep.linf,
                      "r_l2": None, "r_linf": None}
            if with_orders and t in previous:
                orders = convergence_order(previous[t], rep)
                values.update(r_l2=orders.l2, r_linf=orders.linf)
            previous[t] = rep
            # table 1.1 labels its grids N
            rows.append(_row(spec.columns, values, _matching(refs, N=n, n=n, t=t)))
    return rows


def run_convergence(args):
    """Grid-refinement study: solve on each grid, estimate two-grid orders."""
    prob = _build_problem(args)
    if prob.exact_u is None:
        raise ConfigError("problem %r has no exact solution" % args.problem)
    n_list = args.n_list
    if not n_list:
        raise ConfigError("n_list is required")
    for coarse, fine in zip(n_list, n_list[1:]):
        if fine != 2 * coarse:
            raise ConfigError(
                "n_list must double at each refinement, got %d -> %d"
                % (coarse, fine)
            )
    spec = TableSpec(prob, n_list, args.dt, (args.t_end,),
                     ("n", "l2", "r_l2", "linf", "r_linf"), field="u")

    manifest = Manifest(_config_echo(args), args.out)
    manifest.start("integrate")
    rows = _sweep(spec)

    manifest.start("output")
    print("%6s  %13s  %6s  %13s  %6s" % ("N", "L2", "R", "Linf", "R"))
    for n, l2, r_l2, linf, r_linf in rows:
        print("%6d  %13.6e  %6s  %13.6e  %6s"
              % (n, l2, "-" if r_l2 is None else "%.2f" % r_l2,
                 linf, "-" if r_linf is None else "%.2f" % r_linf))
    manifest.write_csv("convergence.csv", spec.columns, rows)
    manifest.write()
    return 0


_ORDER_COLUMNS = ("l2", "l2_pub", "l2_ratio", "r_l2", "r_l2_pub",
                  "linf", "linf_pub", "linf_ratio", "r_linf", "r_linf_pub")

# The published setups; ``run_table`` overrides shrink them for quick runs.
TABLES = {
    "1.1": TableSpec(problem1(), (10, 20, 40, 80, 160), 1e-3, (1.0,),
                     ("N=n",) + _ORDER_COLUMNS, field="u"),
    "1.3": TableSpec(problem1(), (121,), 1e-3, (0.5, 1.0, 2.0, 3.0),
                     ("t", "linf", "linf_pub", "linf_ratio",
                      "l2", "l2_pub", "l2_ratio"), field="u"),
    "2.1": TableSpec(problem2(re=80.0), (21,), 1e-4, (0.1, 0.3, 0.5),
                     ("x", "y", "t", "u", "u_pub", "ratio=u_ratio")),
    "2.3": TableSpec(
        problem2(re=100.0), (4, 8, 17, 32, 44, 64), 1e-4, (0.01, 0.5),
        ("n", "t", "l2", "l2_pub", "l2_ratio",
         "linf", "linf_pub", "linf_ratio"), field="v",
        notes=("published errors sit at rounding level (1e-8 and below), so "
               "ratios against them are indicative only",
               "published l2 > linf in every row, which the area-weighted l2 "
               "cannot give (<= 17/32 linf on 17 nodes); linf ratios indicative only")),
    "3.1": TableSpec(problem3(re=50.0), (21,), 1e-4, (0.625,),
                     ("x", "y", "u", "u_pub", "u_ratio",
                      "v", "v_pub", "v_ratio")),
    "4.1": TableSpec(
        problem4(re=100.0), (4, 8, 16, 32, 64), 1e-4, (1.0,),
        ("n",) + _ORDER_COLUMNS, field="u", intervals=True,
        notes=("mesh labels count intervals (n+1 nodes per side, h = 1/n)",
               "the published linf column is smaller than the published l2 "
               "of the same row, which the area-weighted norm cannot "
               "produce; linf ratios are therefore expected to be large")),
}


def _print_comparison(title, header, rows, notes=()):
    print(title)
    widths = [max(len(h), 13) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if value is None:
                cells.append("-".rjust(width))
            elif isinstance(value, float):
                cells.append(("%.6e" % value).rjust(width))
            else:
                cells.append(str(value).rjust(width))
        print("  ".join(cells))
    for note in notes:
        print("note: %s" % note)


def run_table(key, out=None, **overrides):
    """Recompute one published table and print computed vs published values.

    ``overrides`` replace ``TableSpec`` fields (``n_values``, ``dt``,
    ``times``) to shrink the parameter set for quick runs.  The defaults
    reproduce the published setup exactly.
    """
    if key not in TABLES:
        raise ConfigError(
            "unknown table %r; available: %s"
            % (key, ", ".join(TABLES))
        )
    spec = replace(TABLES[key], **overrides)
    rows = _sweep(spec, load_reference_table(key)[1])
    header = [c.partition("=")[0] for c in spec.columns]
    _print_comparison("table %s: computed vs published" % key, header, rows,
                      spec.notes)
    if out is not None:
        manifest = Manifest({"table": key, "out": str(out)}, out)
        manifest.start("output")
        manifest.write_csv("table_%s_comparison.csv" % key.replace(".", "_"),
                           header, rows)
        manifest.write()
    return 0


# ---------------------------------------------------------------------------
# stability

def run_stability(args):
    """Spectra of the frozen-coefficient operator plus per-dt verdicts."""
    dt_list = args.dt_list
    if not dt_list:
        raise ConfigError("dt_list is required")
    grid = Grid1D(args.a, args.b, args.nx)

    manifest = Manifest(_config_echo(args), args.out)
    manifest.start("analyze")
    report = analyze(grid, FrozenParams(tau0=args.tau0, kappa0=args.kappa0,
                                        nu=args.nu), dt_list)

    manifest.start("output")
    spec_rows = []
    for name, spectrum in (("lambda1", report.lambda1),
                           ("lambda2", report.lambda2)):
        for idx, lam in enumerate(spectrum, start=1):
            spec_rows.append([name, idx, lam.real, lam.imag])
    manifest.write_csv("spectra.csv", ["matrix", "index", "re", "im"], spec_rows)
    asm_rows = [[idx, lam.real, lam.imag]
                for idx, lam in enumerate(report.assembled, start=1)]
    manifest.write_csv("assembled_spectrum.csv", ["index", "re", "im"], asm_rows)

    verdict_rows = list(zip(dt_list, report.all_inside, report.max_abs_r))
    for row in verdict_rows:
        print("dt=%-12g all_inside=%-5s max|R(z)|=%.9f" % row)
    print("lambda1 max|Re|/max|Im| = %.6e" % report.ratio_re_im)
    manifest.write_csv("stability.csv", ["dt", "all_inside", "max_abs_r"],
                       verdict_rows)
    manifest.write()
    return 0


# ---------------------------------------------------------------------------
# weights dump

def run_weights_dump(args):
    """Dump first/second derivative weight matrices as (row, col, value)."""
    grid = Grid1D(args.a, args.b, args.nx)

    manifest = Manifest(_config_echo(args), args.out)
    manifest.start("weights")
    weights = _grid_weights(grid)
    w1 = weights.w1  # w2 is built only when read
    w2 = weights.w2 if args.order in (None, 2) else None

    manifest.start("output")
    for order, w in ((1, w1), (2, w2)):
        if args.order in (None, order):
            path = manifest.path("weights_order%d.csv" % order)
            dump_weights_csv(w, path)
            manifest.add_file(path)
    manifest.write()
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_solver_flags(sp):
    sp.add_argument("--problem", choices=sorted(PROBLEM_BUILDERS),
                    default="p1", help="problem id")
    sp.add_argument("--dt", type=float, default=1e-3, help="time step")
    sp.add_argument("--t-end", type=float, default=1.0, help="final time")
    sp.add_argument("--re", type=float, default=None,
                    help="Reynolds number (2D problems)")


def _add_interval_flags(sp):
    sp.add_argument("--nx", type=int, default=11, help="nodes along x")
    sp.add_argument("--a", type=float, default=-np.pi, help="left endpoint")
    sp.add_argument("--b", type=float, default=np.pi, help="right endpoint")


def _add_output_flags(sp):
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value config file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="burgers-dqm",
        description="Spline-quadrature solver for coupled Burgers' equations",
    )
    parser.add_argument("--version", action="version",
                        version="burgers-dqm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate one problem and dump CSVs")
    _add_solver_flags(sp)
    sp.add_argument("--nx", type=int, default=41, help="nodes along x")
    sp.add_argument("--ny", type=int, default=None,
                    help="nodes along y (default: nx)")
    sp.add_argument("--snapshots", type=_comma_floats, default=None,
                    help="comma-separated output times (default: t_end)")
    sp.add_argument("--stability-check", action="store_true",
                    help="run a frozen-coefficient stability check")
    _add_output_flags(sp)
    sp.set_defaults(func=run_solve)

    sp = sub.add_parser("convergence", help="grid refinement study")
    _add_solver_flags(sp)
    sp.add_argument("--n-list", type=_comma_ints, default=None,
                    help="comma-separated node counts, each double the last")
    _add_output_flags(sp)
    sp.set_defaults(func=run_convergence)

    sp = sub.add_parser("stability", help="frozen-coefficient spectra")
    _add_interval_flags(sp)
    sp.add_argument("--nu", type=float, default=1.0, help="viscosity")
    sp.add_argument("--tau0", type=float, default=1.0,
                    help="frozen u-convection speed")
    sp.add_argument("--kappa0", type=float, default=1.0,
                    help="frozen v-convection speed")
    sp.add_argument("--dt-list", type=_comma_floats, default=None,
                    help="comma-separated candidate steps")
    _add_output_flags(sp)
    sp.set_defaults(func=run_stability)

    sp = sub.add_parser("weights-dump", help="dump weight matrices as CSV")
    _add_interval_flags(sp)
    sp.add_argument("--order", type=int, choices=(1, 2), default=None,
                    help="derivative order 1 or 2 (default: both)")
    _add_output_flags(sp)
    sp.set_defaults(func=run_weights_dump)

    sp = sub.add_parser(
        "table",
        help="recompute a published benchmark table (may take minutes)",
    )
    sp.add_argument("table_id", choices=tuple(TABLES))
    sp.add_argument("--out", default=None,
                    help="also write the comparison as CSV here")
    sp.set_defaults(func=lambda args: run_table(args.table_id, out=args.out))

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so command-line flags win
            at = argv.index(args.command) + 1
            defaults = vars(parser.parse_args(argv[:at]))
            args = parser.parse_args(
                argv[:at] + _config_tokens(args.config, defaults) + argv[at:])
        # Blow-ups surface as a typed exception below; the overflow warnings
        # numpy emits on the way there are noise at the command line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ConfigError, DomainError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print("instability: %s" % exc, file=sys.stderr)
        return 3
    # ArithmeticError covers ConvergenceFailure and NoStableDt
    except (DegenerateError, ShapeMismatch, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
