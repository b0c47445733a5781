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

Config files are flat ``key = value`` text (``#`` comments); command-line
flags override file values.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dqm_weights import (
    Grid1D,
    dump_weights_csv,
    first_order_weights,
    second_order_weights,
)
from .exceptions import (
    ConfigError,
    ConvergenceFailure,
    DegenerateError,
    DomainError,
    NoStableDt,
    NonFiniteState,
    ShapeMismatch,
    SingularSystem,
)
from .problems import (
    PROBLEM_BUILDERS,
    REFERENCE_TABLE_KEYS,
    convergence_order,
    error_norms,
    load_reference_table,
)
from .solvers import BOUNDARY_POLICIES, solve_1d, solve_2d
from .stability import FrozenParams, analyze

TWO_D_PROBLEMS = ("p2", "p3", "p4")


# ---------------------------------------------------------------------------
# formatting / hashing helpers

def fmt(x):
    """Render a float with 17 significant digits (bit-faithful round trip)."""
    return format(float(x), ".17g")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    return str(value)


def write_csv(path, header, rows):
    """Write rows of mixed int/float/str cells with LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_of(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class Manifest:
    """Collects config echo, phase timings, and output-file checksums."""

    def __init__(self, config):
        self.config = config
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

    def write(self, out_dir):
        self.finish()
        payload = {
            "version": __version__,
            "config": self.config,
            "phases_seconds": self.phases,
            "files": self.files,
        }
        path = Path(out_dir) / "manifest.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


# ---------------------------------------------------------------------------
# config files

INT_KEYS = frozenset({"nx", "ny", "order"})
FLOAT_KEYS = frozenset({"dt", "t_end", "re", "nu", "tau0", "kappa0", "a", "b"})
FLOAT_LIST_KEYS = frozenset({"snapshots", "dt_list"})
INT_LIST_KEYS = frozenset({"n_list"})
BOOL_KEYS = frozenset({"stability_check"})


def parse_config_text(text):
    """Parse flat ``key = value`` lines into a {key: raw string} dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("line %d: empty key" % lineno)
        values[key] = value
    return values


def serialize_config(values):
    """Render a config dict back to the flat text format (sorted keys)."""
    lines = []
    for key in sorted(values):
        value = values[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(_cell(v) for v in value)
        else:
            value = _cell(value)
        lines.append("%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


def _float_list(raw, key):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError("%s: expected comma-separated numbers, got %r"
                          % (key, raw))


def _int_list(raw, key):
    values = _float_list(raw, key)
    if values is None:
        return None
    out = []
    for v in values:
        if v != int(v):
            raise ConfigError("%s: expected integers, got %r" % (key, raw))
        out.append(int(v))
    return out


def coerce_value(key, raw):
    """Convert a raw config-file string to the typed value for ``key``."""
    if raw is None:
        return None
    try:
        if key in INT_KEYS:
            return int(raw)
        if key in FLOAT_KEYS:
            return float(raw)
        if key in FLOAT_LIST_KEYS:
            return _float_list(raw, key)
        if key in INT_LIST_KEYS:
            return _int_list(raw, key)
        if key in BOOL_KEYS:
            text = str(raw).strip().lower()
            if text in ("true", "1", "yes", "on"):
                return True
            if text in ("false", "0", "no", "off"):
                return False
            raise ConfigError("%s: expected a boolean, got %r" % (key, raw))
    except ConfigError:
        raise
    except (TypeError, ValueError):
        raise ConfigError("%s: cannot parse %r" % (key, raw))
    return str(raw)


def merged_config(args, defaults):
    """Defaults <- config file <- explicit command-line flags."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError("config file not found: %s" % path)
        for key, raw in parse_config_text(path.read_text(encoding="utf-8")).items():
            if key not in defaults:
                raise ConfigError("unknown config key %r" % key)
            cfg[key] = coerce_value(key, raw)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            if key in FLOAT_LIST_KEYS:
                value = _float_list(value, key)
            elif key in INT_LIST_KEYS:
                value = _int_list(value, key)
            cfg[key] = value
    return cfg


def _build_problem(cfg):
    problem_id = cfg.get("problem")
    if problem_id not in PROBLEM_BUILDERS:
        raise ConfigError(
            "unknown problem %r; available: %s"
            % (problem_id, ", ".join(sorted(PROBLEM_BUILDERS)))
        )
    builder = PROBLEM_BUILDERS[problem_id]
    re_value = cfg.get("re")
    if problem_id == "p1":
        if re_value is not None:
            raise ConfigError("re applies to the 2D problems only")
        return builder()
    if re_value is None:
        return builder()
    return builder(re=re_value)


# ---------------------------------------------------------------------------
# solve

SOLVE_DEFAULTS = {
    "problem": "p1",
    "nx": 41,
    "ny": None,
    "dt": 1e-3,
    "t_end": 1.0,
    "snapshots": None,
    "re": None,
    "out": "out",
    "boundary_policy": "base",
    "stability_check": False,
}


def _time_token(t):
    return ("%g" % t).replace("-", "m")


def _solution_rows_1d(sol_t, grid, u, v, prob):
    header = ["x", "u", "v"]
    cols = [grid.x, u, v]
    if prob.exact_u is not None:
        eu = prob.exact_u(grid.x, sol_t)
        ev = prob.exact_v(grid.x, sol_t)
        header += ["exact_u", "exact_v", "err_u", "err_v"]
        cols += [eu, ev, u - eu, v - ev]
    rows = [[col[i] for col in cols] for i in range(grid.n)]
    return header, rows


def _solution_rows_2d(sol_t, grid, u, v, prob):
    x = grid.xgrid.x
    y = grid.ygrid.x
    header = ["x", "y", "u", "v"]
    exact = None
    if prob.exact_u is not None:
        eu = prob.exact_u(x[:, None], y[None, :], sol_t)
        ev = prob.exact_v(x[:, None], y[None, :], sol_t)
        header += ["exact_u", "exact_v", "err_u", "err_v"]
        exact = (eu, ev)
    rows = []
    for i in range(grid.xgrid.n):
        for j in range(grid.ygrid.n):
            row = [x[i], y[j], u[i, j], v[i, j]]
            if exact is not None:
                eu, ev = exact
                row += [eu[i, j], ev[i, j],
                        u[i, j] - eu[i, j], v[i, j] - ev[i, j]]
            rows.append(row)
    return header, rows


def run_solve(cfg):
    """Integrate one problem per ``cfg`` and write solution/error CSVs."""
    prob = _build_problem(cfg)
    is_2d = cfg["problem"] in TWO_D_PROBLEMS
    nx, dt, t_end = cfg["nx"], cfg["dt"], cfg["t_end"]
    if nx is None or dt is None or t_end is None:
        raise ConfigError("nx, dt, and t_end are required")
    snapshots = cfg.get("snapshots")
    if not snapshots:
        snapshots = [t_end]
    snapshots = sorted(set(float(s) for s in snapshots))
    for s in snapshots:
        if s < 0.0 or s > t_end + 1e-12:
            raise ConfigError("snapshot %r outside [0, %r]" % (s, t_end))

    manifest = Manifest(_config_echo(cfg))
    out_dir = Path(cfg["out"])

    manifest.start("integrate")
    if is_2d:
        sol = solve_2d(prob, nx, dt, t_end, ny=cfg.get("ny"),
                       boundary_policy=cfg["boundary_policy"],
                       snapshots=snapshots)
        grid1 = sol.grid.xgrid
        weight = sol.grid.xgrid.h * sol.grid.ygrid.h
    else:
        sol = solve_1d(prob, nx, dt, t_end,
                       boundary_policy=cfg["boundary_policy"],
                       snapshots=snapshots)
        grid1 = sol.grid
        weight = sol.grid.h
    manifest.start("output")
    out_dir.mkdir(parents=True, exist_ok=True)

    error_rows = []
    for snap_t, su, sv in sol.snapshots:
        if is_2d:
            header, rows = _solution_rows_2d(snap_t, sol.grid, su, sv, prob)
        else:
            header, rows = _solution_rows_1d(snap_t, sol.grid, su, sv, prob)
        path = out_dir / ("solution_t%s.csv" % _time_token(snap_t))
        write_csv(path, header, rows)
        manifest.add_file(path)
        if prob.exact_u is not None:
            if is_2d:
                x = sol.grid.xgrid.x[:, None]
                y = sol.grid.ygrid.x[None, :]
                eu = prob.exact_u(x, y, snap_t)
                ev = prob.exact_v(x, y, snap_t)
            else:
                eu = prob.exact_u(sol.grid.x, snap_t)
                ev = prob.exact_v(sol.grid.x, snap_t)
            ru = error_norms(su, eu, weight, dt=dt, t=snap_t)
            rv = error_norms(sv, ev, weight, dt=dt, t=snap_t)
            error_rows.append([snap_t, nx, dt, ru.l2, ru.linf, rv.l2, rv.linf])

    if error_rows:
        path = out_dir / "errors.csv"
        write_csv(path, ["t", "n", "dt", "l2_u", "linf_u", "l2_v", "linf_v"],
                  error_rows)
        manifest.add_file(path)
        for row in error_rows:
            print("t=%g  L2(u)=%.6e  Linf(u)=%.6e  L2(v)=%.6e  Linf(v)=%.6e"
                  % (row[0], row[3], row[4], row[5], row[6]))

    if cfg.get("stability_check"):
        manifest.start("stability")
        if is_2d:
            x = sol.grid.xgrid.x[:, None]
            y = sol.grid.ygrid.x[None, :]
            u0 = np.broadcast_to(prob.phi(x, y), (grid1.n, sol.grid.ygrid.n))
            v0 = np.broadcast_to(prob.psi(x, y), (grid1.n, sol.grid.ygrid.n))
            nu = prob.nu
        else:
            u0 = prob.phi(grid1.x)
            v0 = prob.psi(grid1.x)
            nu = 1.0
        params = FrozenParams(tau0=float(np.abs(u0).max()),
                              kappa0=float(np.abs(v0).max()),
                              nu=nu, dt=dt)
        report = analyze(grid1, params)
        verdict = "inside" if report.all_inside else "OUTSIDE"
        print("stability check: max|R(z)| = %.6f (%s), "
              "lambda1 max|Re|/max|Im| = %.3e"
              % (report.max_abs_r, verdict, report.ratio_re_im))
        manifest.config["stability_verdict"] = {
            "all_inside": report.all_inside,
            "max_abs_r": report.max_abs_r,
        }

    manifest.write(out_dir)
    return 0


def _config_echo(cfg):
    echo = {}
    for key, value in sorted(cfg.items()):
        if isinstance(value, (list, tuple)):
            echo[key] = [float(v) for v in value]
        else:
            echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# convergence

CONVERGENCE_DEFAULTS = {
    "problem": "p1",
    "n_list": None,
    "dt": 1e-3,
    "t_end": 1.0,
    "re": None,
    "out": "out",
    "boundary_policy": "base",
}


def run_convergence(cfg):
    """Grid-refinement study: solve on each grid, estimate two-grid orders."""
    prob = _build_problem(cfg)
    is_2d = cfg["problem"] in TWO_D_PROBLEMS
    if prob.exact_u is None:
        raise ConfigError("problem %r has no exact solution" % cfg["problem"])
    n_list = cfg.get("n_list")
    if not n_list:
        raise ConfigError("n_list is required")
    if len(n_list) != len(set(n_list)) or sorted(n_list) != list(n_list):
        raise ConfigError("n_list must be strictly increasing")
    for coarse, fine in zip(n_list, n_list[1:]):
        if fine != 2 * coarse:
            raise ConfigError(
                "n_list must double at each refinement, got %d -> %d"
                % (coarse, fine)
            )
    dt, t_end = cfg["dt"], cfg["t_end"]

    manifest = Manifest(_config_echo(cfg))
    manifest.start("integrate")
    reports = []
    for n in n_list:
        if is_2d:
            sol = solve_2d(prob, n, dt, t_end,
                           boundary_policy=cfg["boundary_policy"])
            x = sol.grid.xgrid.x[:, None]
            y = sol.grid.ygrid.x[None, :]
            exact = prob.exact_u(x, y, sol.t)
            weight = sol.grid.xgrid.h * sol.grid.ygrid.h
        else:
            sol = solve_1d(prob, n, dt, t_end,
                           boundary_policy=cfg["boundary_policy"])
            exact = prob.exact_u(sol.grid.x, sol.t)
            weight = sol.grid.h
        reports.append(error_norms(sol.u, exact, weight, dt=dt, t=t_end))

    manifest.start("output")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    print("%6s  %13s  %6s  %13s  %6s" % ("N", "L2", "R", "Linf", "R"))
    for k, rep in enumerate(reports):
        r_l2 = r_linf = None
        if k > 0:
            orders = convergence_order(reports[k - 1], rep)
            r_l2, r_linf = orders.l2, orders.linf
        rows.append([rep.n, rep.l2, r_l2, rep.linf, r_linf])
        print("%6d  %13.6e  %6s  %13.6e  %6s"
              % (rep.n, rep.l2,
                 "-" if r_l2 is None else "%.2f" % r_l2,
                 rep.linf,
                 "-" if r_linf is None else "%.2f" % r_linf))
    path = out_dir / "convergence.csv"
    write_csv(path, ["n", "l2", "r_l2", "linf", "r_linf"], rows)
    manifest.add_file(path)
    manifest.write(out_dir)
    return 0


# ---------------------------------------------------------------------------
# stability

STABILITY_DEFAULTS = {
    "nx": 11,
    "a": -np.pi,
    "b": np.pi,
    "nu": 1.0,
    "tau0": 1.0,
    "kappa0": 1.0,
    "dt_list": None,
    "out": "out",
}


def run_stability(cfg):
    """Spectra of the frozen-coefficient operator plus per-dt verdicts."""
    dt_list = cfg.get("dt_list")
    if not dt_list:
        raise ConfigError("dt_list is required")
    for dt in dt_list:
        if dt <= 0.0:
            raise ConfigError("dt values must be positive, got %r" % (dt,))
    grid = Grid1D(cfg["a"], cfg["b"], cfg["nx"])

    manifest = Manifest(_config_echo(cfg))
    manifest.start("analyze")
    reports = [
        analyze(grid, FrozenParams(tau0=cfg["tau0"], kappa0=cfg["kappa0"],
                                   nu=cfg["nu"], dt=dt))
        for dt in dt_list
    ]

    manifest.start("output")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    first = reports[0]
    spec_rows = []
    for idx, lam in enumerate(first.lambda1, start=1):
        spec_rows.append(["lambda1", idx, lam.real, lam.imag])
    for idx, lam in enumerate(first.lambda2, start=1):
        spec_rows.append(["lambda2", idx, lam.real, lam.imag])
    path = out_dir / "spectra.csv"
    write_csv(path, ["matrix", "index", "re", "im"], spec_rows)
    manifest.add_file(path)

    asm_rows = [[idx, lam.real, lam.imag]
                for idx, lam in enumerate(first.assembled, start=1)]
    path = out_dir / "assembled_spectrum.csv"
    write_csv(path, ["index", "re", "im"], asm_rows)
    manifest.add_file(path)

    verdict_rows = []
    for dt, report in zip(dt_list, reports):
        verdict_rows.append([dt, report.all_inside, report.max_abs_r])
        print("dt=%-12g all_inside=%-5s max|R(z)|=%.9f"
              % (dt, report.all_inside, report.max_abs_r))
    print("lambda1 max|Re|/max|Im| = %.6e" % first.ratio_re_im)
    path = out_dir / "stability.csv"
    write_csv(path, ["dt", "all_inside", "max_abs_r"], verdict_rows)
    manifest.add_file(path)
    manifest.write(out_dir)
    return 0


# ---------------------------------------------------------------------------
# weights dump

WEIGHTS_DEFAULTS = {
    "nx": 11,
    "a": -np.pi,
    "b": np.pi,
    "order": None,
    "out": "out",
}


def run_weights_dump(cfg):
    """Dump first/second derivative weight matrices as (row, col, value)."""
    grid = Grid1D(cfg["a"], cfg["b"], cfg["nx"])
    order = cfg.get("order")
    if order not in (None, 1, 2):
        raise ConfigError("order must be 1 or 2, got %r" % (order,))

    manifest = Manifest(_config_echo(cfg))
    manifest.start("weights")
    w1 = first_order_weights(grid)
    w2 = second_order_weights(w1, grid) if order in (None, 2) else None

    manifest.start("output")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if order in (None, 1):
        path = out_dir / "weights_order1.csv"
        dump_weights_csv(w1, path)
        manifest.add_file(path)
    if order in (None, 2):
        path = out_dir / "weights_order2.csv"
        dump_weights_csv(w2, path)
        manifest.add_file(path)
    manifest.write(out_dir)
    return 0


# ---------------------------------------------------------------------------
# published-table reproduction

def _ratio(computed, published):
    if published in (None, 0.0):
        return None
    return computed / published


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


def _table_1_1(n_values=None, dt=1e-3, t_end=1.0):
    from .problems import problem1

    _, ref_rows = load_reference_table("1.1")
    ref_by_n = {int(r["N"]): r for r in ref_rows}
    prob = problem1()
    wanted = n_values or sorted(ref_by_n)
    reports = []
    for n in wanted:
        sol = solve_1d(prob, n, dt, t_end)
        exact = prob.exact_u(sol.grid.x, sol.t)
        reports.append(error_norms(sol.u, exact, sol.grid.h, dt=dt, t=t_end))
    rows = []
    for k, rep in enumerate(reports):
        r_l2 = r_linf = None
        if k > 0:
            orders = convergence_order(reports[k - 1], rep)
            r_l2, r_linf = orders.l2, orders.linf
        ref = ref_by_n.get(rep.n, {})
        rows.append([rep.n, rep.l2, ref.get("l2"), _ratio(rep.l2, ref.get("l2")),
                     r_l2, ref.get("r_l2"),
                     rep.linf, ref.get("linf"), _ratio(rep.linf, ref.get("linf")),
                     r_linf, ref.get("r_linf")])
    header = ["N", "l2", "l2_pub", "l2_ratio", "r_l2", "r_l2_pub",
              "linf", "linf_pub", "linf_ratio", "r_linf", "r_linf_pub"]
    return header, rows, ()


def _table_1_3(nx=121, dt=1e-3, times=(0.5, 1.0, 2.0, 3.0)):
    from .problems import problem1

    _, ref_rows = load_reference_table("1.3")
    ref_by_t = {float(r["t"]): r for r in ref_rows}
    prob = problem1()
    sol = solve_1d(prob, nx, dt, max(times), snapshots=times)
    rows = []
    for snap_t, su, _sv in sol.snapshots:
        exact = prob.exact_u(sol.grid.x, snap_t)
        rep = error_norms(su, exact, sol.grid.h, dt=dt, t=snap_t)
        ref = ref_by_t.get(snap_t, {})
        rows.append([snap_t,
                     rep.linf, ref.get("linf"), _ratio(rep.linf, ref.get("linf")),
                     rep.l2, ref.get("l2"), _ratio(rep.l2, ref.get("l2"))])
    header = ["t", "linf", "linf_pub", "linf_ratio", "l2", "l2_pub", "l2_ratio"]
    return header, rows, ()


def _table_2_1(nx=21, dt=1e-4):
    from .problems import problem2

    _, ref_rows = load_reference_table("2.1")
    prob = problem2(re=80.0)
    times = sorted(set(float(r["t"]) for r in ref_rows))
    sol = solve_2d(prob, nx, dt, max(times), snapshots=times)
    by_time = {snap_t: su for snap_t, su, _sv in sol.snapshots}
    hx = sol.grid.xgrid.h
    hy = sol.grid.ygrid.h
    rows = []
    for ref in ref_rows:
        x, y, t = ref["x"], ref["y"], ref["t"]
        i = int(round((x - prob.a) / hx))
        j = int(round((y - prob.c) / hy))
        computed = float(by_time[t][i, j])
        rows.append([x, y, t, computed, ref["u_ref"],
                     _ratio(computed, ref["u_ref"])])
    header = ["x", "y", "t", "u", "u_pub", "ratio"]
    return header, rows, ()


def _table_2_3(n_values=None, dt=1e-4):
    from .problems import problem2

    _, ref_rows = load_reference_table("2.3")
    prob = problem2(re=100.0)
    times = sorted(set(float(r["t"]) for r in ref_rows))
    wanted = n_values or sorted(set(int(r["n"]) for r in ref_rows))
    rows = []
    for n in wanted:
        sol = solve_2d(prob, n, dt, max(times), snapshots=times)
        weight = sol.grid.xgrid.h * sol.grid.ygrid.h
        x = sol.grid.xgrid.x[:, None]
        y = sol.grid.ygrid.x[None, :]
        for snap_t, _su, sv in sol.snapshots:
            rep = error_norms(sv, prob.exact_v(x, y, snap_t), weight,
                              dt=dt, t=snap_t)
            ref = next((r for r in ref_rows
                        if int(r["n"]) == n and float(r["t"]) == snap_t), {})
            rows.append([n, snap_t,
                         rep.l2, ref.get("l2"), _ratio(rep.l2, ref.get("l2")),
                         rep.linf, ref.get("linf"),
                         _ratio(rep.linf, ref.get("linf"))])
    header = ["n", "t", "l2", "l2_pub", "l2_ratio",
              "linf", "linf_pub", "linf_ratio"]
    notes = ("published errors sit at rounding level (1e-8 and below), so "
             "ratios against them are indicative only",)
    return header, rows, notes


def _table_3_1(nx=21, dt=1e-4, t_end=0.625):
    from .problems import problem3

    _, ref_rows = load_reference_table("3.1")
    prob = problem3(re=50.0)
    sol = solve_2d(prob, nx, dt, t_end)
    hx = sol.grid.xgrid.h
    hy = sol.grid.ygrid.h
    rows = []
    for ref in ref_rows:
        x, y = ref["x"], ref["y"]
        i = int(round((x - prob.a) / hx))
        j = int(round((y - prob.c) / hy))
        u_c = float(sol.u[i, j])
        v_c = float(sol.v[i, j])
        rows.append([x, y,
                     u_c, ref["u_ref"], _ratio(u_c, ref["u_ref"]),
                     v_c, ref["v_ref"], _ratio(v_c, ref["v_ref"])])
    header = ["x", "y", "u", "u_pub", "u_ratio", "v", "v_pub", "v_ratio"]
    return header, rows, ()


def _table_4_1(n_values=None, dt=1e-4, t_end=1.0):
    from .problems import problem4

    _, ref_rows = load_reference_table("4.1")
    ref_by_n = {int(r["n"]): r for r in ref_rows}
    prob = problem4(re=100.0)
    wanted = n_values or sorted(ref_by_n)
    reports = []
    for n in wanted:
        # published mesh labels count intervals; solve with n+1 nodes per side
        sol = solve_2d(prob, n + 1, dt, t_end)
        x = sol.grid.xgrid.x[:, None]
        y = sol.grid.ygrid.x[None, :]
        weight = sol.grid.xgrid.h * sol.grid.ygrid.h
        rep = error_norms(sol.u, prob.exact_u(x, y, sol.t), weight,
                          dt=dt, t=t_end)
        reports.append((n, rep))
    rows = []
    prev = None
    for n, rep in reports:
        r_l2 = r_linf = None
        if prev is not None:
            orders = convergence_order(prev, rep)
            r_l2, r_linf = orders.l2, orders.linf
        prev = rep
        ref = ref_by_n.get(n, {})
        rows.append([n, rep.l2, ref.get("l2"), _ratio(rep.l2, ref.get("l2")),
                     r_l2, ref.get("r_l2"),
                     rep.linf, ref.get("linf"),
                     _ratio(rep.linf, ref.get("linf")),
                     r_linf, ref.get("r_linf")])
    header = ["n", "l2", "l2_pub", "l2_ratio", "r_l2", "r_l2_pub",
              "linf", "linf_pub", "linf_ratio", "r_linf", "r_linf_pub"]
    notes = ("mesh labels count intervals (n+1 nodes per side, h = 1/n)",
             "the published linf column is smaller than the published l2 of "
             "the same row, which the area-weighted norm cannot produce; "
             "linf ratios are therefore expected to be large")
    return header, rows, notes


TABLE_RUNNERS = {
    "1.1": _table_1_1,
    "1.3": _table_1_3,
    "2.1": _table_2_1,
    "2.3": _table_2_3,
    "3.1": _table_3_1,
    "4.1": _table_4_1,
}


def run_table(key, out=None, **overrides):
    """Recompute one published table and print computed vs published values.

    ``overrides`` (n_values, nx, dt, t_end, times) shrink the parameter set
    for quick runs; the defaults reproduce the published setup exactly.
    """
    if key not in TABLE_RUNNERS:
        raise ConfigError(
            "unknown table %r; available: %s"
            % (key, ", ".join(REFERENCE_TABLE_KEYS))
        )
    header, rows, notes = TABLE_RUNNERS[key](**overrides)
    _print_comparison("table %s: computed vs published" % key, header, rows,
                      notes)
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = Manifest({"table": key, "out": str(out)})
        manifest.start("output")
        path = out_dir / ("table_%s_comparison.csv" % key.replace(".", "_"))
        write_csv(path, header, rows)
        manifest.add_file(path)
        manifest.write(out_dir)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_solver_flags(sp):
    sp.add_argument("--problem", default=None,
                    help="problem id: p1, p2, p3, p4")
    sp.add_argument("--dt", type=float, default=None, help="time step")
    sp.add_argument("--t-end", dest="t_end", type=float, default=None,
                    help="final time")
    sp.add_argument("--re", type=float, default=None,
                    help="Reynolds number (2D problems)")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value config file; flags override it")
    sp.add_argument("--boundary-policy", dest="boundary_policy",
                    choices=BOUNDARY_POLICIES, default=None,
                    help="evaluate boundary data at step base time or stage times")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="burgers-dqm",
        description="Spline-quadrature solver for coupled Burgers' equations",
    )
    parser.add_argument("--version", action="version",
                        version="burgers-dqm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate one problem and dump CSVs")
    _add_common_solver_flags(sp)
    sp.add_argument("--nx", type=int, default=None, help="nodes along x")
    sp.add_argument("--ny", type=int, default=None,
                    help="nodes along y (default: nx)")
    sp.add_argument("--snapshots", default=None,
                    help="comma-separated output times (default: t_end)")
    sp.add_argument("--stability-check", dest="stability_check",
                    action="store_true", default=None,
                    help="run a frozen-coefficient stability check")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("convergence", help="grid refinement study")
    _add_common_solver_flags(sp)
    sp.add_argument("--n-list", dest="n_list", default=None,
                    help="comma-separated node counts, each double the last")
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("stability", help="frozen-coefficient spectra")
    sp.add_argument("--nx", type=int, default=None, help="nodes along x")
    sp.add_argument("--a", type=float, default=None, help="left endpoint")
    sp.add_argument("--b", type=float, default=None, help="right endpoint")
    sp.add_argument("--nu", type=float, default=None, help="viscosity")
    sp.add_argument("--tau0", type=float, default=None,
                    help="frozen u-convection speed")
    sp.add_argument("--kappa0", type=float, default=None,
                    help="frozen v-convection speed")
    sp.add_argument("--dt-list", dest="dt_list", default=None,
                    help="comma-separated candidate steps")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("weights-dump", help="dump weight matrices as CSV")
    sp.add_argument("--nx", type=int, default=None, help="nodes along x")
    sp.add_argument("--a", type=float, default=None, help="left endpoint")
    sp.add_argument("--b", type=float, default=None, help="right endpoint")
    sp.add_argument("--order", type=int, default=None,
                    help="derivative order 1 or 2 (default: both)")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_weights_dump)

    sp = sub.add_parser(
        "table",
        help="recompute a published benchmark table (may take minutes)",
    )
    sp.add_argument("table_id", choices=REFERENCE_TABLE_KEYS)
    sp.add_argument("--out", default=None,
                    help="also write the comparison as CSV here")
    sp.set_defaults(func=cmd_table)

    return parser


def cmd_solve(args):
    return run_solve(merged_config(args, SOLVE_DEFAULTS))


def cmd_convergence(args):
    return run_convergence(merged_config(args, CONVERGENCE_DEFAULTS))


def cmd_stability(args):
    return run_stability(merged_config(args, STABILITY_DEFAULTS))


def cmd_weights_dump(args):
    return run_weights_dump(merged_config(args, WEIGHTS_DEFAULTS))


def cmd_table(args):
    return run_table(args.table_id, out=args.out)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        # Blow-ups surface as a typed exception below; the overflow warnings
        # numpy emits on the way there are noise at the command line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, DomainError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print("instability: %s" % exc, file=sys.stderr)
        return 3
    except (SingularSystem, ConvergenceFailure, NoStableDt, DegenerateError,
            ShapeMismatch, np.linalg.LinAlgError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
