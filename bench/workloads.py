"""The benchmark's workloads: seeded inputs, set-up, one timed job, its checks.

Every workload drives the public API of ``burgers_dqm`` (or its CLI entry
point) through module attributes looked up at call time, so the traced run
can rebind them.  A workload is a small object with four methods:

``inputs(seed)``   the job inputs, drawn from the seed alone
``setup(inputs)``  import-time and per-input set-up, returns a context
``run(ctx, k)``    one timed job on input ``k``; returns its raw output
``check(ctx, k, out)``  correctness checks; returns a ``JobResult`` or
                   raises ``CheckFailed``

plus the defaults of ``Workload``.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

import burgers_dqm as bd

# Jobs cycle through this many seeded inputs.  Every run completes each of
# them at least once, so the per-input error metrics are fixed by the seed.
INPUTS_PER_RUN = 8


class CheckFailed(Exception):
    """A job's output failed one of the workload's correctness checks."""


@dataclasses.dataclass
class JobResult:
    steps: int  # RK steps advanced, or candidate steps judged (cli-analysis)
    err_linf: float
    err_l2: float
    output_bytes: int = 0


@dataclasses.dataclass
class Context:
    inputs: list
    problems: list  # per-input problem objects (the traced run replaces them)
    extra: dict = dataclasses.field(default_factory=dict)


def _rng(name, seed):
    return random.Random("%s/%d" % (name, seed))


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Workload:
    """Defaults for a workload without an RHS, traces or files to clean."""

    trace_fields = ()  # boundary-trace fields of its problems

    def rhs_products(self, ctx):
        """The bare matrix products of one full-sum RHS, or None."""
        return None

    def speed_kernel(self, ctx):
        """(kernel, uncontended seconds) for the speed reference; Nones
        select the default kernel."""
        return None, None

    def cleanup(self, ctx):
        pass


class P4Solve(Workload):
    """``solve_2d(problem4(re), n, dt, ...)`` started from the exact solution
    at a seeded ``t0``.

    Checks: every value finite, max-norm error of ``u`` under a fixed ceiling
    (about five times today's error, so a better boundary closure passes and
    a broken one does not), and the invariant ``u + v = 3/2`` to rounding.
    """

    dim = 2
    trace_fields = ("bc_u", "bc_v")
    invariant_tol = 1e-9

    def __init__(self, name, n, steps, linf_ceiling, dt=1e-4,
                 products_reference=None):
        self.name = name
        self.n = n
        self.steps = steps
        self.linf_ceiling = linf_ceiling
        self.dt = dt
        # (repetitions, uncontended seconds) when the speed reference kernel
        # is the bare RHS products rather than the default mix
        self.products_reference = products_reference

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        return [{"re": round(rng.uniform(99.5, 100.5), 6),
                 "t0": rng.randrange(0, 101) * self.dt}
                for _ in range(INPUTS_PER_RUN)]

    def setup(self, inputs):
        problems = []
        for inp in inputs:
            prob = bd.problem4(re=inp["re"])
            t0 = inp["t0"]
            problems.append(dataclasses.replace(
                prob,
                phi=lambda x, y, f=prob.exact_u, t0=t0: f(x, y, t0),
                psi=lambda x, y, f=prob.exact_v, t0=t0: f(x, y, t0),
            ))
        grid = bd.Grid2D.square(0.0, 1.0, self.n)
        return Context(inputs, problems, {"grid": grid,
                                          "weights": bd.weights_2d(grid)})

    def run(self, ctx, k):
        prob = ctx.problems[k]
        t0 = ctx.inputs[k]["t0"]
        sol = bd.solve_2d(prob, self.n, self.dt, t0 + self.steps * self.dt,
                          t0=t0)
        x = sol.grid.xgrid.x[:, None]
        y = sol.grid.ygrid.x[None, :]
        rep = bd.error_norms(sol.u, prob.exact_u(x, y, sol.t),
                             sol.grid.xgrid.h * sol.grid.ygrid.h)
        return sol, rep

    def check(self, ctx, k, out):
        sol, rep = out
        _require(np.isfinite(sol.u).all() and np.isfinite(sol.v).all(),
                 "non-finite state")
        _require(rep.linf <= self.linf_ceiling,
                 "err_linf %.3e above ceiling %.1e" % (rep.linf, self.linf_ceiling))
        drift = float(np.abs(sol.u + sol.v - 1.5).max())
        _require(drift <= self.invariant_tol,
                 "max|u+v-3/2| = %.3e above %.0e" % (drift, self.invariant_tol))
        return JobResult(self.steps, rep.linf, rep.l2)

    def rhs_products(self, ctx):
        """The bare matrix products of one full-sum ``rhs_2d``, as a callable."""
        ax1, ax2, by1, by2 = ctx.extra["weights"]
        state = np.random.default_rng(0).random((2, self.n, self.n))

        def products():
            for w in state:
                ax2 @ w
                w @ by2.T
                ax1 @ w
                w @ by1.T

        return products

    def speed_kernel(self, ctx):
        if self.products_reference is None:
            return None, None
        reps, reference_s = self.products_reference
        products = self.rhs_products(ctx)

        def kernel():
            for _ in range(reps):
                products()

        return kernel, reference_s


class P1Solve(Workload):
    """``solve_1d(problem1(), 121, 1e-3, ...)`` from the exact solution at a
    seeded ``t0``; the error of ``u`` against ``exp(-t) sin x`` must stay under
    a fixed ceiling."""

    dim = 1
    trace_fields = ("g1", "g2", "g3", "g4")

    def __init__(self, name, n, steps, linf_ceiling, dt=1e-3):
        self.name = name
        self.n = n
        self.steps = steps
        self.linf_ceiling = linf_ceiling
        self.dt = dt

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        return [{"t0": rng.randrange(0, 21) * self.dt}
                for _ in range(INPUTS_PER_RUN)]

    def setup(self, inputs):
        problems = []
        for inp in inputs:
            prob = bd.problem1()
            t0 = inp["t0"]
            problems.append(dataclasses.replace(
                prob,
                phi=lambda x, f=prob.exact_u, t0=t0: f(x, t0),
                psi=lambda x, f=prob.exact_v, t0=t0: f(x, t0),
            ))
        grid = bd.Grid1D(-math.pi, math.pi, self.n)
        w1 = bd.first_order_weights(grid)
        return Context(inputs, problems, {
            "grid": grid, "weights": (w1, bd.second_order_weights(w1, grid))})

    def run(self, ctx, k):
        prob = ctx.problems[k]
        t0 = ctx.inputs[k]["t0"]
        sol = bd.solve_1d(prob, self.n, self.dt, t0 + self.steps * self.dt,
                          t0=t0)
        rep = bd.error_norms(sol.u, prob.exact_u(sol.grid.x, sol.t),
                             sol.grid.h)
        return sol, rep

    def check(self, ctx, k, out):
        sol, rep = out
        _require(np.isfinite(sol.u).all() and np.isfinite(sol.v).all(),
                 "non-finite state")
        _require(rep.linf <= self.linf_ceiling,
                 "err_linf %.3e above ceiling %.1e" % (rep.linf, self.linf_ceiling))
        return JobResult(self.steps, rep.linf, rep.l2)

    def rhs_products(self, ctx):
        """The bare matrix-vector products of one full-sum ``rhs_1d``."""
        w1, w2 = ctx.extra["weights"]
        state = np.random.default_rng(0).random((2, self.n))

        def products():
            for w in state:
                w1 @ w
                w2 @ w

        return products


class CliAnalysis(Workload):
    """In-process ``cli.main``: ``stability`` over four seeded candidate steps,
    then ``weights-dump``, both at 121 nodes on [-pi, pi].

    The error metrics are those of the dumped matrices on f = sin(x + 0.3):
    the larger of the first- and second-derivative errors over rows 1..n-2,
    the rows a solve uses, boundary-adjacent rows included.  They are fixed
    by the code, not by the seed.
    """

    dim = 1
    n = 121
    phase = 0.3

    def __init__(self, name, work_dir):
        self.name = name
        self.work_dir = Path(work_dir)

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        # today's largest stable step is 1.1e-3/nu, so the smallest candidate
        # is always well inside and the others straddle the limit
        inputs = []
        for _ in range(INPUTS_PER_RUN):
            dts = [rng.uniform(1e-4, 3e-4)] + [rng.uniform(3e-4, 2e-3)
                                              for _ in range(3)]
            inputs.append({"nu": round(rng.uniform(0.8, 1.2), 6),
                           "dt_list": sorted(round(d, 9) for d in dts)})
        return inputs

    def setup(self, inputs):
        from burgers_dqm import cli

        cli.build_parser()
        grid = bd.Grid1D(-math.pi, math.pi, self.n)
        w1 = bd.first_order_weights(grid)
        bd.second_order_weights(w1, grid)
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        return Context(inputs, [], {
            "cli": cli, "grid": grid,
            "stability": self.work_dir / "stability",
            "weights": self.work_dir / "weights"})

    def cleanup(self, ctx):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def run(self, ctx, k):
        inp = ctx.inputs[k]
        cli = ctx.extra["cli"]
        stab = ["stability", "--nx", str(self.n), "--nu", repr(inp["nu"]),
                "--dt-list", ",".join(repr(d) for d in inp["dt_list"]),
                "--out", str(ctx.extra["stability"])]
        dump = ["weights-dump", "--nx", str(self.n),
                "--out", str(ctx.extra["weights"])]
        # the CLI prints its verdicts; keep them off the benchmark's stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(stab), cli.main(dump)

    def check(self, ctx, k, out):
        _require(out == (0, 0), "exit codes %r" % (out,))
        total = 0
        for key in ("stability", "weights"):
            total += _check_manifest(ctx.extra[key])
        rows = (ctx.extra["stability"] / "stability.csv").read_text().split()
        verdicts = [r.split(",") for r in rows[1:]]
        dts = ctx.inputs[k]["dt_list"]
        _require(len(verdicts) == len(dts), "%d verdicts for %d steps"
                 % (len(verdicts), len(dts)))
        smallest = min(verdicts, key=lambda r: float(r[0]))
        _require(smallest[1] == "true",
                 "smallest dt %s judged unstable" % smallest[0])

        x = ctx.extra["grid"].x
        h = ctx.extra["grid"].h
        w1 = _read_weights(ctx.extra["weights"] / "weights_order1.csv", self.n)
        w2 = _read_weights(ctx.extra["weights"] / "weights_order2.csv", self.n)
        interior = slice(3, -3)
        e = (w1 @ np.sin(x) - np.cos(x))[interior]
        _require(np.abs(e).max() <= 1e-6,
                 "interior w1.sin x - cos x = %.3e" % np.abs(e).max())
        rowsum = np.abs(w2.sum(axis=1)).max()
        _require(rowsum <= 1e-8 * np.abs(w2).sum(axis=1).max(),
                 "w2 row sums reach %.3e" % rowsum)

        f = np.sin(x + self.phase)
        e1 = (w1 @ f - np.cos(x + self.phase))[1:-1]
        e2 = (w2 @ f + f)[1:-1]
        err_linf = max(np.abs(e1).max(), np.abs(e2).max())
        err_l2 = max(math.sqrt(h * (e1 @ e1)), math.sqrt(h * (e2 @ e2)))
        return JobResult(len(dts), float(err_linf), float(err_l2), total)



def _check_manifest(out_dir):
    """Verify every checksum in ``manifest.json``; returns the bytes written."""
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    total = manifest_path.stat().st_size
    _require(manifest["files"], "empty manifest in %s" % out_dir.name)
    for name, entry in manifest["files"].items():
        data = (out_dir / name).read_bytes()
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"],
                 "sha256 mismatch for %s" % name)
        _require(len(data) == entry["bytes"], "size mismatch for %s" % name)
        total += len(data)
    return total


def _read_weights(path, n):
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    _require(table.shape == (n * n, 3), "%s has shape %s" % (path.name, table.shape))
    w = np.full((n, n), np.nan)
    w[table[:, 0].astype(int) - 1, table[:, 1].astype(int) - 1] = table[:, 2]
    _require(np.isfinite(w).all(), "%s does not cover the matrix" % path.name)
    return w


def make_workloads(work_dir):
    """All workloads by name, in the order the benchmark lists them."""
    return {
        "p4-mesh16": P4Solve("p4-mesh16", n=17, steps=100, linf_ceiling=1e-3),
        # 65x65 array work slows less under host load than the default
        # kernel; the products' time is the 5th percentile of 3994 timings
        "p4-mesh64": P4Solve("p4-mesh64", n=65, steps=40, linf_ceiling=1e-4,
                             products_reference=(10, 0.885e-3)),
        "p1-n121": P1Solve("p1-n121", n=121, steps=250, linf_ceiling=2e-5),
        "cli-analysis": CliAnalysis("cli-analysis", work_dir),
    }
