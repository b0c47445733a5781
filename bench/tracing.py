"""The traced run: spans around the public functions of each layer.

The tracer rebinds every listed function in each ``burgers_dqm.*`` module
namespace that holds it (so calls between modules are caught too), and wraps
a problem's boundary-trace callables with ``dataclasses.replace``.  A span is
``[name, start, end, parent_index]``; spans of one job are kept in memory and
reduced to per-job layer figures when the job ends.  A listed function the
package no longer has is reported as missing, never as zero.
"""

import dataclasses
import functools
import importlib
import math
import statistics
import sys
import time

# The public functions wrapped per layer (module of src/burgers_dqm).
LAYER_FUNCTIONS = {
    "spline_basis": ("make_coeffs", "modified_tables"),
    "dqm_weights": ("first_order_weights", "second_order_weights",
                    "weights_2d", "thomas_factor", "thomas_solve_factored",
                    "thomas_solve", "dump_weights_csv"),
    "burgers_rhs": ("apply_dirichlet_1d", "apply_dirichlet_2d", "rhs_1d",
                    "rhs_1d_split", "rhs_2d", "rhs_2d_split",
                    "boundary_forcing_1d", "boundary_forcing_2d"),
    "problems": ("error_norms",),
    "ssprk54": ("step",),
    "solvers": ("solve_1d", "solve_2d"),
    "stability": ("analyze", "operator_matrices", "eigen_spectrum"),
    "cli": ("main", "write_csv", "sha256_of"),
}

TRACE_SPAN = "problems.trace"
STEP = ("ssprk54.step",)
DIRICHLET = ("burgers_rhs.apply_dirichlet_1d", "burgers_rhs.apply_dirichlet_2d")
RHS = ("burgers_rhs.rhs_1d", "burgers_rhs.rhs_1d_split",
       "burgers_rhs.rhs_2d", "burgers_rhs.rhs_2d_split")
FORCING = ("burgers_rhs.boundary_forcing_1d", "burgers_rhs.boundary_forcing_2d")
SOLVE = ("solvers.solve_1d", "solvers.solve_2d")
THOMAS = ("dqm_weights.thomas_factor", "dqm_weights.thomas_solve_factored",
          "dqm_weights.thomas_solve")
FIRST = ("dqm_weights.first_order_weights",)
SECOND = ("dqm_weights.second_order_weights",)

# Each per-layer metric names the span groups it is computed from; when every
# function of those groups is missing the metric is reported as missing.
METRIC_SOURCES = {
    "burgers_rhs.dirichlet.calls_per_step": DIRICHLET + STEP,
    "burgers_rhs.dirichlet.us_per_call": DIRICHLET,
    "problems.trace.calls_per_step": STEP,
    "problems.trace.us_per_call": (),
    "burgers_rhs.rhs.calls_per_step": RHS + STEP,
    "burgers_rhs.rhs.us_per_call": RHS,
    "burgers_rhs.forcing.us_per_call": FORCING,
    "burgers_rhs.rhs.over_floor": RHS,
    "ssprk54.step.us": STEP,
    "ssprk54.step.self_us": STEP,
    "ssprk54.step.calls_per_job": STEP,
    "ssprk54.stage_over_floor": STEP,
    "solvers.solve.setup_us": SOLVE + STEP,
    "solvers.driver.self_us_per_step": SOLVE + STEP,
    "dqm_weights.first_order_weights.us": FIRST,
    "dqm_weights.second_order_weights.us": SECOND,
    "dqm_weights.thomas.us": THOMAS + FIRST,
    "dqm_weights.weights.calls_per_job": FIRST + SECOND,
    "spline_basis.modified_tables.us": ("spline_basis.modified_tables",),
    "stability.analyze.ms": ("stability.analyze",),
    "stability.operator_matrices.calls_per_job": ("stability.operator_matrices",),
    "stability.eigen_spectrum.calls_per_job": ("stability.eigen_spectrum",),
    "stability.eigen_spectrum.ms_per_call": ("stability.eigen_spectrum",),
    "cli.write_csv.ms": ("cli.write_csv",),
    "cli.dump_weights_csv.ms": ("dqm_weights.dump_weights_csv",),
    "cli.sha256.ms": ("cli.sha256_of",),
    "cli.main.self_ms": ("cli.main",),
    "problems.error_norms.us": ("problems.error_norms",),
}


class Tracer:
    """Installs span wrappers into the package and collects one job's spans."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        self.missing = []
        for layer, names in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module("burgers_dqm." + layer)
            except ModuleNotFoundError:
                module = None
            for fname in names:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.missing.append("%s.%s" % (layer, fname))
                    continue
                self._rebind(original, self.wrap("%s.%s" % (layer, fname), original))

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "burgers_dqm" and not mod_name.startswith("burgers_dqm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap_problem(self, prob, fields):
        """A copy of ``prob`` whose boundary-trace callables record spans."""
        return dataclasses.replace(
            prob, **{f: self.wrap(TRACE_SPAN, getattr(prob, f)) for f in fields})

    def take_job(self):
        """Reduce the spans recorded since the last call; start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return job_layers(spans)

    def missing_metrics(self):
        missing = set(self.missing)
        return {metric for metric, sources in METRIC_SOURCES.items()
                if sources and all(s in missing for s in sources)}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def job_layers(spans):
    """Reduce one job's spans to its per-layer figures (0 where unexercised)."""
    child = [0.0] * len(spans)
    by_name = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        by_name.setdefault(name, []).append(i)

    def pick(names):
        return [i for n in names for i in by_name.get(n, ())]

    def dur(i):
        return spans[i][2] - spans[i][1]

    steps = pick(STEP)
    n_steps = len(steps)
    loop_start = min((spans[i][1] for i in steps), default=math.inf)

    def per_step(names):
        in_loop = [i for i in pick(names) if spans[i][1] >= loop_start]
        return len(in_loop) / n_steps if n_steps else 0.0

    out = {
        "burgers_rhs.dirichlet.calls_per_step": per_step(DIRICHLET),
        "burgers_rhs.dirichlet.us_per_call": 1e6 * _mean([dur(i) for i in pick(DIRICHLET)]),
        "problems.trace.calls_per_step": per_step((TRACE_SPAN,)),
        "problems.trace.us_per_call": 1e6 * _mean([dur(i) for i in pick((TRACE_SPAN,))]),
        "burgers_rhs.rhs.calls_per_step": per_step(RHS),
        "burgers_rhs.rhs.us_per_call": 1e6 * _mean([dur(i) for i in pick(RHS)]),
        "burgers_rhs.forcing.us_per_call": 1e6 * _mean([dur(i) for i in pick(FORCING)]),
        "ssprk54.step.us": 1e6 * _mean([dur(i) for i in steps]),
        "ssprk54.step.self_us": 1e6 * _mean([dur(i) - child[i] for i in steps]),
        "ssprk54.step.calls_per_job": float(n_steps),
        "solvers.solve.setup_us": 0.0,
        "solvers.driver.self_us_per_step": 0.0,
    }
    solves = pick(SOLVE)
    if solves and n_steps:
        s = solves[0]
        after = [i for i in range(len(spans))
                 if spans[i][3] == s and spans[i][1] >= loop_start]
        loop_self = spans[s][2] - loop_start - sum(dur(i) for i in after)
        out["solvers.solve.setup_us"] = 1e6 * (loop_start - spans[s][1])
        out["solvers.driver.self_us_per_step"] = 1e6 * loop_self / n_steps

    firsts = pick(FIRST)
    thomas_outer = [i for i in pick(THOMAS)
                    if spans[i][3] < 0 or spans[spans[i][3]][0] not in THOMAS]
    eig = pick(("stability.eigen_spectrum",))
    out.update({
        "dqm_weights.first_order_weights.us": 1e6 * _mean([dur(i) for i in firsts]),
        "dqm_weights.second_order_weights.us": 1e6 * _mean([dur(i) for i in pick(SECOND)]),
        "dqm_weights.thomas.us": (1e6 * sum(dur(i) for i in thomas_outer) / len(firsts)
                                  if firsts else 0.0),
        "dqm_weights.weights.calls_per_job": float(len(firsts) + len(pick(SECOND))),
        "spline_basis.modified_tables.us":
            1e6 * _mean([dur(i) for i in pick(("spline_basis.modified_tables",))]),
        "stability.analyze.ms": 1e3 * _mean([dur(i) for i in pick(("stability.analyze",))]),
        "stability.operator_matrices.calls_per_job":
            float(len(pick(("stability.operator_matrices",)))),
        "stability.eigen_spectrum.calls_per_job": float(len(eig)),
        "stability.eigen_spectrum.ms_per_call": 1e3 * _mean([dur(i) for i in eig]),
        "cli.write_csv.ms": 1e3 * sum(dur(i) for i in pick(("cli.write_csv",))),
        "cli.dump_weights_csv.ms":
            1e3 * sum(dur(i) for i in pick(("dqm_weights.dump_weights_csv",))),
        "cli.sha256.ms": 1e3 * sum(dur(i) for i in pick(("cli.sha256_of",))),
        "cli.main.self_ms": 1e3 * sum(dur(i) - child[i] for i in pick(("cli.main",))),
        "problems.error_norms.us": 1e6 * _mean([dur(i) for i in pick(("problems.error_norms",))]),
    })
    return out, sorted({spans[i][0] for i in pick(RHS)})


def rhs_cost(dim, n):
    """Flops and compulsory bytes of one full-sum RHS, computed from sizes.

    2D: eight n-by-n matrix products (2 n^3 flops each) plus 12 n^2
    elementwise flops; reads four weight matrices and two fields, writes two.
    1D: four matrix-vector products plus 13 n elementwise flops; reads two
    weight matrices and two vectors, writes two.
    """
    if dim == 2:
        return 16 * n ** 3 + 12 * n ** 2, 8 * (4 * n * n + 4 * n * n)
    return 8 * n ** 2 + 13 * n, 8 * (2 * n * n + 4 * n)


def rhs_floor_us(workload, ctx, min_seconds=0.3):
    """Median time of the bare matrix products one full-sum RHS performs at
    the workload's grid; 0 for a workload without one."""
    products = workload.rhs_products(ctx)
    if products is None:
        return 0.0
    reps = 50
    samples = []
    deadline = time.perf_counter() + min_seconds
    while len(samples) < 9 or time.perf_counter() < deadline:
        t = time.perf_counter()
        for _ in range(reps):
            products()
        samples.append((time.perf_counter() - t) / reps)
    return 1e6 * statistics.median(samples)


def summarize(job_figures, rhs_names, missing_metrics, workload, floor_us):
    """Median per-layer figures over the traced jobs, plus the derived ratios."""
    if not job_figures:  # every traced job failed
        job_figures = [dict.fromkeys(job_layers([])[0], math.nan)]
    metrics = {name: statistics.median(f[name] for f in job_figures)
               for name in job_figures[0]}
    rhs_called = bool(metrics["burgers_rhs.rhs.calls_per_step"])
    flop, nbytes = rhs_cost(workload.dim, workload.n) if rhs_called else (0, 0)
    metrics["burgers_rhs.rhs.flop_per_call"] = float(flop)
    metrics["burgers_rhs.rhs.bytes_per_call"] = float(nbytes)
    metrics["floor.rhs_matmul_us"] = floor_us
    metrics["burgers_rhs.rhs.over_floor"] = (
        metrics["burgers_rhs.rhs.us_per_call"] / floor_us if floor_us else 0.0)
    metrics["ssprk54.stage_over_floor"] = (
        metrics["ssprk54.step.us"] / 5.0 / floor_us if floor_us else 0.0)
    for name in missing_metrics:
        metrics[name] = math.nan
    return metrics, {"rhs_functions_called": rhs_names}
