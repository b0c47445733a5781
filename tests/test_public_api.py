"""The package's top-level surface: exactly the documented API, no more.

``__all__`` must list every public name the package binds, each must
resolve, and the names the benchmark workloads read from the top level must
be among them, so trimming the surface cannot silently break a workload.
Every per-layer metric of the traced benchmark run must keep a package
function to be computed from, or the run's result line reads NaN, and a
traced solve must still reach the trace fields, Dirichlet writers and
solver that the run wraps.  The
README's count of those names must match too, and library calls must write
nothing to stdout.
"""

import collections
import importlib.util
import re
import types
from pathlib import Path

import numpy as np
import pytest

import burgers_dqm

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
TRACING = ROOT / "bench" / "tracing.py"
README = ROOT / "README.md"


def test_all_equals_the_public_names_bound():
    bound = {name for name, value in vars(burgers_dqm).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(burgers_dqm.__all__) == len(set(burgers_dqm.__all__))
    assert set(burgers_dqm.__all__) == bound


def test_every_exported_name_resolves():
    namespace = {}
    exec("from burgers_dqm import *", namespace)
    for name in burgers_dqm.__all__:
        assert namespace[name] is getattr(burgers_dqm, name)


def test_benchmark_workload_names_are_exported():
    used = set(re.findall(r"\bbd\.(\w+)", WORKLOADS.read_text()))
    assert {"Grid1D", "Grid2D", "error_norms", "first_order_weights",
            "problem1", "problem4", "second_order_weights", "solve_1d",
            "solve_2d", "weights_2d"} <= used
    assert used <= set(burgers_dqm.__all__)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_keeps_a_function():
    tracer = _load("bench_tracing", TRACING).Tracer()
    try:
        tracer.install()
        assert tracer.missing_metrics() == set()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload, build, solve, dirichlet, sizes", [
    ("P1Solve", "problem1", "solve_1d", "apply_dirichlet_1d", {"n": 11}),
    ("P4Solve", "problem4", "solve_2d", "apply_dirichlet_2d",
     {"nx": 9, "ny": 7}),
], ids=["1d", "2d"])
def test_traced_solve_sees_traces_and_dirichlet_layer(workload, build, solve,
                                                       dirichlet, sizes):
    # The traced run wraps a problem's trace fields and rebinds the solver
    # and the Dirichlet writers it times; a solve must still reach each.
    tracer = _load("bench_tracing", TRACING).Tracer()
    fields = getattr(_load("bench_workloads", WORKLOADS), workload).trace_fields
    try:
        tracer.install()
        prob = tracer.wrap_problem(getattr(burgers_dqm, build)(), fields)
        getattr(burgers_dqm, solve)(prob, dt=1e-3, t_end=5e-3, **sizes)
    finally:
        tracer.uninstall()
    counts = collections.Counter(span[0] for span in tracer.spans)
    assert counts["problems.trace"] >= len(fields)
    assert counts["burgers_rhs." + dirichlet] >= 1
    assert counts["solvers." + solve] == 1


def test_readme_states_the_export_count():
    counts = re.findall(r"\(`burgers_dqm\.__all__`, (\d+) names\)",
                        README.read_text())
    assert counts == [str(len(burgers_dqm.__all__))]


def test_library_calls_print_nothing(capsys):
    # The benchmark reads its result from the last stdout line, and a
    # library that prints would corrupt any caller's output the same way.
    grid = burgers_dqm.Grid1D(0.0, 1.0, 9)
    burgers_dqm.solve_1d(burgers_dqm.problem1(), 9, 1e-3, 5e-3)
    burgers_dqm.solve_2d(burgers_dqm.problem4(), 9, 1e-3, 5e-3, ny=7)
    burgers_dqm.weights_2d(burgers_dqm.Grid2D(grid, grid))
    burgers_dqm.analyze(grid, burgers_dqm.FrozenParams(1.0, 1.0, 1.0), [1e-3])
    burgers_dqm.error_norms(np.ones(3), np.zeros(3), 0.5)
    assert capsys.readouterr().out == ""
