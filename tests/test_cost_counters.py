"""Deterministic cost counters of one solver step: a budget that timing noise
cannot move.

One step each of problem 4 at 17x17 and 65x65 and of problem 1 at n = 121
is counted: the right-hand-side calls per step, the preparations of a
right-hand side per solve (one for each of the stepper's six arrays, made
as the stepper is built), the matrix products,
elementwise ufunc calls and item writes (the ring writes) of one call of
the solver's right-hand-side binding (every ufunc it calls through
``burgers_rhs``'s ``np``, on its held buffers too), the numpy calls
(ufuncs and ``np.dot``) a step of the solvers' stepper,
``ssprk54._stacked_stepper``, makes through its ``np``, and the peak
``tracemalloc`` bytes of one step.  The numpy calls of one
public ``ssprk54.step`` on the problem 1 state at n = 121 are counted too,
so that a second evaluation of the scheme beside the stepper shows.  The
counts are pinned exactly, so that a counter that stops seeing a call (a
numpy function bound to a local name, out of reach of the patched ``np``)
fails as surely as a step that makes one more; the peak bytes are pinned
as an upper bound at their current value.  A change that lowers a figure
lowers its pin with it, and one that must raise a figure says why.

The counts repeat exactly in one process and in a fresh one; run this file
as a script to print them as JSON.
"""

import collections
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np

from burgers_dqm import (burgers_rhs, first_order_weights, problem1, problem4,
                         rhs_1d, second_order_weights, solve_1d, solve_2d,
                         solvers, ssprk54)

_COUNTS = collections.Counter()


class _Counted(np.ndarray):
    """An array whose ufunc calls and item writes land in ``_COUNTS``.

    Every ufunc result that involves one is again ``_Counted``, so the
    temporaries of a right-hand side are counted as well as its argument;
    a ufunc that writes into a ``_Counted`` buffer is counted too.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _COUNTS["products" if ufunc is np.matmul else "elementwise"] += 1
        plain = lambda xs: tuple(x.view(np.ndarray) if isinstance(x, _Counted)
                                 else x for x in xs)
        if out is not None:
            kwargs["out"] = plain(out)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Counted)

    def __setitem__(self, key, value):
        _COUNTS["item_writes"] += 1
        super().__setitem__(key, value)


class _CountingCall:
    """A ufunc or ``np.dot`` whose calls, and calls of its methods
    (``np.add.reduce``), land in ``_COUNTS``."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, *args, **kwargs):
        _COUNTS["step_numpy_calls"] += 1
        return self._fn(*args, **kwargs)

    def __getattr__(self, name):
        return type(self)(getattr(self._fn, name))


def _counted(x):
    if isinstance(x, tuple):
        return tuple(map(_counted, x))
    return x.view(_Counted) if isinstance(x, np.ndarray) else x


class _CountedArgs(_CountingCall):
    """A ufunc, or one of its methods, that sees every array it is given,
    ``out`` too, as ``_Counted``, so that ``_Counted`` counts the call once
    even when all its arrays are buffers a binding holds; ``np.dot``, which
    ``_Counted`` cannot see, counts as a product here."""

    def __call__(self, *args, **kwargs):
        if self._fn is np.dot:
            _COUNTS["products"] += 1
        return self._fn(*map(_counted, args),
                        **{k: _counted(v) for k, v in kwargs.items()})


class _CountingNumpy:
    """Stands in for a module's ``np``: ufuncs and ``np.dot`` come back
    wrapped in ``call``."""

    def __init__(self, call):
        self._call = call

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc) or attr is np.dot:
            return self._call(attr)
        return attr


CASES = {
    "p4-17": lambda: solve_2d(problem4(), 17, 1e-4, 2e-4),
    "p4-65": lambda: solve_2d(problem4(), 65, 1e-4, 2e-4),
    "p1-121": lambda: solve_1d(problem1(), 121, 1e-3, 2e-3),
}

# Each figure at its current value: the counts exactly, ``step_peak_bytes``
# as an upper bound.  Holding every stage and
# right-hand-side buffer for the whole solve took a step's peak from 48640,
# 677856 and 31544 bytes to 10728, 1480 and 9176; scaling both 2D
# convection stacks in one multiply took a 2D right-hand side from 5
# elementwise calls to 4, and the 1D kernel makes no end write (it made 1).
# Stepping in increment form over a held stack took a step from 27 numpy
# calls (ufuncs in the Shu-Osher form) to 6: one ``np.dot`` per stage and
# one finiteness reduce; its peak fell by 136 bytes more.  The public
# ``step`` runs that stepper too: it made 25 numpy calls in the Shu-Osher
# form, and makes the stepper's 6.  The 1D kernel takes both derivative
# orders in one product and writes its result with one ``[I | -coupling]``
# product: 3 products and 2 elementwise calls became 2 and 1, its peak
# unchanged, as the binding's buffer views are built once per solve.
# Preparing each state's views once per solve, rather than at every
# right-hand-side call, took a step's peak from 10592, 1344 and 9040 bytes.
# Since the stepper writes the pinned (Dirichlet) entries itself, a
# step's peak counts the result's ring write too; the figures held.
PINS = {
    "p4-17": {"rhs_calls_per_step": 5, "prepares_per_solve": 6,
              "products": 4, "elementwise": 4,
              "item_writes": 0, "step_numpy_calls": 6,
              "step_peak_bytes": 10496},
    "p4-65": {"rhs_calls_per_step": 5, "prepares_per_solve": 6,
              "products": 4, "elementwise": 4,
              "item_writes": 0, "step_numpy_calls": 6,
              "step_peak_bytes": 1248},
    "p1-121": {"rhs_calls_per_step": 5, "prepares_per_solve": 6,
               "products": 2, "elementwise": 1,
               "item_writes": 0, "step_numpy_calls": 6,
               "step_peak_bytes": 8944, "public_step_numpy_calls": 6},
}


def _costs(run):
    """The counts of the second step of a two-step ``run``.

    A run's first step allocates some bytes more than the later ones, and
    the first run of a process more again, so it is not the one counted.
    A step reads its input and writes the other stack, so it is run twice
    on the same input: once counting calls, once tracing memory.  The
    stepper's ``prepare`` is wrapped, so that each right-hand side it
    returns counts its calls, and the preparations are counted over the
    whole run up to the counted step.
    """
    real_drive, real_stepper = solvers._drive, solvers._stacked_stepper
    real_binds = solvers._bind_1d, solvers._bind_2d
    rhs_seen, bound, per_step = [], [], []

    def drive(prob, grid, impose, rhs, *args):
        rhs_seen.append(rhs)
        return real_drive(prob, grid, impose, rhs, *args)

    def recording(bind):
        def record(*args):
            bound.append(bind(*args))
            return bound[-1]
        return record

    def stepper(u, dt, prepare, nodes):
        prepares, calls = [0], [0]

        def counted_prepare(*args):
            prepares[0] += 1
            rhs = prepare(*args)

            def counted_rhs(out):
                calls[0] += 1
                rhs(out)
            return counted_rhs

        state, advance = real_stepper(u, dt, counted_prepare, nodes)

        def counted_advance(w, t, pinned):
            calls[0] = 0
            _COUNTS.clear()
            ssprk54.np = _CountingNumpy(_CountingCall)
            try:
                advance(w, t, pinned)
            finally:
                ssprk54.np = np
            rhs_calls = calls[0]
            tracemalloc.start()
            try:
                out = advance(w, t, pinned)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_step.append({"rhs_calls_per_step": rhs_calls,
                             "prepares_per_solve": prepares[0],
                             "step_numpy_calls": _COUNTS["step_numpy_calls"],
                             "step_peak_bytes": peak})
            return out

        return state, counted_advance

    solvers._drive, solvers._stacked_stepper = drive, stepper
    solvers._bind_1d, solvers._bind_2d = map(recording, real_binds)
    try:
        sol = run()
    finally:
        solvers._drive, solvers._stacked_stepper = real_drive, real_stepper
        solvers._bind_1d, solvers._bind_2d = real_binds
    assert len(per_step) == 2, "the step routine was not called"
    assert len(bound) == 1 and rhs_seen == bound, \
        "the driver was not handed the binding"

    # the binding writes into buffers it holds, so every numpy call it makes
    # through ``burgers_rhs.np`` sees its arrays as ``_Counted``; the state
    # and ``out`` are ``_Counted`` too, which counts their item writes
    costs = per_step[-1]
    w = np.array((sol.u, sol.v)).view(_Counted)
    _COUNTS.clear()
    burgers_rhs.np = _CountingNumpy(_CountedArgs)
    try:
        bound[0](w)(np.empty_like(w))
    finally:
        burgers_rhs.np = np
    for name in ("products", "elementwise", "item_writes"):
        costs[name] = _COUNTS[name]
    return costs


def _public_step_numpy_calls():
    """The numpy calls one public ``step`` of the problem 1 state at
    n = 121 makes through ``ssprk54``'s ``np``."""
    prob = problem1()
    sol = solve_1d(prob, 121, 1e-3, 1e-3)
    w1 = first_order_weights(sol.grid)
    w2 = second_order_weights(w1, sol.grid)
    w = np.array((sol.u, sol.v))
    _COUNTS.clear()
    ssprk54.np = _CountingNumpy(_CountingCall)
    try:
        ssprk54.step(w, sol.t, 1e-3, lambda x, t: rhs_1d(x, t, prob, w1, w2))
    finally:
        ssprk54.np = np
    return _COUNTS["step_numpy_calls"]


def measure():
    costs = {name: _costs(run) for name, run in CASES.items()}
    costs["p1-121"]["public_step_numpy_calls"] = _public_step_numpy_calls()
    return costs


def test_cost_counters_within_bounds_and_repeatable():
    first = measure()
    for name, pins in PINS.items():
        off = {k: (first[name][k], pin) for k, pin in pins.items()
               if (first[name][k] > pin if k == "step_peak_bytes"
                   else first[name][k] != pin)}
        assert not off, (name, off)
    assert measure() == first

    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, __file__], env=env, check=True,
                           capture_output=True, text=True)
    assert json.loads(fresh.stdout) == first


if __name__ == "__main__":
    print(json.dumps(measure()))
