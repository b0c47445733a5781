"""Property tests of the command-line interface: whatever the subcommand and
settings, given as flags or through a config file, ``main`` returns one of
the documented exit codes (0/2/3/4) and lets no exception escape; and
``write_csv`` writes the bytes of the cell-by-cell reference for any row of
mixed cells.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from burgers_dqm.cli import main, write_csv  # noqa: E402
from oracles import csv_text_reference  # noqa: E402


def _numbers(*usual):
    # odd values are drawn one time in five, so most runs get past parsing
    odd = ("0", "-1", "nan", "inf", "-inf")
    return st.sampled_from(usual * 10 + odd)


@st.composite
def _cli_runs(draw):
    command = draw(st.sampled_from(
        ["solve", "convergence", "stability", "weights-dump"]))
    nodes = st.sampled_from(["5", "7", "9"] * 3 + ["3"])  # 3 is too few
    opts = {}
    if command in ("solve", "convergence"):
        opts["problem"] = draw(st.sampled_from(["p1", "p2", "p3", "p4"]))
        opts["dt"] = draw(_numbers("0.01", "0.005"))
        opts["t_end"] = draw(_numbers("0.02", "0.03"))
        if draw(st.booleans()):
            opts["re"] = draw(_numbers("20", "100"))
    if command == "solve":
        opts["nx"] = draw(nodes)
        if draw(st.booleans()):
            opts["snapshots"] = draw(st.sampled_from(
                ["0.01", "0,0.02", "0.015", "nan", "-0.01"]))
        opts["stability_check"] = draw(st.booleans())
    elif command == "convergence":
        opts["n_list"] = draw(st.sampled_from(["5", "4,8", "5,10", "4,12", ""]))
    elif command == "stability":
        opts["nx"] = draw(nodes)
        for key in ("nu", "tau0"):
            if draw(st.booleans()):
                opts[key] = draw(_numbers("0.5", "2"))
        opts["dt_list"] = "1e-3," + draw(_numbers("1e-2", "10"))
    else:
        opts["nx"] = draw(nodes)
        if draw(st.booleans()):
            opts["order"] = draw(st.sampled_from(["1", "2", "3"]))
    return command, opts, draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(run=_cli_runs())
def test_main_ends_in_documented_exit_code(run):
    command, opts, from_file = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", os.path.join(tmp, "out")]
        if from_file:
            conf = os.path.join(tmp, "run.conf")
            with open(conf, "w", encoding="utf-8") as f:
                for key, value in opts.items():
                    f.write("%s = %s\n" % (key, str(value).lower()))
            argv += ["--config", conf]
        else:
            for key, value in opts.items():
                flag = "--" + key.replace("_", "-")
                if value is True:
                    argv.append(flag)
                elif value is not False:
                    argv.append(flag + "=" + value)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 2, 3, 4)


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e308, 0.1, 1.0 / 3.0])
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers() | st.sampled_from([10**20, -(2**63), 2**64]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(st.characters(blacklist_categories=("Cs",))),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(header=st.lists(st.sampled_from(["x", "u", "re", "all_inside"]),
                       min_size=1, max_size=4),
       rows=st.lists(st.lists(_CELLS, max_size=6), max_size=5))
def test_write_csv_matches_cell_by_cell_reference(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == \
            csv_text_reference(header, rows).encode("utf-8")
