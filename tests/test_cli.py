"""End-to-end tests for the command-line interface.

Every test drives cli.main(argv) directly and inspects the files it leaves
behind; only the check of ``python -m burgers_dqm.cli`` shells out.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from burgers_dqm import (ConfigError, FrozenParams, Grid1D, Grid2D, __version__,
                         analyze, cli, dqm_weights, load_reference_table,
                         problem1, problem4)
from burgers_dqm.cli import main


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_solution_errors_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "p1", "--nx", "21", "--dt", "0.01",
               "--t-end", "0.1", "--out", str(out)])
    assert rc == 0
    sol = out / "solution_t0.1.csv"
    errs = out / "errors.csv"
    man = out / "manifest.json"
    assert sol.exists() and errs.exists() and man.exists()

    header, rows = _read_csv(sol)
    assert header == ["x", "u", "v", "exact_u", "exact_v", "err_u", "err_v"]
    assert len(rows) == 21

    eh, erows = _read_csv(errs)
    assert eh == ["t", "n", "dt", "l2_u", "linf_u", "l2_v", "linf_v"]
    assert len(erows) == 1
    assert float(erows[0][0]) == pytest.approx(0.1)
    assert float(erows[0][4]) <= 1e-3  # linf_u small on this short run


def test_solve_manifest_hashes_match_files(tmp_path):
    out = tmp_path / "run"
    main(["solve", "--problem", "p1", "--nx", "21", "--dt", "0.01",
          "--t-end", "0.05", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["files"]
    for name, entry in manifest["files"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        assert entry["bytes"] == (out / name).stat().st_size
    assert set(manifest["phases_seconds"]) >= {"integrate", "output"}


def test_solve_is_deterministic(tmp_path):
    args = ["solve", "--problem", "p1", "--nx", "21", "--dt", "0.01",
            "--t-end", "0.05"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    for name in ("solution_t0.05.csv", "errors.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_zero_horizon_dumps_initial_condition(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "p1", "--nx", "11", "--dt", "0.01",
               "--t-end", "0", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "solution_t0.csv")
    prob = problem1()
    for row in rows:
        x, u = float(row[0]), float(row[1])
        assert u == pytest.approx(prob.phi(x), abs=1e-12)


def test_solve_snapshots_and_multiple_error_rows(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "p1", "--nx", "21", "--dt", "0.01",
               "--t-end", "0.1", "--snapshots", "0.05,0.1", "--out", str(out)])
    assert rc == 0
    assert (out / "solution_t0.05.csv").exists()
    assert (out / "solution_t0.1.csv").exists()
    _, erows = _read_csv(out / "errors.csv")
    assert [float(r[0]) for r in erows] == pytest.approx([0.05, 0.1])


def test_solve_2d_has_y_column(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "p4", "--nx", "9", "--dt", "0.01",
               "--t-end", "0.05", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "solution_t0.05.csv")
    assert header[:2] == ["x", "y"]
    assert len(rows) == 81


def test_solve_rejects_unknown_problem(tmp_path):
    out = tmp_path / "nothing"
    rc = main(["solve", "--problem", "p9", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_solve_rejects_non_dividing_dt(tmp_path):
    rc = main(["solve", "--problem", "p1", "--nx", "11", "--dt", "0.3",
               "--t-end", "1.0", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--dt", "nan"],
    ["--snapshots", "nan"],
    ["--t-end", "inf"],
    ["--dt", "inf", "--t-end", "1"],
    ["--problem", "p4", "--dt", "nan"],
])
def test_solve_rejects_non_finite_times(tmp_path, capsys, flags):
    out = tmp_path / "x"
    rc = main(["solve", "--problem", "p1", "--nx", "11", *flags,
               "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_re_for_1d_problem(tmp_path, capsys):
    # both 2D-only flags, --re and --ny, are configuration errors in 1D
    for flag, value in (("--re", "50"), ("--ny", "5")):
        out = tmp_path / flag.strip("-")
        rc = main(["solve", "--problem", "p1", "--nx", "11", flag, value,
                   "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("problem,re", [
    ("p2", "nan"), ("p4", "nan"), ("p4", "inf"), ("p3", "inf"), ("p2", "-inf"),
])
def test_solve_rejects_non_finite_re(tmp_path, capsys, problem, re):
    out = tmp_path / "x"
    rc = main(["solve", "--problem", problem, "--nx", "9", "--dt", "0.01",
               "--t-end", "0.02", "--re=" + re, "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_solve_unstable_run_exits_3(tmp_path, capsys):
    rc = main(["solve", "--problem", "p4", "--nx", "21", "--dt", "1",
               "--t-end", "100", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "instability" in capsys.readouterr().err


def test_solve_with_stability_check(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "p1", "--nx", "21", "--dt", "0.001",
               "--t-end", "0.01", "--stability-check", "--out", str(out)])
    assert rc == 0
    assert "stability" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("problem, build, nu, nx, ny", [
    ("p1", problem1, 1.0, 21, None),
    ("p4", problem4, 1.0 / 100.0, 9, 7),
], ids=["1d", "2d"])
def test_solve_stability_check_verdict(tmp_path, problem, build, nu, nx, ny):
    # the check freezes the largest initial |u| and |v| on the solve's grid
    # and the problem's viscosity, and analyses the solve's x grid
    out = tmp_path / "run"
    sizes = ["--nx", str(nx)] + ([] if ny is None else ["--ny", str(ny)])
    assert main(["solve", "--problem", problem, *sizes, "--dt", "0.001",
                 "--t-end", "0.01", "--stability-check", "--out", str(out)]) == 0
    prob = build()
    xgrid = Grid1D(prob.a, prob.b, nx)
    coords = xgrid.coords
    if ny is not None:
        coords = Grid2D(xgrid, Grid1D(prob.c, prob.d, ny)).coords
    params = FrozenParams(float(abs(prob.phi(*coords)).max()),
                          float(abs(prob.psi(*coords)).max()), nu)
    report = analyze(xgrid, params, [0.001])
    verdict = json.loads((out / "manifest.json").read_text())["config"][
        "stability_verdict"]
    assert verdict == {"all_inside": bool(report.all_inside[0]),
                       "max_abs_r": float(report.max_abs_r[0])}


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    # every solve key from a file gives the run the same flags would
    out = tmp_path / "run"
    settings = {"problem": "p4", "nx": "9", "ny": "7", "dt": "0.01",
                "t_end": "0.02", "snapshots": "0.01,0.02", "re": "50",
                "out": str(out), "stability_check": "true"}
    conf = tmp_path / "run.conf"
    conf.write_text("# every solve key\n" + "".join(
        "%s = %s\n" % item for item in settings.items()))
    assert main(["solve", "--config", str(conf)]) == 0
    from_file = json.loads((out / "manifest.json").read_text())["config"]
    csv_from_file = (out / "solution_t0.02.csv").read_bytes()

    flags = ["solve", "--stability-check"]
    for key, value in settings.items():
        if key != "stability_check":
            flags += ["--" + key.replace("_", "-"), value]
    assert main(flags) == 0
    from_flags = json.loads((out / "manifest.json").read_text())["config"]
    assert set(from_file) == set(settings) | {"stability_verdict"}
    assert from_file == from_flags
    assert from_file["snapshots"] == [0.01, 0.02]
    assert from_file["stability_check"] is True
    assert (out / "solution_t0.02.csv").read_bytes() == csv_from_file


def test_config_file_drives_solve_and_flags_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("problem = p1\nnx = 11\ndt = 0.01\nt_end = 0.1\n")
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(conf), "--t-end", "0.05",
               "--out", str(out)])
    assert rc == 0
    assert (out / "solution_t0.05.csv").exists()  # flag wins over file
    _, rows = _read_csv(out / "solution_t0.05.csv")
    assert len(rows) == 11  # file value used where no flag given


def test_config_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("problem = p1\nwavelength = 3\n")
    rc = main(["solve", "--config", str(conf), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_config_parser_errors(tmp_path):
    # "t" would prefix-match --t-end on a command line; a key must be exact
    for line in ("just words", "nx = abc", "dt = fast", "t = 1", "config = x",
                 "t-end = 1", "stability_check = maybe"):
        conf = tmp_path / "bad.conf"
        conf.write_text("problem = p1\n%s\n" % line)
        out = tmp_path / "x"
        rc = main(["solve", "--config", str(conf), "--nx", "11",
                   "--dt", "0.01", "--t-end", "0.02", "--out", str(out)])
        assert rc == 2, line
        assert not out.exists(), line


def test_config_switch_false_and_missing_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("stability_check = false\nnx = 11\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(conf), "--dt", "0.01",
                 "--t-end", "0.02", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())[
        "config"]["stability_check"] is False
    assert main(["solve", "--config", str(tmp_path / "none.conf")]) == 2


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"nx = 11\n\xff\xfe = 3\n")
    out = tmp_path / "x"
    assert main(["solve", "--config", str(conf), "--out", str(out)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_writes_rate_table(tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--problem", "p1", "--n-list", "10,20",
               "--dt", "0.01", "--t-end", "0.1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "convergence.csv")
    assert header == ["n", "l2", "r_l2", "linf", "r_linf"]
    assert len(rows) == 2
    assert rows[0][2] == ""  # no rate on the first grid
    assert float(rows[1][2]) > 1.0


def test_convergence_requires_doubling(tmp_path):
    rc = main(["convergence", "--problem", "p1", "--n-list", "10,30",
               "--dt", "0.01", "--t-end", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["--n-list", "10.5,21"], "argument --n-list"),
    ([], "n_list is required"),
], ids=["fractional", "missing"])
def test_convergence_rejects_bad_n_list(tmp_path, capsys, flags, message):
    out = tmp_path / "x"
    rc = main(["convergence", "--problem", "p1", *flags, "--dt", "0.01",
               "--t-end", "0.1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_convergence_single_grid_has_empty_rates(tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--problem", "p1", "--n-list", "10",
               "--dt", "0.01", "--t-end", "0.1", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "convergence.csv")
    assert len(rows) == 1
    assert rows[0][2] == "" and rows[0][4] == ""


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_outputs_spectra_and_verdicts(tmp_path, capsys):
    out = tmp_path / "stab"
    rc = main(["stability", "--nx", "11", "--dt-list", "1e-4,1e-2,10",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "spectra.csv")
    assert header == ["matrix", "index", "re", "im"]
    assert len(rows) == 2 * (11 - 2)
    assert {r[0] for r in rows} == {"lambda1", "lambda2"}

    _, srows = _read_csv(out / "stability.csv")
    verdicts = [r[1] for r in srows]
    assert verdicts[0] == "true"
    assert verdicts[-1] == "false"
    assert (out / "assembled_spectrum.csv").exists()
    assert "max|Re|/max|Im|" in capsys.readouterr().out


def test_stability_dt_list_shares_one_analysis(tmp_path):
    # one run over a list of steps writes the verdict rows of one run per
    # step, and spectra that do not depend on the list
    dts = ["1e-4", "1e-2", "0.5"]
    rc = main(["stability", "--nx", "11", "--dt-list", ",".join(dts),
               "--out", str(tmp_path / "all")])
    assert rc == 0
    rows = []
    for dt in dts:
        out = tmp_path / dt
        assert main(["stability", "--nx", "11", "--dt-list", dt,
                     "--out", str(out)]) == 0
        rows += _read_csv(out / "stability.csv")[1]
        for name in ("spectra.csv", "assembled_spectrum.csv"):
            assert ((out / name).read_bytes()
                    == (tmp_path / "all" / name).read_bytes())
    assert _read_csv(tmp_path / "all" / "stability.csv")[1] == rows
    assert [r[1] for r in rows] == ["true", "true", "false"]


def test_stability_requires_dt_list(tmp_path):
    rc = main(["stability", "--nx", "11", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--dt-list", "nan"],
    ["--dt-list", "1e-3,inf"],
    ["--dt-list", "1e-3", "--nu", "nan"],
    ["--dt-list", "1e-3", "--tau0", "inf"],
    ["--dt-list", "1e-3", "--kappa0=-inf"],
])
def test_stability_rejects_non_finite_inputs(tmp_path, capsys, flags):
    out = tmp_path / "x"
    rc = main(["stability", "--nx", "11", *flags, "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# weights dump
# ---------------------------------------------------------------------------

def test_weights_dump_both_orders(tmp_path):
    out = tmp_path / "w"
    rc = main(["weights-dump", "--nx", "7", "--a", "0", "--b", "1",
               "--out", str(out)])
    assert rc == 0
    for name in ("weights_order1.csv", "weights_order2.csv"):
        header, rows = _read_csv(out / name)
        assert header == ["row", "col", "value"]
        assert len(rows) == 49


def test_weights_dump_single_order(tmp_path):
    out = tmp_path / "w"
    rc = main(["weights-dump", "--nx", "7", "--a", "0", "--b", "1",
               "--order", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "weights_order1.csv").exists()
    assert not (out / "weights_order2.csv").exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_weights_dump_order_1_builds_no_second_order_weights(tmp_path,
                                                              monkeypatch):
    dqm_weights._memo.cache_clear()
    first = _count_calls(monkeypatch, dqm_weights, "first_order_weights")
    second = _count_calls(monkeypatch, dqm_weights, "second_order_weights")
    argv = ["weights-dump", "--nx", "7", "--a", "0", "--b", "1"]
    assert main(argv + ["--order", "1", "--out", str(tmp_path / "w1")]) == 0
    assert (len(first), len(second)) == (1, 0)
    # a later dump of both orders builds w2 once, from the memoized w1
    assert main(argv + ["--out", str(tmp_path / "both")]) == 0
    assert (len(first), len(second)) == (1, 1)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def test_csv_and_manifest_writers_ask_for_lf_on_every_platform(tmp_path,
                                                               monkeypatch):
    # newline="" turns off the platform's line-ending translation (CRLF on
    # Windows); a POSIX run writes LF either way, so the argument is checked
    calls = []
    real = Path.write_text

    def recorded(self, data, *args, **kwargs):
        calls.append((self.name, kwargs.get("newline")))
        return real(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recorded)
    out = tmp_path / "s"
    assert main(["stability", "--nx", "7", "--dt-list", "1e-3",
                 "--out", str(out)]) == 0
    assert sorted(calls) == [(name, "") for name in (
        "assembled_spectrum.csv", "manifest.json", "spectra.csv",
        "stability.csv")]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "p1", "--nx", "11", "--dt", "0.01",
     "--t-end", "0.02"],
    ["weights-dump", "--nx", "7"],
], ids=["solve", "weights-dump"])
def test_unusable_out_is_a_config_error(tmp_path, capsys, argv, under):
    # an --out that is a file, or lies under one, cannot be a directory
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if under else taken
    assert main(argv + ["--out", str(out)]) == 2
    assert "config error: unusable output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("argv, name", [
    (["solve", "--problem", "p1", "--nx", "11", "--dt", "0.01",
      "--t-end", "0.02"], "solution_t0.02.csv"),
    (["stability", "--nx", "7", "--dt-list", "1e-3"], "stability.csv"),
    (["weights-dump", "--nx", "7", "--order", "1"], "weights_order1.csv"),
    (["weights-dump", "--nx", "7", "--order", "1"], "manifest.json"),
], ids=["solve", "stability", "weights-dump", "manifest"])
def test_output_name_held_by_a_directory_is_a_config_error(tmp_path, capsys,
                                                           argv, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: unusable output directory" in err
    assert "Traceback" not in err
    assert (out / name).is_dir()


@pytest.mark.parametrize("argv, under", [
    (["table", "2.1"], False),
    (["solve", "--problem", "p1", "--nx", "11"], True),
], ids=["table", "solve-under-file"])
def test_out_is_judged_before_the_run(tmp_path, capsys, monkeypatch, argv,
                                      under):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli, "_solve", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if under else taken
    assert main(argv + ["--out", str(out)]) == 2
    assert "config error: unusable output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# table reproduction (quick overrides keep runtimes tiny)
# ---------------------------------------------------------------------------

def test_run_table_quick_comparison(tmp_path, capsys):
    rc = cli.run_table("1.1", out=str(tmp_path / "t"), n_values=[10, 20])
    assert rc == 0
    output = capsys.readouterr().out
    assert "computed vs published" in output
    header, rows = _read_csv(tmp_path / "t" / "table_1_1_comparison.csv")
    assert header[0] == "N"
    assert len(rows) == 2
    # computed errors land within an order of magnitude of the published ones
    ratio = float(rows[0][3])
    assert 0.1 <= ratio <= 10.0


def test_table_manifest_times_the_solve(tmp_path, monkeypatch):
    out = tmp_path / "t"
    quick = {"n_values": [10], "times": (0.1,)}
    assert cli.run_table("1.1", out=str(out), **quick) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["phases_seconds"]) == {"integrate", "output"}
    assert manifest["config"] == {"table": "1.1", "out": str(out)}
    # without --out the table is only printed
    monkeypatch.chdir(out)
    assert cli.run_table("1.1", **quick) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "table_1_1_comparison.csv"]


def test_table_4_1_orders_use_log2_of_mesh_labels(tmp_path, capsys):
    # labels count intervals (5 and 9 nodes); the order divides by log 2
    rc = cli.run_table("4.1", out=str(tmp_path / "t"), n_values=[4, 8],
                       dt=1e-3, times=(0.1,))
    assert rc == 0
    header, rows = _read_csv(tmp_path / "t" / "table_4_1_comparison.csv")
    col = {name: k for k, name in enumerate(header)}
    coarse, fine = rows
    assert [coarse[0], fine[0]] == ["4", "8"]
    for norm in ("l2", "linf"):
        want = math.log2(float(coarse[col[norm]]) / float(fine[col[norm]]))
        assert float(fine[col["r_" + norm]]) == pytest.approx(want, rel=1e-12)
        assert coarse[col["r_" + norm]] == ""


def test_table_2_3_l2_matches_published_on_cheap_grids():
    # p2's traces move in time; with the traces at each stage's own time the
    # computed l2 of v lands within a factor 10 of the published one
    refs = load_reference_table("2.3")[1]
    spec = replace(cli.TABLES["2.3"], n_values=(4, 8, 17))
    rows = cli._sweep(spec, refs)
    col = spec.columns.index("l2_ratio")
    ratios = [row[col] for row in rows]
    assert len(ratios) == 6
    assert all(0.5 <= r <= 10.0 for r in ratios), ratios


# Computed/published ratio bands of the cheap tables on their full published
# parameter sets: (ratios with a published value, lower, upper).  Each band is
# the measured range widened by a factor 1.25 for the norm tables (1.1, 1.3)
# and by 5e-4 for the pointwise tables (2.1, 3.1), rounded outward.  Measured
# ranges: 1.1 L2 0.1864-1.0688, Linf 0.2666-1.3680; 1.3 Linf 3.373-6.450,
# L2 7.285-9.039 (two rows published); 2.1 u 0.99967-1.00020; 3.1 u
# 0.99890-1.00011, v 0.99685-1.00153.  A band is not widened to fit a result.
TABLE_BANDS = {
    "1.1": {"l2_ratio": (5, 0.14, 1.34), "linf_ratio": (5, 0.21, 1.71)},
    "1.3": {"linf_ratio": (4, 2.69, 8.07), "l2_ratio": (2, 5.82, 11.3)},
    "2.1": {"ratio=u_ratio": (30, 0.9991, 1.0007)},
    "3.1": {"u_ratio": (8, 0.9984, 1.0007), "v_ratio": (8, 0.9963, 1.0021)},
}


@pytest.mark.parametrize("key", sorted(TABLE_BANDS))
def test_table_ratios_stay_in_band(key):
    spec = cli.TABLES[key]
    rows = cli._sweep(spec, load_reference_table(key)[1])
    for column, (count, lo, hi) in TABLE_BANDS[key].items():
        col = spec.columns.index(column)
        ratios = [row[col] for row in rows if row[col] is not None]
        assert len(ratios) == count, (column, ratios)
        assert all(lo <= r <= hi for r in ratios), (column, ratios)


def test_table_cli_rejects_unknown_key(tmp_path):
    rc = main(["table", "9.9", "--out", str(tmp_path / "x")])
    assert rc == 2
    # argparse's choices stop the CLI; the library entry checks the key
    with pytest.raises(ConfigError, match="unknown table '9.9'"):
        cli.run_table("9.9", out=str(tmp_path / "y"))
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "burgers-dqm" in capsys.readouterr().out


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "burgers_dqm.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "burgers-dqm %s" % __version__
