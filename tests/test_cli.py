"""End-to-end tests for the command-line interface.

Every test drives cli.main(argv) directly and inspects the files it leaves
behind; only the checks that need a fresh process (``python -m
burgers_dqm.cli``) shell out.
"""

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from burgers_dqm import (REFERENCE_TABLE_KEYS, ConfigError, FrozenParams,
                         Grid1D, Grid2D, __version__, analyze, cli,
                         dqm_weights, load_reference_table, problem1, problem4)
from burgers_dqm.cli import main


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _script_env():
    """The environment in which ``python -m burgers_dqm.cli`` finds ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


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


@pytest.mark.parametrize("dt, t_end", [("1e308", "0.02"), ("1e10", "1")])
def test_solve_refuses_a_dt_no_step_of_which_reaches_t_end(tmp_path, capsys,
                                                            dt, t_end):
    # such a dt took no step and printed the initial data's error as the
    # error at t_end
    out = tmp_path / "x"
    rc = main(["solve", "--problem", "p1", "--nx", "5", "--dt", dt,
               "--t-end", t_end, "--out", str(out)])
    assert rc == 2
    assert "does not divide" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--nx", "5"]), ("convergence", ["--n-list", "5"]),
])
def test_an_re_whose_reciprocal_overflows_exits_2(tmp_path, capsys, command,
                                                  flags):
    # nu = 1/re would be inf: a bad setting, which exited 3 as a blow-up
    out = tmp_path / "x"
    rc = main([command, "--problem", "p4", *flags, "--dt", "0.01",
               "--t-end", "0.02", "--re", "1e-310", "--out", str(out)])
    assert rc == 2
    assert "1/re finite, got 1e-310" in capsys.readouterr().err
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


@pytest.mark.parametrize("problem, build, nu, nx, ny, dt, t_end", [
    ("p1", problem1, 1.0, 21, None, 0.001, 0.01),
    ("p4", problem4, 1.0 / 100.0, 9, 7, 0.001, 0.01),
    # R(z) overflows: the verdict is outside, its max|R| recorded as null
    ("p1", problem1, 1.0, 11, None, 1e70, 0.0),
], ids=["1d", "2d", "1d-overflow"])
def test_solve_stability_check_verdict(tmp_path, problem, build, nu, nx, ny,
                                       dt, t_end):
    # the check freezes the largest initial |u| and |v| on the solve's grid
    # and the problem's viscosity, and analyses the solve's x grid
    out = tmp_path / "run"
    sizes = ["--nx", str(nx)] + ([] if ny is None else ["--ny", str(ny)])
    assert main(["solve", "--problem", problem, *sizes, "--dt", str(dt),
                 "--t-end", str(t_end), "--stability-check",
                 "--out", str(out)]) == 0
    prob = build()
    xgrid = Grid1D(prob.a, prob.b, nx)
    coords = xgrid.coords
    if ny is not None:
        coords = Grid2D(xgrid, Grid1D(prob.c, prob.d, ny)).coords
    params = FrozenParams(float(abs(prob.phi(*coords)).max()),
                          float(abs(prob.psi(*coords)).max()), nu)
    report = analyze(xgrid, params, [dt])
    max_abs_r = float(report.max_abs_r[0])
    verdict = json.loads((out / "manifest.json").read_text())["config"][
        "stability_verdict"]
    assert verdict == {"all_inside": bool(report.all_inside[0]),
                       "max_abs_r": max_abs_r if math.isfinite(max_abs_r)
                       else None}


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


def test_config_file_with_byte_order_mark(tmp_path):
    text = b"problem = p1\nnx = 11\ndt = 0.01\nt_end = 0.05\n"
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        conf = tmp_path / (name + ".conf")
        conf.write_bytes(data)
        assert main(["solve", "--config", str(conf),
                     "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert names == ["errors.csv", "solution_t0.05.csv"]
    for name in names:
        assert ((tmp_path / "bom" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


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
    rc = main(["stability", "--nx", "11", "--dt-list", "1e-4,1e-2,10,1e100",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "spectra.csv")
    assert header == ["matrix", "index", "re", "im"]
    assert len(rows) == 2 * (11 - 2)
    assert {r[0] for r in rows} == {"lambda1", "lambda2"}

    _, srows = _read_csv(out / "stability.csv")
    verdicts = [r[1] for r in srows]
    assert verdicts[0] == "true"
    assert verdicts[-2] == "false"
    # R(z) overflows at dt=1e100: the step reads outside, and no error
    assert srows[-1] == ["1e+100", "false", "inf"]
    assert (out / "assembled_spectrum.csv").exists()
    stdout = capsys.readouterr().out
    assert "max|Re|/max|Im|" in stdout
    assert "max|R(z)|=inf" in stdout


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


@pytest.mark.parametrize("flags, named", [
    (["--nu", "1e308"], "nu=1e+308"),
    (["--tau0", "1e308", "--kappa0", "1e308"], "tau0=1e+308, kappa0=1e+308"),
])
def test_stability_names_the_parameters_whose_operator_overflows(
        tmp_path, capsys, flags, named):
    # finite parameters whose frozen operator is not finite
    out = tmp_path / "x"
    rc = main(["stability", "--nx", "11", "--dt-list", "1e-3", *flags,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.rstrip().endswith("overflows for " + named)
    assert not out.exists()


def test_stability_refuses_an_operator_whose_norm_overflows(tmp_path):
    # the frozen operator's entries are finite but its norm is not; LAPACK
    # printed argument errors to the process's own streams and the run
    # exited 0, so it runs in a fresh process
    out = tmp_path / "x"
    done = subprocess.run(
        [sys.executable, "-m", "burgers_dqm.cli", "stability", "--nx", "11",
         "--dt-list", "1e-3", "--nu", "1e300", "--tau0", "1e308",
         "--out", str(out)],
        env=_script_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "DLASCL" not in done.stderr and "DLASCL" not in done.stdout
    assert done.stderr.startswith("config error: ")
    assert done.stderr.rstrip().endswith(
        "overflows for tau0=1e+308, kappa0=1.0")
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
# one parser per process
# ---------------------------------------------------------------------------

def test_parser_is_reused_and_each_call_writes_what_a_fresh_process_does(
        tmp_path):
    assert cli.build_parser() is cli.build_parser()
    conf = tmp_path / "run.conf"
    conf.write_text("problem = p1\nnx = 11\ndt = 0.01\nt_end = 0.02\n"
                    "snapshots = 0.01,0.02\nstability_check = true\n")
    runs = {
        "order1": ["weights-dump", "--nx", "7", "--order", "1"],
        "both": ["weights-dump", "--nx", "7"],
        "solve": ["solve", "--config", str(conf)],
        "stability": ["stability", "--nx", "7", "--dt-list", "1e-3"],
    }
    env = _script_env()
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / "in" / name)]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "burgers_dqm.cli", *argv,
             "--out", str(tmp_path / "fresh" / name)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    for name in runs:
        shared, fresh = tmp_path / "in" / name, tmp_path / "fresh" / name
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in shared.iterdir()) == names
        for csv in (n for n in names if n.endswith(".csv")):
            assert (shared / csv).read_bytes() == (fresh / csv).read_bytes()
        a, b = (json.loads((d / "manifest.json").read_text())
                for d in (shared, fresh))
        assert {k: f["sha256"] for k, f in a["files"].items()} == \
            {k: f["sha256"] for k, f in b["files"].items()}
        assert {**a["config"], "out": None} == {**b["config"], "out": None}
    both = sorted(p.name for p in (tmp_path / "in" / "both").iterdir())
    assert both == ["manifest.json", "weights_order1.csv", "weights_order2.csv"]


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


@pytest.mark.parametrize("argv, name", [
    (["weights-dump", "--nx", "7"], "manifest.json"),
    (["solve", "--problem", "p1", "--nx", "11", "--dt", "0.01",
      "--t-end", "0.02"], "errors.csv"),
], ids=["weights-dump-manifest", "solve-errors"])
def test_failed_write_removes_the_runs_files(tmp_path, capsys, argv, name):
    # the run writes its CSVs before the file whose name a directory holds
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    (out / "earlier.csv").write_text("kept\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert "config error: unusable output directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "earlier.csv"])
    assert (out / name).is_dir()
    assert (out / "earlier.csv").read_text() == "kept\n"


def test_failed_write_removes_what_it_changed_only(tmp_path):
    def partial(path):
        path.write_text("half")
        raise OSError(errno.ENOSPC, "No space left on device")

    def refused(path):
        raise PermissionError(errno.EACCES, "Permission denied")

    for name in ("old.csv", "overwritten.csv"):
        (tmp_path / name).write_text("earlier\n")
    manifest = cli.Manifest({}, tmp_path)
    with pytest.raises(ConfigError, match="Permission denied"):
        manifest.add("old.csv", refused)
    for name in ("new.csv", "overwritten.csv"):
        with pytest.raises(ConfigError, match="No space left"):
            manifest.add(name, partial)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
    assert (tmp_path / "old.csv").read_text() == "earlier\n"


_P1_RUN = ["solve", "--problem", "p1", "--nx", "11", "--dt", "1e-3",
           "--t-end", "0.01"]


@pytest.mark.parametrize("argv, refusal", [
    (["table", "2.1", "--out", "taken"], "unusable output directory"),
    (_P1_RUN + ["--out", "taken/run"], "unusable output directory"),
    # Path("") is the working directory, so an empty --out would write there
    (_P1_RUN + ["--out", ""], "empty output directory"),
    (_P1_RUN + ["--config", "run.cfg"], "empty output directory"),
], ids=["table", "solve-under-file", "solve-empty", "solve-empty-config"])
def test_out_is_judged_before_the_run(tmp_path, capsys, monkeypatch, argv,
                                      refusal):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli, "_solve", no_solve)
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    (tmp_path / "run.cfg").write_text("out =\n")
    assert main(argv) == 2
    assert "config error: " + refusal in capsys.readouterr().err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]


def test_snapshot_names_that_collide_are_refused_before_the_run(
        tmp_path, capsys, monkeypatch):
    # %g gives both times the name solution_t1000.csv
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the snapshot names were checked")

    monkeypatch.setattr(cli, "_solve", no_solve)
    out = tmp_path / "run"
    assert main(["solve", "--problem", "p1", "--nx", "5", "--dt", "1e-3",
                 "--t-end", "1000.001", "--snapshots", "1000,1000.001",
                 "--out", str(out)]) == 2
    assert ("config error: snapshot times 1000.0 and 1000.001 would both "
            "write solution_t1000.csv" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "p1", "--nx", "2003", "--dt", "1e-8",
     "--t-end", "1e-8", "--stability-check"],
    ["stability", "--nx", "2003", "--dt-list", "1e-4"],
], ids=["solve", "stability"])
def test_eigen_size_limit_is_judged_before_any_work(tmp_path, capsys,
                                                    monkeypatch, argv):
    # 2003 nodes give a 2001-node interior block, one above the limit
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the size limit was checked")

    monkeypatch.setattr(cli, "_solve", no_work)
    monkeypatch.setattr(dqm_weights, "first_order_weights", no_work)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert ("config error: matrix size 2001 exceeds limit 2000"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "p1", "--nx", "41"],
    ["weights-dump", "--nx", "13", "--a", "0.25", "--b", "1.75"],
    ["stability", "--nx", "13", "--a", "0.25", "--b", "1.75",
     "--dt-list", "1e-3"],
], ids=["solve", "weights-dump", "stability"])
def test_arrays_too_large_for_memory_exit_2(tmp_path, capsys, monkeypatch,
                                            argv):
    # stands in for a grid whose arrays cannot be allocated; the grid of
    # weights-dump and stability is one no other test builds, so the
    # per-process weight memo cannot serve it
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "_solve", no_memory)
    monkeypatch.setattr(dqm_weights, "first_order_weights", no_memory)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: Unable to allocate 298. GiB for an array" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, refusal", [
    (["weights-dump", "--nx", "9223372036854775807"],
     "n=9223372036854775807 nodes are more than numpy can index"),
    (["stability", "--nx", "4611686018427387904", "--dt-list", "1e-3"],
     "n=4611686018427387904 nodes are more than numpy can index"),
    (["solve", "--problem", "p1", "--nx", "100000000000000000000"],
     "n=100000000000000000000 nodes are more than numpy can index"),
    (["convergence", "--problem", "p1", "--n-list", "1e19,2e19"],
     "n=10000000000000000000 nodes are more than numpy can index"),
    (["solve", "--problem", "p1", "--nx", "11", "--dt", "1e-310",
      "--t-end", "1"], "dt=1e-310 gives an infinite step count"),
], ids=["weights-dump", "stability", "solve", "convergence", "steps"])
def test_sizes_numpy_cannot_represent_exit_2(tmp_path, capsys, argv, refusal):
    # refused by the grid or the step count before anything is allocated
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " + refusal in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# table reproduction (tables shrunk in ``cli.TABLES`` keep runtimes tiny)
# ---------------------------------------------------------------------------

def _shrink_table(monkeypatch, key, **fields):
    monkeypatch.setitem(cli.TABLES, key, replace(cli.TABLES[key], **fields))


def test_run_table_quick_comparison(tmp_path, capsys, monkeypatch):
    _shrink_table(monkeypatch, "1.1", n_values=[10, 20])
    rc = main(["table", "1.1", "--out", str(tmp_path / "t")])
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
    _shrink_table(monkeypatch, "1.1", n_values=[10], times=(0.1,))
    assert main(["table", "1.1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["phases_seconds"]) == {"integrate", "output"}
    assert manifest["config"] == {"table": "1.1", "out": str(out)}
    # without --out the table is only printed
    monkeypatch.chdir(out)
    assert main(["table", "1.1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "table_1_1_comparison.csv"]


def test_table_4_1_orders_use_log2_of_mesh_labels(tmp_path, monkeypatch):
    # labels count intervals (5 and 9 nodes); the order divides by log 2
    _shrink_table(monkeypatch, "4.1", n_values=[4, 8], dt=1e-3, times=(0.1,))
    rc = main(["table", "4.1", "--out", str(tmp_path / "t")])
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
    assert not (tmp_path / "x").exists()


def test_cli_tables_are_the_reference_tables():
    # ``table KEY`` runs each shipped reference table, in the same order
    assert tuple(cli.TABLES) == REFERENCE_TABLE_KEYS
    for key in cli.TABLES:
        fields, rows = load_reference_table(key)
        assert fields and rows


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "burgers-dqm" in capsys.readouterr().out


def test_module_runs_as_a_script():
    env = _script_env()
    done = subprocess.run([sys.executable, "-m", "burgers_dqm.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "burgers-dqm %s" % __version__
