"""Command-line interface: subcommands, file formats, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loglimit.cli
import loglimit.inviscid
import loglimit.logineq
import loglimit.osgood
from conftest import assert_no_child_left
from loglimit import flow
from loglimit.cli import main
from loglimit.flow import SERIES_CSV_HEADER, SolverConfig, run
from loglimit.grid import FIELD_CSV_HEADER, GridSpec, read_csv, save_field_csv
from loglimit.inviscid import GAPS_CSV_HEADER, initial_condition
from loglimit.logineq import gaussian_bump


@pytest.fixture()
def field_csv(tmp_path):
    grid = GridSpec(32)
    path = tmp_path / "field.csv"
    save_field_csv(5.0 * gaussian_bump(grid, np.pi / 6), path)
    return str(path)


class TestNorms:
    def test_prints_report(self, field_csv, capsys):
        assert main(["norms", field_csv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "l1,l2,linf,lp_sigma,bmo,hardy,llogl"
        assert len(out[1].split(",")) == 7

    def test_missing_file_is_error(self, capsys):
        assert main(["norms", "/nonexistent/field.csv"]) == 2


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("{header}\n", "no data rows"),
    ("{header}\n0,0\n", "line 2 has 2 cells, expected {width}"),
], ids=["empty", "header-only", "short-row"])
@pytest.mark.parametrize("command, header", [
    (["norms", "{field}"], FIELD_CSV_HEADER),
    (["split", "--field", "{field}"], FIELD_CSV_HEADER),
    (["rate-fit", "{field}"], GAPS_CSV_HEADER),
], ids=["norms", "split", "rate-fit"])
def test_malformed_field_csv_is_error(command, header, text, message, tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text(text.format(header=",".join(header)))
    message = message.format(width=len(header))
    assert main([a.format(field=path) for a in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


class TestVerifyIneq:
    def test_small_sizes_pass(self, tmp_path, capsys):
        out = str(tmp_path / "trials.csv")
        assert main(["verify-ineq", "--sizes", "16,32", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        header = (tmp_path / "trials.csv").read_text().splitlines()[0]
        assert header == "f_id,g_id,grid,lhs,bmo_f,l1_g,linf_g,bracket,ratio"

    def test_one_size_has_no_slope(self, capsys):
        assert main(["verify-ineq", "--sizes", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].endswith(", refinement log-slope n/a (one size)")
        assert lines[-1] == "PASS"

    def test_repeated_size_is_error(self, capsys, monkeypatch):
        # a repeated size adds no refinement step to the slope fit
        monkeypatch.setattr(loglimit.logineq, "bmo_seminorm", None)  # no scan may start
        assert main(["verify-ineq", "--sizes", "16,16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "distinct" in captured.err
        assert "FAIL" not in captured.out

    def test_size_below_corpus_minimum_is_error(self, capsys, monkeypatch):
        # the corpus's level-4 dyadic indicator needs 16 points per axis
        monkeypatch.setattr(loglimit.logineq, "bmo_seminorm", None)  # no scan may start
        assert main(["verify-ineq", "--sizes", "64,8"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "at least 16" in captured.err
        assert captured.out == ""


class TestOsgood:
    def test_trajectory_csv_and_domination(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        code = main(["osgood", "--f-const", "1.0", "--nu", "1e-3", "--T", "1", "--out", out])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,y,bound"

    def test_nu_above_one_is_error(self, capsys):
        assert main(["osgood", "--f-const", "1.0", "--nu", "1.5", "--T", "1"]) == 2

    @pytest.mark.parametrize("nu, T, message", [
        ("1e-3", "inf", "horizon must be finite"),
        ("1e-3", "nan", "horizon must be finite"),
        ("inf", "1", "nu must be finite"),
        ("1", "1", "requires nu < 1"),
    ], ids=["T-inf", "T-nan", "nu-inf", "nu-one"])
    def test_bad_input_is_error_before_integrating(self, nu, T, message, capsys, monkeypatch):
        monkeypatch.setattr(loglimit.osgood, "integrate_majorant", None)  # nothing may integrate
        assert main(["osgood", "--f-const", "1.0", "--nu", nu, "--T", T]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_overflowing_forcing_is_error(self, capsys):
        argv = ["osgood", "--f-const", "1", "--nu", "1e-2", "--T", "1", "--g0-const", "1e200"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.out + captured.err

    def test_blow_up_reported_as_blow_up(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = ["osgood", "--f-const", "1", "--nu", "1e-2", "--T", "1", "--g0-const", "1e150",
                "--out", str(out)]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["majorant blew up after t = 0", "FAIL"]
        assert not any(line.startswith("y(T)") for line in lines)
        assert out.read_text().splitlines()[0] == "t,y,bound"
        assert len(out.read_text().splitlines()) == 2  # the one point reached


class TestSplit:
    def test_single_threshold(self, field_csv, capsys):
        assert main(["split", "--field", field_csv, "--threshold", "2.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "threshold,measured_support,cheb_bound,holder_lhs,holder_rhs"
        assert len(out) == 3  # header, one row, PASS

    def test_default_sweep(self, field_csv, capsys):
        assert main(["split", "--field", field_csv]) == 0
        assert "PASS" in capsys.readouterr().out


class TestSimulate:
    def test_taylor_green_config(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        config = tmp_path / "run.cfg"
        config.write_text(
            "# small viscous run\n"
            "grid = 32\nnu = 1e-2\nT = 0.2\n"
            f"samples = 10\nout = {outdir}\n"
        )
        assert main(["simulate", str(config)]) == 0
        assert "PASS" in capsys.readouterr().out
        series = (outdir / "series.csv").read_text().splitlines()
        assert series[0] == "t,f0,g0,h0,energy,enstrophy"
        assert (outdir / "final_vorticity.csv").exists()

    def test_files_do_not_depend_on_process_count(self, tmp_path, capsys, monkeypatch, cpus):
        # f0 is scanned through the parallel map: in-process on 1 CPU, and
        # in this process and a forked child on 2
        log = tmp_path / "scans"  # a file, as the scans may run in a child process
        log.touch()
        gradient_bmo = flow.gradient_bmo

        def counting_bmo(state):
            with open(log, "a") as fh:
                fh.write(f"{state.time!r}\n")
            return gradient_bmo(state)

        monkeypatch.setattr(flow, "gradient_bmo", counting_bmo)
        settings = "grid = 32\nnu = 1e-3\nT = 0.2\nic = random_42\nsamples = 10\n"
        outdirs = []
        for k in (1, 2):
            cpus(k)
            outdirs.append(tmp_path / f"sim{k}")
            config = tmp_path / f"run{k}.cfg"
            config.write_text(settings + f"out = {outdirs[-1]}\n")
            assert main(["simulate", str(config)]) == 0
            assert "PASS" in capsys.readouterr().out
            assert_no_child_left()
            assert len(log.read_text().split()) == 11  # the fake sees every sample's scan
            log.write_text("")
        for name in ("series.csv", "final_vorticity.csv"):
            assert (outdirs[0] / name).read_bytes() == (outdirs[1] / name).read_bytes(), name
        grid = GridSpec(32)
        res = run(initial_condition(grid, "random_42"),
                  SolverConfig(grid=grid, nu=1e-3, horizon=0.2, min_samples=10))
        f0 = read_csv(outdirs[0] / "series.csv", SERIES_CSV_HEADER)[:, 1]
        assert f0.tolist() == [gradient_bmo(state) for state in res.states]
        assert np.all(f0 > 0)

    def test_realised_cfl_reported(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"grid = 32\nT = 0.2\nsamples = 10\nout = {tmp_path / 'sim'}\n")
        assert main(["simulate", str(config)]) == 0
        captured = capsys.readouterr()
        assert "realised CFL: " in captured.out and "(dt set for 0.5)" in captured.out
        assert captured.err == ""

    def test_cfl_above_configured_warns(self, tmp_path, capsys):
        # random_4 at n = 16 speeds up past the dt fixed from its initial speed
        config = tmp_path / "run.cfg"
        config.write_text(f"grid = 16\nT = 1.0\nic = random_4\nout = {tmp_path / 'sim'}\n")
        assert main(["simulate", str(config)]) == 0  # a warning, not a failure
        captured = capsys.readouterr()
        assert "realised CFL: 0.5533 (dt set for 0.5)" in captured.out
        assert captured.err == "warning: realised CFL 0.5533 exceeds the 0.5 that dt was set for\n"
        assert "PASS" in captured.out

    def test_bad_config_line_is_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("grid 32\n")
        assert main(["simulate", str(config)]) == 2


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unknown_config_key_is_error(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(loglimit.cli, "run", None)  # nothing may run
    monkeypatch.setattr(loglimit.inviscid, "run", None)
    # a misspelling, and the settings the solver fixes (flow.CFL, one step a
    # sample, h0 the L3 norm)
    for line in ("smaples = 10", "cfl = 0.5", "stride = 1", "sigma = 1.0"):
        key = line.split()[0]
        config = tmp_path / "typo.cfg"
        config.write_text(f"grid = 32\n{line}\nout = {tmp_path / 'out'}\n")
        assert main([command, str(config)]) == 2, key
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, key", [
    ("seed = 7", "seed"),  # a random initial condition is spelled ic = random_<seed>
    ("samples = 2\nsamples = 3", "samples"),
    ("grid = 3.5", "grid"),
    ("samples = one", "samples"),
    ("T = 1,5", "T"),
], ids=["seed", "repeated", "grid-not-int", "samples-not-int", "T-not-float"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_config_is_error(command, lines, key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(loglimit.cli, "run", None)  # nothing may run
    monkeypatch.setattr(loglimit.inviscid, "run", None)
    config = tmp_path / "bad.cfg"
    config.write_text(f"{lines}\nout = {tmp_path / 'out'}\n")
    assert main([command, str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{key!r}" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_readme_sweep_config_builds_its_experiment(tmp_path, monkeypatch):
    # the documented keys and values are the accepted ones; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n# sweep.cfg\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "sweep.cfg"
    config.write_text(block)
    monkeypatch.setattr(loglimit.inviscid, "run", None)
    cfg = loglimit.cli._sweep_config(str(config))
    conf = loglimit.cli._load_config(str(config), loglimit.cli._SWEEP_DEFAULTS)
    assert set(conf) == {key.split("=")[0].strip() for key in block.splitlines() if "=" in key}
    assert len(conf) == 6
    assert cfg.nu_list == (1e-1, 1e-2, 1e-3, 1e-4) and cfg.grid_points == 64
    loglimit.inviscid.initial_condition(GridSpec(8), cfg.initial_condition_id)


@pytest.mark.parametrize("command, setting", [
    ("simulate", "nu = nan"),
    ("simulate", "nu = inf"),
    ("simulate", "T = inf"),
    ("simulate", "T = nan"),
    ("sweep", "nu = 1e-1,nan,1e-3"),
    ("sweep", "T = inf"),
])
def test_non_finite_setting_is_error(command, setting, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a flow was run before the settings were checked")

    monkeypatch.setattr(loglimit.cli, "run", no_run)
    monkeypatch.setattr(loglimit.inviscid, "run", no_run)
    config = tmp_path / "nonfinite.cfg"
    config.write_text(f"grid = 32\nsamples = 4\n{setting}\nout = {tmp_path / 'out'}\n")
    assert main([command, str(config)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["norms", "{field}", "--sigma", "nan"],
    ["norms", "{field}", "--sigma", "inf"],
    ["split", "--field", "{field}", "--threshold", "2", "--sigma", "nan"],
    ["split", "--field", "{field}", "--threshold", "2", "--sigma", "inf"],
], ids=["norms-nan", "norms-inf", "split-nan", "split-inf"])
def test_non_finite_sigma_option_is_error(argv, field_csv, capsys):
    assert main([a.format(field=field_csv) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


class TestSweepAndRateFit:
    def test_sweep_then_rate_fit(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "grid = 32\nnu = 1e-1,1e-2,1e-3\nT = 0.3\nic = taylor_green\n"
            f"samples = 30\nout = {outdir}\n"
        )
        assert main(["sweep", str(config)]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out and "realised CFL: " in captured.out
        assert captured.err == ""
        gaps = outdir / "gaps.csv"
        assert gaps.exists()
        assert main(["rate-fit", str(gaps)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_sweep_warns_on_cfl_above_configured(self, tmp_path, capsys):
        # the reference run of random_4 at n = 16 exceeds the configured cfl
        config = tmp_path / "sweep.cfg"
        config.write_text(f"grid = 16\nT = 1.0\nic = random_4\nsamples = 1\n"
                          f"out = {tmp_path / 'sweep'}\n")
        assert main(["sweep", str(config)]) == 0
        captured = capsys.readouterr()
        assert "realised CFL: 0.5533 (dt set for 0.5)" in captured.out
        assert captured.err == "warning: realised CFL 0.5533 exceeds the 0.5 that dt was set for\n"

    def test_rate_fit_detects_violation(self, tmp_path, capsys):
        gaps = tmp_path / "gaps.csv"
        # sup_gap ~ nu^0.2 against a theory exponent of 0.9: must fail
        rows = ["nu,sup_gap,M,theory_exponent,bound_value"]
        for nu in (1e-1, 1e-2, 1e-3):
            rows.append(f"{nu},{nu**0.2},1.0,0.9,nan")
        gaps.write_text("\n".join(rows) + "\n")
        assert main(["rate-fit", str(gaps)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("rows, message", [
        (["0.1,0.1,1,0.5,nan", "0.01,nan,1,0.5,nan", "0.001,0.001,1,0.5,nan"], "sup gap"),
        (["0.1,0.1,1,0.5,nan", "0.01,0.01,1,0.5,nan", "0.01,0.01,1,0.5,nan"], "strictly decrease"),
        (["0.1,0.1,1,0.5,nan", "0.01,0.01,2,0.5,nan", "0.001,0.001,1,0.5,nan"], "disagree on M"),
        (["0.1,0.1,1,0.5,nan", "0.01,0.01,1,0.4,nan", "0.001,0.001,1,0.5,nan"], "disagree on theory"),
        (["0.1,0.1,1,0.5,nan", "0.01,x,1,0.5,nan", "0.001,0.001,1,0.5,nan"], "line 3"),
    ], ids=["nan-gap", "repeated-nu", "M-disagrees", "theory-disagrees", "not-a-number"])
    def test_rate_fit_bad_series_is_error(self, rows, message, tmp_path, capsys):
        gaps = tmp_path / "gaps.csv"
        gaps.write_text("\n".join(["nu,sup_gap,M,theory_exponent,bound_value", *rows]) + "\n")
        assert main(["rate-fit", str(gaps)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_rate_fit_takes_rows_in_any_nu_order(self, tmp_path, capsys):
        gaps = tmp_path / "gaps.csv"
        rows = [f"{nu},{nu},1,0.5,nan" for nu in (1e-3, 1e-1, 1e-2)]
        gaps.write_text("\n".join(["nu,sup_gap,M,theory_exponent,bound_value", *rows]) + "\n")
        assert main(["rate-fit", str(gaps)]) == 0
        assert capsys.readouterr().out.startswith("rho = 1.000000")


def test_python_m_loglimit_runs_the_cli():
    src = str(Path(loglimit.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "loglimit", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: loglimit") and "verify-ineq" in proc.stdout
