import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irslink.curves as curves_module
from irslink import cli
from irslink.curves import read_curve_csv

from test_curves import _FullDisk
from test_scenario import make


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    # The child imports irslink from this checkout's src/, installed or not.
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "irslink.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_curve_subcommand(tmp_path):
    out = tmp_path / "fig2a.csv"
    result = run_cli("curve", "--scenario", "fig2a", "--trials", "0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    curve = read_curve_csv(out)
    assert curve.scenario_name == "fig2a"
    assert len(curve.xi) == 33


def test_curve_with_trials_and_file_scenario(tmp_path):
    scenario_path = tmp_path / "tiny.json"
    scenario_path.write_text(json.dumps(make(xi_max=0.5)))
    out = tmp_path / "tiny.csv"
    result = run_cli(
        "curve", "--scenario", str(scenario_path), "--trials", "500", "--seed", "3",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    curve = read_curve_csv(out)
    assert curve.trials == 500 and curve.seed == 3


def test_missing_scenario_is_input_error(tmp_path):
    result = run_cli("curve", "--scenario", str(tmp_path / "absent.json"))
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_invalid_scenario_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make(rho_dbm="loud")))
    result = run_cli("curve", "--scenario", str(bad))
    assert result.returncode == 2
    assert "rho_dbm" in result.stderr


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_surface_subcommand(tmp_path):
    out = tmp_path / "surface.csv"
    result = run_cli("surface", "--z", "2.0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert any(l.startswith("k_a") for l in lines)


@pytest.mark.parametrize(
    "args",
    [
        ("surface", "--ka-step", "1e-6"),
        ("surface", "--wa-min", "0.25", "--wa-max", "1e9", "--wa-step", "1"),
        ("surface", "--ka-step", "0"),
        ("surface", "--ka-max", "inf"),
    ],
)
def test_surface_grid_is_bounded(tmp_path, args):
    out = tmp_path / "surface.csv"
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2
    assert "grid" in result.stderr
    assert not out.exists()


def test_nan_threshold_is_input_error(tmp_path):
    out = tmp_path / "surface.csv"
    result = run_cli("surface", "--z", "nan", "--out", str(out))
    assert result.returncode == 2
    assert "threshold must be >= 0" in result.stderr
    assert not out.exists()


def test_curve_grid_is_bounded(tmp_path):
    scenario_path = tmp_path / "fine.json"
    scenario_path.write_text(json.dumps(make(xi_max=8.0, xi_step=1e-6)))
    out = tmp_path / "fine.csv"
    result = run_cli("curve", "--scenario", str(scenario_path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2
    assert "xi_step" in result.stderr and "cap" in result.stderr
    assert not out.exists()


def test_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.csv"
    result = run_cli(
        "compare", "--scenario", "fig2c", "--models", "sinc,exponential",
        "--trials", "0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "p_closed_form_sinc" in out.read_text()


def test_compare_rejects_unknown_model():
    result = run_cli("compare", "--scenario", "fig2c", "--models", "bogus", "--trials", "0")
    assert result.returncode == 2
    assert "bogus" in result.stderr


@pytest.mark.parametrize("command", ["curve", "compare"])
def test_negative_trials_are_input_errors(tmp_path, command):
    out = tmp_path / "negative.csv"
    result = run_cli(command, "--scenario", "fig2c", "--trials", "-5", "--out", str(out))
    assert result.returncode == 2
    assert "trial count" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("rho_dbm", float("nan")), ("rho_dbm", float("inf")), ("sigma2_dbm", float("-inf")),
     ("beta_sd_db", float("nan")), ("xi_min", float("nan"))],
)
def test_non_finite_scenario_is_input_error(tmp_path, key, value):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(make(**{key: value})))  # json writes NaN / Infinity
    out = tmp_path / "nonfinite.csv"
    result = run_cli("curve", "--scenario", str(path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2
    assert f"{key}: must be finite" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("curve", "--scenario", "fig2c", "--trials", "5", "--seed", "-1"),
        ("curve", "--scenario", "fig2c", "--trials", "5", "--seed", "18446744073709551616"),
        ("curve", "--scenario", "fig2c", "--trials", "0", "--seed", "-1"),
        ("compare", "--scenario", "fig2c", "--trials", "0", "--seed", "-1"),
        ("validate", "--only", "7", "--seed", "-1"),
    ],
    ids=["curve-negative", "curve-2^64", "curve-trials0", "compare-trials0", "validate"],
)
def test_out_of_range_seed_is_input_error(tmp_path, args):
    out = tmp_path / "seeded.csv"
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "seed must lie in [0, 2^64)" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


def test_validate_fast_subset(tmp_path):
    report = tmp_path / "report.txt"
    result = run_cli("validate", "--only", "1,2,9,10", "--out", str(report))
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [l for l in result.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 4
    assert all(l.startswith("[PASS]") for l in lines)
    assert report.read_text().count("criterion") == 4


def test_validate_report_survives_a_failed_write(tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.txt"
    report.write_text("previous\n")
    monkeypatch.setattr(
        curves_module, "open", lambda *a, **k: _FullDisk(builtins.open(*a, **k)), raising=False
    )
    assert cli.main(["validate", "--only", "10", "--out", str(report)]) == 2
    assert "No space" in capsys.readouterr().err
    assert report.read_text() == "previous\n"
    assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize(
    "args",
    [
        ("compare", "--scenario", "fig2c", "--trials", "0", "--models", ","),
        ("validate", "--only", ","),
        ("validate", "--only", ""),
    ],
    ids=["compare-models", "validate-only", "validate-only-blank"],
)
def test_empty_selection_is_input_error(tmp_path, args):
    out = tmp_path / "empty.csv"
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2, result.stdout + result.stderr
    assert "names no" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


def test_validate_rejects_unknown_criterion():
    result = run_cli("validate", "--only", "99")
    assert result.returncode == 2


@pytest.mark.parametrize("flag", ["--version"])
def test_version_flag(flag):
    result = run_cli(flag)
    assert result.returncode == 0
    assert "irslink" in result.stdout
