import builtins
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from urllib.parse import unquote

import numpy as np
import pytest

import irslink.closedform as closedform_module
import irslink.curves as curves_module
from irslink import cli, validation
from irslink.curves import read_curve_csv
from irslink.scenario import load_scenario

from test_curves import _FullDisk
from test_scenario import GAIN_SCALE_OVERFLOWS, GAIN_SCALE_UNDERFLOWS, GEOMETRY_OVERFLOWS, RANGE_EDGES, THRESHOLD_OVERFLOWS, make


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None, **env):
    # The child imports irslink from this checkout's src/, installed or not.
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "irslink.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
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


@pytest.mark.parametrize("content", [b"\xff\xfe{\x00", b"[" * 200_000], ids=["not-utf8", "deep-nesting"])
def test_undecodable_scenario_is_input_error(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "bad.csv"
    result = run_cli("curve", "--scenario", str(bad), "--trials", "0", "--out", str(out))
    assert result.returncode == 2
    assert "invalid JSON" in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


def test_scenario_file_is_read_as_utf8_under_the_c_locale(tmp_path):
    scenario_path = tmp_path / "nonascii.json"
    scenario_path.write_text(json.dumps(make(design="équal"), ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "x.csv"
    # The C locale without UTF-8 mode, where the locale's encoding is ASCII.
    c_locale = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
    result = run_cli("curve", "--scenario", str(scenario_path), "--trials", "0", "--out", str(out), **c_locale)
    assert result.returncode == 2
    assert "error: design: must be one of" in result.stderr and "invalid JSON" not in result.stderr
    assert not out.exists()


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
        ("surface", "--ka-max", "1e308", "--ka-step", "1e-308"),  # a point count that overflows to inf
    ],
)
def test_surface_grid_is_bounded(tmp_path, args):
    out = tmp_path / "surface.csv"
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2
    assert "grid" in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


def test_nan_threshold_is_input_error(tmp_path):
    out = tmp_path / "surface.csv"
    result = run_cli("surface", "--z", "nan", "--out", str(out))
    assert result.returncode == 2
    assert "threshold must be >= 0" in result.stderr
    assert not out.exists()


def test_infinite_surface_threshold_is_input_error(tmp_path):
    out = tmp_path / "surface.csv"
    result = run_cli("surface", "--z", "inf", "--out", str(out))
    assert result.returncode == 2
    assert "threshold must be >= 0 and finite, got inf" in result.stderr
    assert not out.exists()


def test_surface_cell_count_is_bounded(tmp_path, monkeypatch, capsys):
    # Two axes of 95 001 points each, both under the per-axis cap: 9.0e9 cells
    # (72 GB) are refused before the surface is allocated.  gammainc is
    # stubbed, so a tree without the cap fails here instead of allocating.
    out = tmp_path / "surface.csv"
    evaluated = []
    monkeypatch.setattr(closedform_module.special, "gammainc", lambda *a: evaluated.append(a))
    code = cli.main(["surface", "--ka-step", "5e-5", "--wa-step", "5e-5", "--out", str(out)])
    assert code == 2
    assert "exceeds the cap of 100000" in capsys.readouterr().err
    assert not evaluated and not out.exists()


@pytest.mark.filterwarnings("error")
def test_surface_scale_beyond_the_float_range_is_its_limit(tmp_path, capsys):
    # z / w overflows to inf, where every cell's outage is exactly 1.
    out = tmp_path / "surface.csv"
    code = cli.main(["surface", "--wa-min", "1e-308", "--wa-max", "1e-308", "--wa-step", "1", "--out", str(out)])
    assert code == 0
    assert "Warning" not in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith(("#", "k_a"))]
    assert rows and all(float(cell) == 1.0 for row in rows for cell in row[1:])


def test_curve_grid_is_bounded(tmp_path):
    scenario_path = tmp_path / "fine.json"
    scenario_path.write_text(json.dumps(make(xi_max=8.0, xi_step=1e-6)))
    out = tmp_path / "fine.csv"
    result = run_cli("curve", "--scenario", str(scenario_path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2
    assert "xi_step" in result.stderr and "cap" in result.stderr
    assert not out.exists()


def test_overflowing_curve_grid_is_input_error(tmp_path):
    scenario_path = tmp_path / "overflow.json"
    scenario_path.write_text(json.dumps(make(xi_max=8.0, xi_step=1e-308)))
    out = tmp_path / "overflow.csv"
    result = run_cli("curve", "--scenario", str(scenario_path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "error: xi_step: grid from 0.0 to 8.0 in steps of 1e-308 overflows its point count" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


def test_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.csv"
    result = run_cli(
        "compare", "--scenario", "fig2c", "--models", "sinc,exponential",
        "--trials", "0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "p_closed_form_sinc" in out.read_text()


# Scenario file names whose characters reach the CLI as lone surrogates: a
# byte that is not UTF-8, and any non-ASCII byte under the C locale without
# UTF-8 mode.  The headers escape their bytes, so the names read back.
ODD_NAMES = [
    pytest.param(os.fsdecode(b"bad\xff"), {}, id="not-utf8"),
    pytest.param("café", {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}, id="c-locale"),
]


@pytest.mark.parametrize("name, env", ODD_NAMES)
def test_curve_keeps_an_odd_scenario_file_name(name, env, tmp_path):
    scenario_path = tmp_path / f"{name}.json"
    scenario_path.write_text(json.dumps(make(xi_max=0.5)))
    out = tmp_path / "curve.csv"
    result = run_cli("curve", "--scenario", str(scenario_path), "--trials", "0", "--out", str(out), **env)
    assert result.returncode == 0, result.stderr
    assert read_curve_csv(out).scenario_name == name


@pytest.mark.parametrize("name, env", ODD_NAMES)
def test_compare_keeps_an_odd_scenario_file_name(name, env, tmp_path):
    scenario_path = tmp_path / f"{name}.json"
    scenario_path.write_text(json.dumps(make(xi_max=0.5)))
    out = tmp_path / "cmp.csv"
    result = run_cli("compare", "--scenario", str(scenario_path), "--models", "sinc,exponential", "--trials", "0", "--out", str(out), **env)
    assert result.returncode == 0, result.stderr
    names = re.findall(r"^# scenario_(\w+)=(\S+)", out.read_text(encoding="utf-8"), re.MULTILINE)
    assert [(m, unquote(value, errors="surrogateescape")) for m, value in names] == [(m, f"{name}[{m}]") for m in ("sinc", "exponential")]


def test_compare_rejects_a_repeated_model(tmp_path):
    out = tmp_path / "cmp.csv"
    result = run_cli("compare", "--scenario", "fig2c", "--models", "sinc,exponential,sinc", "--trials", "0", "--out", str(out))
    assert result.returncode == 2
    assert "'sinc' more than once" in result.stderr
    assert not out.exists() and not result.stdout


def test_compare_rejects_unknown_model():
    result = run_cli("compare", "--scenario", "fig2c", "--models", "bogus", "--trials", "0")
    assert result.returncode == 2
    assert "bogus" in result.stderr


@pytest.mark.parametrize(
    "command", [("curve", "--scenario", "fig2c"), ("compare", "--scenario", "fig2c"), ("validate",)], ids=lambda c: c[0]
)
def test_negative_trials_are_input_errors(tmp_path, command):
    out = tmp_path / "negative.csv"
    result = run_cli(*command, "--trials", "-5", "--out", str(out))
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


@pytest.mark.parametrize("key", ["beta_sd_db", "beta_sr_dhdv_db", "rho_dbm"])
def test_level_beyond_the_float_range_is_input_error(tmp_path, key):
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(make(**{key: 5000.0})))
    out = tmp_path / "loud.csv"
    result = run_cli("curve", "--scenario", str(path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert f"error: {key}: 5000.0 converts to inf" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


@pytest.mark.parametrize("overrides, field", THRESHOLD_OVERFLOWS, ids=["ratio", "xi_max", "product"])
def test_infinite_threshold_is_input_error(tmp_path, overrides, field):
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(make(**overrides)))
    out = tmp_path / "loud.csv"
    result = run_cli("curve", "--scenario", str(path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert f"error: {field}: the SNR threshold" in result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides, field", GAIN_SCALE_OVERFLOWS + GEOMETRY_OVERFLOWS + GAIN_SCALE_UNDERFLOWS)
@pytest.mark.parametrize("trials", ["0", "3"])
def test_moments_or_offsets_beyond_the_float_range_are_input_errors(tmp_path, capsys, overrides, field, trials):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(make(**overrides)))
    out = tmp_path / "huge.csv"
    assert cli.main(["curve", "--scenario", str(path), "--trials", trials, "--out", str(out)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_noise_level_that_swamps_the_gain_runs_clean(tmp_path, capsys):
    # sigma2 = 1e300 W keeps z finite but z / scale overflows: every rate above
    # zero is an outage, read as the limit 1 without a warning.
    path = tmp_path / "noisy.json"
    raw = load_scenario("fig2c").to_schema_dict()
    path.write_text(json.dumps({**raw, "sigma2_dbm": 3000.0}))
    out = tmp_path / "noisy.csv"
    assert cli.main(["curve", "--scenario", str(path), "--trials", "0", "--out", str(out)]) == 0
    assert not capsys.readouterr().err
    curve = read_curve_csv(out)
    assert (curve.p_closed_form == np.where(curve.z > 0, 1.0, 0.0)).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", RANGE_EDGES)
@pytest.mark.parametrize("design", [{}, {"design": "uniform_random", "seed": 3}, {"design": "optimal_csi"}])
def test_moments_and_offsets_at_the_edge_run_clean(tmp_path, overrides, design):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(make(**overrides, **design, **({"theta": None} if design else {}))))
    out = tmp_path / "edge.csv"
    assert cli.main(["curve", "--scenario", str(path), "--trials", "50", "--out", str(out)]) == 0
    curve = read_curve_csv(out)
    for p in (curve.p_closed_form, curve.p_mc):
        assert ((0.0 <= p) & (p <= 1.0) | np.isnan(p)).all()


def _help(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_validate_help_describes_its_own_options(capsys):
    # validate --trials 0 is an input error, and validate --out writes the text report.
    out = _help(capsys, "validate")
    assert "0 = closed form only" not in out and "CSV" not in out
    assert "--trials TRIALS Monte-Carlo trials of every MC criterion, at least 2" in out
    assert "--out OUT also write the report lines" in out
    out = _help(capsys, "curve")
    assert "(0 = closed form only)" in out and "output CSV path" in out


@pytest.mark.parametrize(
    "args",
    [
        ("surface", "--scenario", "fig2a"),
        ("surface", "--trials", "-7"),
        ("surface", "--seed", "-3"),
        ("validate", "--scenario", "fig2a"),
    ],
    ids=["surface-scenario", "surface-trials", "surface-seed", "validate-scenario"],
)
def test_options_the_subcommand_does_not_read_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(args))
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, digits, message",
    [
        ({"rho_dbm": 10**400}, 0, "rho_dbm: integer too large for a float"),
        ({"beta_sd_db": -(10**400)}, 0, "beta_sd_db: integer too large for a float"),
        ({"theta": 10**400}, 0, "theta: integer too large for a float"),
        ({"design": "fixed", "theta": [0, 10**400, 0, 0]}, 0, "theta: fixed design needs a list of 4 finite numbers"),
        ({"n_h": 10**400}, 0, "n_h: n_h * n_v exceeds the cap"),
        ({}, 5000, "Exceeds the limit (4300 digits)"),
    ],
    ids=["rho_dbm", "beta_sd_db", "equal-theta", "fixed-theta", "n_h", "5000-digits"],
)
def test_huge_integer_scenario_is_input_error(tmp_path, overrides, digits, message):
    path = tmp_path / "huge.json"
    text = json.dumps(make(**overrides))
    if digits:  # beyond the digit limit of Python's int parser, so json.dumps cannot write it
        text = text.replace('"rho_dbm": 8.0', '"rho_dbm": ' + "9" * digits)
    path.write_text(text)
    out = tmp_path / "huge.csv"
    result = run_cli("curve", "--scenario", str(path), "--trials", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() and not result.stdout


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
    # the engine's thread plan comes first, on screen and in the report
    engine = result.stdout.splitlines()[0]
    assert re.fullmatch(r"MC engine: \d+ worker\(s\), BLAS threads (\d+|unreadable), usable cores \d+", engine)
    assert report.read_text().splitlines()[0] == engine


def test_validate_needs_two_trials(tmp_path):
    # Criterion 3's sample deviations need two draws; one trial is refused before any criterion runs.
    report = tmp_path / "report.txt"
    result = run_cli("validate", "--only", "3", "--trials", "1", "--out", str(report))
    assert result.returncode == 2
    assert "trial count must be at least 2, got 1" in result.stderr
    assert "Warning" not in result.stderr and not result.stdout
    assert not report.exists()


@pytest.mark.parametrize(
    "command", [("curve", "--scenario", "fig2a"), ("validate", "--only", "3")], ids=lambda c: c[0]
)
def test_a_trial_count_that_cannot_be_allocated_is_input_error(tmp_path, command):
    # 10^14 trials' results would take 728 TiB: refused at the allocation, without touching memory.
    out = tmp_path / "out.txt"
    result = run_cli(*command, "--trials", "100000000000000", "--out", str(out))
    assert result.returncode == 2
    assert "trial count 100000000000000 is too large" in result.stderr
    assert "Traceback" not in result.stderr and not result.stdout
    assert not out.exists()


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
    "args, work",
    [
        (("curve", "--scenario", "fig2a", "--trials", "20000"), "run_curve"),
        (("compare", "--scenario", "fig2c", "--trials", "20000"), "run_compare"),
        (("validate", "--only", "3,4"), "run_criteria"),
        (("surface",), "run_surface"),
    ],
    ids=["curve", "compare", "validate", "surface"],
)
def test_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys, args, work):
    def must_not_run(*a, **k):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, must_not_run)
    target = tmp_path / "nodir" / "x.csv"
    assert cli.main([*args, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{target}'" in err
    (tmp_path / "file").write_text("")
    assert cli.main([*args, "--out", str(tmp_path / "file" / "x.csv")]) == 2
    assert "Not a directory" in capsys.readouterr().err
    (tmp_path / "folder").mkdir()
    assert cli.main([*args, "--out", str(tmp_path / "folder")]) == 2
    assert f"Is a directory: '{tmp_path / 'folder'}'" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["file", "folder"]
    assert not any((tmp_path / "folder").iterdir())


def test_missing_out_directory_is_input_error(tmp_path):
    result = run_cli("curve", "--scenario", "fig2a", "--trials", "20000", "--out", "nodir/x.csv", cwd=tmp_path)
    assert result.returncode == 2
    assert "No such file or directory: 'nodir/x.csv'" in result.stderr
    assert not result.stdout and not list(tmp_path.iterdir())


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


def test_validate_only_reads_the_criteria_registry(monkeypatch, capsys):
    def stub(trials=None, seed=None):
        return validation.CriterionResult(11, "stub", True, "ran", 0.0, 1.0)

    monkeypatch.setitem(validation.CRITERIA, 11, stub)
    assert cli.main(["validate", "--only", "11"]) == 0
    assert "[PASS] criterion 11: stub (ran)" in capsys.readouterr().out
    assert cli.main(["validate", "--only", "12"]) == 2
    assert "no criterion 12; valid numbers are 1,2,3,4,5,6,7,8,9,10,11" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["validate", "--help"])
    assert "1,2,3,4,5,6,7,8,9,10,11" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--version"])
def test_version_flag(flag):
    result = run_cli(flag)
    assert result.returncode == 0
    assert "irslink" in result.stdout
