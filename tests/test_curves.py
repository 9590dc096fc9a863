import builtins
import json
import math
import os
import re
from dataclasses import replace
from urllib.parse import unquote

import numpy as np
import pytest

import irslink.curves as curves_module
from irslink import __version__
from irslink.closedform import GammaParams, _fit, _moments, outage_probability
from irslink.curves import (
    OutageCurve,
    check_target,
    read_curve_csv,
    run_compare,
    run_curve,
    run_surface,
    write_compare_csv,
    write_curve_csv,
    write_lines,
    write_surface_csv,
)
from irslink.errors import DomainError, ScenarioFormatError
from irslink.montecarlo import gain_samples, outage_rates
from irslink.phaseshift import UniformRandom
from irslink.scenario import load_scenario, scenario_from_dict

from test_scenario import make


def small_scenario(**overrides):
    return scenario_from_dict(make(**overrides))


def test_closed_form_curve_monotone():
    curve = run_curve(load_scenario("fig2a"), trials=0, seed=1)
    assert np.all(np.diff(curve.p_closed_form) >= 0)
    assert curve.p_closed_form[0] == 0.0
    assert np.all(np.isnan(curve.p_mc))
    assert curve.trials == 0


def test_uniform_design_uses_phase_averaged_fit():
    sc = small_scenario(design="uniform_random", theta=None, seed=4)
    curve = run_curve(sc, trials=0, seed=1)
    r_sr, r_rd = sc.covariances()
    gp = _fit(*_moments(sc.beta_sd, *UniformRandom(4).cascade_moments(r_sr, r_rd)))
    assert curve.k_a[0] == gp.shape
    assert curve.w_a[0] == gp.scale
    expected = [outage_probability(gp, z) for z in curve.z]
    assert np.array_equal(curve.p_closed_form, expected)


def test_optimal_csi_has_no_closed_form_column():
    sc = small_scenario(design="optimal_csi", theta=None)
    curve = run_curve(sc, trials=500, seed=2)
    assert np.all(np.isnan(curve.p_closed_form))
    assert np.all(np.isnan(curve.k_a))
    assert np.all(np.isfinite(curve.p_mc))


def test_curve_against_monte_carlo_at_full_scale():
    """fig2a with the canonical trial count stays inside the agreement bound."""
    curve = run_curve(load_scenario("fig2a"), trials=100_000, seed=7)
    gap = np.abs(curve.p_closed_form - curve.p_mc)
    assert float(np.max(gap)) <= 0.02


def test_csv_round_trip(tmp_path):
    curve = run_curve(small_scenario(), trials=300, seed=5)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert read_curve_csv(path) == curve
    text = path.read_text()
    assert text.startswith("# irslink outage curve")
    assert "scenario_hash=" in text


def test_csv_round_trip_escapes_scenario_name(tmp_path):
    scenario_path = tmp_path / "my run=2%.json"
    scenario_path.write_text(json.dumps(make()))
    curve = run_curve(load_scenario(scenario_path), trials=0, seed=5)
    assert curve.scenario_name == "my run=2%"
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert "scenario=my%20run%3D2%25 " in path.read_text()
    assert read_curve_csv(path) == curve


class _FullDisk:
    """A file whose write stores half the text, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("writer", ["curve", "surface", "compare"])
def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    curve = run_curve(small_scenario(), trials=0, seed=5)
    write = {
        "curve": lambda p: write_curve_csv(curve, p),
        "surface": lambda p: write_surface_csv([1.0], [2.0], np.array([[0.5]]), 2.0, p),
        "compare": lambda p: write_compare_csv({"sinc": curve}, p),
    }[writer]
    path = tmp_path / "out.csv"
    path.write_text("previous\n")
    monkeypatch.setattr(
        curves_module, "open", lambda *a, **k: _FullDisk(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space"):
        write(path)
    assert path.read_text() == "previous\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.csv"]
    monkeypatch.undo()
    write(path)
    assert path.read_text().startswith("# irslink")


def test_write_errors_name_the_target(tmp_path, monkeypatch):
    target = tmp_path / "nodir" / "x.csv"
    with pytest.raises(FileNotFoundError) as missing:
        write_lines(target, ["a"])
    assert missing.value.filename == str(target)
    assert ".tmp" not in str(missing.value)
    with pytest.raises(FileNotFoundError, match="x.csv") as early:
        check_target(target)
    assert str(early.value) == str(missing.value)
    folder = tmp_path / "folder"
    folder.mkdir()
    with pytest.raises(IsADirectoryError) as late:
        write_lines(folder, ["a"])
    with pytest.raises(IsADirectoryError) as early:
        check_target(folder)
    assert str(early.value) == str(late.value) == f"[Errno 21] Is a directory: '{folder}'"
    folder.rmdir()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, dst)

    monkeypatch.setattr(curves_module.os, "replace", refuse)
    path = tmp_path / "out.csv"
    with pytest.raises(PermissionError) as denied:
        write_lines(path, ["a"])
    assert denied.value.filename == str(path) and denied.value.filename2 is None
    assert list(tmp_path.iterdir()) == []


def test_csv_round_trip_with_nan_columns(tmp_path):
    curve = run_curve(small_scenario(), trials=0, seed=5)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert read_curve_csv(path) == curve


def test_curve_invariants_enforced():
    ones = np.ones(3)
    with pytest.raises(DomainError):
        OutageCurve(
            scenario_name="x", scenario_hash="h", seed=0, trials=0, tool_version="v",
            xi=np.array([0.0, 1.0, 0.5]), z=ones, p_closed_form=ones * 0.5,
            p_mc=ones * 0.5, std_err=ones * 0.0, k_a=ones, w_a=ones,
        )
    with pytest.raises(DomainError):
        OutageCurve(
            scenario_name="x", scenario_hash="h", seed=0, trials=0, tool_version="v",
            xi=np.array([0.0, 1.0, 2.0]), z=ones, p_closed_form=ones * 1.5,
            p_mc=ones * 0.5, std_err=ones * 0.0, k_a=ones, w_a=ones,
        )


def test_surface_spot_value_and_monotonicity(tmp_path):
    ka = np.arange(0.25, 5.001, 0.25)
    wa = np.arange(0.25, 5.001, 0.25)
    surf = run_surface(ka, wa, 2.0)
    i = np.where(np.isclose(ka, 1.0))[0][0]
    j = np.where(np.isclose(wa, 2.0))[0][0]
    assert surf[i, j] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert np.all(np.diff(surf, axis=0) < 0)  # decreasing in shape
    assert np.all(np.diff(surf, axis=1) < 0)  # decreasing in scale
    path = tmp_path / "surface.csv"
    write_surface_csv(ka, wa, surf, 2.0, path)
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == ka.size + 1


@pytest.mark.parametrize("z", [0.0, 0.5, 2.0, 40.0])
def test_surface_matches_per_cell_outage(z):
    ka = np.array([0.05, 0.5, 1.0, 2.5, 30.0])
    wa = np.array([0.01, 0.3, 2.0, 9.0])
    expected = [[outage_probability(GammaParams(k, w), z) for w in wa] for k in ka]
    assert np.array_equal(run_surface(ka, wa, z), expected)


def test_surface_rejects_bad_grids():
    with pytest.raises(DomainError):
        run_surface([0.0, 1.0], [1.0], 2.0)
    with pytest.raises(DomainError):
        run_surface([1.0], [np.nan, 1.0], 2.0)
    with pytest.raises(DomainError):
        run_surface([1.0], [1.0], -1.0)
    with pytest.raises(DomainError):
        run_surface([1.0], [1.0], np.nan)


def test_compare_csv_needs_a_model(tmp_path):
    path = tmp_path / "cmp.csv"
    with pytest.raises(DomainError, match="at least one model"):
        write_compare_csv({}, path)
    assert not path.exists()


def test_compare_blocked_orders_models(tmp_path):
    curves = run_compare(load_scenario("fig2c"), ("sinc", "exponential"), trials=0, seed=1)
    sinc_p = curves["sinc"].p_closed_form
    exp_p = curves["exponential"].p_closed_form
    window = (sinc_p > 0.01) & (sinc_p < 0.99) & (exp_p > 0.01) & (exp_p < 0.99)
    assert np.any(window)
    assert np.all(sinc_p[window] <= exp_p[window])
    path = tmp_path / "cmp.csv"
    write_compare_csv(curves, path)
    header = [l for l in path.read_text().splitlines() if l.startswith("xi,")][0]
    assert "p_closed_form_sinc" in header and "p_closed_form_exponential" in header


def test_compare_direct_channel_masks_correlation():
    blocked = load_scenario("fig2c")
    present = replace(blocked, beta_sd_db=-90.0)
    models = ("sinc", "exponential", "uncorrelated")

    def max_gap(sc):
        curves = run_compare(sc, models, trials=0, seed=1)
        stack = np.stack([curves[m].p_closed_form for m in models])
        return float(np.max(np.max(stack, axis=0) - np.min(stack, axis=0)))

    assert max_gap(blocked) >= 5.0 * max_gap(present)


@pytest.mark.parametrize(
    "models, error, message",
    [
        ((), DomainError, "names no model"),
        (("sinc", "exponential", "sinc"), DomainError, "names 'sinc' more than once"),
        (("sinc", "bogus"), ScenarioFormatError, "^model: must be one of .*'bogus'"),
    ],
    ids=["empty", "repeated", "unknown"],
)
def test_compare_rejects_a_bad_model_list_before_any_curve(monkeypatch, models, error, message):
    def must_not_run(*a, **k):
        raise AssertionError("a curve ran before the model list was checked")

    monkeypatch.setattr(curves_module, "run_curve", must_not_run)
    with pytest.raises(error, match=message):
        run_compare(load_scenario("fig2c"), models, trials=0, seed=1)


def test_uncorrelated_model_is_phase_invariant():
    base = small_scenario(model="uncorrelated", theta=0.0)
    rotated = small_scenario(model="uncorrelated", theta=np.pi / 4)
    a = run_curve(base, trials=0, seed=1)
    b = run_curve(rotated, trials=0, seed=1)
    assert np.allclose(a.p_closed_form, b.p_closed_form, rtol=1e-12)


def test_mc_columns_reuse_gain_draws():
    """Per-threshold estimates come from one shared set of trials."""
    sc = small_scenario(design="uniform_random", theta=None, seed=4, xi_step=0.25)
    curve = run_curve(sc, trials=2_000, seed=6)
    r_sr, r_rd = sc.covariances()
    for idx in (0, len(curve.xi) // 2, len(curve.xi) - 1):
        gains = gain_samples(sc.beta_sd, r_sr, r_rd, sc.design, 2_000, 6)
        p_hat, std_err = outage_rates(gains, sc.snr_threshold(float(curve.xi[idx])))
        assert p_hat == curve.p_mc[idx]
        assert std_err == curve.std_err[idx]


@pytest.mark.parametrize("trials", [0.0, True, 2.5, np.float64(64.0), -1])
def test_trial_count_must_be_a_nonnegative_integer(trials):
    with pytest.raises(DomainError, match="trial count"):
        run_curve(small_scenario(), trials=trials, seed=1)


def test_csv_round_trip_of_a_numpy_trial_count(tmp_path):
    curve = run_curve(small_scenario(), trials=np.int64(64), seed=5)
    assert type(curve.trials) is int and curve.trials == 64
    assert curve == run_curve(small_scenario(), trials=64, seed=5)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert " trials=64\n" in path.read_text()
    assert read_curve_csv(path) == curve


@pytest.mark.parametrize(
    "old, new",
    [(b" seed=5 ", b" seed=five "), (b" trials=0\n", b" trials=0.0\n"), (b"\n0,", b"\nzero,"), (b"\n0,", b"\n0,0,"),
     (b"\n0,", b"\n\xff0,")],
    ids=["seed", "trials", "cell", "ragged-row", "not-utf8"],
)
def test_malformed_curve_file_is_a_domain_error_naming_it(tmp_path, old, new):
    path = tmp_path / "curve.csv"
    write_curve_csv(run_curve(small_scenario(), trials=0, seed=5), path)
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(DomainError, match="curve.csv"):
        read_curve_csv(path)


HEADER_KEYS = ("tool_version", "scenario", "scenario_hash", "seed", "trials")
FILE_FAULTS = {
    **{key: f"has no header key '{key}'" for key in HEADER_KEYS},
    "no-header": "has no header key 'tool_version'",
    "swapped-columns": "does not have the column line",
    "no-column-line": "does not have the column line",
}


@pytest.mark.parametrize("fault, message", FILE_FAULTS.items(), ids=list(FILE_FAULTS))
def test_reader_names_the_missing_key_or_the_column_line(tmp_path, fault, message):
    path = tmp_path / "curve.csv"
    write_curve_csv(run_curve(small_scenario(), trials=0, seed=5), path)
    text = path.read_text(encoding="utf-8")
    column_line = "xi,z,p_closed_form,p_mc,std_err,k_a,w_a\n"
    if fault == "no-header":
        changed = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    elif fault == "swapped-columns":
        changed = text.replace(column_line, "xi,z,p_mc,p_closed_form,std_err,k_a,w_a\n")
    elif fault == "no-column-line":
        changed = text.replace(column_line, "")
    else:
        changed = re.sub(rf"(?<=[# ]){fault}=\S* ?", "", text)
    assert changed != text
    path.write_text(changed, encoding="utf-8")
    with pytest.raises(DomainError, match=f"curve.csv {message}"):
        read_curve_csv(path)


def test_surface_values_must_match_the_grids(tmp_path):
    path = tmp_path / "surface.csv"
    with pytest.raises(DomainError, match="do not match the 3 x 3 grid"):
        write_surface_csv([1, 2, 3], [1, 2, 3], np.full((2, 2), 0.5), 2.0, path)
    assert not path.exists()


# A header value with every character the escape rule covers: a space, '=',
# '%', a non-ASCII letter and a file name's undecodable byte.
ODD = "a b=c%d é" + os.fsdecode(b"\xff")


def _header_tokens(path):
    """The (key, unquoted value) tokens of every '#' line after the kind line; each token must be key=value."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("#")][1:]
    tokens = [token for line in lines for token in line[1:].split()]
    assert all("=" in token for token in tokens), tokens
    return [(key, unquote(value, errors="surrogateescape")) for key, value in (t.split("=", 1) for t in tokens)]


@pytest.mark.parametrize("artifact", ["curve", "compare", "surface"])
def test_header_tokens_unquote_to_the_values_written(tmp_path, artifact):
    curve = replace(run_curve(small_scenario(), trials=0, seed=5), scenario_name=ODD, scenario_hash=ODD + "#")
    other = replace(curve, scenario_name=ODD + "2", scenario_hash="=")
    path = tmp_path / "out.csv"
    if artifact == "curve":
        write_curve_csv(curve, path)
        expected = [("tool_version", __version__), ("scenario", ODD), ("scenario_hash", ODD + "#"), ("seed", "5"), ("trials", "0")]
        assert read_curve_csv(path) == curve
    elif artifact == "compare":
        write_compare_csv({"sinc": curve, "exponential": other}, path)
        expected = [
            ("tool_version", __version__), ("models", "sinc,exponential"), ("seed", "5"), ("trials", "0"),
            ("scenario_sinc", ODD), ("scenario_hash_sinc", ODD + "#"),
            ("scenario_exponential", ODD + "2"), ("scenario_hash_exponential", "="),
        ]
    else:
        write_surface_csv([1.0], [2.0], np.array([[0.5]]), 0.1, path)
        expected = [("tool_version", __version__), ("z", "0.10000000000000001")]
    assert _header_tokens(path) == expected
