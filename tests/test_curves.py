import builtins
import json
import math

import numpy as np
import pytest

import irslink.curves as curves_module
from irslink.closedform import GammaParams, gamma_fit_uniform_phase, outage_probability
from irslink.curves import (
    OutageCurve,
    read_curve_csv,
    run_compare,
    run_curve,
    run_surface,
    write_compare_csv,
    write_curve_csv,
    write_surface_csv,
)
from irslink.errors import DomainError
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
    gp = gamma_fit_uniform_phase(sc.beta_sd, r_sr, r_rd)
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
    present = blocked.with_direct_gain_db(-90.0)
    models = ("sinc", "exponential", "uncorrelated")

    def max_gap(sc):
        curves = run_compare(sc, models, trials=0, seed=1)
        stack = np.stack([curves[m].p_closed_form for m in models])
        return float(np.max(np.max(stack, axis=0) - np.min(stack, axis=0)))

    assert max_gap(blocked) >= 5.0 * max_gap(present)


def test_uncorrelated_model_is_phase_invariant():
    base = small_scenario(model="uncorrelated", theta=0.0)
    rotated = small_scenario(model="uncorrelated", theta=np.pi / 4)
    a = run_curve(base, trials=0, seed=1)
    b = run_curve(rotated, trials=0, seed=1)
    assert np.allclose(a.p_closed_form, b.p_closed_form, rtol=1e-12)


def test_mc_columns_reuse_gain_draws():
    """Per-threshold estimates come from one shared set of trials."""
    from irslink.montecarlo import estimate_outage

    sc = small_scenario(design="uniform_random", theta=None, seed=4, xi_step=0.25)
    curve = run_curve(sc, trials=2_000, seed=6)
    r_sr, r_rd = sc.covariances()
    for idx in (0, len(curve.xi) // 2, len(curve.xi) - 1):
        est = estimate_outage(
            sc.system_parameters(float(curve.xi[idx])), r_sr, r_rd, sc.design, 2_000, 6
        )
        assert est.p_hat == curve.p_mc[idx]
        assert est.std_err == curve.std_err[idx]
