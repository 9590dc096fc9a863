import json

import numpy as np
import pytest

from irslink.errors import ScenarioFormatError
from irslink.phaseshift import Equal, Fixed, OptimalCsi, UniformRandom
from irslink.scenario import MAX_GRID_POINTS, PRESETS, load_scenario, scenario_from_dict

BASE = {
    "beta_sd_db": -90.0,
    "beta_sr_dhdv_db": -84.0,
    "beta_rd_dhdv_db": -75.0,
    "carrier_ghz": 3.0,
    "n_h": 2,
    "n_v": 2,
    "spacing_over_lambda": 0.025,
    "rho_dbm": 8.0,
    "sigma2_dbm": -94.0,
    "model": "sinc",
    "design": "equal",
    "theta": 0.0,
    "xi_min": 0.0,
    "xi_max": 1.0,
    "xi_step": 0.5,
}


def make(**overrides):
    raw = dict(BASE)
    for key, value in overrides.items():
        if value is None and key not in ("beta_sd_db",):
            raw.pop(key, None)
        else:
            raw[key] = value
    return raw


def test_fig2a_preset_carries_link_budget():
    sc = load_scenario("fig2a")
    assert sc.n == 196
    assert sc.carrier_ghz == 3.0
    assert sc.rho_dbm == 8.0
    assert sc.sigma2_dbm == -94.0
    assert sc.spacing_over_lambda == pytest.approx(1 / 40)
    assert sc.beta_sd == pytest.approx(1e-9, rel=1e-12)
    assert isinstance(sc.design, Equal)
    assert sc.design.theta == pytest.approx(np.pi / 4)
    params = sc.system_parameters(2.0)
    z = params.sigma2 * (2.0**2 - 1.0) / params.rho
    assert z == pytest.approx(3.0 * 10 ** (-10.2), rel=1e-12)


def test_fig2b_preset_blocks_direct_channel():
    sc = load_scenario("fig2b")
    assert sc.beta_sd_db is None
    assert sc.beta_sd == 0.0


def test_all_presets_load():
    for name in PRESETS:
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.xi_grid().size > 1


def test_missing_field_names_the_field():
    raw = make()
    del raw["rho_dbm"]
    with pytest.raises(ScenarioFormatError, match="rho_dbm"):
        scenario_from_dict(raw)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioFormatError, match="bandwidth_mhz"):
        scenario_from_dict(make(bandwidth_mhz=10))


def test_wrong_types_are_reported_per_field():
    with pytest.raises(ScenarioFormatError, match="n_h"):
        scenario_from_dict(make(n_h=2.5))
    with pytest.raises(ScenarioFormatError, match="model"):
        scenario_from_dict(make(model="rayleigh"))
    with pytest.raises(ScenarioFormatError, match="xi_step"):
        scenario_from_dict(make(xi_step=0.0))
    with pytest.raises(ScenarioFormatError, match="xi_max"):
        scenario_from_dict(make(xi_max=-1.0))


def test_design_variants_parse():
    assert isinstance(scenario_from_dict(make()).design, Equal)
    fixed = scenario_from_dict(make(design="fixed", theta=[0.0, 0.5, -0.5, 3.0]))
    assert isinstance(fixed.design, Fixed)
    uniform = scenario_from_dict(make(design="uniform_random", theta=None, seed=9))
    assert isinstance(uniform.design, UniformRandom)
    optimal = scenario_from_dict(make(design="optimal_csi", theta=None))
    assert isinstance(optimal.design, OptimalCsi)


def test_design_field_combinations_rejected():
    with pytest.raises(ScenarioFormatError, match="theta"):
        scenario_from_dict(make(design="fixed", theta=[0.0, 0.5]))  # wrong length
    with pytest.raises(ScenarioFormatError, match="seed"):
        scenario_from_dict(make(design="uniform_random", theta=None))  # missing seed
    with pytest.raises(ScenarioFormatError, match="theta"):
        scenario_from_dict(make(design="optimal_csi"))  # stray theta
    with pytest.raises(ScenarioFormatError, match="seed"):
        scenario_from_dict(make(seed=3))  # stray seed on equal design


def test_exp_magnitude_validation():
    sc = scenario_from_dict(make(model="exponential", exp_magnitude=0.95))
    assert sc.exp_magnitude == 0.95
    with pytest.raises(ScenarioFormatError, match="exp_magnitude"):
        scenario_from_dict(make(model="exponential", exp_magnitude=1.0))


def test_digest_changes_with_every_field(tmp_path):
    base = scenario_from_dict(make())
    variants = [
        make(beta_sd_db=None),
        make(beta_sd_db=-80.0),
        make(beta_sr_dhdv_db=-83.0),
        make(beta_rd_dhdv_db=-70.0),
        make(carrier_ghz=2.0),
        make(n_h=4),
        make(n_v=4),
        make(spacing_over_lambda=0.5),
        make(rho_dbm=10.0),
        make(sigma2_dbm=-90.0),
        make(model="uncorrelated"),
        make(model="exponential", exp_magnitude=0.5),
        make(design="uniform_random", theta=None, seed=1),
        make(theta=1.0),
        make(xi_min=0.25, xi_max=1.0),
        make(xi_max=2.0),
        make(xi_step=0.25),
    ]
    digests = {base.digest()}
    for raw in variants:
        digests.add(scenario_from_dict(raw).digest())
    assert len(digests) == len(variants) + 1
    # same content, same digest, independent of the file name
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(make()))
    assert load_scenario(path).digest() == base.digest()


def test_xi_grid_endpoints():
    sc = scenario_from_dict(make(xi_min=0.0, xi_max=8.0, xi_step=0.25))
    grid = sc.xi_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(8.0)
    assert len(grid) == 33
    assert np.all(np.diff(grid) > 0)


def test_xi_grid_size_is_capped():
    at_cap = scenario_from_dict(make(xi_min=0.0, xi_max=float(MAX_GRID_POINTS - 1), xi_step=1.0))
    assert at_cap.xi_grid().size == MAX_GRID_POINTS
    for bad in (
        make(xi_max=float(MAX_GRID_POINTS), xi_step=1.0),
        make(xi_max=float("inf")),
        make(xi_max=float("nan")),
    ):
        with pytest.raises(ScenarioFormatError, match="xi_step"):
            scenario_from_dict(bad)


def test_covariances_are_scaled_models():
    sc = scenario_from_dict(make(model="uncorrelated"))
    r_sr, r_rd = sc.covariances()
    assert np.allclose(r_sr.entries, 10 ** (-8.4) * np.eye(4))
    assert np.allclose(r_rd.entries, 10 ** (-7.5) * np.eye(4))


def test_nonexistent_path_is_an_input_error():
    with pytest.raises(ScenarioFormatError):
        load_scenario("no_such_preset")


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario(path)
