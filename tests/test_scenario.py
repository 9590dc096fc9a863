import json
import math
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import irslink
from irslink.errors import DomainError, ScenarioFormatError
from irslink.phaseshift import Equal, Fixed, OptimalCsi, PhaseShiftDesign, UniformRandom
from irslink.scenario import MAX_ELEMENTS, MAX_GRID_POINTS, PRESETS, load_scenario, scenario_from_dict, step_grid

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
    assert sc.snr_threshold(2.0) == pytest.approx(3.0 * 10 ** (-10.2), rel=1e-12)


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
    with pytest.raises(ScenarioFormatError, match="xi_min"):
        scenario_from_dict(make(xi_min=-1.0))


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


@pytest.mark.parametrize("lo, hi, step", [(0.25, 1e308, 1e-308), (-1e308, 1e308, 1.0)], ids=["tiny-step", "wide-span"])
def test_step_grid_refuses_an_overflowing_count(lo, hi, step):
    # The quotient (hi - lo) / step is inf, which int() would raise OverflowError on.
    with pytest.raises(DomainError, match="overflows its point count"):
        step_grid(lo, hi, step)


def test_xi_grid_size_is_capped():
    # A step of 2^-10 keeps the grid exact in binary and xi_max below 98,
    # where the SNR threshold 2^xi - 1 is still finite.
    step = 2.0**-10
    at_cap = scenario_from_dict(make(xi_min=0.0, xi_max=(MAX_GRID_POINTS - 1) * step, xi_step=step))
    assert at_cap.xi_grid().size == MAX_GRID_POINTS
    with pytest.raises(ScenarioFormatError, match="xi_step"):
        scenario_from_dict(make(xi_max=MAX_GRID_POINTS * step, xi_step=step))
    # A point count that overflows to inf is refused too, against xi_step.
    with pytest.raises(ScenarioFormatError, match="^xi_step: grid .* overflows its point count"):
        scenario_from_dict(make(xi_max=8.0, xi_step=1e-308))
    # A non-finite bound is reported against its own field.
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ScenarioFormatError, match="^xi_max: must be finite"):
            scenario_from_dict(make(xi_max=bad))


# Every numeric schema key with a value of the right kind for BASE or for
# the design that uses it.  Python's json module parses NaN and Infinity.
NUMERIC_KEYS = {
    "beta_sd_db": {},
    "beta_sr_dhdv_db": {},
    "beta_rd_dhdv_db": {},
    "carrier_ghz": {},
    "n_h": {},
    "n_v": {},
    "spacing_over_lambda": {},
    "rho_dbm": {},
    "sigma2_dbm": {},
    "exp_magnitude": {"model": "exponential"},
    "theta": {},
    "seed": {"design": "uniform_random", "theta": None},
    "xi_min": {},
    "xi_max": {},
    "xi_step": {},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
def test_non_finite_numbers_name_their_field(key, value):
    raw = make(**NUMERIC_KEYS[key])
    raw[key] = value
    with pytest.raises(ScenarioFormatError, match=f"^{key}: "):
        scenario_from_dict(raw)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_fixed_phase_rejected(value):
    with pytest.raises(ScenarioFormatError, match="^theta: "):
        scenario_from_dict(make(design="fixed", theta=[0.0, value, 0.5, 1.0]))


# Python's json parses an integer of up to 4300 digits; one beyond the float
# range must not escape as OverflowError.
HUGE = 10**400


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["+10^400", "-10^400"])
@pytest.mark.parametrize("key", sorted(set(NUMERIC_KEYS) - {"n_h", "n_v"}))
def test_huge_integers_name_their_field(key, value):
    raw = make(**NUMERIC_KEYS[key])
    raw[key] = value
    with pytest.raises(ScenarioFormatError, match=f"^{key}: "):
        scenario_from_dict(raw)


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["+10^400", "-10^400"])
def test_huge_fixed_phase_rejected(value):
    with pytest.raises(ScenarioFormatError, match="^theta: "):
        scenario_from_dict(make(design="fixed", theta=[0.0, value, 0.5, 1.0]))


# The dB/dBm levels.  At +5000 the linear value overflows the float range
# (float ** raises OverflowError); at -5000 it underflows to 0.0, which for
# beta_sd_db would silently read as the blocked direct link.
LEVEL_KEYS = ("beta_sd_db", "beta_sr_dhdv_db", "beta_rd_dhdv_db", "rho_dbm", "sigma2_dbm")


@pytest.mark.parametrize("value", [5000.0, -5000.0], ids=["+5000", "-5000"])
@pytest.mark.parametrize("key", LEVEL_KEYS)
def test_levels_beyond_the_float_range_name_their_field(key, value):
    with pytest.raises(ScenarioFormatError, match=f"^{key}: ") as err:
        scenario_from_dict(make(**{key: value}))
    assert err.value.field == key


@pytest.mark.parametrize("value", [3000.0, -3000.0], ids=["+3000", "-3000"])
@pytest.mark.parametrize("key", LEVEL_KEYS)
def test_levels_inside_the_float_range_are_accepted(key, value):
    assert getattr(scenario_from_dict(make(**{key: value})), key) == value


# Levels and rates each inside their range whose SNR threshold
# sigma2 (2^xi - 1) / rho overflows: sigma2/rho alone is 10^600 in the first.
THRESHOLD_OVERFLOWS = [
    ({"sigma2_dbm": 3000.0, "rho_dbm": -3000.0}, "sigma2_dbm"),
    ({"xi_max": 2000.0}, "xi_max"),
    ({"sigma2_dbm": 3000.0, "xi_max": 40.0}, "xi_max"),
]


@pytest.mark.parametrize("overrides, field", THRESHOLD_OVERFLOWS, ids=["ratio", "xi_max", "product"])
def test_an_infinite_threshold_names_its_field(overrides, field):
    with pytest.raises(ScenarioFormatError, match=f"^{field}: the SNR threshold") as err:
        scenario_from_dict(make(**overrides))
    assert err.value.field == field


def test_a_threshold_near_the_float_range_is_accepted():
    sc = scenario_from_dict(make(xi_max=1000.0, xi_step=250.0))
    assert np.isfinite(sc.snr_threshold(sc.xi_grid())).all()
    assert math.isfinite(sc.snr_threshold(sc.xi_max))


def test_element_count_is_capped():
    side = math.isqrt(MAX_ELEMENTS)
    assert scenario_from_dict(make(n_h=side, n_v=MAX_ELEMENTS // side)).n == MAX_ELEMENTS
    for n_h, n_v in ((side, MAX_ELEMENTS // side + 1), (MAX_ELEMENTS + 1, 1), (1, MAX_ELEMENTS + 1), (HUGE, 1), (1, HUGE)):
        with pytest.raises(ScenarioFormatError, match="^n_h: n_h \\* n_v exceeds the cap"):
            scenario_from_dict(make(n_h=n_h, n_v=n_v))
    # The presets stay far below the cap.
    assert all(10 * load_scenario(p).n <= MAX_ELEMENTS for p in PRESETS)


# The scenario hash is written into every CSV header: a change to the schema
# dict that moved it would orphan the provenance of every existing file.
PINNED_DIGESTS = {
    "fig2a": "88f72c7cbc2ed52c",
    "fig2b": "69ae4afff6c9ffd5",
    "fig2c": "6b091ac8fac8eea4",
}
PINNED_DESIGN_DIGESTS = [
    (make(), "6d73f53170517fe2"),
    (make(theta=4.0), "6429b134d9bbe598"),
    (make(design="fixed", theta=[0.0, 0.5, -0.5, 3.0]), "64a0484c114da26a"),
    (make(design="fixed", theta=[7.0, -4.0, 3.5, -3.2]), "6cb4b9f2117f32cb"),
    (make(design="uniform_random", theta=None, seed=9), "0a7e4ccfd459cc51"),
    (make(design="uniform_random", theta=None, seed=2**64 - 1), "2fc5c43a38058957"),
    (make(design="optimal_csi", theta=None), "dc6c25a08cff5bca"),
]


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_digests_are_pinned(preset):
    sc = load_scenario(preset)
    assert sc.digest() == PINNED_DIGESTS[preset]
    assert scenario_from_dict(sc.to_schema_dict()).digest() == sc.digest()


@pytest.mark.parametrize("raw, digest", PINNED_DESIGN_DIGESTS)
def test_design_digests_are_pinned(raw, digest):
    sc = scenario_from_dict(raw)
    assert sc.digest() == digest
    again = scenario_from_dict(sc.to_schema_dict())
    assert again.digest() == digest
    assert again.to_schema_dict() == sc.to_schema_dict()


# One instance of every design; a design missing here fails the round trip below.
DESIGN_EXAMPLES = {
    Equal: Equal(-1.25),
    Fixed: Fixed(np.array([0.0, 0.5, -0.5, 3.0])),
    UniformRandom: UniformRandom(2**64 - 1),
    OptimalCsi: OptimalCsi(),
}


@pytest.mark.parametrize("cls", get_args(PhaseShiftDesign), ids=lambda cls: cls.kind)
def test_every_design_reads_back_what_it_writes(cls):
    sc = replace(scenario_from_dict(make()), design=DESIGN_EXAMPLES[cls])
    schema = sc.to_schema_dict()
    again = scenario_from_dict(schema)
    assert type(again.design) is cls
    assert all(np.array_equal(getattr(again.design, f.name), getattr(sc.design, f.name)) for f in fields(cls))
    assert again.digest() == sc.digest()
    # Every other design's key is rejected by name, with this design's kind.
    for other in DESIGN_EXAMPLES.values():
        for key, value in other.schema_fields().items():
            if key not in schema:
                with pytest.raises(ScenarioFormatError, match=f"^{key}: not used by design '{cls.kind}'$") as err:
                    scenario_from_dict({**schema, key: value})
                assert err.value.field == key


def test_presets_are_the_bundled_files():
    bundled = sorted(p.stem for p in (Path(irslink.__file__).parent / "presets").glob("*.json"))
    assert list(PRESETS) == bundled


@pytest.mark.parametrize("build", ["correlation_model", "covariances"])
def test_unknown_model_on_a_replaced_scenario_is_rejected(build):
    sc = replace(load_scenario("fig2a"), model="sincc")
    with pytest.raises(ScenarioFormatError, match="^model: must be one of") as err:
        getattr(sc, build)()
    assert err.value.field == "model"


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
