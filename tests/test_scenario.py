import json
import math
import sys
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irslink
from irslink import scenario as scenario_module
from irslink.correlation import exponential_correlation, identity_correlation, matrix_sqrt, scale_covariance, sinc_correlation
from irslink.curves import run_curve
from irslink.errors import DomainError, NotPositiveSemidefiniteError, ScenarioFormatError
from irslink.phaseshift import Equal, Fixed, OptimalCsi, PhaseShiftDesign, UniformRandom
from irslink.scenario import (
    DESIGNS, MAX_ELEMENTS, MAX_GRID_POINTS, MODELS, PRESETS, Scenario, load_scenario, scenario_from_dict, step_grid,
)
from irslink.units import db_to_linear

from conftest import PROPERTY
from test_boundary_fuzz import DROP, POOL

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


# The two ways to a scenario that the bound tests take: a file's dict, and
# dataclasses.replace on a checked scenario.  Both end in Scenario's own checks.
ROUTES = ("file", "replace")


def build(route, **overrides):
    """make(**overrides) read as a file, or BASE's scenario with the overrides replaced in."""
    if route == "file":
        return scenario_from_dict(make(**overrides))
    return replace(scenario_from_dict(make()), **overrides)


def error_of(construct):
    """(type, message, field) of the error that construct() raises."""
    with pytest.raises(Exception) as err:
        construct()
    return type(err.value), str(err.value), getattr(err.value, "field", None)


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


@pytest.mark.parametrize("route", ROUTES)
def test_wrong_types_are_reported_per_field(route):
    with pytest.raises(ScenarioFormatError, match="n_h"):
        build(route, n_h=2.5)
    with pytest.raises(ScenarioFormatError, match="model"):
        build(route, model="rayleigh")
    with pytest.raises(ScenarioFormatError, match="xi_step"):
        build(route, xi_step=0.0)
    with pytest.raises(ScenarioFormatError, match="xi_max"):
        build(route, xi_max=-1.0)
    with pytest.raises(ScenarioFormatError, match="xi_min"):
        build(route, xi_min=-1.0)


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


@pytest.mark.parametrize("route", ROUTES)
def test_exp_magnitude_validation(route):
    sc = build(route, model="exponential", exp_magnitude=0.95)
    assert sc.exp_magnitude == 0.95
    with pytest.raises(ScenarioFormatError, match="exp_magnitude"):
        build(route, model="exponential", exp_magnitude=1.0)


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


@pytest.mark.parametrize("route", ROUTES)
def test_xi_grid_size_is_capped(route):
    # A step of 2^-10 keeps the grid exact in binary and xi_max below 98,
    # where the SNR threshold 2^xi - 1 is still finite.
    step = 2.0**-10
    at_cap = build(route, xi_min=0.0, xi_max=(MAX_GRID_POINTS - 1) * step, xi_step=step)
    assert at_cap.xi_grid().size == MAX_GRID_POINTS
    with pytest.raises(ScenarioFormatError, match="xi_step"):
        build(route, xi_max=MAX_GRID_POINTS * step, xi_step=step)
    # A point count that overflows to inf is refused too, against xi_step.
    with pytest.raises(ScenarioFormatError, match="^xi_step: grid .* overflows its point count"):
        build(route, xi_max=8.0, xi_step=1e-308)
    # A non-finite bound is reported against its own field.
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ScenarioFormatError, match="^xi_max: must be finite"):
            build(route, xi_max=bad)


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


# A design's keys reach the scenario through its file only.
ROUTE_KEYS = [("file", key) for key in sorted(NUMERIC_KEYS)] + [
    ("replace", key) for key in sorted(NUMERIC_KEYS) if key not in ("theta", "seed")
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route, key", ROUTE_KEYS)
def test_non_finite_numbers_name_their_field(route, key, value):
    with pytest.raises(ScenarioFormatError, match=f"^{key}: "):
        build(route, **{**NUMERIC_KEYS[key], key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_fixed_phase_rejected(value):
    with pytest.raises(ScenarioFormatError, match="^theta: "):
        scenario_from_dict(make(design="fixed", theta=[0.0, value, 0.5, 1.0]))


# Python's json parses an integer of up to 4300 digits; one beyond the float
# range must not escape as OverflowError.
HUGE = 10**400


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["+10^400", "-10^400"])
@pytest.mark.parametrize("route, key", [(route, key) for route, key in ROUTE_KEYS if key not in ("n_h", "n_v")])
def test_huge_integers_name_their_field(route, key, value):
    with pytest.raises(ScenarioFormatError, match=f"^{key}: "):
        build(route, **{**NUMERIC_KEYS[key], key: value})


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
@pytest.mark.parametrize("route", ROUTES)
def test_levels_beyond_the_float_range_name_their_field(route, key, value):
    with pytest.raises(ScenarioFormatError, match=f"^{key}: ") as err:
        build(route, **{key: value})
    assert err.value.field == key


GAIN_KEYS = ("beta_sd_db", "beta_sr_dhdv_db", "beta_rd_dhdv_db")


# A link gain at +3000 dB converts to a finite float, but the gain's moments
# overflow (GAIN_SCALE_OVERFLOWS); +1500 dB is inside both ranges.  A surface
# product at -3000 dB converts to a nonzero float, but the squared cascade
# traces underflow (GAIN_SCALE_UNDERFLOWS); -1400 dB is inside both ranges.
@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key in LEVEL_KEYS
        for value in (1500.0 if key in GAIN_KEYS else 3000.0, -1400.0 if key in GAIN_KEYS and key != "beta_sd_db" else -3000.0)
    ],
    ids=lambda param: f"{param:+.0f}" if isinstance(param, float) else param,
)
@pytest.mark.parametrize("route", ROUTES)
def test_levels_inside_the_float_range_are_accepted(route, key, value):
    assert getattr(build(route, **{key: value}), key) == value


# Levels inside their range whose gain moments leave the float range: the
# mean gain may reach beta_sd + N^2 beta_sr beta_rd and its variance three
# times that squared.  The key named is the largest term's.
GAIN_SCALE_OVERFLOWS = [
    ({"beta_sr_dhdv_db": 3000.0}, "beta_sr_dhdv_db"),
    ({"beta_rd_dhdv_db": 3000.0}, "beta_rd_dhdv_db"),
    ({"beta_sd_db": 3000.0}, "beta_sd_db"),
    ({"beta_sr_dhdv_db": 1500.0, "beta_rd_dhdv_db": 1400.0}, "beta_sr_dhdv_db"),
]
# Surface products inside their range whose squared product (beta_sr beta_rd)^2
# falls below the normal float range, where the squared cascade traces lose
# their bits.  The key named is the smaller product's.
GAIN_SCALE_UNDERFLOWS = [
    ({"beta_sr_dhdv_db": -3000.0}, "beta_sr_dhdv_db"),
    ({"beta_rd_dhdv_db": -3000.0}, "beta_rd_dhdv_db"),
    ({"beta_sr_dhdv_db": -700.0, "beta_rd_dhdv_db": -900.0}, "beta_rd_dhdv_db"),
    # Both products at -815 dB fitted fig2c's shape as 0.350238 instead of 0.350216, at -820 dB as 1.0.
    ({"beta_sr_dhdv_db": -815.0, "beta_rd_dhdv_db": -815.0}, "beta_sr_dhdv_db"),
    ({"beta_sr_dhdv_db": -820.0, "beta_rd_dhdv_db": -820.0}, "beta_sr_dhdv_db"),
]
# Carriers and spacings whose element offsets in meters square out of the
# normal float range: the spacing overflows, the wavelength is inf, the
# spacing squares to 0, and then the same in wavelengths.
GEOMETRY_OVERFLOWS = [
    ({"carrier_ghz": 1e-308}, "carrier_ghz"),
    ({"carrier_ghz": 5e-324}, "carrier_ghz"),
    ({"carrier_ghz": 1e298}, "carrier_ghz"),
    ({"spacing_over_lambda": 1e308}, "spacing_over_lambda"),
    ({"spacing_over_lambda": 1e-160}, "spacing_over_lambda"),
]
# Just inside both bounds at N = 4: each scenario runs without a warning.
RANGE_EDGES = [
    {"beta_sr_dhdv_db": 763.4, "beta_rd_dhdv_db": 763.4, "beta_sd_db": None},
    {"beta_sd_db": 1536.0},
    {"carrier_ghz": 1e-144},
    {"carrier_ghz": 1e150},
    {"spacing_over_lambda": 1e-150},
]


@pytest.mark.parametrize("overrides, field", GAIN_SCALE_OVERFLOWS + GEOMETRY_OVERFLOWS + GAIN_SCALE_UNDERFLOWS)
@pytest.mark.parametrize("route", ROUTES)
def test_moments_or_offsets_beyond_the_float_range_name_their_field(route, overrides, field):
    with pytest.raises(ScenarioFormatError, match=f"^{field}: ") as err:
        build(route, **overrides)
    assert err.value.field == field


@pytest.mark.parametrize("overrides", RANGE_EDGES)
@pytest.mark.parametrize("route", ROUTES)
def test_moments_and_offsets_at_the_edge_are_accepted(route, overrides):
    sc = build(route, **overrides)
    model = sc.correlation_model().entries
    # The sinc model depends on the spacing in wavelengths alone.
    reference = scenario_from_dict(make(spacing_over_lambda=sc.spacing_over_lambda)).correlation_model().entries
    assert np.allclose(model, reference, rtol=1e-12, atol=0.0)


# Levels and rates each inside their range whose SNR threshold
# sigma2 (2^xi - 1) / rho overflows: sigma2/rho alone is 10^600 in the first.
THRESHOLD_OVERFLOWS = [
    ({"sigma2_dbm": 3000.0, "rho_dbm": -3000.0}, "sigma2_dbm"),
    ({"xi_max": 2000.0}, "xi_max"),
    ({"sigma2_dbm": 3000.0, "xi_max": 40.0}, "xi_max"),
]


@pytest.mark.parametrize("overrides, field", THRESHOLD_OVERFLOWS, ids=["ratio", "xi_max", "product"])
@pytest.mark.parametrize("route", ROUTES)
def test_an_infinite_threshold_names_its_field(route, overrides, field):
    with pytest.raises(ScenarioFormatError, match=f"^{field}: the SNR threshold") as err:
        build(route, **overrides)
    assert err.value.field == field


@pytest.mark.parametrize("route", ROUTES)
def test_a_threshold_near_the_float_range_is_accepted(route):
    sc = build(route, xi_max=1000.0, xi_step=250.0)
    assert np.isfinite(sc.snr_threshold(sc.xi_grid())).all()
    assert math.isfinite(sc.snr_threshold(sc.xi_max))


@pytest.mark.parametrize("route", ROUTES)
def test_element_count_is_capped(route):
    side = math.isqrt(MAX_ELEMENTS)
    assert build(route, n_h=side, n_v=MAX_ELEMENTS // side).n == MAX_ELEMENTS
    # The error names the larger count, and n_h on a tie.
    for n_h, n_v, field in (
        (side, MAX_ELEMENTS // side + 1, "n_v"),
        (MAX_ELEMENTS // side + 1, side, "n_h"),
        (side + 1, side + 1, "n_h"),
        (MAX_ELEMENTS + 1, 1, "n_h"),
        (1, MAX_ELEMENTS + 1, "n_v"),
        (HUGE, 1, "n_h"),
        (1, HUGE, "n_v"),
    ):
        with pytest.raises(ScenarioFormatError, match=f"^{field}: n_h \\* n_v exceeds the cap"):
            build(route, n_h=n_h, n_v=n_v)
    with pytest.raises(ScenarioFormatError, match="^n_v: element counts must be >= 1"):
        build(route, n_v=0)
    # The presets stay far below the cap.
    assert all(10 * load_scenario(p).n <= MAX_ELEMENTS for p in PRESETS)


@pytest.mark.parametrize(
    "overrides, field, message",
    [
        ({"design": "fixed", "theta": [0.0] * 25, "n_h": -1, "n_v": 5}, "n_h", "element counts must be >= 1"),
        ({"design": "fixed", "theta": [0.0] * 25, "n_h": 5, "n_v": 0}, "n_v", "element counts must be >= 1"),
        ({"design": "fixed", "theta": [0.0] * 4, "n_v": 5000}, "n_v", "n_h \\* n_v exceeds the cap"),
        ({"n_v": 2**64 + 1}, "n_v", "n_h \\* n_v exceeds the cap"),
        ({"n_v": 5000}, "n_v", "n_h \\* n_v exceeds the cap"),
        ({"design": "fixed", "theta": [0.0] * 4, "n_h": 2.0}, "n_h", "expected int"),
    ],
    ids=["fixed-negative-n_h", "fixed-zero-n_v", "fixed-capped-n_v", "n_v-beyond-64-bits", "n_v-5000", "fixed-float-n_h"],
)
def test_a_bad_element_count_is_refused_under_its_own_key(overrides, field, message):
    """A file's counts are bounded before a fixed design is sized by them, and the cap names the larger count."""
    with pytest.raises(ScenarioFormatError, match=f"^{field}: {message}") as err:
        scenario_from_dict(make(**overrides))
    assert err.value.field == field


# One bad value per bound and type rule of the Scenario fields.
BAD_FIELDS = (
    [{key: value} for key in LEVEL_KEYS for value in (5000.0, -5000.0, True, "loud", HUGE)]
    + [overrides for overrides, _ in GAIN_SCALE_OVERFLOWS + GEOMETRY_OVERFLOWS + THRESHOLD_OVERFLOWS + GAIN_SCALE_UNDERFLOWS]
    + [{"n_h": 0}, {"n_v": -1}, {"n_h": 2.0}, {"n_v": 65, "n_h": 64}, {"carrier_ghz": 0.0}, {"spacing_over_lambda": -1.0}]
    + [{"model": "rayleigh"}, {"model": 3}, {"exp_magnitude": 1.0}, {"exp_magnitude": float("nan")}]
    + [{"xi_min": -1.0}, {"xi_max": -1.0}, {"xi_step": 0.0}, {"xi_step": 1e-308}, {"xi_max": float("inf")}]
)


@pytest.mark.parametrize("overrides", BAD_FIELDS, ids=str)
def test_every_construction_checks_alike(overrides):
    """A file, a replace and a direct Scenario(...) raise the same type, message and field."""
    base = scenario_from_dict(make())
    direct = {f.name: getattr(base, f.name) for f in fields(base)} | overrides
    want = error_of(lambda: scenario_from_dict(make(**overrides)))
    assert want[0] is ScenarioFormatError and want[2] in overrides
    assert error_of(lambda: replace(base, **overrides)) == want
    assert error_of(lambda: irslink.Scenario(**direct)) == want


def test_a_replaced_carrier_is_checked():
    with pytest.raises(ScenarioFormatError, match="^carrier_ghz: ") as err:
        replace(load_scenario("fig2a"), carrier_ghz=1e298)
    assert err.value.field == "carrier_ghz"


def test_an_integer_is_stored_and_hashed_as_its_float(tmp_path):
    path = tmp_path / "int.json"
    path.write_text(json.dumps(make(rho_dbm=33)))
    from_file = load_scenario(path)
    replaced = replace(scenario_from_dict(make()), rho_dbm=33)
    assert type(from_file.rho_dbm) is type(replaced.rho_dbm) is float
    assert replaced.digest() == from_file.digest() == scenario_from_dict(make(rho_dbm=33.0)).digest()


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
    # The replace itself raises: no unchecked scenario reaches the build.
    with pytest.raises(ScenarioFormatError, match="^model: must be one of") as err:
        getattr(replace(load_scenario("fig2a"), model="sincc"), build)()
    assert err.value.field == "model"


def test_covariances_are_scaled_models():
    sc = scenario_from_dict(make(model="uncorrelated"))
    r_sr, r_rd = sc.covariances()
    assert np.allclose(r_sr.entries, 10 ** (-8.4) * np.eye(4))
    assert np.allclose(r_rd.entries, 10 ** (-7.5) * np.eye(4))


def fresh_model_bytes(sc):
    """The bytes of sc's model straight from its builder, past the held one."""
    builders = {
        "sinc": lambda: sinc_correlation(sc.geometry()),
        "exponential": lambda: exponential_correlation(sc.n, sc.exp_magnitude),
        "uncorrelated": lambda: identity_correlation(sc.n),
    }
    return builders[sc.model]().entries.tobytes()


def test_equal_model_inputs_get_the_held_model(empty_model_slot):
    first = scenario_from_dict(make()).correlation_model()
    assert first.entries.tobytes() == fresh_model_bytes(scenario_from_dict(make()))
    assert scenario_from_dict(make()).correlation_model() is first
    assert not first.entries.flags.writeable


EXPONENTIAL = {"model": "exponential", "exp_magnitude": 0.5}


# (base, overrides): each override changes one input of the base's builder.
MODEL_INPUT_CHANGES = [
    ({}, {"n_h": 3}),
    ({}, {"n_v": 3}),
    ({}, {"carrier_ghz": 6.0}),
    ({}, {"spacing_over_lambda": 0.05}),
    ({}, {"model": "exponential"}),
    ({}, {"model": "uncorrelated"}),
    (EXPONENTIAL, {"exp_magnitude": 0.25}),
    (EXPONENTIAL, {"n_h": 3}),
    ({"model": "uncorrelated"}, {"n_v": 3}),
]


@pytest.mark.parametrize("base, overrides", MODEL_INPUT_CHANGES)
def test_a_changed_model_input_builds_a_new_model(empty_model_slot, base, overrides):
    first = scenario_from_dict(make(**base)).correlation_model()
    sc = scenario_from_dict(make(**{**base, **overrides}))
    model = sc.correlation_model()
    assert model is not first
    assert model.entries.tobytes() == fresh_model_bytes(sc)


# (base, overrides): each override changes a field that the base's builder does not read.
OTHER_FIELD_CHANGES = [
    ({}, {"beta_sr_dhdv_db": -80.0}),
    ({}, {"beta_rd_dhdv_db": -70.0}),
    ({}, {"rho_dbm": 10.0}),
    ({}, {"sigma2_dbm": -90.0}),
    ({}, {"beta_sd_db": -80.0}),
    ({}, {"beta_sd_db": None}),
    ({}, {"design": "uniform_random", "theta": None, "seed": 3}),
    ({}, {"design": "fixed", "theta": [0.5, 1.0, 1.5, 2.0]}),
    ({}, {"theta": 1.0}),
    ({}, {"xi_min": 0.5}),
    ({}, {"xi_max": 2.0}),
    ({}, {"xi_step": 0.25}),
    ({}, {"exp_magnitude": 0.5}),
    ({"model": "uncorrelated"}, {"exp_magnitude": 0.5}),
    (EXPONENTIAL, {"beta_sd_db": None, "theta": 1.0}),
]


@pytest.mark.parametrize("base, overrides", OTHER_FIELD_CHANGES)
def test_a_change_to_another_field_gets_the_held_model(empty_model_slot, base, overrides):
    first = scenario_from_dict(make(**base)).correlation_model()
    assert scenario_from_dict(make(**{**base, **overrides})).correlation_model() is first


@pytest.mark.parametrize("magnitudes", [(0.0, -0.0), (-0.0, 0.0)], ids=["zero-first", "negative-zero-first"])
def test_a_signed_zero_magnitude_gets_its_own_model(empty_model_slot, magnitudes):
    # (-0.0)^1 = -0.0: the off-diagonal neighbours of the two models differ in their sign bits.
    assert exponential_correlation(4, -0.0).entries.tobytes() != exponential_correlation(4, 0.0).entries.tobytes()
    for magnitude in magnitudes:
        sc = scenario_from_dict(make(model="exponential", exp_magnitude=magnitude))
        assert sc.correlation_model().entries.tobytes() == fresh_model_bytes(sc)


def test_a_failed_build_leaves_the_slot_empty(empty_model_slot, monkeypatch):
    sc = scenario_from_dict(make())
    first = sc.correlation_model()

    def failing(n):
        raise NotPositiveSemidefiniteError("no model")

    monkeypatch.setattr(scenario_module, "identity_correlation", failing)
    with pytest.raises(NotPositiveSemidefiniteError, match="no model"):
        scenario_from_dict(make(model="uncorrelated")).correlation_model()
    assert scenario_module._held_model is None
    assert sc.correlation_model() is not first


def test_the_previous_model_is_freed_before_the_next_build(empty_model_slot, monkeypatch):
    # The process holds at most one model: the held one goes before the next is allocated.
    held = weakref.ref(scenario_from_dict(make()).correlation_model())
    alive_at_build = []

    def watched(n):
        alive_at_build.append(held() is not None)
        return identity_correlation(n)

    monkeypatch.setattr(scenario_module, "identity_correlation", watched)
    scenario_from_dict(make(model="uncorrelated")).correlation_model()
    assert alive_at_build == [False]


def fresh_pair_bytes(sc):
    """The bytes of sc's scaled pair straight from its model's builder, past the held ones."""
    model = {"sinc": lambda: sinc_correlation(sc.geometry()), "exponential": lambda: exponential_correlation(sc.n, sc.exp_magnitude),
             "uncorrelated": lambda: identity_correlation(sc.n)}[sc.model]()
    return [scale_covariance(model, db_to_linear(db)).entries.tobytes() for db in (sc.beta_sr_dhdv_db, sc.beta_rd_dhdv_db)]


@pytest.mark.parametrize("base, overrides", OTHER_FIELD_CHANGES[2:])
def test_equal_model_inputs_and_gains_get_the_held_pair(empty_model_slot, base, overrides):
    first = scenario_from_dict(make(**base)).covariances()
    sc = scenario_from_dict(make(**{**base, **overrides}))
    pair = sc.covariances()
    assert pair[0] is first[0] and pair[1] is first[1]
    assert not any(r.entries.flags.writeable for r in pair)
    assert [r.entries.tobytes() for r in pair] == fresh_pair_bytes(sc)


# Each changes a gain, a model input or N: the first two are OTHER_FIELD_CHANGES' gain changes.
PAIR_INPUT_CHANGES = OTHER_FIELD_CHANGES[:2] + [({}, {"beta_sr_dhdv_db": -84.0 + 1e-13})] + MODEL_INPUT_CHANGES


@pytest.mark.parametrize("base, overrides", PAIR_INPUT_CHANGES)
def test_a_changed_gain_or_model_input_scales_a_new_pair(empty_model_slot, base, overrides):
    first = scenario_from_dict(make(**base)).covariances()
    sc = scenario_from_dict(make(**{**base, **overrides}))
    pair = sc.covariances()
    assert pair[0] is not first[0] and pair[1] is not first[1]
    assert [r.entries.tobytes() for r in pair] == fresh_pair_bytes(sc)
    assert sc.covariances()[0] is pair[0]


@pytest.mark.parametrize("overrides, builder", [({"model": "uncorrelated"}, "identity_correlation"), ({"beta_rd_dhdv_db": -70.0}, "scale_covariance")])
def test_the_held_pair_and_its_factors_are_freed_before_the_next_build(empty_model_slot, monkeypatch, overrides, builder):
    # A new model, or a new pair on the held model: the old pair and its factors go first.
    pair = scenario_from_dict(make()).covariances()
    held = [weakref.ref(x) for r in pair for x in (r, r.entries, matrix_sqrt(r))]
    del pair
    alive_at_build = []
    build = getattr(scenario_module, builder)

    def watched(*args):
        alive_at_build.append(any(ref() is not None for ref in held))
        return build(*args)

    monkeypatch.setattr(scenario_module, builder, watched)
    scenario_from_dict(make(**overrides)).covariances()
    assert alive_at_build and not any(alive_at_build)


def test_a_held_pair_leaves_with_its_model(empty_model_slot):
    pair = scenario_from_dict(make()).covariances()
    held = weakref.ref(pair[0])
    del pair
    scenario_from_dict(make(n_h=3)).correlation_model()
    assert held() is None


def test_a_closed_form_curve_drops_its_pair_and_a_monte_carlo_curve_keeps_it(empty_model_slot, monkeypatch):
    sc = scenario_from_dict(make())
    model = sc.correlation_model()
    held = [weakref.ref(r) for r in sc.covariances()]
    run_curve(sc, 0, 1)
    assert not any(ref() for ref in held)
    assert scenario_module._held_model[1:] == (model, None, None)

    held = [weakref.ref(r) for r in sc.covariances()]
    run_curve(sc, 64, 1)
    assert all(ref() for ref in held) and all(ref()._factor is not None for ref in held)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    run_curve(replace(sc, design=UniformRandom(3)), 64, 2)
    run_curve(sc, 0, 1)  # a factored pair stays through a closed-form curve too
    assert calls == []
    assert all(r is ref() for r, ref in zip(sc.covariances(), held))
    assert sc.correlation_model() is model


# What each thread reads, and its bytes straight from the builders.
THREAD_READS = {
    "correlation_model": (lambda sc: [sc.correlation_model().entries.tobytes()], lambda sc: [fresh_model_bytes(sc)]),
    "covariances": (lambda sc: [r.entries.tobytes() for r in sc.covariances()], fresh_pair_bytes),
}


@pytest.mark.parametrize("read", THREAD_READS)
def test_threads_that_alternate_models_each_get_their_own(empty_model_slot, read):
    pairs = [
        [scenario_from_dict(make(model=model, **extra)) for model, extra in pair]
        for pair in (
            [("sinc", {}), ("exponential", {"exp_magnitude": 0.5})],
            [("uncorrelated", {}), ("exponential", {"exp_magnitude": 0.25})],
            [("sinc", {"beta_sr_dhdv_db": -80.0}), ("sinc", {"beta_rd_dhdv_db": -70.0})],
        )
    ]
    got, fresh = THREAD_READS[read]
    want = {sc: fresh(sc) for pair in pairs for sc in pair}
    rounds = 400
    done, wrong = [], []

    def alternate(pair):
        for i in range(rounds):
            sc = pair[i % 2]
            if got(sc) != want[sc]:
                wrong.append((sc.model, i))
        done.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=alternate, args=(pair,)) for pair in pairs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [True] * len(pairs)
    assert wrong == []


def test_nonexistent_path_is_an_input_error():
    with pytest.raises(ScenarioFormatError):
        load_scenario("no_such_preset")


@pytest.mark.parametrize(
    "content", [b"{not json", b"\xff\xfe{\x00", b"[" * 200_000], ids=["syntax", "not-utf8", "deep-nesting"]
)
def test_invalid_json_reported(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario(path)


# The schema round trip as a property.  One strategy per Scenario field, inside
# the bounds the schema checks, so that every draw is a valid scenario: levels
# of at most 700 dB in size keep the gain products, their squares and the SNR
# threshold in the normal float range.  The design is drawn for the drawn
# element count, by one strategy per design kind.
_LEVEL = st.floats(-700.0, 700.0)
_ANGLE = st.floats(allow_nan=False, allow_infinity=False)
_RATE = st.floats(0.0, 20.0)
FIELD_STRATEGIES = {
    "name": st.text("ab é=%", max_size=8),
    "beta_sd_db": st.none() | _LEVEL,
    "beta_sr_dhdv_db": _LEVEL,
    "beta_rd_dhdv_db": _LEVEL,
    "carrier_ghz": st.floats(1e-3, 1e3),
    "n_h": st.integers(1, 8),
    "n_v": st.integers(1, 8),
    "spacing_over_lambda": st.floats(1e-3, 10.0),
    "rho_dbm": _LEVEL,
    "sigma2_dbm": _LEVEL,
    "model": st.sampled_from(MODELS),
    "exp_magnitude": st.floats(0.0, 1.0, exclude_max=True),
    "xi_min": _RATE,  # drawn with xi_max as a sorted pair
    "xi_max": _RATE,
    "xi_step": st.floats(1e-3, 10.0),
}
DESIGN_STRATEGIES = {
    "equal": lambda n: st.builds(Equal, _ANGLE),
    "fixed": lambda n: st.builds(Fixed, st.lists(_ANGLE, min_size=n, max_size=n)),
    "uniform_random": lambda n: st.builds(UniformRandom, st.integers(0, 2**64 - 1)),
    "optimal_csi": lambda n: st.just(OptimalCsi()),
}
# The checks that relate keys name one of them, which need not be the key that
# changed: the grid, the SNR threshold, and the element count against a fixed
# design's angle list and against the element cap.
COUPLED_KEYS = (("xi_min", "xi_max", "xi_step"), ("rho_dbm", "sigma2_dbm", "xi_max"), ("n_h", "n_v", "theta"))


@st.composite
def valid_scenarios(draw):
    values = {key: draw(strategy) for key, strategy in FIELD_STRATEGIES.items()}
    values["xi_min"], values["xi_max"] = sorted((values["xi_min"], values["xi_max"]))
    kind = draw(st.sampled_from(DESIGNS))
    return Scenario(design=draw(DESIGN_STRATEGIES[kind](values["n_h"] * values["n_v"])), **values)


def test_strategies_cover_every_field_and_design():
    assert FIELD_STRATEGIES.keys() | {"design"} == {f.name for f in fields(Scenario)}
    assert tuple(DESIGN_STRATEGIES) == DESIGNS


@settings(PROPERTY, max_examples=150)
@given(valid_scenarios())
def test_schema_round_trip_keeps_the_digest(sc):
    raw = sc.to_schema_dict()
    back = scenario_from_dict(raw, name=sc.name)
    assert back.digest() == sc.digest()
    assert back.to_schema_dict() == raw


@settings(PROPERTY, max_examples=200)
@given(valid_scenarios(), st.data())
def test_one_pool_value_gives_a_scenario_or_an_error_naming_its_key(sc, data):
    raw = sc.to_schema_dict()
    key = data.draw(st.sampled_from(sorted(raw)), label="key")
    value = data.draw(st.sampled_from(POOL), label="value")
    if value is DROP:
        del raw[key]
    else:
        raw[key] = value
    try:
        scenario_from_dict(raw)
    except ScenarioFormatError as exc:
        assert exc.field in {key}.union(*(keys for keys in COUPLED_KEYS if key in keys)), str(exc)
