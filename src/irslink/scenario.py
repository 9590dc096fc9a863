"""Scenario files: the JSON schema, bundled presets, and materialization.

A scenario bundles the link constants in dB/dBm, the correlation-model
selector, the phase-shift design and the target-rate sweep bounds.  The
large-scale gains of the indirect links are configured as the products
beta*d_H*d_V (the form in which link budgets state them), and the selected
model matrix is scaled by those products directly.
"""

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import get_args

import numpy as np

from .correlation import (
    ArrayGeometry,
    CorrelationMatrix,
    exponential_correlation,
    identity_correlation,
    scale_covariance,
    sinc_correlation,
)
from .errors import DomainError, ScenarioFormatError
from .phaseshift import PhaseShiftDesign
from .units import SPEED_OF_LIGHT, db_to_linear, dbm_to_watts

# Each model name with the builder of its unscaled (unit-diagonal) matrix for a scenario.
_MODEL_BUILDERS = {
    "sinc": lambda sc: sinc_correlation(sc.geometry()),
    "exponential": lambda sc: exponential_correlation(sc.n, sc.exp_magnitude),
    "uncorrelated": lambda sc: identity_correlation(sc.n),
}
MODELS = tuple(_MODEL_BUILDERS)
_DESIGN_CLASSES = {cls.kind: cls for cls in get_args(PhaseShiftDesign)}
DESIGNS = tuple(_DESIGN_CLASSES)

_PRESET_DIR = resources.files("irslink").joinpath("presets")
PRESETS = tuple(sorted(p.name.removesuffix(".json") for p in _PRESET_DIR.iterdir() if p.name.endswith(".json")))

# Largest sweep grid accepted; every preset and CLI default is far below it.
MAX_GRID_POINTS = 100_000

# Largest surface accepted, n_h * n_v = 64 x 64.  One N x N complex128 matrix
# takes 16 N^2 bytes, 268 MB at the cap; a curve holds several (the model,
# two scaled covariances and their factors, cascade products), and the sinc
# model builds an N x N float distance array on top, so a run at the cap
# needs a few GB and O(N^3) eigendecompositions.  Every preset and benchmark
# scenario has N <= 400.
MAX_ELEMENTS = 4096


def step_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (kept when within 1e-9 steps of the grid).

    Rejects non-finite bounds, a non-positive step, hi < lo and grids of
    more than MAX_GRID_POINTS points, also those whose count overflows.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise DomainError(f"grid needs finite lo <= hi and step > 0, got {lo}, {hi}, {step}")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise DomainError(f"grid from {lo} to {hi} in steps of {step} overflows its point count (cap {MAX_GRID_POINTS})")
    count = int(math.floor(steps + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the cap of {MAX_GRID_POINTS}")
    return lo + step * np.arange(count)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario; gains still in dB/dBm, design already constructed."""

    name: str
    beta_sd_db: float | None  # None means the direct channel is blocked
    beta_sr_dhdv_db: float
    beta_rd_dhdv_db: float
    carrier_ghz: float
    n_h: int
    n_v: int
    spacing_over_lambda: float
    rho_dbm: float
    sigma2_dbm: float
    model: str
    exp_magnitude: float
    design: PhaseShiftDesign
    xi_min: float
    xi_max: float
    xi_step: float

    @property
    def n(self) -> int:
        return self.n_h * self.n_v

    @property
    def beta_sd(self) -> float:
        return 0.0 if self.beta_sd_db is None else db_to_linear(self.beta_sd_db)

    def geometry(self) -> ArrayGeometry:
        wavelength = SPEED_OF_LIGHT / (self.carrier_ghz * 1e9)
        d = self.spacing_over_lambda * wavelength
        return ArrayGeometry(self.n_h, self.n_v, d, d, wavelength)

    def correlation_model(self) -> CorrelationMatrix:
        """The unscaled (unit-diagonal) model matrix; ScenarioFormatError for an unknown model."""
        _check_model_fields(self.model, self.exp_magnitude)
        return _MODEL_BUILDERS[self.model](self)

    def covariances(self):
        """(r_sr, r_rd), the model matrix scaled by the configured products."""
        r = self.correlation_model()
        r_sr = scale_covariance(r, db_to_linear(self.beta_sr_dhdv_db))
        r_rd = scale_covariance(r, db_to_linear(self.beta_rd_dhdv_db))
        return r_sr, r_rd

    def snr_threshold(self, xi):
        """z = sigma2 (2^xi - 1) / rho: the gain below which the target rate fails.

        A float rate gives a float in float arithmetic, an array of rates an array in numpy's.
        """
        return dbm_to_watts(self.sigma2_dbm) * (2.0**xi - 1.0) / dbm_to_watts(self.rho_dbm)

    def xi_grid(self) -> np.ndarray:
        return step_grid(self.xi_min, self.xi_max, self.xi_step)

    def to_schema_dict(self) -> dict:
        """Canonical flat dict of exactly the schema keys (name is metadata)."""
        raw = {key: getattr(self, key) for key in _FIELD_KEYS}
        return {**raw, "design": self.design.kind, **self.design.schema_fields()}

    def digest(self) -> str:
        """Hash over the schema fields; changes iff any scenario field changes."""
        canonical = json.dumps(self.to_schema_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_model(self, model: str) -> "Scenario":
        _check_model_fields(model, self.exp_magnitude)
        return replace(self, model=model, name=f"{self.name}[{model}]")


# The dataclass is the schema: every field but the name is a key, and each
# design class adds its own schema_keys.
_FIELD_KEYS = tuple(f.name for f in fields(Scenario) if f.name != "name")
_DESIGN_KEYS = tuple(dict.fromkeys(key for cls in _DESIGN_CLASSES.values() for key in cls.schema_keys))
_SCHEMA_KEYS = _FIELD_KEYS + _DESIGN_KEYS
# The required float keys, read in one loop and passed on by name.
_NUMBERS = tuple(f.name for f in fields(Scenario) if f.type is float and f.name != "exp_magnitude")
# The dB/dBm levels, each with the converter the link budget reads it through.
_LEVELS = {
    "beta_sd_db": db_to_linear,
    "beta_sr_dhdv_db": db_to_linear,
    "beta_rd_dhdv_db": db_to_linear,
    "rho_dbm": dbm_to_watts,
    "sigma2_dbm": dbm_to_watts,
}


def _want(raw: dict, key: str, kinds):
    if key not in raw:
        raise ScenarioFormatError("required key is missing", field=key)
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ScenarioFormatError(f"expected {names}, got {value!r}", field=key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioFormatError(f"must be finite, got {value!r}", field=key)
    if isinstance(value, int) and isinstance(0.0, kinds):
        try:
            float(value)
        except OverflowError:
            raise ScenarioFormatError("integer too large for a float", field=key) from None
    return value


def _check_level(key: str, value: float):
    """The level must map to a finite linear value > 0.  Float ** raises
    OverflowError above the float range and gives 0.0 below it."""
    try:
        linear = _LEVELS[key](value)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ScenarioFormatError(f"{value} converts to {linear}; it must convert to a finite value > 0", field=key)


def _check_model_fields(model: str, exp_magnitude: float):
    if model not in MODELS:
        raise ScenarioFormatError(f"must be one of {MODELS}, got {model!r}", field="model")
    if not 0.0 <= exp_magnitude < 1.0:
        raise ScenarioFormatError(
            f"must lie in [0, 1), got {exp_magnitude}", field="exp_magnitude"
        )


def _build_design(raw: dict, n: int) -> PhaseShiftDesign:
    """The design class named by ``design`` reads its own keys; another design's key is rejected."""
    kind = _want(raw, "design", str)
    if kind not in _DESIGN_CLASSES:
        raise ScenarioFormatError(f"must be one of {DESIGNS}, got {kind!r}", field="design")
    cls = _DESIGN_CLASSES[kind]
    for key in _DESIGN_KEYS:
        if key in raw and key not in cls.schema_keys:
            raise ScenarioFormatError(f"not used by design {kind!r}", field=key)
    return cls.from_schema(lambda key, kinds: _want(raw, key, kinds), n)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    """Validate a parsed JSON object against the schema; unknown keys rejected."""
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"scenario must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SCHEMA_KEYS))
    if unknown:
        raise ScenarioFormatError("unknown key", field=unknown[0])

    if "beta_sd_db" not in raw:
        raise ScenarioFormatError("required key is missing (use null to block)", field="beta_sd_db")
    beta_sd_db = raw["beta_sd_db"]
    if beta_sd_db is not None:
        beta_sd_db = float(_want(raw, "beta_sd_db", (int, float)))

    n_h = _want(raw, "n_h", int)
    n_v = _want(raw, "n_v", int)
    if n_h < 1 or n_v < 1:
        raise ScenarioFormatError("element counts must be >= 1", field="n_h" if n_h < 1 else "n_v")
    if n_h * n_v > MAX_ELEMENTS:
        raise ScenarioFormatError(f"n_h * n_v exceeds the cap of {MAX_ELEMENTS} elements", field="n_h")

    num = {key: float(_want(raw, key, (int, float))) for key in _NUMBERS}
    for key, value in {**num, "beta_sd_db": beta_sd_db}.items():
        if key in _LEVELS and value is not None:
            _check_level(key, value)
    if num["carrier_ghz"] <= 0:
        raise ScenarioFormatError("must be positive", field="carrier_ghz")
    if num["spacing_over_lambda"] <= 0:
        raise ScenarioFormatError("must be positive", field="spacing_over_lambda")

    model = _want(raw, "model", str)
    exp_magnitude = float(_want(raw, "exp_magnitude", (int, float))) if "exp_magnitude" in raw else 0.95
    _check_model_fields(model, exp_magnitude)

    if num["xi_min"] < 0:
        raise ScenarioFormatError("target rate cannot be negative", field="xi_min")
    if num["xi_max"] < num["xi_min"]:
        raise ScenarioFormatError("xi_max must be >= xi_min", field="xi_max")
    if num["xi_step"] <= 0:
        raise ScenarioFormatError("must be positive", field="xi_step")
    try:
        step_grid(num["xi_min"], num["xi_max"], num["xi_step"])
    except DomainError as exc:
        raise ScenarioFormatError(str(exc), field="xi_step") from None

    scenario = Scenario(
        name=name,
        beta_sd_db=beta_sd_db,
        n_h=n_h,
        n_v=n_v,
        model=model,
        exp_magnitude=exp_magnitude,
        design=_build_design(raw, n_h * n_v),
        **num,
    )
    _check_threshold(scenario)
    return scenario


def _check_threshold(scenario: Scenario):
    """The SNR threshold must be finite over the rate grid, computed as a curve computes it.

    It grows with the rate, so xi_max decides.  The error names sigma2_dbm
    when sigma2/rho alone overflows, and xi_max otherwise.
    """
    with np.errstate(over="ignore"):
        z = scenario.snr_threshold(scenario.xi_grid())
    if not np.isfinite(z).all():
        ratio = dbm_to_watts(scenario.sigma2_dbm) / dbm_to_watts(scenario.rho_dbm)
        raise ScenarioFormatError(
            f"the SNR threshold sigma2 (2^xi - 1) / rho overflows at xi_max = {scenario.xi_max}; "
            "lower xi_max or the ratio sigma2/rho",
            field="xi_max" if math.isfinite(ratio) else "sigma2_dbm",
        )


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file or a bundled preset name."""
    p = Path(path)
    if p.exists():
        name = p.stem
        text = p.read_text()
    elif str(path) in PRESETS:
        name = str(path)
        text = _PRESET_DIR.joinpath(f"{name}.json").read_text()
    else:
        raise ScenarioFormatError(
            f"{path!r} is neither an existing file nor a preset {PRESETS}"
        )
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond int's digit limit
        raise ScenarioFormatError(f"invalid JSON in {path!r}: {exc}") from None
    return scenario_from_dict(raw, name=name)
