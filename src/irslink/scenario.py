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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .closedform import SystemParameters
from .correlation import (
    ArrayGeometry,
    CorrelationMatrix,
    exponential_correlation,
    identity_correlation,
    scale_covariance,
    sinc_correlation,
)
from .errors import DomainError, ScenarioFormatError
from .phaseshift import Equal, Fixed, OptimalCsi, PhaseShiftDesign, UniformRandom
from .units import SPEED_OF_LIGHT, db_to_linear, dbm_to_watts

MODELS = ("sinc", "exponential", "uncorrelated")
DESIGNS = tuple(d.kind for d in (Equal, Fixed, UniformRandom, OptimalCsi))

_SCHEMA_KEYS = (
    "beta_sd_db",
    "beta_sr_dhdv_db",
    "beta_rd_dhdv_db",
    "carrier_ghz",
    "n_h",
    "n_v",
    "spacing_over_lambda",
    "rho_dbm",
    "sigma2_dbm",
    "model",
    "exp_magnitude",
    "design",
    "theta",
    "seed",
    "xi_min",
    "xi_max",
    "xi_step",
)

PRESETS = ("fig2a", "fig2b", "fig2c")

# Largest sweep grid accepted; every preset and CLI default is far below it.
MAX_GRID_POINTS = 100_000


def step_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (kept when within 1e-9 steps of the grid).

    Rejects non-finite bounds, a non-positive step, hi < lo and grids of
    more than MAX_GRID_POINTS points.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise DomainError(f"grid needs finite lo <= hi and step > 0, got {lo}, {hi}, {step}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
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
        """The unscaled (unit-diagonal) model matrix."""
        if self.model == "sinc":
            return sinc_correlation(self.geometry())
        if self.model == "exponential":
            return exponential_correlation(self.n, self.exp_magnitude)
        return identity_correlation(self.n)

    def covariances(self):
        """(r_sr, r_rd), the model matrix scaled by the configured products."""
        r = self.correlation_model()
        r_sr = scale_covariance(r, db_to_linear(self.beta_sr_dhdv_db))
        r_rd = scale_covariance(r, db_to_linear(self.beta_rd_dhdv_db))
        return r_sr, r_rd

    def system_parameters(self, xi: float) -> SystemParameters:
        return SystemParameters(
            beta_sd=self.beta_sd,
            rho=dbm_to_watts(self.rho_dbm),
            sigma2=dbm_to_watts(self.sigma2_dbm),
            xi=xi,
        )

    def xi_grid(self) -> np.ndarray:
        return step_grid(self.xi_min, self.xi_max, self.xi_step)

    def to_schema_dict(self) -> dict:
        """Canonical flat dict of exactly the schema keys (name is metadata)."""
        return {
            "beta_sd_db": self.beta_sd_db,
            "beta_sr_dhdv_db": self.beta_sr_dhdv_db,
            "beta_rd_dhdv_db": self.beta_rd_dhdv_db,
            "carrier_ghz": self.carrier_ghz,
            "n_h": self.n_h,
            "n_v": self.n_v,
            "spacing_over_lambda": self.spacing_over_lambda,
            "rho_dbm": self.rho_dbm,
            "sigma2_dbm": self.sigma2_dbm,
            "model": self.model,
            "exp_magnitude": self.exp_magnitude,
            "xi_min": self.xi_min,
            "xi_max": self.xi_max,
            "xi_step": self.xi_step,
            "design": self.design.kind,
            **self.design.schema_fields(),
        }

    def digest(self) -> str:
        """Hash over the schema fields; changes iff any scenario field changes."""
        canonical = json.dumps(self.to_schema_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_model(self, model: str, exp_magnitude: float | None = None) -> "Scenario":
        mag = self.exp_magnitude if exp_magnitude is None else exp_magnitude
        _check_model_fields(model, mag)
        return replace(self, model=model, exp_magnitude=mag, name=f"{self.name}[{model}]")

    def with_design(self, design: PhaseShiftDesign) -> "Scenario":
        return replace(self, design=design)

    def with_direct_gain_db(self, beta_sd_db: float | None) -> "Scenario":
        return replace(self, beta_sd_db=beta_sd_db)


def _want(raw: dict, key: str, kinds, required: bool = True, default=None):
    if key not in raw:
        if required:
            raise ScenarioFormatError("required key is missing", field=key)
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ScenarioFormatError(f"expected {names}, got {value!r}", field=key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioFormatError(f"must be finite, got {value!r}", field=key)
    return value


def _check_model_fields(model: str, exp_magnitude: float):
    if model not in MODELS:
        raise ScenarioFormatError(f"must be one of {MODELS}, got {model!r}", field="model")
    if not 0.0 <= exp_magnitude < 1.0:
        raise ScenarioFormatError(
            f"must lie in [0, 1), got {exp_magnitude}", field="exp_magnitude"
        )


def _build_design(raw: dict, n: int) -> PhaseShiftDesign:
    kind = _want(raw, "design", str)
    if kind not in DESIGNS:
        raise ScenarioFormatError(f"must be one of {DESIGNS}, got {kind!r}", field="design")
    if kind in ("equal", "fixed"):
        if "seed" in raw:
            raise ScenarioFormatError(f"not used by design {kind!r}", field="seed")
    if kind == "equal":
        theta = _want(raw, "theta", (int, float))
        return Equal(float(theta))
    if kind == "fixed":
        theta = _want(raw, "theta", list)
        if len(theta) != n or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t)
            for t in theta
        ):
            raise ScenarioFormatError(
                f"fixed design needs a list of {n} finite numbers, got {len(theta)} entries",
                field="theta",
            )
        return Fixed(np.asarray(theta, dtype=float))
    if "theta" in raw:
        raise ScenarioFormatError(f"not used by design {kind!r}", field="theta")
    if kind == "uniform_random":
        seed = _want(raw, "seed", int)
        try:
            return UniformRandom(seed)
        except ValueError as exc:
            raise ScenarioFormatError(str(exc), field="seed") from None
    if "seed" in raw:
        raise ScenarioFormatError("not used by design 'optimal_csi'", field="seed")
    return OptimalCsi()


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

    carrier = float(_want(raw, "carrier_ghz", (int, float)))
    if carrier <= 0:
        raise ScenarioFormatError("must be positive", field="carrier_ghz")
    spacing = float(_want(raw, "spacing_over_lambda", (int, float)))
    if spacing <= 0:
        raise ScenarioFormatError("must be positive", field="spacing_over_lambda")

    model = _want(raw, "model", str)
    exp_magnitude = float(_want(raw, "exp_magnitude", (int, float), required=False, default=0.95))
    _check_model_fields(model, exp_magnitude)

    xi_min = float(_want(raw, "xi_min", (int, float)))
    xi_max = float(_want(raw, "xi_max", (int, float)))
    xi_step = float(_want(raw, "xi_step", (int, float)))
    if xi_min < 0:
        raise ScenarioFormatError("target rate cannot be negative", field="xi_min")
    if xi_max < xi_min:
        raise ScenarioFormatError("xi_max must be >= xi_min", field="xi_max")
    if xi_step <= 0:
        raise ScenarioFormatError("must be positive", field="xi_step")
    try:
        step_grid(xi_min, xi_max, xi_step)
    except DomainError as exc:
        raise ScenarioFormatError(str(exc), field="xi_step") from None

    scenario = Scenario(
        name=name,
        beta_sd_db=beta_sd_db,
        beta_sr_dhdv_db=float(_want(raw, "beta_sr_dhdv_db", (int, float))),
        beta_rd_dhdv_db=float(_want(raw, "beta_rd_dhdv_db", (int, float))),
        carrier_ghz=carrier,
        n_h=n_h,
        n_v=n_v,
        spacing_over_lambda=spacing,
        rho_dbm=float(_want(raw, "rho_dbm", (int, float))),
        sigma2_dbm=float(_want(raw, "sigma2_dbm", (int, float))),
        model=model,
        exp_magnitude=exp_magnitude,
        design=_build_design(raw, n_h * n_v),
        xi_min=xi_min,
        xi_max=xi_max,
        xi_step=xi_step,
    )
    return scenario


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file or a bundled preset name."""
    p = Path(path)
    if p.exists():
        name = p.stem
        text = p.read_text()
    elif str(path) in PRESETS:
        name = str(path)
        text = resources.files("irslink").joinpath("presets", f"{name}.json").read_text()
    else:
        raise ScenarioFormatError(
            f"{path!r} is neither an existing file nor a preset {PRESETS}"
        )
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON in {path!r}: {exc}") from None
    return scenario_from_dict(raw, name=name)
