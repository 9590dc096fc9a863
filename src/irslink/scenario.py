"""Scenario files: the JSON schema, bundled presets, and materialization.

A scenario bundles the link constants in dB/dBm, the correlation-model
selector, the phase-shift design and the target-rate sweep bounds.  The
large-scale gains of the indirect links are configured as the products
beta*d_H*d_V (the form in which link budgets state them), and the selected
model matrix is scaled by those products directly.
"""

import json
import math
import sys
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
from .phaseshift import PhaseShiftDesign, checked_design
from .units import SPEED_OF_LIGHT, db_to_linear, dbm_to_watts

# Each model name with the builder of its unscaled (unit-diagonal) matrix and
# the scenario's inputs to that builder, which also key the held model.  The
# builders are called through this module's names, so that a wrapper bound to
# one of them sees every build.
_MODEL_BUILDERS = {
    "sinc": (lambda geometry: sinc_correlation(geometry), lambda sc: (sc.geometry(),)),
    "exponential": (lambda n, magnitude: exponential_correlation(n, magnitude), lambda sc: (sc.n, sc.exp_magnitude)),
    "uncorrelated": (lambda n: identity_correlation(n), lambda sc: (sc.n,)),
}
MODELS = tuple(_MODEL_BUILDERS)
_DESIGN_CLASSES = {cls.kind: cls for cls in get_args(PhaseShiftDesign)}
DESIGNS = tuple(_DESIGN_CLASSES)

_PRESET_DIR = resources.files("irslink").joinpath("presets")
PRESETS = tuple(sorted(p.name.removesuffix(".json") for p in _PRESET_DIR.iterdir() if p.name.endswith(".json")))

# Largest sweep grid accepted; every preset and CLI default is far below it.
MAX_GRID_POINTS = 100_000

# Largest surface accepted, n_h * n_v = 64 x 64.  One N x N complex128 matrix
# takes 16 N^2 bytes, 268 MB at the cap, and a float64 one half that; a curve
# holds several (the float64 model, two complex128 scaled covariances and
# their factors, cascade products), and the sinc model builds N x N float
# arrays on top, so a run at the cap needs over a GB and O(N^3)
# eigendecompositions.  Between curves the process holds the last model it
# built (134 MB at the cap), and beside it the last pair scaled from it only
# once a Monte-Carlo curve has factored the pair: four N x N complex128
# matrices more (2.4 MB at N = 196), until a scenario with other inputs
# replaces them.  Every preset and benchmark scenario has N <= 400.
MAX_ELEMENTS = 4096

# The last model built and the last pair scaled from it, as (model key, model,
# gains, (r_sr, r_rd)), or None; gains and the pair are None until covariances
# scales one, and again once release_pair drops an unfactored one.  It is one
# slot: a build empties it, and a new pair drops the old one first, so the
# process never holds two models or two pairs for it.
# Threads need no lock: each reads the slot once, and a rebinding of the name
# is atomic.
_held_model = None


def release_pair(pair) -> None:
    """Drop pair, a Scenario.covariances result, from the held slot unless matrix_sqrt has factored it.

    A closed-form curve calls it when it ends: its pair costs two N x N
    complex128 matrices, and the next curve on the link scales the same
    bytes again at O(N^2).  A pair that a Monte-Carlo curve factored stays
    with its factors, which cost an eigh each to make.  The model stays
    held either way.
    """
    global _held_model
    held = _held_model
    if held is not None and held[3] is pair and all(r._factor is None for r in pair):
        _held_model = held[0], held[1], None, None


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
    """Validated scenario; gains still in dB/dBm, design already constructed.

    Every construction, from a file, ``dataclasses.replace`` or ``Scenario(...)``,
    applies the schema's type rules and value bounds, raising ScenarioFormatError
    naming the field; a float field given as an int is stored as that float.
    """

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

    def __post_init__(self):
        def store(key, kinds):
            value = _typed(key, getattr(self, key), kinds)
            object.__setattr__(self, key, value)
            return value

        if self.beta_sd_db is not None:
            store("beta_sd_db", (int, float))
        _checked_elements(self.n_h, self.n_v)

        for key in _NUMBERS:
            store(key, (int, float))
        for key in _LEVELS:
            if getattr(self, key) is not None:
                _check_level(key, getattr(self, key))
        for key in ("carrier_ghz", "spacing_over_lambda"):
            if getattr(self, key) <= 0:
                raise ScenarioFormatError("must be positive", field=key)
        _check_geometry(self.n_h, self.n_v, self.carrier_ghz, self.spacing_over_lambda)
        _check_gain_scale(self.n, self.beta_sd, db_to_linear(self.beta_sr_dhdv_db), db_to_linear(self.beta_rd_dhdv_db))

        model = store("model", str)
        exp_magnitude = store("exp_magnitude", (int, float))
        if model not in MODELS:
            raise ScenarioFormatError(f"must be one of {MODELS}, got {model!r}", field="model")
        if not 0.0 <= exp_magnitude < 1.0:
            raise ScenarioFormatError(f"must lie in [0, 1), got {exp_magnitude}", field="exp_magnitude")

        if self.xi_min < 0:
            raise ScenarioFormatError("target rate cannot be negative", field="xi_min")
        if self.xi_max < self.xi_min:
            raise ScenarioFormatError("xi_max must be >= xi_min", field="xi_max")
        if self.xi_step <= 0:
            raise ScenarioFormatError("must be positive", field="xi_step")
        try:
            xi = self.xi_grid()
        except DomainError as exc:
            raise ScenarioFormatError(str(exc), field="xi_step") from None

        checked_design(self.design)
        # The SNR threshold, computed as a curve computes it, must be finite over
        # the grid.  It grows with the rate, so xi_max decides, and the error names
        # sigma2_dbm when sigma2/rho alone overflows.
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.snr_threshold(xi)).all()
        if not finite:
            ratio = dbm_to_watts(self.sigma2_dbm) / dbm_to_watts(self.rho_dbm)
            raise ScenarioFormatError(
                f"the SNR threshold sigma2 (2^xi - 1) / rho overflows at xi_max = {self.xi_max}; "
                "lower xi_max or the ratio sigma2/rho",
                field="xi_max" if math.isfinite(ratio) else "sigma2_dbm",
            )

    @property
    def n(self) -> int:
        return self.n_h * self.n_v

    @property
    def beta_sd(self) -> float:
        return 0.0 if self.beta_sd_db is None else db_to_linear(self.beta_sd_db)

    def geometry(self) -> ArrayGeometry:
        wavelength, d = _spacing_m(self.carrier_ghz, self.spacing_over_lambda)
        return ArrayGeometry(self.n_h, self.n_v, d, d, wavelength)

    def correlation_model(self) -> CorrelationMatrix:
        """The unscaled (unit-diagonal) model matrix.

        The process holds the last model built, one read-only N x N float64
        matrix (the three models are real).
        A call with that model's name and builder inputs (the geometry for
        sinc, N and exp_magnitude for exponential, N for uncorrelated) gets
        the same read-only matrix back, with no second build or check.  Any
        other call drops the held model, then builds and checks its own.
        """
        global _held_model
        key, build, args = self._model_inputs()
        held = _held_model
        if held is not None and held[0] == key:
            return held[1]
        held = _held_model = None  # free the old model and pair before the new model is allocated
        model = build(*args)
        _held_model = key, model, None, None
        return model

    def covariances(self):
        """(r_sr, r_rd), the model matrix scaled by the configured products.

        The process holds the last pair with its model.  A call with that
        model's inputs and both products equal gets the same two read-only
        matrices back, with the factors matrix_sqrt keeps on them, so the
        curves of one link and surface factor it once.  Any other call drops
        the held pair before it fetches or builds the model, then scales its
        own.  The held pair is two N x N complex128 matrices, and two more
        once a Monte-Carlo curve has factored them: 2.4 MB at N = 196.
        release_pair drops a pair that no curve has factored.
        """
        global _held_model
        key = self._model_inputs()[0]
        # The products are positive and finite, where == compares bits.
        gains = db_to_linear(self.beta_sr_dhdv_db), db_to_linear(self.beta_rd_dhdv_db)
        held = _held_model
        if held is not None and held[0] == key and held[2] == gains:
            return held[3]
        if held is not None:
            _held_model = held[0], held[1], None, None  # free the old pair before a new one is allocated
        held = None
        r = self.correlation_model()
        pair = scale_covariance(r, gains[0]), scale_covariance(r, gains[1])
        _held_model = key, r, gains, pair
        return pair

    def _model_inputs(self):
        """(key, builder, builder inputs) of the scenario's model; the key names the held model."""
        build, inputs = _MODEL_BUILDERS[self.model]
        args = inputs(self)
        # A float input counts by its bits: -0.0 builds other bytes than 0.0.  The
        # geometry's floats are positive, where == already compares bits.
        return (self.model, *(v.hex() if isinstance(v, float) else v for v in args)), build, args

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
        import hashlib  # here, not at the top: import irslink need not load it

        canonical = json.dumps(self.to_schema_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_model(self, model: str) -> "Scenario":
        return replace(self, model=model, name=f"{self.name}[{model}]")


# The dataclass is the schema: every field but the name is a key, and each
# design class adds its own schema_keys.
_FIELD_KEYS = tuple(f.name for f in fields(Scenario) if f.name != "name")
_DESIGN_KEYS = tuple(dict.fromkeys(key for cls in _DESIGN_CLASSES.values() for key in cls.schema_keys))
_SCHEMA_KEYS = _FIELD_KEYS + _DESIGN_KEYS
# The float fields but exp_magnitude, which is read with the model; checked in one loop.
_NUMBERS = tuple(f.name for f in fields(Scenario) if f.type is float and f.name != "exp_magnitude")
# The dB/dBm levels in check order, each with the converter the link budget reads it through.
_LEVELS = {
    "beta_sr_dhdv_db": db_to_linear,
    "beta_rd_dhdv_db": db_to_linear,
    "rho_dbm": dbm_to_watts,
    "sigma2_dbm": dbm_to_watts,
    "beta_sd_db": db_to_linear,
}


def _typed(key: str, value, kinds):
    """``value`` if it has a kind the schema allows for ``key``; a number that may be a float comes back as one."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ScenarioFormatError(f"expected {names}, got {value!r}", field=key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioFormatError(f"must be finite, got {value!r}", field=key)
    if isinstance(0.0, kinds):
        try:
            return float(value)
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


def _spacing_m(carrier_ghz: float, spacing_over_lambda: float):
    """(wavelength, element spacing), both in meters."""
    wavelength = SPEED_OF_LIGHT / (carrier_ghz * 1e9)
    return wavelength, spacing_over_lambda * wavelength


def _check_geometry(n_h: int, n_v: int, carrier_ghz: float, spacing_over_lambda: float):
    """The element offsets in meters must square within the normal float range.

    The sinc model squares and sums the offsets, from the spacing d up to
    side * d for side = max(n_h, n_v).  A d^2 that underflows would read
    neighbouring elements as one point, and an extent^2 that overflows
    gives inf.  The error names spacing_over_lambda when the offsets in
    wavelengths alone leave that range, and carrier_ghz otherwise.  Python
    floats give 0.0 or inf, not a warning, when a product leaves it.
    """
    side = max(n_h, n_v)
    _, d = _spacing_m(carrier_ghz, spacing_over_lambda)
    extent = side * d
    if sys.float_info.min <= d * d and 2.0 * extent * extent < math.inf:
        return
    waves = side * spacing_over_lambda
    in_range = sys.float_info.min <= spacing_over_lambda * spacing_over_lambda and 2.0 * waves * waves < math.inf
    raise ScenarioFormatError(
        f"the element spacing is {d} m and the array spans {extent} m; carrier_ghz and "
        "spacing_over_lambda must give offsets whose squares are normal floats",
        field="carrier_ghz" if in_range else "spacing_over_lambda",
    )


def _check_gain_scale(n: int, beta_sd: float, beta_sr: float, beta_rd: float):
    """The gain's moments must stay in the float range: 3 (beta_sd + N^2 beta_sr beta_rd)^2 finite
    and (beta_sr beta_rd)^2 a normal float.

    A correlation matrix has entries of modulus at most 1, so the cascade
    trace is at most N^2 beta_sr beta_rd and the mean gain at most the bound
    b in brackets; the variance, and every trace product behind it, is at
    most 3 b^2.  The error names beta_sd_db when the direct link dominates
    b, and the larger of the two surface products otherwise.  The squared
    cascade traces scale as (beta_sr beta_rd)^2, and below the normal range
    the fit loses bits silently; that error names the smaller product.
    """
    product = beta_sr * beta_rd
    cascade = n * n * product
    bound = beta_sd + cascade
    if not 3.0 * bound * bound < math.inf:
        if beta_sd >= cascade:
            field = "beta_sd_db"
        else:
            field = "beta_sr_dhdv_db" if beta_sr >= beta_rd else "beta_rd_dhdv_db"
        raise ScenarioFormatError(
            f"the gain's moments overflow: the mean gain may reach beta_sd + N^2 beta_sr beta_rd = {bound} "
            "and its variance three times that squared; lower the link gains",
            field=field,
        )
    if not product * product >= sys.float_info.min:
        raise ScenarioFormatError(
            f"the squared cascade traces underflow: (beta_sr beta_rd)^2 = {product * product} "
            "is below the normal float range; raise the link gains",
            field="beta_sr_dhdv_db" if beta_sr <= beta_rd else "beta_rd_dhdv_db",
        )


def _checked_elements(n_h, n_v) -> int:
    """N = n_h * n_v for counts each an int >= 1 with N at most MAX_ELEMENTS.

    ScenarioFormatError otherwise, naming the count at fault, or the larger
    one (n_h on a tie) when N exceeds the cap.
    """
    n_h, n_v = _typed("n_h", n_h, int), _typed("n_v", n_v, int)
    if n_h < 1 or n_v < 1:
        raise ScenarioFormatError("element counts must be >= 1", field="n_h" if n_h < 1 else "n_v")
    if n_h * n_v > MAX_ELEMENTS:
        raise ScenarioFormatError(f"n_h * n_v exceeds the cap of {MAX_ELEMENTS} elements", field="n_h" if n_h >= n_v else "n_v")
    return n_h * n_v


def _build_design(raw: dict, n: int) -> PhaseShiftDesign:
    """The design class named by ``design`` reads its own keys; another design's key is rejected."""
    kind = _typed("design", raw["design"], str)
    if kind not in _DESIGN_CLASSES:
        raise ScenarioFormatError(f"must be one of {DESIGNS}, got {kind!r}", field="design")
    cls = _DESIGN_CLASSES[kind]
    for key in _DESIGN_KEYS:
        if key in raw and key not in cls.schema_keys:
            raise ScenarioFormatError(f"not used by design {kind!r}", field=key)
        if key in cls.schema_keys and key not in raw:
            raise ScenarioFormatError("required key is missing", field=key)
    return cls.from_schema(lambda key, kinds: _typed(key, raw[key], kinds), n)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    """Read a parsed JSON object as a Scenario, which checks every value itself.

    What only a dict can get wrong is checked here: an unknown key, a
    missing one (``exp_magnitude`` defaults to 0.95) and the design's keys.
    """
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"scenario must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SCHEMA_KEYS))
    if unknown:
        raise ScenarioFormatError("unknown key", field=unknown[0])
    values = {"exp_magnitude": 0.95, **{key: raw[key] for key in _FIELD_KEYS if key in raw}}
    for key in _FIELD_KEYS:
        if key not in values:
            hint = " (use null to block)" if key == "beta_sd_db" else ""
            raise ScenarioFormatError(f"required key is missing{hint}", field=key)
    # A fixed design reads one angle per element: size it by counts already
    # checked, so that a bad count is refused under its own key.
    values["design"] = _build_design(raw, _checked_elements(raw["n_h"], raw["n_v"]))
    return Scenario(name=name, **values)


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file or a bundled preset name."""
    p = Path(path)
    if p.exists():
        name = p.stem
    elif str(path) in PRESETS:
        name = str(path)
        p = _PRESET_DIR.joinpath(f"{name}.json")
    else:
        raise ScenarioFormatError(
            f"{path!r} is neither an existing file nor a preset {PRESETS}"
        )
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, a JSONDecodeError, an int beyond the digit limit, or too deep
        raise ScenarioFormatError(f"invalid JSON in {path!r}: {exc}") from None
    return scenario_from_dict(raw, name=name)
