"""Sweep runners and regression-diffable CSV artifacts.

Gamma parameters do not depend on the target rate, so each curve computes
them once and sweeps only the threshold; likewise the Monte-Carlo gains are
drawn once per curve and compared against every threshold on the grid.
"""

import errno
import math
import os
import secrets
from dataclasses import dataclass, fields
from urllib.parse import quote, unquote

import numpy as np

from . import __version__, rng
from .closedform import _lower_gamma, gamma_fit, outage_probability
from .errors import DomainError
from .montecarlo import gain_samples, outage_rates
from .scenario import MAX_GRID_POINTS, MODELS, Scenario

_FLOAT_FMT = "%.17g"  # lossless float64 round trip


@dataclass(frozen=True, eq=False)
class OutageCurve:
    """One sweep of outage probability over the target rate; its array fields, in order, are the CSV columns."""

    scenario_name: str
    scenario_hash: str
    seed: int
    trials: int
    tool_version: str
    xi: np.ndarray
    z: np.ndarray
    p_closed_form: np.ndarray
    p_mc: np.ndarray
    std_err: np.ndarray
    k_a: np.ndarray
    w_a: np.ndarray

    def __post_init__(self):
        rows = self.xi.shape[0]
        for name in COLUMNS:
            if getattr(self, name).shape != (rows,):
                raise DomainError(f"column {name} does not match the grid length")
        if rows > 1 and not np.all(np.diff(self.xi) > 0):
            raise DomainError("grid must be strictly increasing in xi")
        for name in ("p_closed_form", "p_mc"):
            col = getattr(self, name)
            finite = col[np.isfinite(col)]
            if finite.size and (finite.min() < 0 or finite.max() > 1):
                raise DomainError(f"column {name} has entries outside [0, 1]")

    def __eq__(self, other):
        if not isinstance(other, OutageCurve):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=True)
            if f.name in COLUMNS
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
        )


COLUMNS = tuple(f.name for f in fields(OutageCurve) if f.type is np.ndarray)


def run_curve(scenario: Scenario, trials: int, seed: int) -> OutageCurve:
    """Closed-form outage over the scenario grid, with MC validation if trials > 0."""
    trials = rng.check_trials(trials)
    seed = rng.check_seed(seed)
    xi = scenario.xi_grid()
    z = scenario.snr_threshold(xi)

    r_sr, r_rd = scenario.covariances()
    # None for per-realization co-phasing, which has no closed form.
    gp = gamma_fit(scenario.beta_sd, r_sr, r_rd, scenario.design)
    if gp is None:
        p_cf = np.full(xi.shape, np.nan)
        k_col = np.full(xi.shape, np.nan)
        w_col = np.full(xi.shape, np.nan)
    else:
        p_cf = outage_probability(gp, z)
        k_col = np.full(xi.shape, gp.shape)
        w_col = np.full(xi.shape, gp.scale)

    if trials > 0:
        gains = gain_samples(scenario.beta_sd, r_sr, r_rd, scenario.design, trials, seed)
        p_mc, std_err = outage_rates(gains, z)
    else:
        p_mc = np.full(xi.shape, np.nan)
        std_err = np.full(xi.shape, np.nan)

    return OutageCurve(
        scenario_name=scenario.name,
        scenario_hash=scenario.digest(),
        seed=seed,
        trials=trials,
        tool_version=__version__,
        xi=xi,
        z=z,
        p_closed_form=p_cf,
        p_mc=p_mc,
        std_err=std_err,
        k_a=k_col,
        w_a=w_col,
    )


def run_surface(ka_grid, wa_grid, z: float) -> np.ndarray:
    """Outage over a (shape, scale) grid at a fixed threshold."""
    ka = np.asarray(ka_grid, dtype=float)
    wa = np.asarray(wa_grid, dtype=float)
    # "not all > 0" also rejects NaN, as GammaParams does.
    if ka.size == 0 or wa.size == 0 or not (np.all(ka > 0) and np.all(wa > 0)):
        raise DomainError("shape and scale grids must be positive and non-empty")
    if not 0 <= z < math.inf:
        raise DomainError(f"threshold must be >= 0 and finite, got {z}")
    if ka.size * wa.size > MAX_GRID_POINTS:
        raise DomainError(f"surface grid of {ka.size} x {wa.size} points exceeds the cap of {MAX_GRID_POINTS}")
    # The same P as outage_probability, over the whole grid.
    return _lower_gamma(ka[:, None], wa[None, :], z)


def run_compare(scenario: Scenario, models, trials: int, seed: int) -> dict:
    """One curve per correlation model, all other scenario fields shared; a bad model list fails before any curve."""
    models = tuple(models)
    if not models:
        raise DomainError(f"the model list names no model; choose from {MODELS}")
    scenarios = [scenario.with_model(m) for m in models]
    repeated = [m for i, m in enumerate(models) if m in models[:i]]
    if repeated:
        raise DomainError(f"the model list names {repeated[0]!r} more than once")
    return {sc.model: run_curve(sc, trials, seed) for sc in scenarios}


# ---------------------------------------------------------------------------
# CSV artifacts: '#'-prefixed provenance header, fixed lossless float format.
#
# The curve header, as (key, OutageCurve field) pairs, one tuple per '#' line.  A
# comparison writes the version and run pairs once, the scenario pairs per model.
_VERSION = (("tool_version", "tool_version"),)
_SCENARIO = (("scenario", "scenario_name"), ("scenario_hash", "scenario_hash"))
_RUN = (("seed", "seed"), ("trials", "trials"))
_CURVE_HEADER = (_VERSION, _SCENARIO + _RUN)


def _pairs(pairs, source, suffix: str = "") -> list:
    """(key + suffix, the field's value in ``source``) for each (key, field) pair."""
    return [(key + suffix, getattr(source, field)) for key, field in pairs]


def _text(value) -> str:
    """A float in the lossless format, anything else as str()."""
    return _FLOAT_FMT % value if isinstance(value, float) else str(value)


def _escape(value: str) -> str:
    """A header value as one whitespace-free token: '%', '=', whitespace and
    unprintable characters become %XX (UTF-8, a file name's undecodable bytes
    as themselves), all others keep their bytes."""
    return "".join(
        quote(c.encode("utf-8", "surrogateescape"), safe="") if c in "%=" or c.isspace() or not c.isprintable() else c
        for c in value
    )


def check_target(path) -> None:
    """Raise the OSError that ``write_lines(path, ...)`` would meet when
    ``path``'s directory is missing or not writable, or ``path`` is itself a
    directory, so a caller can refuse a target before doing the work that
    fills it."""
    path = os.fspath(path)
    head = os.path.dirname(path) or os.curdir
    if not os.path.isdir(head):
        code = errno.ENOTDIR if os.path.exists(head) else errno.ENOENT
    elif not os.access(head, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def write_lines(path, lines) -> None:
    """Write the lines to a temporary file beside ``path``, then rename it
    over ``path``: a failed write leaves any previous file untouched.  An
    OSError about the temporary file is raised again naming ``path``."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_table(path, kind: str, meta, header, columns) -> None:
    """The one CSV layout: a '# irslink <kind>' line, one '# key=value ...'
    line per group of (key, value) pairs in ``meta`` with every value escaped,
    the column line ``header``, then one row per entry of the ``columns``."""
    lines = [f"# irslink {kind}"]
    lines += ["# " + " ".join(f"{key}={_escape(_text(value))}" for key, value in group) for group in meta]
    lines.append(",".join(map(_text, header)))
    lines += [",".join(_FLOAT_FMT % v for v in row) for row in zip(*columns)]
    write_lines(path, lines)


def write_curve_csv(curve: OutageCurve, path) -> None:
    meta = [_pairs(line, curve) for line in _CURVE_HEADER]
    _write_table(path, "outage curve", meta, COLUMNS, [getattr(curve, c) for c in COLUMNS])


def read_curve_csv(path) -> OutageCurve:
    """The curve written to ``path``: each curve header key is required and read
    as its field's type, and the column line must follow the header; otherwise
    DomainError naming the file and the key or line at fault."""
    meta = {}
    types = {f.name: f.type for f in fields(OutageCurve)}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        for line in lines:
            if line.startswith("#"):
                meta.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
        body = [line for line in lines if line and not line.startswith("#")]
        values = {field: types[field](unquote(meta[key], errors="surrogateescape")) for line in _CURVE_HEADER for key, field in line}
        data = np.array([[float(tok) for tok in line.split(",")] for line in body[1:]])
    except KeyError as exc:
        raise DomainError(f"curve file {path} has no header key {exc}") from None
    except ValueError as exc:  # text that is not UTF-8, a non-numeric cell or header value, or ragged rows
        raise DomainError(f"curve file {path} is malformed: {exc}") from None
    if body[:1] != [",".join(COLUMNS)]:
        raise DomainError(f"curve file {path} does not have the column line {','.join(COLUMNS)} after its header")
    if data.ndim != 2 or data.shape[1] != len(COLUMNS):
        raise DomainError(f"curve file {path} does not have {len(COLUMNS)} columns")
    return OutageCurve(**values, **{c: data[:, j] for j, c in enumerate(COLUMNS)})


def write_surface_csv(ka_grid, wa_grid, values: np.ndarray, z: float, path) -> None:
    """Matrix layout: first column the shape grid, first row the scale grid;
    DomainError, and no file, unless ``values`` is one row per shape by one column per scale."""
    ka = np.asarray(ka_grid, dtype=float)
    wa = np.asarray(wa_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if not ka.ndim == wa.ndim == 1 or values.shape != (ka.size, wa.size):
        raise DomainError(f"surface values of shape {values.shape} do not match the {ka.size} x {wa.size} grid")
    meta = [[(key, __version__) for key, _ in _VERSION], [("z", float(z))]]
    _write_table(path, "outage surface", meta, ["k_a\\w_a", *wa], [ka, *values.T])


def write_compare_csv(curves: dict, path) -> None:
    """Side-by-side curves sharing one grid: xi and z, then p_closed_form,
    p_mc and std_err for each model in turn."""
    if not curves:
        raise DomainError("a comparison needs at least one model")
    models = list(curves)
    first = curves[models[0]]
    for curve in curves.values():
        if not np.array_equal(curve.xi, first.xi):
            raise DomainError("compared curves must share the same grid")
    shared, per_model = COLUMNS[:2], COLUMNS[2:5]
    meta = [_pairs(_VERSION, first), [("models", ",".join(models)), *_pairs(_RUN, first)]]
    meta += [_pairs(_SCENARIO, curves[m], f"_{m}") for m in models]
    header = [*shared, *(f"{c}_{m}" for m in models for c in per_model)]
    columns = [getattr(first, c) for c in shared] + [getattr(curves[m], c) for m in models for c in per_model]
    _write_table(path, "model comparison", meta, header, columns)
