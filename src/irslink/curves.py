"""Sweep runners and regression-diffable CSV artifacts.

Gamma parameters do not depend on the target rate, so each curve computes
them once and sweeps only the threshold; likewise the Monte-Carlo gains are
drawn once per curve and compared against every threshold on the grid.
"""

import os
import secrets
from dataclasses import dataclass, fields
from urllib.parse import quote, unquote

import numpy as np
from scipy import special

from . import __version__, rng
from .closedform import outage_probability, snr_threshold
from .errors import DomainError
from .montecarlo import McEstimate, gain_samples, outage_counts
from .phaseshift import checked_design
from .scenario import Scenario

_FLOAT_FMT = "%.17g"  # lossless float64 round trip
COLUMNS = ("xi", "z", "p_closed_form", "p_mc", "std_err", "k_a", "w_a")


@dataclass(frozen=True, eq=False)
class OutageCurve:
    """One sweep of outage probability over the target rate."""

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


def run_curve(scenario: Scenario, trials: int, seed: int) -> OutageCurve:
    """Closed-form outage over the scenario grid, with MC validation if trials > 0."""
    if trials < 0:
        raise DomainError(f"trial count must be >= 0, got {trials}")
    seed = rng.check_seed(seed)
    xi = scenario.xi_grid()
    z = snr_threshold(scenario.system_parameters(scenario.xi_min), xi)

    r_sr, r_rd = scenario.covariances()
    # None for per-realization co-phasing, which has no closed form.
    gp = checked_design(scenario.design).gamma_fit(scenario.beta_sd, r_sr, r_rd)
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
        p_mc, std_err = McEstimate.rates(trials, outage_counts(gains, z))
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
    if not z >= 0:
        raise DomainError(f"threshold must be >= 0, got {z}")
    # The same P = gammainc(k, z/w) as outage_probability, over the whole grid.
    return special.gammainc(ka[:, None], z / wa[None, :])


def run_compare(scenario: Scenario, models, trials: int, seed: int) -> dict:
    """One curve per correlation model, all other scenario fields shared."""
    return {m: run_curve(scenario.with_model(m), trials, seed) for m in models}


# ---------------------------------------------------------------------------
# CSV artifacts: '#'-prefixed provenance header, fixed lossless float format.


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _escape(value: str) -> str:
    """A header value as one whitespace-free token: '%', '=', whitespace and
    unprintable characters become %XX (UTF-8), all others keep their bytes."""
    return "".join(
        quote(c, safe="") if c in "%=" or c.isspace() or not c.isprintable() else c
        for c in value
    )


def write_lines(path, lines) -> None:
    """Write the lines to a temporary file beside ``path``, then rename it
    over ``path``: a failed write leaves any previous file untouched."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_curve_csv(curve: OutageCurve, path) -> None:
    lines = [
        f"# irslink outage curve",
        f"# tool_version={_escape(curve.tool_version)}",
        f"# scenario={_escape(curve.scenario_name)} scenario_hash={_escape(curve.scenario_hash)} "
        f"seed={curve.seed} trials={curve.trials}",
        ",".join(COLUMNS),
    ]
    for row in zip(*(getattr(curve, c) for c in COLUMNS)):
        lines.append(",".join(_fmt(v) for v in row))
    write_lines(path, lines)


def read_curve_csv(path) -> OutageCurve:
    meta = {}
    name = ""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, value = token.split("=", 1)
                        meta[key] = unquote(value)
                continue
            if line.startswith(COLUMNS[0] + ","):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows)
    if data.ndim != 2 or data.shape[1] != len(COLUMNS):
        raise DomainError(f"curve file {path} does not have {len(COLUMNS)} columns")
    return OutageCurve(
        scenario_name=meta.get("scenario", ""),
        scenario_hash=meta.get("scenario_hash", ""),
        seed=int(meta.get("seed", 0)),
        trials=int(meta.get("trials", 0)),
        tool_version=meta.get("tool_version", ""),
        **{c: data[:, j] for j, c in enumerate(COLUMNS)},
    )


def write_surface_csv(ka_grid, wa_grid, values: np.ndarray, z: float, path) -> None:
    """Matrix layout: first column the shape grid, first row the scale grid."""
    lines = [
        "# irslink outage surface",
        f"# tool_version={__version__}",
        f"# z={_fmt(z)}",
        "k_a\\w_a," + ",".join(_fmt(w) for w in np.asarray(wa_grid, dtype=float)),
    ]
    for k, row in zip(np.asarray(ka_grid, dtype=float), values):
        lines.append(_fmt(k) + "," + ",".join(_fmt(v) for v in row))
    write_lines(path, lines)


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
    header = list(shared) + [f"{c}_{m}" for m in models for c in per_model]
    cols = [getattr(first, c) for c in shared]
    cols += [getattr(curves[m], c) for m in models for c in per_model]
    lines = [
        "# irslink model comparison",
        f"# tool_version={__version__}",
        f"# models={','.join(models)} seed={first.seed} trials={first.trials}",
    ]
    lines += [
        f"# scenario_{m}={_escape(curves[m].scenario_name)} "
        f"scenario_hash_{m}={curves[m].scenario_hash}"
        for m in models
    ]
    lines.append(",".join(header))
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    write_lines(path, lines)
