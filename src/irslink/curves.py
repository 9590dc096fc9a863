"""Sweep runners and regression-diffable CSV artifacts.

Gamma parameters do not depend on the target rate, so each curve computes
them once and sweeps only the threshold; likewise the Monte-Carlo gains are
drawn once per curve and compared against every threshold on the grid.
"""

import os
import secrets
from dataclasses import dataclass
from urllib.parse import quote, unquote

import numpy as np
from scipy import special

from . import __version__
from .closedform import (
    GammaParams,
    gamma_fit,
    gamma_fit_equal_phase,
    gamma_fit_uniform_phase,
    outage_probability,
)
from .errors import DomainError
from .montecarlo import McEstimate, gain_samples, outage_counts
from .phaseshift import Equal, Fixed, OptimalCsi, UniformRandom, phase_vector
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
        for name in ("z", "p_closed_form", "p_mc", "std_err", "k_a", "w_a"):
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
        meta = (self.scenario_name, self.scenario_hash, self.seed, self.trials, self.tool_version)
        other_meta = (
            other.scenario_name,
            other.scenario_hash,
            other.seed,
            other.trials,
            other.tool_version,
        )
        return meta == other_meta and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
            for c in ("xi", "z", "p_closed_form", "p_mc", "std_err", "k_a", "w_a")
        )


def fit_for_design(scenario: Scenario, r_sr, r_rd) -> GammaParams | None:
    """The design-appropriate Gamma fit for the scenario's covariances
    (r_sr, r_rd); None for per-realization co-phasing, which has no closed
    form."""
    design = scenario.design
    if isinstance(design, Equal):
        return gamma_fit_equal_phase(scenario.beta_sd, r_sr, r_rd)
    if isinstance(design, Fixed):
        return gamma_fit(scenario.beta_sd, r_sr, r_rd, phase_vector(design, scenario.n))
    if isinstance(design, UniformRandom):
        return gamma_fit_uniform_phase(scenario.beta_sd, r_sr, r_rd)
    if isinstance(design, OptimalCsi):
        return None
    raise DomainError(f"unknown phase-shift design {design!r}")


def run_curve(scenario: Scenario, trials: int, seed: int) -> OutageCurve:
    """Closed-form outage over the scenario grid, with MC validation if trials > 0."""
    if trials < 0:
        raise DomainError(f"trial count must be >= 0, got {trials}")
    xi = scenario.xi_grid()
    params0 = scenario.system_parameters(scenario.xi_min)
    z = params0.sigma2 * (2.0**xi - 1.0) / params0.rho

    r_sr, r_rd = scenario.covariances()
    gp = fit_for_design(scenario, r_sr, r_rd)
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
    if z < 0:
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


def _write_lines(path, lines) -> None:
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
    cols = [curve.xi, curve.z, curve.p_closed_form, curve.p_mc, curve.std_err, curve.k_a, curve.w_a]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    _write_lines(path, lines)


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
            if line.startswith("xi,"):
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
        xi=data[:, 0],
        z=data[:, 1],
        p_closed_form=data[:, 2],
        p_mc=data[:, 3],
        std_err=data[:, 4],
        k_a=data[:, 5],
        w_a=data[:, 6],
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
    _write_lines(path, lines)


def write_compare_csv(curves: dict, path) -> None:
    """Side-by-side curves sharing one grid; one column group per model."""
    models = list(curves)
    first = curves[models[0]]
    for curve in curves.values():
        if not np.array_equal(curve.xi, first.xi):
            raise DomainError("compared curves must share the same grid")
    header = ["xi", "z"]
    for m in models:
        header += [f"p_closed_form_{m}", f"p_mc_{m}", f"std_err_{m}"]
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
    for i in range(first.xi.size):
        row = [_fmt(first.xi[i]), _fmt(first.z[i])]
        for m in models:
            c = curves[m]
            row += [_fmt(c.p_closed_form[i]), _fmt(c.p_mc[i]), _fmt(c.std_err[i])]
        lines.append(",".join(row))
    _write_lines(path, lines)
