"""Closed-form outage probability via Gamma moment matching.

The effective channel gain X = |h_sd + h_sr^H P h_rd|^2 is matched to a
Gamma(shape, scale) variable preserving its first two moments, after which
the outage probability at SNR threshold z is 1 - Q(shape, z/scale) with Q
the regularized upper incomplete gamma function.  The phase-shift designs
differ only in the cascade moments (t1, t1_sq, t2) that each computes in
``phaseshift``; ``gamma_fit`` matches them all the same way.  The oracles
that check these expressions live with the acceptance gate, in
``validation``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .correlation import CorrelationMatrix
from .errors import DegenerateScenarioError, DomainError
from .phaseshift import checked_design


@dataclass(frozen=True)
class GammaParams:
    """Moment-matched shape and scale of the equivalent Gamma gain variable."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise DomainError(
                "Gamma parameters must be positive and finite, "
                f"got shape={self.shape}, scale={self.scale}"
            )

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale


def _moments(beta_sd, t1, t1_sq, t2):
    """mean = beta_sd + t1 and var = beta_sd^2 + 2 beta_sd t1 + t1_sq + 2 t2.

    t1 is the (expected) cascade trace, t1_sq its (expected) square and t2
    the (expected) trace of the squared cascade matrix; for a fixed phase
    vector t1_sq is t1 * t1.
    """
    if not beta_sd >= 0:
        raise DomainError(f"direct-link gain must be >= 0, got {beta_sd}")
    mean = beta_sd + t1
    variance = beta_sd * beta_sd + 2.0 * beta_sd * t1 + t1_sq + 2.0 * t2
    return mean, variance


def _fit(mean, variance):
    if mean <= 0:
        raise DegenerateScenarioError(
            "no channel carries power (zero direct gain and zero cascade trace); "
            "the Gamma fit is undefined"
        )
    if not variance > 0:  # the variance is at least mean^2, so only an underflow gives 0
        raise DegenerateScenarioError(f"the gain's variance underflows to {variance} at mean gain {mean}; the link gains are too small")
    return GammaParams(shape=mean * mean / variance, scale=variance / mean)


def gamma_fit(beta_sd: float, r_sr: CorrelationMatrix, r_rd: CorrelationMatrix, design) -> GammaParams | None:
    """Gamma parameters matched to the design's ``cascade_moments``; None for a
    design with no closed form (co-phasing)."""
    moments = checked_design(design).cascade_moments(r_sr, r_rd)
    return None if moments is None else _fit(*_moments(beta_sd, *moments))


def outage_probability(gp: GammaParams, z):
    """P(X < z) = 1 - Q(shape, z/scale) for the matched Gamma variable.

    Evaluated as the regularized lower incomplete gamma so the deep lower
    tail keeps full precision instead of cancelling against 1.  A scalar z
    gives a float; an array of thresholds gives an array from one ufunc call.
    """
    p = _lower_gamma(gp.shape, gp.scale, checked_threshold(z))
    return float(p) if p.ndim == 0 else p


def _lower_gamma(shape, scale, z):
    """gammainc(shape, z / scale), elementwise over broadcast arrays; the outage of every Gamma fit."""
    with np.errstate(over="ignore"):  # a z/scale beyond the float range is inf, whose P is the limit 1
        return special.gammainc(shape, z / scale)


def checked_threshold(z) -> np.ndarray:
    """SNR thresholds z as a float array; DomainError unless each is >= 0 (NaN is not)."""
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):  # also rejects NaN
        raise DomainError(f"SNR threshold must be >= 0, got {z.min()}")
    return z
