"""Closed-form outage probability via Gamma moment matching.

The effective channel gain X = |h_sd + h_sr^H P h_rd|^2 is matched to a
Gamma(shape, scale) variable preserving its first two moments, after which
the outage probability at SNR threshold z is 1 - Q(shape, z/scale) with Q
the regularized upper incomplete gamma function.  The oracles that check
these expressions live with the acceptance gate, in ``validation``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .correlation import CorrelationMatrix
from .errors import DegenerateScenarioError, DomainError
from .phaseshift import cascade_traces, real_trace


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


def gain_moments(
    beta_sd: float,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    phases: np.ndarray,
):
    """Mean and variance of the effective gain for a fixed phase vector.

    Computed from the cascade traces (t1, t2) as in _moments, with t1_sq = t1^2.
    """
    t1, t2 = cascade_traces(r_rd, r_sr, phases)
    return _moments(beta_sd, t1, t1 * t1, t2)


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


def gamma_fit(
    beta_sd: float,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    phases: np.ndarray,
) -> GammaParams:
    """Gamma parameters for an arbitrary fixed phase vector."""
    return _fit(*gain_moments(beta_sd, r_sr, r_rd, phases))


def equal_phase_traces(r_sr: CorrelationMatrix, r_rd: CorrelationMatrix):
    """Cascade traces when all phases coincide: the phase matrix cancels.

    t1 = tr(R_rd R_sr) as an elementwise sum, t2 = tr((R_rd R_sr)^2) with a
    single matrix product.
    """
    if r_sr.n != r_rd.n:
        raise DomainError(f"dimension mismatch: r_sr {r_sr.n}, r_rd {r_rd.n}")
    # One N x N buffer holds each elementwise product before its sum.
    buf = np.multiply(r_rd.entries, r_sr.entries.T)
    t1 = real_trace(complex(np.sum(buf)), "equal-phase trace")
    prod = r_rd.entries @ r_sr.entries
    t2 = real_trace(complex(np.sum(np.multiply(prod, prod.T, out=buf))), "equal-phase squared trace")
    return t1, t2


def gamma_fit_equal_phase(
    beta_sd: float, r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> GammaParams:
    """Gamma parameters when every element applies the same phase shift."""
    t1, t2 = equal_phase_traces(r_sr, r_rd)
    return _fit(*_moments(beta_sd, t1, t1 * t1, t2))


@dataclass(frozen=True)
class UniformPhaseMoments:
    """Phase-averaged cascade statistics under i.i.d. uniform phases.

    mean_trace        expectation of the cascade trace
    mean_trace_sq     expectation of the squared cascade trace
    mean_quad_trace   expectation of the trace of the squared cascade matrix
    """

    mean_trace: float
    mean_trace_sq: float
    mean_quad_trace: float


def uniform_phase_trace_moments(
    r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> UniformPhaseMoments:
    """Closed-form phase averages via Hadamard-product identities.

    validation.uniform_phase_trace_moments_by_sums is the independent
    index-sum oracle for these expressions; acceptance criterion 2 and the
    test suite require the two routes to agree to 1e-12 relative.
    """
    if r_sr.n != r_rd.n:
        raise DomainError(f"dimension mismatch: r_sr {r_sr.n}, r_rd {r_rd.n}")
    a = r_rd.entries * r_sr.entries  # Hadamard product
    diag_sq = np.sum(np.real(np.diag(a)) ** 2)
    nu = real_trace(complex(np.trace(a)), "phase-averaged trace")
    mag = np.abs(a)
    eta = nu * nu + float(np.sum(np.square(mag, out=mag))) - diag_sq
    # b = R_rd diag(R_sr) and c = R_sr diag(R_rd), each built in a's buffer
    # once a is spent, and each b * b^T in one second buffer.
    prod = np.empty_like(a)
    sums = []
    for x, y in ((r_rd, r_sr), (r_sr, r_rd)):
        b = np.multiply(x.entries, np.diag(y.entries)[None, :], out=a)
        sums.append(np.sum(np.multiply(b, b.T, out=prod)))
    quad = real_trace(np.array(sums), "phase-averaged quad trace")
    delta = quad[0] + quad[1] - diag_sq
    return UniformPhaseMoments(nu, eta, delta)


def gamma_fit_uniform_phase(
    beta_sd: float, r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> GammaParams:
    """Gamma parameters averaged over i.i.d. uniform random phase shifts."""
    m = uniform_phase_trace_moments(r_sr, r_rd)
    return _fit(*_moments(beta_sd, m.mean_trace, m.mean_trace_sq, m.mean_quad_trace))


def outage_probability(gp: GammaParams, z):
    """P(X < z) = 1 - Q(shape, z/scale) for the matched Gamma variable.

    Evaluated as the regularized lower incomplete gamma so the deep lower
    tail keeps full precision instead of cancelling against 1.  A scalar z
    gives a float; an array of thresholds gives an array from one ufunc call.
    """
    z = checked_threshold(z)
    with np.errstate(over="ignore"):  # a z/scale beyond the float range is inf, whose P is the limit 1
        p = special.gammainc(gp.shape, z / gp.scale)
    return float(p) if p.ndim == 0 else p


def checked_threshold(z) -> np.ndarray:
    """SNR thresholds z as a float array; DomainError unless each is >= 0 (NaN is not)."""
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):  # also rejects NaN
        raise DomainError(f"SNR threshold must be >= 0, got {z.min()}")
    return z
