"""Closed-form outage probability via Gamma moment matching.

The effective channel gain X = |h_sd + h_sr^H P h_rd|^2 is matched to a
Gamma(shape, scale) variable preserving its first two moments, after which
the outage probability at SNR threshold z is 1 - Q(shape, z/scale) with Q
the regularized upper incomplete gamma function.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .correlation import CorrelationMatrix
from .errors import DegenerateScenarioError, DomainError
from .phaseshift import cascade_traces, real_trace


@dataclass(frozen=True)
class SystemParameters:
    """Scalar link constants in linear units; the indirect-link gains live in the covariances."""

    beta_sd: float
    rho: float
    sigma2: float
    xi: float

    def __post_init__(self):
        if self.beta_sd < 0:
            raise DomainError(f"direct-link gain must be >= 0, got {self.beta_sd}")
        if self.rho <= 0 or self.sigma2 <= 0:
            raise DomainError("transmit and noise powers must be positive")
        if self.xi < 0:
            raise DomainError(f"target rate must be >= 0, got {self.xi}")


@dataclass(frozen=True)
class GammaParams:
    """Moment-matched shape and scale of the equivalent Gamma gain variable."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise DomainError(
                f"Gamma parameters must be positive, got shape={self.shape}, scale={self.scale}"
            )

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale


def snr_threshold(params: SystemParameters, xi=None):
    """z = sigma2 (2^xi - 1) / rho: the gain below which the target rate fails.

    At params.xi, or at xi: a float rate in float arithmetic, an array of rates in numpy's.
    """
    xi = params.xi if xi is None else xi
    return params.sigma2 * (2.0**xi - 1.0) / params.rho


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) in [0, 1]."""
    if a <= 0:
        raise DomainError(f"shape must be positive, got {a}")
    if x < 0:
        raise DomainError(f"argument must be >= 0, got {x}")
    return float(special.gammaincc(a, x))


def gain_moments(
    beta_sd: float,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    phases: np.ndarray,
):
    """Mean and variance of the effective gain for a fixed phase vector.

    mean = beta_sd + t1 and var = beta_sd^2 + 2 beta_sd t1 + t1^2 + 2 t2,
    where (t1, t2) are the cascade traces.
    """
    if beta_sd < 0:
        raise DomainError(f"direct-link gain must be >= 0, got {beta_sd}")
    t1, t2 = cascade_traces(r_rd, r_sr, phases)
    return _moments_from_traces(beta_sd, t1, t2)


def _moments_from_traces(beta_sd, t1, t2):
    mean = beta_sd + t1
    variance = beta_sd * beta_sd + 2.0 * beta_sd * t1 + t1 * t1 + 2.0 * t2
    return mean, variance


def _fit(mean, variance):
    if mean <= 0:
        raise DegenerateScenarioError(
            "no channel carries power (zero direct gain and zero cascade trace); "
            "the Gamma fit is undefined"
        )
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
    t1 = real_trace(complex(np.sum(r_rd.entries * r_sr.entries.T)), "equal-phase trace")
    prod = r_rd.entries @ r_sr.entries
    t2 = real_trace(complex(np.sum(prod * prod.T)), "equal-phase squared trace")
    return t1, t2


def gamma_fit_equal_phase(
    beta_sd: float, r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> GammaParams:
    """Gamma parameters when every element applies the same phase shift."""
    if beta_sd < 0:
        raise DomainError(f"direct-link gain must be >= 0, got {beta_sd}")
    t1, t2 = equal_phase_traces(r_sr, r_rd)
    return _fit(*_moments_from_traces(beta_sd, t1, t2))


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

    uniform_phase_trace_moments_by_sums is the independent index-sum oracle
    for these expressions; acceptance criterion 2 and the test suite require
    the two routes to agree to 1e-12 relative.
    """
    if r_sr.n != r_rd.n:
        raise DomainError(f"dimension mismatch: r_sr {r_sr.n}, r_rd {r_rd.n}")
    a = r_rd.entries * r_sr.entries  # Hadamard product
    diag_sq = np.sum(np.real(np.diag(a)) ** 2)
    nu = real_trace(complex(np.trace(a)), "phase-averaged trace")
    eta = nu * nu + float(np.sum(np.abs(a) ** 2)) - diag_sq
    b = r_rd.entries * np.diag(r_sr.entries)[None, :]
    c = r_sr.entries * np.diag(r_rd.entries)[None, :]
    delta = (
        real_trace(complex(np.sum(b * b.T)), "phase-averaged quad trace")
        + real_trace(complex(np.sum(c * c.T)), "phase-averaged quad trace")
        - diag_sq
    )
    return UniformPhaseMoments(nu, eta, delta)


def uniform_phase_trace_moments_by_sums(
    r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> UniformPhaseMoments:
    """The same phase averages from first principles, as explicit index sums.

    Deliberately naive O(N^2) loops; serves as the independent oracle for
    the matrix expressions.
    """
    rs, rd = r_sr.entries, r_rd.entries
    n = r_sr.n
    nu = sum((rs[i, i] * rd[i, i]).real for i in range(n))
    eta = -sum((rd[i, i].real ** 2) * (rs[i, i].real ** 2) for i in range(n))
    for i in range(n):
        for m in range(n):
            eta += (rd[i, i] * rs[i, i] * rd[m, m] * rs[m, m]).real
            eta += (rd[i, m] * rs[m, i] * rd[m, i] * rs[i, m]).real
    delta = -sum((rd[i, i].real ** 2) * (rs[i, i].real ** 2) for i in range(n))
    for i in range(n):
        for m in range(n):
            delta += (rd[i, m] * rs[m, m] * rd[m, i] * rs[i, i]).real
            delta += (rd[i, i] * rs[i, m] * rd[m, m] * rs[m, i]).real
    return UniformPhaseMoments(float(nu), float(eta), float(delta))


def gamma_fit_uniform_phase(
    beta_sd: float, r_sr: CorrelationMatrix, r_rd: CorrelationMatrix
) -> GammaParams:
    """Gamma parameters averaged over i.i.d. uniform random phase shifts."""
    if beta_sd < 0:
        raise DomainError(f"direct-link gain must be >= 0, got {beta_sd}")
    m = uniform_phase_trace_moments(r_sr, r_rd)
    mean = beta_sd + m.mean_trace
    if mean <= 0:
        raise DegenerateScenarioError(
            "no channel carries power under phase averaging; the Gamma fit is undefined"
        )
    variance = (
        beta_sd * beta_sd
        + 2.0 * beta_sd * m.mean_trace
        + m.mean_trace_sq
        + 2.0 * m.mean_quad_trace
    )
    return GammaParams(shape=mean * mean / variance, scale=variance / mean)


def outage_probability(gp: GammaParams, z):
    """P(X < z) = 1 - Q(shape, z/scale) for the matched Gamma variable.

    Evaluated as the regularized lower incomplete gamma so the deep lower
    tail keeps full precision instead of cancelling against 1.  A scalar z
    gives a float; an array of thresholds gives an array from one ufunc call.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError(f"SNR threshold must be >= 0, got {z.min()}")
    p = special.gammainc(gp.shape, z / gp.scale)
    return float(p) if p.ndim == 0 else p


def outage_scale_sensitivity(gp: GammaParams, z: float) -> float:
    """d(outage)/d(scale) = -z^k e^(-z/w) / (Gamma(k) w^(k+1)); always negative."""
    if z <= 0:
        raise DomainError(f"SNR threshold must be positive, got {z}")
    k, w = gp.shape, gp.scale
    return -math.exp(k * math.log(z) - z / w - math.lgamma(k) - (k + 1.0) * math.log(w))
