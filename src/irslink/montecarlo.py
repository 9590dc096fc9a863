"""Independent Monte-Carlo oracle for the closed-form outage expressions.

Samples the correlated Rayleigh channel model, forms the instantaneous
effective gain and estimates outage empirically for any phase-shift design,
including per-realization co-phasing with perfect channel knowledge.

Reproducibility contract: trial ``i`` draws all of its Gaussians from the
counter-based stream (seed, channel domain, i) in a fixed layout
(2 normals for the direct channel, then 2N for the source-surface vector,
then 2N for the surface-destination vector, Box-Muller throughout), so
trials are order-independent units of work and every estimate is a pure
function of (scenario, design, trials, seed).

Engine: one block kernel serves every caller.  gain_samples runs blocks of
up to 64 trials: it repositions the stream once per trial and writes that
trial's uniforms into one row of a buffer; Box-Muller, the projection
through the two covariance factors (one matrix product each), the phase
resolution and the gain, taken as re^2 + im^2, then run on the whole block.
The public per-trial operations (sample_channels, cophased_phases,
effective_gain) are views of the same kernel and the same reductions on a
single row, so chaining them reproduces gain_samples bit for bit.  A lone
trial is projected as two identical rows, because numpy hands a one-row
product to the BLAS matrix-vector routine, which rounds differently from the
matrix-product one.

Against version 0.1.0, which projected with one matrix-vector product per
trial and took the gain as a complex modulus squared, gains differ in the
last bits.  The draws do not, and an outage count can change only where a
gain lies within a few ulps of its threshold.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .closedform import SystemParameters, snr_threshold
from .correlation import CorrelationMatrix, matrix_sqrt
from .errors import DomainError
from .phaseshift import Equal, Fixed, OptimalCsi, PhaseShiftDesign, UniformRandom, phase_vector


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the direct scalar channel and the two surface-side vectors."""

    h_sd: complex
    h_sr: np.ndarray
    h_rd: np.ndarray

    def __post_init__(self):
        if self.h_sr.shape != self.h_rd.shape or self.h_sr.ndim != 1:
            raise DomainError("channel vectors must be 1-D and of equal length")
        if not (
            np.isfinite(self.h_sd)
            and np.isfinite(self.h_sr).all()
            and np.isfinite(self.h_rd).all()
        ):
            raise DomainError("channel realization has non-finite entries")

    @property
    def n(self) -> int:
        return self.h_sr.shape[0]


@dataclass(frozen=True)
class McEstimate:
    """Empirical outage estimate with its binomial standard error."""

    trials: int
    failures: int
    p_hat: float
    std_err: float

    @staticmethod
    def rates(trials: int, failures):
        """(p_hat, std_err) for a failure count or an array of them."""
        p = failures / trials
        return p, np.sqrt(p * (1.0 - p) / trials)

    @classmethod
    def from_counts(cls, trials: int, failures: int) -> "McEstimate":
        p, se = cls.rates(trials, failures)
        return cls(trials, failures, float(p), float(se))


def outage_counts(gains: np.ndarray, z) -> np.ndarray:
    """Number of gains strictly below each threshold of z, for the whole grid at once.

    Sorting once and bisecting on the left gives the exact count of gain < z,
    the capacity-below-target definition of a failure.
    """
    return np.searchsorted(np.sort(gains), z, side="left")


_BLOCK = 64  # trials per kernel call; bounds the uniform buffer at 64 x (2+4N) doubles


def _channel_block(beta_sd, l_sr, l_rd, u):
    """Channels from uniforms along the last axis: a 2-D u holds one trial per row.

    h_sd takes u's leading shape, h_sr and h_rd add N on the last axis, and
    each trial depends on its own row of uniforms alone.
    """
    n = l_sr.shape[0]
    g = rng.box_muller(u)
    h_sd = np.sqrt(beta_sd / 2.0) * (g[..., 0] + 1j * g[..., 1])
    g_sr = (g[..., 2 : 2 + n] + 1j * g[..., 2 + n : 2 + 2 * n]) / np.sqrt(2.0)
    g_rd = (g[..., 2 + 2 * n : 2 + 3 * n] + 1j * g[..., 2 + 3 * n :]) / np.sqrt(2.0)
    return h_sd, _project(g_sr, l_sr), _project(g_rd, l_rd)


def _project(g, factor):
    """factor @ g for every trial (row) of g, as one matrix product.

    A lone trial goes through as two identical rows: numpy hands a one-row
    product to the matrix-vector routine, which rounds differently from the
    matrix-product routine that every larger block uses.
    """
    if g.ndim == 2 and g.shape[0] > 1:
        return g @ factor.T
    return (np.concatenate((g, g)).reshape(2, -1) @ factor.T)[0].reshape(g.shape)


def _gains(h_sd, h_sr, phases, h_rd):
    """|h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2 along the last axis.

    Taken as re^2 + im^2: numpy's complex modulus rounds differently on its
    vector and scalar paths, which would break the per-trial/batch identity.
    """
    x = h_sd + (np.conj(h_sr) * phases * h_rd).sum(axis=-1)
    return x.real * x.real + x.imag * x.imag


def _cophase(h_sd, h_sr, h_rd):
    """Co-phasing phases along the last axis; the reference is 0 where h_sd is 0."""
    reference = np.where(h_sd != 0, np.angle(h_sd), 0.0)
    return np.exp(1j * (reference[..., None] - np.angle(np.conj(h_sr) * h_rd)))


def sample_channels(
    beta_sd: float,
    l_sr: np.ndarray,
    l_rd: np.ndarray,
    seed: int,
    trial_index: int,
) -> ChannelRealization:
    """Draw the channel realization of one trial.

    l_sr and l_rd are square-root factors of the covariance matrices (from
    correlation.matrix_sqrt); the surface vectors are L @ g with g a standard
    complex Gaussian vector.
    """
    n = l_sr.shape[0]
    if l_sr.shape != (n, n) or l_rd.shape != (n, n):
        raise DomainError("covariance factors must be square and of equal size")
    u = rng.stream(seed, rng.DOMAIN_CHANNEL, trial_index).random(2 + 4 * n)
    h_sd, h_sr, h_rd = _channel_block(beta_sd, l_sr, l_rd, u)
    return ChannelRealization(h_sd=complex(h_sd), h_sr=h_sr, h_rd=h_rd)


def effective_gain(ch: ChannelRealization, phases: np.ndarray) -> float:
    """|h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2."""
    phases = np.asarray(phases)
    if phases.shape != ch.h_sr.shape:
        raise DomainError(f"phase vector shape {phases.shape} does not match n={ch.n}")
    return float(_gains(ch.h_sd, ch.h_sr, phases, ch.h_rd))


def cophased_phases(ch: ChannelRealization) -> np.ndarray:
    """Per-realization phases aligning every cascaded term with the direct channel.

    The resulting amplitude is |h_sd| + sum_n |h_sr[n]| |h_rd[n]|; with a
    blocked direct channel the reference phase is zero.
    """
    return _cophase(ch.h_sd, ch.h_sr, ch.h_rd)


def gain_samples(
    beta_sd: float,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    design: PhaseShiftDesign,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Effective gains of trials 0..trials-1; the raw material of every estimate.

    Equal to chaining sample_channels / phase resolution / effective_gain per
    trial, bit for bit; the work runs in blocks of trials.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    n = r_sr.n
    l_sr, l_rd = matrix_sqrt(r_sr), matrix_sqrt(r_rd)
    if isinstance(design, (Equal, Fixed)):
        static = phase_vector(design, n)
    elif isinstance(design, (UniformRandom, OptimalCsi)):
        static = None
    else:
        raise DomainError(f"unknown phase-shift design {design!r}")
    channel_streams = rng.StreamFamily(seed)
    phase_streams = rng.StreamFamily(design.seed) if isinstance(design, UniformRandom) else None
    gains = np.empty(trials)
    for start in range(0, trials, _BLOCK):
        count = min(_BLOCK, trials - start)
        u = np.empty((count, 2 + 4 * n))
        for r in range(count):
            channel_streams.get(rng.DOMAIN_CHANNEL, start + r).random(out=u[r])
        h_sd, h_sr, h_rd = _channel_block(beta_sd, l_sr, l_rd, u)
        if static is not None:
            phases = static
        elif phase_streams is not None:
            thetas = np.empty((count, n))
            for r in range(count):
                pg = phase_streams.get(rng.DOMAIN_PHASE, start + r)
                thetas[r] = pg.uniform(-np.pi, np.pi, n)
            phases = np.exp(1j * thetas)
        else:
            phases = _cophase(h_sd, h_sr, h_rd)
        gains[start : start + count] = _gains(h_sd, h_sr, phases, h_rd)
    return gains


def estimate_outage(
    params: SystemParameters,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    design: PhaseShiftDesign,
    trials: int,
    seed: int,
) -> McEstimate:
    """Empirical outage: the fraction of trials whose gain falls below threshold.

    Failure counting uses the strict inequality gain < z, matching the
    capacity-below-target definition.
    """
    z = snr_threshold(params)
    gains = gain_samples(params.beta_sd, r_sr, r_rd, design, trials, seed)
    return McEstimate.from_counts(trials, int(outage_counts(gains, z)))


@dataclass(frozen=True)
class SampleMoments:
    """Sample moments of the effective gain, with standard errors as diagnostics."""

    trials: int
    mean: float
    variance: float
    second_moment: float
    se_mean: float
    se_variance: float
    se_second_moment: float


def sample_gain_moments(
    params: SystemParameters,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    design: PhaseShiftDesign,
    trials: int,
    seed: int,
) -> SampleMoments:
    """Unbiased sample mean/variance of the gain plus its raw second moment."""
    if trials < 2:
        raise DomainError(f"need at least two trials for moments, got {trials}")
    gains = gain_samples(params.beta_sd, r_sr, r_rd, design, trials, seed)
    mean = float(np.mean(gains))
    variance = float(np.var(gains, ddof=1))
    second = float(np.mean(gains**2))
    centered = gains - mean
    m4 = float(np.mean(centered**4))
    se_mean = float(np.sqrt(variance / trials))
    # Asymptotic standard error of the sample variance.
    se_variance = float(np.sqrt(max(m4 - variance**2, 0.0) / trials))
    se_second = float(np.std(gains**2, ddof=1) / np.sqrt(trials))
    return SampleMoments(trials, mean, variance, second, se_mean, se_variance, se_second)
