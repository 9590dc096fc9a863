"""Spatial correlation matrices of the reflecting-surface channels.

Builds the planar-array sinc correlation model, the exponential comparison
model, and the uncorrelated identity, and factors them for channel sampling.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveSemidefiniteError

HERMITIAN_ATOL = 1e-12
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular reflecting surface of n_h x n_v elements.

    d_h and d_v are the element width and height in meters, wavelength the
    carrier wavelength in meters.
    """

    n_h: int
    n_v: int
    d_h: float
    d_v: float
    wavelength: float

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise DomainError(f"element counts must be >= 1, got {self.n_h} x {self.n_v}")
        if self.d_h <= 0 or self.d_v <= 0 or self.wavelength <= 0:
            raise DomainError("element size and wavelength must be positive")

    @property
    def n(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian positive-semidefinite covariance of a surface-side channel.

    Entries are dimensionless correlation coefficients for a just-built
    model matrix (unit diagonal), or carry linear power units after
    scale_covariance.  eig_range holds the (smallest, largest) eigenvalue
    behind the PSD verdict: computed here, or scaled from the model matrix
    by scale_covariance.
    """

    entries: np.ndarray
    eig_range: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, real = _checked_entries(np.array(self.entries, dtype=np.complex128))
        eigs = np.linalg.eigvalsh(m.real if real else m)
        lo, hi = float(eigs[0]), float(eigs[-1])
        lam_max = max(hi, 0.0)
        if lo < -PSD_RTOL * lam_max:
            raise NotPositiveSemidefiniteError(
                f"smallest eigenvalue {lo:.3e} below PSD tolerance {-PSD_RTOL * lam_max:.3e}"
            )
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eig_range", (lo, hi))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _checked_entries(m: np.ndarray) -> tuple:
    """(m made read-only, whether it is real) for a square, finite, Hermitian complex128 m.

    m must be a fresh array no caller holds.  A matrix whose imaginary part
    is exactly zero is tested in real arithmetic: |x + 0i| = |x|, so the
    Hermitian test sees the same numbers as the complex one.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"correlation matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("correlation matrix has non-finite entries")
    real = not m.imag.any()
    a = m.real if real else m
    if np.max(np.abs(a - a.conj().T)) > HERMITIAN_ATOL * max(1.0, np.max(np.abs(a))):
        raise DomainError("correlation matrix is not Hermitian")
    m.setflags(write=False)
    return m, real


def _all_positions(geometry: ArrayGeometry) -> np.ndarray:
    """Element i (0-based, rows first) sits at [0, (i mod n_h) d_h, floor(i / n_h) d_v] meters."""
    i = np.arange(geometry.n)
    return np.stack(
        [np.zeros(geometry.n), (i % geometry.n_h) * geometry.d_h, (i // geometry.n_h) * geometry.d_v],
        axis=1,
    )


def sinc_correlation(geometry: ArrayGeometry) -> CorrelationMatrix:
    """Isotropic-scattering correlation of a planar array.

    Entry (n, m) is sinc(2 ||u_n - u_m|| / wavelength) with
    sinc(x) = sin(pi x)/(pi x) and sinc(0) = 1.
    """
    pos = _all_positions(geometry)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    # np.sinc is the normalized sinc and is exact at 0, so no 0/0 guard needed.
    return CorrelationMatrix(np.sinc(2.0 * dist / geometry.wavelength))


def exponential_correlation(n: int, magnitude: float) -> CorrelationMatrix:
    """Kac-Murdock-Szego model: entry (n, m) = magnitude^|n-m|."""
    if not 0.0 <= magnitude < 1.0:
        raise DomainError(f"correlation magnitude must lie in [0, 1), got {magnitude}")
    if n < 1:
        raise DomainError(f"element count must be >= 1, got {n}")
    i = np.arange(n)
    return CorrelationMatrix(magnitude ** np.abs(i[:, None] - i[None, :]))


def identity_correlation(n: int) -> CorrelationMatrix:
    """Spatially uncorrelated fading."""
    if n < 1:
        raise DomainError(f"element count must be >= 1, got {n}")
    return CorrelationMatrix(np.eye(n))


def scale_covariance(r: CorrelationMatrix, beta: float) -> CorrelationMatrix:
    """Fold the large-scale gain (times the element area) into the matrix: beta*R.

    The PSD test lam_min >= -PSD_RTOL*lam_max is invariant under a positive
    factor, so the scaled matrix inherits r's verdict and its eigenvalue
    range scaled by beta instead of decomposing the matrix again.
    """
    if beta <= 0:
        raise DomainError(f"large-scale gain must be positive, got {beta}")
    scaled = object.__new__(CorrelationMatrix)
    object.__setattr__(scaled, "entries", _checked_entries(beta * r.entries)[0])
    object.__setattr__(scaled, "eig_range", (beta * r.eig_range[0], beta * r.eig_range[1]))
    return scaled


def matrix_sqrt(r: CorrelationMatrix) -> np.ndarray:
    """Factor L with L @ L^H = R, for sampling correlated channel vectors.

    Uses the eigendecomposition rather than Cholesky: the sinc model at
    sub-wavelength spacing is numerically rank deficient, so eigenvalues in
    [-PSD_RTOL*lam_max, 0) are clipped to zero before taking square roots.
    """
    eigs, vecs = np.linalg.eigh(r.entries)
    lam_max = max(float(eigs[-1]), 0.0)
    if float(eigs[0]) < -PSD_RTOL * lam_max:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {eigs[0]:.3e} below PSD tolerance; cannot factor"
        )
    return vecs * np.sqrt(np.clip(eigs, 0.0, None))[None, :]
