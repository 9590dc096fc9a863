"""Spatial correlation matrices of the reflecting-surface channels.

Builds the planar-array sinc correlation model, the exponential comparison
model, and the uncorrelated identity, and factors them for channel sampling.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveSemidefiniteError

HERMITIAN_ATOL = 1e-12
UNIT_DIAGONAL_ATOL = 1e-12
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
        m = _checked_entries(self.entries)
        eigs = np.linalg.eigvalsh(m)
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

    def has_unit_diagonal(self) -> bool:
        return bool(np.max(np.abs(np.diag(self.entries) - 1.0)) <= UNIT_DIAGONAL_ATOL)


def _checked_entries(entries) -> np.ndarray:
    """A read-only complex copy of a square, finite, Hermitian matrix."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"correlation matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("correlation matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL * max(1.0, np.max(np.abs(m))):
        raise DomainError("correlation matrix is not Hermitian")
    m = m.copy()
    m.setflags(write=False)
    return m


def element_position(geometry: ArrayGeometry, index: int) -> np.ndarray:
    """Cartesian position (meters) of the 1-based element ``index``.

    Elements fill rows first: [0, ((index-1) mod n_h) d_h, floor((index-1)/n_h) d_v].
    """
    if not 1 <= index <= geometry.n:
        raise DomainError(f"element index {index} outside 1..{geometry.n}")
    i = index - 1
    return np.array([0.0, (i % geometry.n_h) * geometry.d_h, (i // geometry.n_h) * geometry.d_v])


def _all_positions(geometry: ArrayGeometry) -> np.ndarray:
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


def scale_covariance(r: CorrelationMatrix, beta: float, d_h: float, d_v: float) -> CorrelationMatrix:
    """Fold the large-scale gain and element area into the matrix: beta*d_h*d_v*R.

    The PSD test lam_min >= -PSD_RTOL*lam_max is invariant under a positive
    factor, so the scaled matrix inherits r's verdict and its eigenvalue
    range scaled by that factor instead of decomposing the matrix again.
    """
    if beta <= 0:
        raise DomainError(f"large-scale gain must be positive, got {beta}")
    if d_h <= 0 or d_v <= 0:
        raise DomainError("element dimensions must be positive")
    factor = beta * d_h * d_v
    scaled = object.__new__(CorrelationMatrix)
    object.__setattr__(scaled, "entries", _checked_entries(factor * r.entries))
    object.__setattr__(scaled, "eig_range", (factor * r.eig_range[0], factor * r.eig_range[1]))
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
