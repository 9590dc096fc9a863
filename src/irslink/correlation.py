"""Spatial correlation matrices of the reflecting-surface channels.

Builds the planar-array sinc correlation model, the exponential comparison
model, and the uncorrelated identity, and factors them for channel sampling.

OpenBLAS rounds a product or a decomposition differently with its thread
count, so the Monte-Carlo engine runs every BLAS call its gains pass through
inside one_blas_thread: matrix_sqrt's eigh here, each range that
montecarlo.run_ranges runs, and sample_channels' one block.
"""

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NotPositiveSemidefiniteError

HERMITIAN_ATOL = 1e-12
PSD_RTOL = 1e-9

# The (get, set) thread-count functions an OpenBLAS build may export, in the order they are looked for.
_BLAS_NAMES = [(f"{p}get_num_threads{s}", f"{p}set_num_threads{s}") for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]
_blas_lock = threading.RLock()


@functools.cache
def _blas_controls() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS, read once per process.

    The set is the libraries mapped at the first call: numpy's, and scipy's
    only if scipy.special was imported before.  The engine calls only numpy's.

    () if a loaded OpenBLAS has no such pair or cannot be opened, if none is
    loaded, or if /proc/self/maps cannot be read: the count cannot then be
    set for every BLAS call.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})]
    except OSError:  # no procfs (not Linux), or a library that cannot be opened
        return ()
    pairs = [next(((getattr(lib, g), getattr(lib, s)) for g, s in _BLAS_NAMES if hasattr(lib, g) and hasattr(lib, s)), None) for lib in libs]
    if None in pairs:
        return ()
    for get, put in pairs:
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return tuple(pairs)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, and restore each library's count after it, also on an exception.

    A library already on one thread is only read.  The count is
    process-wide, so the body holds a module lock: bodies in other threads
    wait, and a body nested in another sees one thread and changes nothing.
    Where _blas_controls() is empty, BLAS is left alone.
    """
    with _blas_lock, contextlib.ExitStack() as restore:
        for get, put in _blas_controls():
            if (count := get()) != 1:
                put(1)
                restore.callback(put, count)
        yield


def _check_count(name: str, value) -> None:
    """DomainError unless value is an integer (int or numpy integer, not bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")


def _check_size(name: str, value) -> None:
    """DomainError unless value is a real number (not bool) with 0 < value < inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise DomainError(f"{name} must be a finite positive number, got {value!r}")


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
        for name in ("n_h", "n_v"):
            _check_count(name, getattr(self, name))
        for name in ("d_h", "d_v", "wavelength"):
            _check_size(name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian positive-semidefinite covariance of a surface-side channel.

    Entries are dimensionless correlation coefficients for a just-built
    model matrix (unit diagonal), or carry linear power units after
    scale_covariance.  They are stored as a private read-only copy of the
    array the checks read: float64 for a real matrix (so the sinc,
    exponential and identity models are never held as complex), complex128
    for one with a nonzero imaginary part; scale_covariance's result is
    always complex128.
    A matrix is checked once, where it is built: square, non-empty, finite,
    Hermitian (max|R - R^H| <= HERMITIAN_ATOL max(1, max|R|)) and PSD.
    Besides eig_range, the (smallest, largest) eigenvalue behind the PSD
    verdict, it keeps the two numbers of the Hermitian test:
    hermitian_residual = max|R - R^H| and max_abs = max|R|.
    scale_covariance derives beta*R's verdict from these three instead of
    checking the scaled matrix again.  _factor is matrix_sqrt's result,
    None until its first call on the matrix.
    """

    entries: np.ndarray
    eig_range: tuple = field(init=False, repr=False, compare=False)
    hermitian_residual: float = field(init=False, repr=False, compare=False)
    max_abs: float = field(init=False, repr=False, compare=False)
    # The class default serves every construction route, object.__new__ included.
    _factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a, residual, largest = _checked_entries(self.entries)
        eigs = np.linalg.eigvalsh(a)
        lo, hi = float(eigs[0]), float(eigs[-1])
        lam_max = max(hi, 0.0)
        if lo < -PSD_RTOL * lam_max:
            raise NotPositiveSemidefiniteError(
                f"smallest eigenvalue {lo:.3e} below PSD tolerance {-PSD_RTOL * lam_max:.3e}"
            )
        m = np.array(a)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eig_range", (lo, hi))
        object.__setattr__(self, "hermitian_residual", residual)
        object.__setattr__(self, "max_abs", largest)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _checked_entries(entries) -> tuple:
    """(a, max|a - a^H|, max|a|) for a square, non-empty, finite, Hermitian matrix.

    a is the array the checks read, and the one to decompose: float64 input
    as given, a complex matrix whose imaginary part is exactly zero as its
    real part (|x + 0i| = |x|, so the test sees the same numbers as the
    complex one), any other complex matrix as complex128.  The matrix is
    finite iff max|a| is.  Nothing is written to the input.
    """
    a = np.asarray(entries)
    if a.dtype != np.float64 and a.dtype != np.complex128:  # ints, float32, lists of numbers
        a = a.astype(np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DomainError(f"correlation matrix must be square and non-empty, got shape {a.shape}")
    real = a.dtype == np.float64 or not a.imag.any()
    if real:
        a = a.real
        largest = max(float(a.max()), -float(a.min()))  # NaN if any entry is NaN
    else:
        largest = float(np.max(np.abs(a)))
    if not math.isfinite(largest):
        raise DomainError("correlation matrix has non-finite entries")
    if real:
        # fl(x - y) = -fl(y - x), so a - a^T is exactly antisymmetric and its
        # largest entry is its largest magnitude.
        residual = float((a - a.T).max())
    else:
        residual = float(np.max(np.abs(a - a.conj().T)))
    if residual > HERMITIAN_ATOL * max(1.0, largest):
        raise DomainError("correlation matrix is not Hermitian")
    return a, residual, largest


def _distances(geometry: ArrayGeometry) -> np.ndarray:
    """||u_n - u_m|| between the surface elements, an N x N array.

    Element i (0-based, rows first) sits at u_i = [0, (i mod n_h) d_h,
    floor(i / n_h) d_v] meters.  Each distance is sqrt(dz^2 + dy^2) of one
    vertical and one horizontal offset, so the offsets of each axis are
    squared once and summed into an (n_v, n_h, n_v, n_h) array, which reads
    as N x N; no N x N x 3 array of position differences is formed.
    """
    h = np.arange(geometry.n_h) * geometry.d_h
    v = np.arange(geometry.n_v) * geometry.d_v
    dy = h[:, None] - h[None, :]
    dz = v[:, None] - v[None, :]
    dist = np.sqrt((dz * dz)[:, None, :, None] + (dy * dy)[None, :, None, :])
    return dist.reshape(geometry.n, geometry.n)


def sinc_correlation(geometry: ArrayGeometry) -> CorrelationMatrix:
    """Isotropic-scattering correlation of a planar array.

    Entry (n, m) is sinc(2 ||u_n - u_m|| / wavelength) with
    sinc(x) = sin(pi x)/(pi x) and sinc(0) = 1.
    """
    x = _distances(geometry)
    x *= 2.0
    x /= geometry.wavelength
    # np.sinc(x)'s own steps, in place: sin(y)/y with y = pi x, and y = eps where
    # x is 0, so that sin(eps)/eps = 1 exactly.
    x *= np.pi
    x[x == 0] = np.finfo(np.float64).eps
    y = np.sin(x)
    y /= x
    return CorrelationMatrix(y)


def exponential_correlation(n: int, magnitude: float) -> CorrelationMatrix:
    """Kac-Murdock-Szego model: entry (n, m) = magnitude^|n-m|."""
    _check_count("n", n)
    if not 0.0 <= magnitude < 1.0:
        raise DomainError(f"correlation magnitude must lie in [0, 1), got {magnitude}")
    powers = magnitude ** np.arange(n)
    # Row i is the length-n window of [m^(n-1), ..., m^1, m^0, m^1, ..., m^(n-1)]
    # that starts at n-1-i: each power is taken once and copied by |i - j|.
    both = np.concatenate([powers[:0:-1], powers])
    return CorrelationMatrix(np.ascontiguousarray(sliding_window_view(both, n)[::-1]))


def identity_correlation(n: int) -> CorrelationMatrix:
    """Spatially uncorrelated fading."""
    _check_count("n", n)
    return CorrelationMatrix(np.eye(n))


def scale_covariance(r: CorrelationMatrix, beta: float) -> CorrelationMatrix:
    """Fold the large-scale gain (times the element area) into the matrix: beta*R.

    Only beta is checked (0 < beta < inf); beta*R's verdict follows from r's
    without a second pass over the matrix.  The PSD test
    lam_min >= -PSD_RTOL*lam_max is invariant under a positive factor, so
    eig_range is r's times beta.  beta*R is finite iff beta*max|R| is, and
    Hermitian iff beta*max|R - R^H| <= HERMITIAN_ATOL max(1, beta*max|R|),
    the test on the scaled matrix written with r's stored numbers; a real
    factor keeps an exactly Hermitian R (residual 0) exactly Hermitian.
    beta*R is complex128 for a real R too: beta times each entry in the real
    part and +0.0 in the imaginary part, the bytes of beta times R's complex
    copy, written with no N x N temporary.
    """
    if not 0 < beta < math.inf:
        raise DomainError(f"large-scale gain must be positive and finite, got {beta}")
    beta = float(beta)
    largest = beta * r.max_abs
    if largest == math.inf:
        raise DomainError(f"large-scale gain {beta!r} overflows the correlation matrix entries")
    residual = beta * r.hermitian_residual
    if residual > HERMITIAN_ATOL * max(1.0, largest):
        raise DomainError(f"correlation matrix scaled by the large-scale gain {beta!r} is not Hermitian")
    if r.entries.dtype == np.complex128:
        entries = beta * r.entries
    else:
        entries = np.zeros_like(r.entries, dtype=np.complex128)
        np.multiply(r.entries, beta, out=entries.real)
    entries.setflags(write=False)
    scaled = object.__new__(CorrelationMatrix)
    object.__setattr__(scaled, "entries", entries)
    object.__setattr__(scaled, "eig_range", (beta * r.eig_range[0], beta * r.eig_range[1]))
    object.__setattr__(scaled, "hermitian_residual", residual)
    object.__setattr__(scaled, "max_abs", largest)
    return scaled


def matrix_sqrt(r: CorrelationMatrix) -> np.ndarray:
    """Factor L with L @ L^H = R, for sampling correlated channel vectors.

    Uses the eigendecomposition rather than Cholesky: the sinc model at
    sub-wavelength spacing is numerically rank deficient, so eigenvalues in
    [-PSD_RTOL*lam_max, 0) are clipped to zero before taking square roots.
    The decomposition is the complex eigh, also of a real matrix, and runs
    on one BLAS thread.  A matrix is factored once: the read-only factor is
    kept on r, and every later call returns it.
    """
    factor = r._factor
    if factor is None:
        with one_blas_thread():
            eigs, vecs = np.linalg.eigh(np.asarray(r.entries, dtype=np.complex128))
        lam_max = max(float(eigs[-1]), 0.0)
        if float(eigs[0]) < -PSD_RTOL * lam_max:
            raise NotPositiveSemidefiniteError(
                f"smallest eigenvalue {eigs[0]:.3e} below PSD tolerance; cannot factor"
            )
        factor = vecs * np.sqrt(np.clip(eigs, 0.0, None))[None, :]
        factor.setflags(write=False)
        object.__setattr__(r, "_factor", factor)
    return factor
