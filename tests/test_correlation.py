import math

import numpy as np
import pytest

from irslink.correlation import (
    HERMITIAN_ATOL,
    PSD_RTOL,
    ArrayGeometry,
    CorrelationMatrix,
    _all_positions,
    _checked_entries,
    exponential_correlation,
    identity_correlation,
    matrix_sqrt,
    scale_covariance,
    sinc_correlation,
)
from irslink.errors import DomainError, NotPositiveSemidefiniteError
from irslink.scenario import MODELS, PRESETS, load_scenario

from conftest import WAVELENGTH, square_sinc


def test_element_positions():
    # The layout the sinc model uses: rows of n_h elements, 0-based.
    g = ArrayGeometry(2, 2, 1.0, 1.0, 1.0)
    assert np.array_equal(_all_positions(g)[0], [0.0, 0.0, 0.0])
    assert np.array_equal(_all_positions(g)[1], [0.0, 1.0, 0.0])
    g2 = ArrayGeometry(2, 2, 0.5, 0.25, 1.0)
    # hand evaluation of the mod/floor layout for the last element
    assert np.array_equal(_all_positions(g2)[3], [0.0, 0.5, 0.25])


def test_geometry_validation():
    with pytest.raises(DomainError):
        ArrayGeometry(0, 2, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ArrayGeometry(2, 2, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ArrayGeometry(2, 2, 1.0, 1.0, 0.0)


def test_sinc_diagonal_is_exactly_one():
    r = square_sinc(4)
    assert np.array_equal(np.diag(r.entries), np.ones(16))  # imaginary parts exactly zero too
    assert np.trace(r.entries).real == 16.0


def test_sinc_half_wavelength_neighbors_decorrelate():
    # spacing lambda/2 puts adjacent elements at the first sinc zero
    g = ArrayGeometry(2, 1, WAVELENGTH / 2, WAVELENGTH / 2, WAVELENGTH)
    r = sinc_correlation(g)
    assert abs(r.entries[0, 1]) < 1e-15


def test_sinc_dense_packing_value():
    r = square_sinc(4)
    expected = math.sin(0.05 * math.pi) / (0.05 * math.pi)  # direct evaluation
    assert r.entries[0, 1].real == pytest.approx(expected, rel=1e-14)


def test_sinc_transpose_symmetry():
    d_h, d_v = WAVELENGTH / 40, WAVELENGTH / 8
    a = sinc_correlation(ArrayGeometry(3, 5, d_h, d_v, WAVELENGTH))
    b = sinc_correlation(ArrayGeometry(5, 3, d_v, d_h, WAVELENGTH))
    ev_a = np.sort(np.linalg.eigvalsh(a.entries))
    ev_b = np.sort(np.linalg.eigvalsh(b.entries))
    assert np.max(np.abs(ev_a - ev_b)) <= 1e-9 * max(1.0, ev_a[-1])


def test_exponential_values():
    assert np.array_equal(exponential_correlation(3, 0.0).entries.real, np.eye(3))
    r = exponential_correlation(2, 0.95)
    assert r.entries[0, 1].real == pytest.approx(0.95)
    r3 = exponential_correlation(3, 0.5)
    assert r3.entries[0, 2].real == pytest.approx(0.25)


def test_exponential_domain():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            exponential_correlation(3, bad)


def test_scale_covariance():
    r = square_sinc(2)
    assert np.array_equal(scale_covariance(r, 1.0).entries, r.entries)
    eye = identity_correlation(4)
    scaled = scale_covariance(eye, 2.5)
    assert np.allclose(scaled.entries, 2.5 * np.eye(4))
    tripled = scale_covariance(r, 3.0)
    assert np.allclose(tripled.entries, 3.0 * r.entries, rtol=1e-15)
    with pytest.raises(DomainError):
        scale_covariance(r, 0.0)
    with pytest.raises(DomainError):
        scale_covariance(r, -1.0)


def assert_spectrum_matches_fresh_eigvalsh(r):
    eigs = np.linalg.eigvalsh(r.entries)
    lo, hi = r.eig_range
    tol = 1e-12 * abs(eigs[-1])
    assert abs(lo - eigs[0]) <= tol and abs(hi - eigs[-1]) <= tol
    assert lo >= -PSD_RTOL * max(hi, 0.0)
    assert eigs[0] >= -PSD_RTOL * max(eigs[-1], 0.0)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", MODELS)
def test_scaled_covariances_inherit_model_spectrum(preset, model):
    sc = load_scenario(preset).with_model(model)
    lo, hi = sc.correlation_model().eig_range
    for scaled in sc.covariances():
        factor = scaled.entries[0, 0].real  # unit-diagonal model times the gain
        assert scaled.eig_range == (factor * lo, factor * hi)
        assert_spectrum_matches_fresh_eigvalsh(scaled)
        assert_spectrum_matches_fresh_eigvalsh(CorrelationMatrix(scaled.entries))


def test_scaled_spectrum_near_psd_boundary():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
    lam = np.array([-0.5 * PSD_RTOL, 0.0, 1e-3, 0.1, 0.5, 1.0])
    r = CorrelationMatrix((q * lam) @ q.T)
    assert r.eig_range[0] < 0.0
    for beta in (1e-14, 3e-3, 7.0, 1e9):
        scaled = scale_covariance(r, beta)
        assert scaled.eig_range == (beta * r.eig_range[0], beta * r.eig_range[1])
        assert_spectrum_matches_fresh_eigvalsh(scaled)
    lam[0] = -2.0 * PSD_RTOL
    with pytest.raises(NotPositiveSemidefiniteError):
        CorrelationMatrix((q * lam) @ q.T)


def test_matrix_sqrt_identity_and_diagonal():
    assert np.allclose(matrix_sqrt(identity_correlation(3)), np.eye(3))
    diag = CorrelationMatrix(np.diag([4.0, 9.0]))
    assert np.allclose(matrix_sqrt(diag), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("side", [4, 8, 14, 20])
def test_matrix_sqrt_reconstruction(side):
    r = square_sinc(side)
    factor = matrix_sqrt(r)
    err = np.linalg.norm(factor @ factor.conj().T - r.entries) / np.linalg.norm(r.entries)
    assert err < 1e-9


def test_not_psd_rejected():
    with pytest.raises(NotPositiveSemidefiniteError):
        CorrelationMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_matrix_sqrt_guards_against_tampering():
    r = identity_correlation(2)
    object.__setattr__(r, "entries", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveSemidefiniteError):
        matrix_sqrt(r)


def test_hermitian_rejected():
    with pytest.raises(DomainError):
        CorrelationMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_complex_hermitian_accepted():
    m = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    r = CorrelationMatrix(m)
    factor = matrix_sqrt(r)
    assert np.allclose(factor @ factor.conj().T, m)


def test_zero_matrix_is_valid_scaled_covariance():
    r = CorrelationMatrix(np.zeros((3, 3)))
    assert np.array_equal(matrix_sqrt(r), np.zeros((3, 3)))


# Real-valued matrices are checked by the real solver; the complex one is the reference.
@pytest.mark.parametrize("side", [4, 8, 14, 20])
@pytest.mark.parametrize("model", ["sinc", "exponential", "identity"])
def test_real_route_matches_complex_eigvalsh(model, side):
    n = side * side
    r = {
        "sinc": lambda: square_sinc(side),
        "exponential": lambda: exponential_correlation(n, 0.95),
        "identity": lambda: identity_correlation(n),
    }[model]()
    assert _checked_entries(r.entries.copy())[1]
    assert_spectrum_matches_fresh_eigvalsh(r)


def _unit_phases(n, seed):
    return np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, n))


def test_complex_hermitian_takes_complex_route():
    r = square_sinc(8)
    d = _unit_phases(r.n, 5)
    rotated = d[:, None] * r.entries * d.conj()[None, :]  # D R D^H, same spectrum
    assert not _checked_entries(rotated.copy())[1]
    c = CorrelationMatrix(rotated)
    assert_spectrum_matches_fresh_eigvalsh(c)
    tol = 1e-12 * r.eig_range[1]
    assert abs(c.eig_range[0] - r.eig_range[0]) <= tol and abs(c.eig_range[1] - r.eig_range[1]) <= tol
    d2 = _unit_phases(2, 6)
    with pytest.raises(NotPositiveSemidefiniteError):
        CorrelationMatrix(d2[:, None] * np.array([[1.0, 2.0], [2.0, 1.0]]) * d2.conj()[None, :])


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.0, 0.5], [0.5 + 2 * HERMITIAN_ATOL, 1.0]]),
        np.array([[1.0, 0.3 + 0.2j], [0.3 + 0.2j, 1.0]]),  # real part symmetric
        np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j + 2 * HERMITIAN_ATOL, 1.0]]),
    ],
    ids=["real-at-tolerance", "complex", "complex-at-tolerance"],
)
def test_non_hermitian_rejected_by_either_route(m):
    with pytest.raises(DomainError, match="^correlation matrix is not Hermitian$"):
        CorrelationMatrix(m)
    m[1, 0] = np.conj(m[0, 1]) + 0.5 * HERMITIAN_ATOL  # within the tolerance
    CorrelationMatrix(m)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_entries_are_a_private_read_only_copy(dtype):
    x = np.array(square_sinc(3).entries.real, dtype=dtype)
    r = CorrelationMatrix(x)
    assert r.entries.dtype == np.complex128 and not r.entries.flags.writeable
    assert np.array_equal(r.entries, np.asarray(x, np.complex128))
    assert r.entries.tobytes() == np.asarray(x, np.complex128).tobytes()
    x[0, 1] = x[1, 0] = 0.25
    assert r.entries[0, 1] != 0.25
    for beta in (1e-9, 7.0):
        scaled = scale_covariance(r, beta)
        assert scaled.entries.tobytes() == (beta * r.entries).tobytes()
        assert not scaled.entries.flags.writeable
