import math
import tracemalloc
import warnings

import numpy as np
import pytest

from irslink.correlation import (
    HERMITIAN_ATOL,
    PSD_RTOL,
    ArrayGeometry,
    CorrelationMatrix,
    _checked_entries,
    _distances,
    exponential_correlation,
    identity_correlation,
    matrix_sqrt,
    scale_covariance,
    sinc_correlation,
)
from irslink import validation
from irslink.errors import DomainError, NotPositiveSemidefiniteError
from irslink.phaseshift import Equal
from irslink.scenario import MODELS, PRESETS, load_scenario

from conftest import WAVELENGTH, square_sinc


def _all_positions(geometry: ArrayGeometry) -> np.ndarray:
    """Element i (0-based, rows first) sits at [0, (i mod n_h) d_h, floor(i / n_h) d_v] meters."""
    i = np.arange(geometry.n)
    return np.stack(
        [np.zeros(geometry.n), (i % geometry.n_h) * geometry.d_h, (i // geometry.n_h) * geometry.d_v],
        axis=1,
    )


def test_element_positions():
    # The layout the sinc model uses: rows of n_h elements, 0-based.
    g = ArrayGeometry(2, 2, 1.0, 1.0, 1.0)
    assert np.array_equal(_all_positions(g)[0], [0.0, 0.0, 0.0])
    assert np.array_equal(_all_positions(g)[1], [0.0, 1.0, 0.0])
    g2 = ArrayGeometry(2, 2, 0.5, 0.25, 1.0)
    # hand evaluation of the mod/floor layout for the last element
    assert np.array_equal(_all_positions(g2)[3], [0.0, 0.5, 0.25])


# Odd sizes up to 33 and two even ones: 324 geometries, 1 to 1089 elements.
_SIDES = [1, 2] + list(range(3, 34, 2))


def test_distances_equal_the_norm_of_the_position_differences():
    """The per-axis build gives the 3-D norm of the position differences, bit for bit."""
    for n_h in _SIDES:
        for n_v in _SIDES:
            g = ArrayGeometry(n_h, n_v, 0.0125, 0.0071, 0.1)
            pos = _all_positions(g)
            want = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
            assert _distances(g).tobytes() == want.tobytes(), (n_h, n_v)


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


# Each construction route: the checked constructor, a model builder, and scale_covariance's object.__new__.
FACTOR_ROUTES = {
    "constructor": lambda: CorrelationMatrix(np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])),
    "sinc": lambda: square_sinc(4),
    "exponential": lambda: exponential_correlation(9, 0.9),
    "scaled": lambda: scale_covariance(square_sinc(4), 3e-9),
}


@pytest.mark.parametrize("route", FACTOR_ROUTES)
def test_a_matrix_is_factored_once(route, monkeypatch):
    r = FACTOR_ROUTES[route]()
    assert r._factor is None
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    factor = matrix_sqrt(r)
    assert matrix_sqrt(r) is factor and len(calls) == 1
    assert not factor.flags.writeable
    # The held factor has the bits of a fresh one on a new matrix with the same entries.
    fresh = CorrelationMatrix(r.entries.copy())
    assert matrix_sqrt(fresh) is not factor
    assert matrix_sqrt(fresh).tobytes() == factor.tobytes() and len(calls) == 2


def test_a_failed_factor_is_not_kept():
    r = identity_correlation(2)
    object.__setattr__(r, "entries", np.array([[1.0, 2.0], [2.0, 1.0]]))
    for _ in range(2):
        with pytest.raises(NotPositiveSemidefiniteError):
            matrix_sqrt(r)
    assert r._factor is None


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
    assert _checked_entries(r.entries)[0].dtype == np.float64
    assert_spectrum_matches_fresh_eigvalsh(r)


def _unit_phases(n, seed):
    return np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, n))


def test_complex_hermitian_takes_complex_route():
    r = square_sinc(8)
    d = _unit_phases(r.n, 5)
    rotated = d[:, None] * r.entries * d.conj()[None, :]  # D R D^H, same spectrum
    assert _checked_entries(rotated)[0].dtype == np.complex128
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
    # A real matrix, also one given as complex with zero imaginary parts, is held as float64.
    x = np.array(square_sinc(3).entries, dtype=dtype)
    r = CorrelationMatrix(x)
    assert r.entries.dtype == np.float64 and not r.entries.flags.writeable
    assert r.entries.tobytes() == x.real.tobytes()
    x[0, 1] = x[1, 0] = 0.25
    assert r.entries[0, 1] != 0.25
    for beta in (1e-9, 7.0):
        scaled = scale_covariance(r, beta)
        assert scaled.entries.dtype == np.complex128
        assert scaled.entries.tobytes() == (beta * r.entries.astype(np.complex128)).tobytes()
        assert not scaled.entries.flags.writeable


@pytest.mark.parametrize("given", [[[2, 1], [1, 2]], np.array([[2, 1], [1, 2]], dtype=np.float32), [[True, False], [False, True]]], ids=["ints", "float32", "bools"])
def test_other_real_input_is_held_as_float64(given):
    r = CorrelationMatrix(given)
    assert r.entries.dtype == np.float64 and not r.entries.flags.writeable
    assert r.entries.tolist() == np.asarray(given, dtype=np.float64).tolist()


def test_a_complex_matrix_is_held_as_complex128():
    x = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    r = CorrelationMatrix(x)
    assert r.entries.dtype == np.complex128 and not r.entries.flags.writeable
    assert r.entries.tobytes() == x.tobytes()
    x[0, 1] = 0.25
    assert r.entries[0, 1] != 0.25
    for beta in (1e-9, 7.0):
        assert scale_covariance(r, beta).entries.tobytes() == (beta * r.entries).tobytes()


def _bits(a: np.ndarray) -> np.ndarray:
    """The bytes of a float64 or complex128 array as int64s, which tell -0.0 from 0.0 and compare NaNs."""
    return np.ascontiguousarray(a).view(np.int64)


# The real models at N = 1, 16, 196 and 400: sinc at a quarter wavelength has
# negative entries, the exponential model at magnitude 0.1 has subnormals and
# zeros at N = 400 (0.1^k is subnormal from k = 308 and zero past k = 323),
# and the identity has zeros.
REAL_MODELS = {
    f"{name}-{side * side}": build
    for side in (1, 4, 14, 20)
    for name, build in (
        ("sinc", lambda side=side: square_sinc(side, 0.25)),
        ("exponential", lambda side=side: exponential_correlation(side * side, 0.1)),
        ("identity", lambda side=side: identity_correlation(side * side)),
    )
}


@pytest.mark.parametrize("beta", [1e-9, 7.0])
@pytest.mark.parametrize("model", REAL_MODELS)
def test_a_scaled_real_model_has_the_bytes_of_its_scaled_complex_copy(model, beta):
    r = REAL_MODELS[model]()
    assert r.entries.dtype == np.float64
    scaled = scale_covariance(r, beta)
    assert scaled.entries.dtype == np.complex128
    assert np.array_equal(_bits(scaled.entries), _bits(beta * r.entries.astype(np.complex128)))


@pytest.mark.parametrize("model", [m for m in REAL_MODELS if not m.endswith("-400")])
def test_a_real_model_factors_as_its_complex_copy(model):
    r = REAL_MODELS[model]()
    copy = scale_covariance(r, 1.0)  # complex128, with r's values and +0.0 imaginary parts
    assert np.array_equal(_bits(copy.entries), _bits(r.entries.astype(np.complex128)))
    assert np.array_equal(_bits(matrix_sqrt(r)), _bits(matrix_sqrt(copy)))


def test_a_real_model_is_held_in_8_n_squared_bytes_and_traced_with_no_complex_copy():
    """An N x N complex128 array is 16 N^2 bytes.  At N = 400 the sinc build's
    own float64 arrays peak near 24.4 N^2 (the distances, their sinc and one
    working copy) and Equal's traces near 16.4 N^2 (two float64 buffers); a
    complex copy of the model lifts the build to 32 N^2 and the traces to
    32.8 N^2, and holds 16 N^2."""
    n = 400
    tracemalloc.start()
    try:
        r = validation._sinc_square(20)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        Equal(0.0).cascade_moments(r, r)
        traces_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert r.n == n and r.entries.dtype == np.float64 and r.entries.nbytes == 8 * n * n
    assert held < 9 * n * n
    assert build_peak < 28 * n * n
    assert traces_peak < 24 * n * n


def test_empty_matrix_rejected_at_the_shape_check():
    for empty in (np.empty((0, 0)), np.empty((0, 0), dtype=complex), []):
        with pytest.raises(DomainError, match="must be square and non-empty"):
            CorrelationMatrix(empty)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: exponential_correlation(2.5, 0.5), "n"),
        (lambda: exponential_correlation(True, 0.5), "n"),
        (lambda: exponential_correlation(0, 0.5), "n"),
        (lambda: exponential_correlation("3", 0.5), "n"),
        (lambda: identity_correlation(2.5), "n"),
        (lambda: identity_correlation(np.float64(3.0)), "n"),
        (lambda: identity_correlation(-1), "n"),
        (lambda: ArrayGeometry(2.5, 2, 1.0, 1.0, 1.0), "n_h"),
        (lambda: ArrayGeometry(2, False, 1.0, 1.0, 1.0), "n_v"),
        (lambda: ArrayGeometry(2, 0, 1.0, 1.0, 1.0), "n_v"),
        (lambda: ArrayGeometry(2, 2, _NAN, 1.0, 1.0), "d_h"),
        (lambda: ArrayGeometry(2, 2, 1.0, _INF, 1.0), "d_v"),
        (lambda: ArrayGeometry(2, 2, 1.0, 1.0, -1.0), "wavelength"),
        (lambda: ArrayGeometry(2, 2, 1.0, 1.0, True), "wavelength"),
        (lambda: ArrayGeometry(2, 2, "1", 1.0, 1.0), "d_h"),
    ],
)
def test_bad_counts_and_sizes_rejected_by_name(build, name):
    with pytest.raises(DomainError, match=f"^{name} must be "):
        build()


def test_numpy_counts_and_integer_sizes_accepted():
    assert identity_correlation(np.int64(3)).n == 3
    assert exponential_correlation(np.int32(4), 0.5).n == 4
    assert ArrayGeometry(np.int64(2), 3, 1, np.float32(0.5), 2).n == 6


@pytest.mark.parametrize("beta", [_NAN, _INF, -_INF, 0.0, -1.0])
def test_scale_covariance_names_a_bad_gain_without_warnings(beta):
    r = square_sinc(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^large-scale gain must be positive and finite, got {beta}$"):
            scale_covariance(r, beta)


# Matrices accepted near the Hermitian tolerance, as in
# test_non_hermitian_rejected_by_either_route.  With max|R| < 1 the scaled test
# max(1, beta max|R|) is stricter for beta > 1; the last two overflow at large beta.
_NEAR_TOLERANCE = {
    "real-within": np.array([[1.0, 0.5], [0.5 + 0.5 * HERMITIAN_ATOL, 1.0]]),
    "complex-within": np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j + 0.5 * HERMITIAN_ATOL, 1.0]]),
    "small-real": np.array([[0.5, 0.25], [0.25 + 0.8 * HERMITIAN_ATOL, 0.5]]),
    "small-complex": np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j + 0.8 * HERMITIAN_ATOL, 0.5]]),
    "huge-real": 1e300 * np.array([[1.0, 0.5], [0.5, 1.0]]),
    "huge-complex": 1e300 * np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]]),
}


def _accepts(check) -> bool:
    try:
        check()
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("beta", [1e-14, 3e-3, 1.5, 7.0, 1e9])
@pytest.mark.parametrize("name", sorted(_NEAR_TOLERANCE))
def test_scaled_verdict_is_the_check_of_the_scaled_matrix(name, beta):
    r = CorrelationMatrix(_NEAR_TOLERANCE[name])
    with np.errstate(over="ignore", invalid="ignore"):
        fresh = _accepts(lambda: _checked_entries(beta * r.entries))
    assert _accepts(lambda: scale_covariance(r, beta)) == fresh


def test_scaled_verdicts_cover_both_outcomes():
    verdicts = {
        (name, beta): _accepts(lambda: scale_covariance(CorrelationMatrix(m), beta))
        for name, m in _NEAR_TOLERANCE.items()
        for beta in (1e-14, 3e-3, 1.5, 7.0, 1e9)
    }
    assert not verdicts["small-real", 1.5] and verdicts["small-real", 3e-3]
    assert not verdicts["small-complex", 7.0] and verdicts["real-within", 1e9]
    assert not verdicts["huge-real", 1e9] and verdicts["huge-real", 1.5]
    with pytest.raises(DomainError, match="^correlation matrix scaled by the large-scale gain 1.5 is not Hermitian$"):
        scale_covariance(CorrelationMatrix(_NEAR_TOLERANCE["small-real"]), 1.5)
    with pytest.raises(DomainError, match="^large-scale gain 1000000000.0 overflows"):
        scale_covariance(CorrelationMatrix(_NEAR_TOLERANCE["huge-complex"]), 1e9)


@pytest.mark.parametrize("model", MODELS)
def test_hermitian_numbers_are_kept_and_scaled(model):
    r = load_scenario("fig2b").with_model(model).correlation_model()
    assert r.hermitian_residual == 0.0  # the built-in models are exactly symmetric
    assert r.max_abs == float(np.max(np.abs(r.entries)))
    s = scale_covariance(r, 3e-9)
    assert (s.hermitian_residual, s.max_abs) == (0.0, 3e-9 * r.max_abs)
    c = CorrelationMatrix(_NEAR_TOLERANCE["complex-within"])
    assert c.hermitian_residual == float(np.max(np.abs(c.entries - c.entries.conj().T))) > 0.0
