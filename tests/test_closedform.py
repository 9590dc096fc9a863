import math

import numpy as np
import pytest

from irslink.closedform import (
    GammaParams,
    SystemParameters,
    equal_phase_traces,
    gain_moments,
    gamma_fit,
    gamma_fit_equal_phase,
    gamma_fit_uniform_phase,
    outage_probability,
    outage_scale_sensitivity,
    regularized_upper_gamma,
    snr_threshold,
    uniform_phase_trace_moments,
    uniform_phase_trace_moments_by_sums,
)
from irslink.correlation import ArrayGeometry, CorrelationMatrix
from irslink.errors import DegenerateScenarioError, DomainError
from irslink.phaseshift import Equal, Fixed, UniformRandom, cascade_traces, phase_vector
from irslink.scenario import load_scenario
from irslink.units import db_to_linear, dbm_to_watts


def params(beta_sd=1.0, rho=1.0, sigma2=1.0, xi=1.0):
    return SystemParameters(beta_sd=beta_sd, rho=rho, sigma2=sigma2, xi=xi)


def scalar_matrix(value, n):
    return CorrelationMatrix(value * np.eye(n))


def zeros(n):
    return CorrelationMatrix(np.zeros((n, n)))


# --- SNR threshold ----------------------------------------------------------


def test_threshold_unit_case():
    assert snr_threshold(params(rho=2.0, sigma2=2.0, xi=1.0)) == 1.0


def test_threshold_zero_rate():
    assert snr_threshold(params(xi=0.0)) == 0.0


def test_threshold_over_a_rate_grid():
    # One formula for both callers: an array of rates in numpy arithmetic, a
    # float rate in float arithmetic, so each caller's z keeps its bytes.
    p = params(rho=3.0, sigma2=0.7, xi=0.0)
    xi = np.linspace(0.0, 8.0, 33)
    assert np.array_equal(snr_threshold(p, xi), p.sigma2 * (2.0**xi - 1.0) / p.rho)
    for x in (0.25, 2.0, 7.75):
        z = snr_threshold(params(rho=3.0, sigma2=0.7, xi=x))
        assert type(z) is float and z == 0.7 * (2.0**x - 1.0) / 3.0


def test_threshold_link_budget_values():
    p = SystemParameters(
        beta_sd=db_to_linear(-90.0),
        rho=dbm_to_watts(8.0),
        sigma2=dbm_to_watts(-94.0),
        xi=2.0,
    )
    assert snr_threshold(p) == pytest.approx(3.0 * 10 ** (-10.2), rel=1e-12)


def test_parameter_validation():
    with pytest.raises(DomainError):
        params(beta_sd=-0.1)
    with pytest.raises(DomainError):
        params(rho=0.0)
    with pytest.raises(DomainError):
        params(xi=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["beta_sd", "rho", "sigma2", "xi"])
def test_non_finite_parameters_rejected(key, value):
    with pytest.raises(DomainError, match="must be finite"):
        params(**{key: value})


# --- Regularized upper incomplete gamma -------------------------------------


def test_upper_gamma_at_zero():
    for a in (1e-3, 0.5, 1.0, 7.0, 1e4):
        assert regularized_upper_gamma(a, 0.0) == 1.0


def test_upper_gamma_exponential_case():
    assert regularized_upper_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_upper_gamma_integer_shape():
    # finite Poisson sum for integer shape
    assert regularized_upper_gamma(3.0, 2.0) == pytest.approx(5.0 * math.exp(-2.0), rel=1e-13)


def test_upper_gamma_domain():
    with pytest.raises(DomainError):
        regularized_upper_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        regularized_upper_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        regularized_upper_gamma(1.0, -0.5)


def test_upper_gamma_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    shapes = [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.7, 17.0, 210.0, 4321.0, 1e4]
    worst = 0.0
    for a in shapes:
        for x in [0.0, 1e-6, 0.08, 1.0, 9.5, 77.0, 1.1e3, 1e4, 0.5 * a, a, 1.7 * a]:
            ref = float(mp.gammainc(mp.mpf(a), mp.mpf(x), mp.inf, regularized=True))
            got = regularized_upper_gamma(a, x)
            if ref > 1e-300:
                worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-12


# --- Moments and Gamma fits ---------------------------------------------------


def test_moments_direct_channel_only():
    mean, var = gain_moments(1.0, zeros(2), zeros(2), np.ones(2))
    assert (mean, var) == (1.0, 1.0)


def test_moments_uncorrelated_scalar_matrices():
    a, b, n = 0.6, 1.7, 8
    beta = 0.9
    phases = phase_vector(UniformRandom(12), n)
    mean, var = gain_moments(beta, scalar_matrix(a, n), scalar_matrix(b, n), phases)
    t1, t2 = n * a * b, n * a * a * b * b
    assert mean == pytest.approx(beta + t1, rel=1e-12)
    assert var == pytest.approx(beta**2 + 2 * beta * t1 + t1**2 + 2 * t2, rel=1e-12)


def test_moments_match_monte_carlo(heavy_mc):
    """Sample mean/variance of one million trials agree with the closed form."""
    mean, var = gain_moments(
        heavy_mc["beta_sd"], heavy_mc["r"], heavy_mc["r"], heavy_mc["phases"]
    )
    gains = heavy_mc["gains"]
    n = gains.size
    sample_mean = gains.mean()
    sample_var = gains.var(ddof=1)
    se_mean = gains.std(ddof=1) / math.sqrt(n)
    m4 = np.mean((gains - sample_mean) ** 4)
    se_var = math.sqrt(max(m4 - sample_var**2, 0.0) / n)
    assert abs(sample_mean - mean) <= 3 * se_mean
    assert abs(sample_var - var) <= 3 * se_var


def test_gamma_fit_direct_only_is_exponential():
    gp = gamma_fit(1.0, zeros(2), zeros(2), np.ones(2))
    assert (gp.shape, gp.scale) == (1.0, 1.0)


def test_gamma_fit_degenerate_rejected():
    with pytest.raises(DegenerateScenarioError):
        gamma_fit(0.0, zeros(3), zeros(3), np.ones(3))
    with pytest.raises(DegenerateScenarioError):
        gamma_fit_equal_phase(0.0, zeros(3), zeros(3))


def test_gamma_fit_preserves_matched_moments():
    gen = np.random.default_rng(31)
    for n in (1, 2, 4, 16):
        g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
        r_sr = CorrelationMatrix(g @ g.conj().T / n)
        g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
        r_rd = CorrelationMatrix(g @ g.conj().T / n)
        beta = float(gen.uniform(0.0, 2.0))
        phases = phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n)
        mean, var = gain_moments(beta, r_sr, r_rd, phases)
        gp = gamma_fit(beta, r_sr, r_rd, phases)
        assert gp.mean == pytest.approx(mean, rel=1e-12)
        assert gp.variance == pytest.approx(var, rel=1e-12)


def test_equal_phase_path_matches_general(sinc16):
    beta = 0.4
    for theta in np.linspace(-np.pi, np.pi, 7, endpoint=False):
        via_general = gamma_fit(beta, sinc16, sinc16, phase_vector(Equal(theta), 16))
        via_equal = gamma_fit_equal_phase(beta, sinc16, sinc16)
        assert via_general.shape == pytest.approx(via_equal.shape, rel=1e-12)
        assert via_general.scale == pytest.approx(via_equal.scale, rel=1e-12)


def test_equal_phase_uncorrelated_matches_scalar_formula():
    a, b, n = 1.3, 0.2, 5
    gp = gamma_fit_equal_phase(0.7, scalar_matrix(a, n), scalar_matrix(b, n))
    via_general = gamma_fit(0.7, scalar_matrix(a, n), scalar_matrix(b, n), np.ones(n))
    assert gp == via_general


def test_equal_phase_two_element_hand_expansion():
    from irslink.correlation import sinc_correlation

    r = sinc_correlation(ArrayGeometry(2, 1, 0.0025, 0.0025, 0.1))
    rs = rd = r.entries.real
    t1_hand = sum(rd[i, j] * rs[j, i] for i in range(2) for j in range(2))
    prod = rd @ rs
    t2_hand = sum(prod[i, j] * prod[j, i] for i in range(2) for j in range(2))
    t1, t2 = equal_phase_traces(r, r)
    assert t1 == pytest.approx(t1_hand, rel=1e-14)
    assert t2 == pytest.approx(t2_hand, rel=1e-14)


def test_blocked_uncorrelated_fit_depends_only_on_size_and_gain_product():
    # with no direct channel, shape = N/(N+2) and scale = (N+2) a b
    for n in (1, 4, 9):
        for a, b in [(0.5, 2.0), (1.0, 1.0), (0.1, 30.0)]:
            gp = gamma_fit_equal_phase(0.0, scalar_matrix(a, n), scalar_matrix(b, n))
            assert gp.shape == pytest.approx(n / (n + 2), rel=1e-12)
            assert gp.scale == pytest.approx((n + 2) * a * b, rel=1e-12)


# --- Uniform-phase statistics -------------------------------------------------


def test_uniform_stats_single_element():
    r_sr, r_rd = scalar_matrix(0.8, 1), scalar_matrix(1.4, 1)
    m = uniform_phase_trace_moments(r_sr, r_rd)
    nu = 0.8 * 1.4
    assert m.mean_trace == pytest.approx(nu, rel=1e-14)
    assert m.mean_trace_sq == pytest.approx(nu**2, rel=1e-14)
    assert m.mean_quad_trace == pytest.approx(nu**2, rel=1e-14)


def test_uniform_stats_uncorrelated():
    a, b, n = 0.6, 1.1, 7
    m = uniform_phase_trace_moments(scalar_matrix(a, n), scalar_matrix(b, n))
    assert m.mean_trace == pytest.approx(n * a * b, rel=1e-13)
    assert m.mean_trace_sq == pytest.approx((n * a * b) ** 2, rel=1e-13)
    assert m.mean_quad_trace == pytest.approx(n * (a * b) ** 2, rel=1e-13)


def test_uniform_stats_dual_route(sinc16):
    matrix_form = uniform_phase_trace_moments(sinc16, sinc16)
    sums = uniform_phase_trace_moments_by_sums(sinc16, sinc16)
    for field in ("mean_trace", "mean_trace_sq", "mean_quad_trace"):
        assert getattr(matrix_form, field) == pytest.approx(getattr(sums, field), rel=1e-12)


@pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2c"])
@pytest.mark.parametrize("model", ["sinc", "exponential", "uncorrelated"])
def test_uniform_stats_dual_route_at_physical_scale(preset, model):
    """At link-budget scale the traces are ~1e-14 and their squares ~1e-27,
    so only a relative tolerance can tell the two routes apart."""
    r_sr, r_rd = load_scenario(preset).with_model(model).covariances()
    matrix_form = uniform_phase_trace_moments(r_sr, r_rd)
    sums = uniform_phase_trace_moments_by_sums(r_sr, r_rd)
    for field in ("mean_trace", "mean_trace_sq", "mean_quad_trace"):
        got, ref = getattr(matrix_form, field), getattr(sums, field)
        assert 0.0 < abs(ref) < 1e-10
        assert abs(got - ref) <= 1e-11 * abs(ref), (field, got, ref)


def test_uniform_stats_match_phase_draws(sinc16):
    draws = 20_000
    design = UniformRandom(77)
    t_lin = np.empty(draws)
    t_quad = np.empty(draws)
    for i in range(draws):
        t_lin[i], t_quad[i] = cascade_traces(sinc16, sinc16, phase_vector(design, 16, i))
    m = uniform_phase_trace_moments(sinc16, sinc16)
    for sample, want in [
        (t_lin, m.mean_trace),
        (t_lin**2, m.mean_trace_sq),
        (t_quad, m.mean_quad_trace),
    ]:
        se = sample.std(ddof=1) / math.sqrt(draws)
        assert abs(sample.mean() - want) <= 4 * se


def test_uniform_fit_moment_preservation(sinc16):
    beta = 0.3
    gp = gamma_fit_uniform_phase(beta, sinc16, sinc16)
    m = uniform_phase_trace_moments(sinc16, sinc16)
    mean = beta + m.mean_trace
    var = beta**2 + 2 * beta * m.mean_trace + m.mean_trace_sq + 2 * m.mean_quad_trace
    assert gp.mean == pytest.approx(mean, rel=1e-12)
    assert gp.variance == pytest.approx(var, rel=1e-12)


def test_uniform_fit_degenerate():
    with pytest.raises(DegenerateScenarioError):
        gamma_fit_uniform_phase(0.0, zeros(2), zeros(2))


# --- Outage probability and its sensitivity -----------------------------------


def test_outage_at_zero_threshold():
    assert outage_probability(GammaParams(0.7, 2.0), 0.0) == 0.0


def test_outage_exponential_point():
    assert outage_probability(GammaParams(1.0, 2.0), 2.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-13
    )


def test_outage_half_integer_erfc_identity():
    assert outage_probability(GammaParams(0.5, 1.0), 1.0) == pytest.approx(
        math.erf(1.0), rel=1e-13
    )


def test_outage_monotone_in_threshold_and_scale():
    gp = GammaParams(0.8, 1.5)
    zs = np.linspace(0.0, 20.0, 1000)
    p = [outage_probability(gp, z) for z in zs]
    assert np.all(np.diff(p) >= 0)
    ws = np.linspace(0.2, 10.0, 1000)
    pw = [outage_probability(GammaParams(0.8, w), 2.0) for w in ws]
    assert np.all(np.diff(pw) <= 0)


def test_sensitivity_exponential_shape():
    # shape 1 reduces to differentiating 1 - exp(-z/w)
    for w, z in [(1.0, 0.5), (2.0, 3.0), (0.3, 0.1)]:
        got = outage_scale_sensitivity(GammaParams(1.0, w), z)
        assert got == pytest.approx(-(z / w**2) * math.exp(-z / w), rel=1e-12)


def test_sensitivity_hand_value():
    assert outage_scale_sensitivity(GammaParams(2.0, 1.0), 1.0) == pytest.approx(
        -math.exp(-1.0), rel=1e-12
    )


def test_sensitivity_matches_finite_difference():
    for k, w, z in [(0.5, 1.0, 0.8), (3.0, 2.0, 5.0), (17.0, 0.4, 1.1)]:
        closed = outage_scale_sensitivity(GammaParams(k, w), z)
        h = 1e-6 * w
        fd = (
            outage_probability(GammaParams(k, w + h), z)
            - outage_probability(GammaParams(k, w - h), z)
        ) / (2 * h)
        assert closed == pytest.approx(fd, rel=1e-5)
        assert closed < 0


def test_sensitivity_domain():
    with pytest.raises(DomainError):
        outage_scale_sensitivity(GammaParams(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        outage_scale_sensitivity(GammaParams(1.0, 1.0), -1.0)


@pytest.mark.parametrize("z", [math.nan, np.array([0.5, math.nan]), np.array([-1.0, 2.0])])
def test_outage_rejects_nan_and_negative_thresholds(z):
    with pytest.raises(DomainError, match="SNR threshold"):
        outage_probability(GammaParams(1.0, 1.0), z)


def test_sensitivity_rejects_nan_threshold():
    with pytest.raises(DomainError, match="SNR threshold"):
        outage_scale_sensitivity(GammaParams(1.0, 1.0), math.nan)


def test_gamma_params_validated():
    with pytest.raises(DomainError):
        GammaParams(0.0, 1.0)
    with pytest.raises(DomainError):
        GammaParams(1.0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("which", ["shape", "scale"])
def test_non_finite_gamma_params_rejected(which, bad):
    with pytest.raises(DomainError, match="positive and finite"):
        GammaParams(**{"shape": 1.0, "scale": 1.0, which: bad})


@pytest.mark.parametrize("fit", ["fixed", "equal", "uniform"])
def test_each_fit_rejects_a_negative_or_nan_direct_gain(fit):
    r = scalar_matrix(0.5, 2)
    call = {
        "fixed": lambda b: gamma_fit(b, r, r, np.ones(2)),
        "equal": lambda b: gamma_fit_equal_phase(b, r, r),
        "uniform": lambda b: gamma_fit_uniform_phase(b, r, r),
    }[fit]
    for bad in (-0.1, math.nan):
        with pytest.raises(DomainError, match="direct-link gain"):
            call(bad)
