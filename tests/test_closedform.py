import math
from dataclasses import replace

import numpy as np
import pytest

from irslink.closedform import GammaParams, _moments, gamma_fit, outage_probability
from irslink.correlation import ArrayGeometry, CorrelationMatrix, scale_covariance
from irslink.errors import DegenerateScenarioError, DomainError, ScenarioFormatError
from irslink.phaseshift import (
    Equal,
    Fixed,
    UniformRandom,
    cascade_traces,
    phase_vector,
)
from irslink.scenario import load_scenario, scenario_from_dict
from irslink.units import db_to_linear, dbm_to_watts
from irslink.validation import outage_scale_sensitivity, uniform_phase_trace_moments_by_sums

from test_scenario import make


def scalar_matrix(value, n):
    return CorrelationMatrix(value * np.eye(n))


def zeros(n):
    return CorrelationMatrix(np.zeros((n, n)))


def moments_at(beta_sd, r_sr, r_rd, phases):
    """The gain's (mean, variance) at one phase vector: its cascade traces, then _moments."""
    t1, t2 = cascade_traces(r_rd, r_sr, phases)
    return _moments(beta_sd, t1, t1 * t1, t2)


# --- SNR threshold ----------------------------------------------------------


def test_threshold_unit_case():
    assert replace(load_scenario("fig2a"), rho_dbm=33.0, sigma2_dbm=33.0).snr_threshold(1.0) == 1.0


def test_threshold_zero_rate():
    assert load_scenario("fig2a").snr_threshold(0.0) == 0.0


def test_threshold_over_a_rate_grid():
    # One formula for both callers: an array of rates in numpy arithmetic, a
    # float rate in float arithmetic, so each caller's z keeps its bytes.
    sc = replace(load_scenario("fig2a"), rho_dbm=34.0, sigma2_dbm=28.5)
    rho, sigma2 = dbm_to_watts(34.0), dbm_to_watts(28.5)
    xi = np.linspace(0.0, 8.0, 33)
    assert np.array_equal(sc.snr_threshold(xi), sigma2 * (2.0**xi - 1.0) / rho)
    for x in (0.25, 2.0, 7.75):
        z = sc.snr_threshold(x)
        assert type(z) is float and z == sigma2 * (2.0**x - 1.0) / rho


def test_threshold_link_budget_values():
    sc = load_scenario("fig2a")  # rho 8 dBm, sigma2 -94 dBm
    assert sc.snr_threshold(2.0) == pytest.approx(3.0 * 10 ** (-10.2), rel=1e-12)


# The link constants enter through the scenario schema, which names the key.
SCHEMA_KEY = {"beta_sd": "beta_sd_db", "rho": "rho_dbm", "sigma2": "sigma2_dbm", "xi": "xi_min"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["beta_sd", "rho", "sigma2", "xi"])
def test_non_finite_parameters_rejected(key, value):
    with pytest.raises(ScenarioFormatError, match=f"^{SCHEMA_KEY[key]}: must be finite"):
        scenario_from_dict(make(**{SCHEMA_KEY[key]: value}))


# --- Moments and Gamma fits ---------------------------------------------------


def test_moments_direct_channel_only():
    mean, var = moments_at(1.0, zeros(2), zeros(2), np.ones(2))
    assert (mean, var) == (1.0, 1.0)


def test_moments_uncorrelated_scalar_matrices():
    a, b, n = 0.6, 1.7, 8
    beta = 0.9
    phases = phase_vector(UniformRandom(12), n)
    mean, var = moments_at(beta, scalar_matrix(a, n), scalar_matrix(b, n), phases)
    t1, t2 = n * a * b, n * a * a * b * b
    assert mean == pytest.approx(beta + t1, rel=1e-12)
    assert var == pytest.approx(beta**2 + 2 * beta * t1 + t1**2 + 2 * t2, rel=1e-12)


def test_moments_match_monte_carlo(heavy_mc):
    """Sample mean, variance and raw second moment of one million trials agree with the closed form."""
    mean, var = moments_at(
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
    # The raw second moment against the four-term expansion.
    t1, t2 = cascade_traces(heavy_mc["r"], heavy_mc["r"], heavy_mc["phases"])
    beta = heavy_mc["beta_sd"]
    second = 2 * beta**2 + 4 * beta * t1 + 2 * t1**2 + 2 * t2
    se_second = np.std(gains**2, ddof=1) / math.sqrt(n)
    assert abs(np.mean(gains**2) - second) <= 3 * se_second


def test_gamma_fit_direct_only_is_exponential():
    gp = gamma_fit(1.0, zeros(2), zeros(2), Fixed(np.zeros(2)))
    assert (gp.shape, gp.scale) == (1.0, 1.0)


def test_gamma_fit_degenerate_rejected():
    with pytest.raises(DegenerateScenarioError):
        gamma_fit(0.0, zeros(3), zeros(3), Fixed(np.zeros(3)))
    with pytest.raises(DegenerateScenarioError):
        gamma_fit(0.0, zeros(3), zeros(3), Equal(0.0))


def test_gamma_fit_preserves_matched_moments():
    gen = np.random.default_rng(31)
    for n in (1, 2, 4, 16):
        g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
        r_sr = CorrelationMatrix(g @ g.conj().T / n)
        g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
        r_rd = CorrelationMatrix(g @ g.conj().T / n)
        beta = float(gen.uniform(0.0, 2.0))
        design = Fixed(gen.uniform(-np.pi, np.pi, n))
        mean, var = moments_at(beta, r_sr, r_rd, phase_vector(design, n))
        gp = gamma_fit(beta, r_sr, r_rd, design)
        assert gp.mean == pytest.approx(mean, rel=1e-12)
        assert gp.variance == pytest.approx(var, rel=1e-12)


def test_equal_phase_path_matches_general(sinc16):
    beta = 0.4
    for theta in np.linspace(-np.pi, np.pi, 7, endpoint=False):
        via_general = gamma_fit(beta, sinc16, sinc16, Fixed(np.full(16, theta)))
        via_equal = gamma_fit(beta, sinc16, sinc16, Equal(theta))
        assert via_general.shape == pytest.approx(via_equal.shape, rel=1e-12)
        assert via_general.scale == pytest.approx(via_equal.scale, rel=1e-12)


def test_equal_phase_uncorrelated_matches_scalar_formula():
    a, b, n = 1.3, 0.2, 5
    gp = gamma_fit(0.7, scalar_matrix(a, n), scalar_matrix(b, n), Equal(0.0))
    via_general = gamma_fit(0.7, scalar_matrix(a, n), scalar_matrix(b, n), Fixed(np.zeros(n)))
    assert gp == via_general


def test_equal_phase_two_element_hand_expansion():
    from irslink.correlation import sinc_correlation

    r = sinc_correlation(ArrayGeometry(2, 1, 0.0025, 0.0025, 0.1))
    rs = rd = r.entries.real
    t1_hand = sum(rd[i, j] * rs[j, i] for i in range(2) for j in range(2))
    prod = rd @ rs
    t2_hand = sum(prod[i, j] * prod[j, i] for i in range(2) for j in range(2))
    t1, _, t2 = Equal(0.0).cascade_moments(r, r)
    assert t1 == pytest.approx(t1_hand, rel=1e-14)
    assert t2 == pytest.approx(t2_hand, rel=1e-14)


def test_blocked_uncorrelated_fit_depends_only_on_size_and_gain_product():
    # with no direct channel, shape = N/(N+2) and scale = (N+2) a b
    for n in (1, 4, 9):
        for a, b in [(0.5, 2.0), (1.0, 1.0), (0.1, 30.0)]:
            gp = gamma_fit(0.0, scalar_matrix(a, n), scalar_matrix(b, n), Equal(0.0))
            assert gp.shape == pytest.approx(n / (n + 2), rel=1e-12)
            assert gp.scale == pytest.approx((n + 2) * a * b, rel=1e-12)


# --- Uniform-phase statistics -------------------------------------------------


def test_uniform_stats_single_element():
    r_sr, r_rd = scalar_matrix(0.8, 1), scalar_matrix(1.4, 1)
    mean_trace, mean_trace_sq, mean_quad_trace = UniformRandom(0).cascade_moments(r_sr, r_rd)
    nu = 0.8 * 1.4
    assert mean_trace == pytest.approx(nu, rel=1e-14)
    assert mean_trace_sq == pytest.approx(nu**2, rel=1e-14)
    assert mean_quad_trace == pytest.approx(nu**2, rel=1e-14)


def test_uniform_stats_uncorrelated():
    a, b, n = 0.6, 1.1, 7
    mean_trace, mean_trace_sq, mean_quad_trace = UniformRandom(0).cascade_moments(scalar_matrix(a, n), scalar_matrix(b, n))
    assert mean_trace == pytest.approx(n * a * b, rel=1e-13)
    assert mean_trace_sq == pytest.approx((n * a * b) ** 2, rel=1e-13)
    assert mean_quad_trace == pytest.approx(n * (a * b) ** 2, rel=1e-13)


def test_uniform_stats_dual_route(sinc16):
    matrix_form = UniformRandom(0).cascade_moments(sinc16, sinc16)
    sums = uniform_phase_trace_moments_by_sums(sinc16, sinc16)
    for got, ref in zip(matrix_form, sums, strict=True):
        assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2c"])
@pytest.mark.parametrize("model", ["sinc", "exponential", "uncorrelated"])
def test_uniform_stats_dual_route_at_physical_scale(preset, model):
    """At link-budget scale the traces are ~1e-14 and their squares ~1e-27,
    so only a relative tolerance can tell the two routes apart."""
    r_sr, r_rd = load_scenario(preset).with_model(model).covariances()
    matrix_form = UniformRandom(0).cascade_moments(r_sr, r_rd)
    sums = uniform_phase_trace_moments_by_sums(r_sr, r_rd)
    for field, got, ref in zip(("mean_trace", "mean_trace_sq", "mean_quad_trace"), matrix_form, sums, strict=True):
        assert 0.0 < abs(ref) < 1e-10
        assert abs(got - ref) <= 1e-11 * abs(ref), (field, got, ref)


def test_uniform_stats_match_phase_draws(sinc16):
    draws = 20_000
    design = UniformRandom(77)
    t_lin = np.empty(draws)
    t_quad = np.empty(draws)
    for i in range(draws):
        t_lin[i], t_quad[i] = cascade_traces(sinc16, sinc16, phase_vector(design, 16, i))
    mean_trace, mean_trace_sq, mean_quad_trace = design.cascade_moments(sinc16, sinc16)
    for sample, want in [
        (t_lin, mean_trace),
        (t_lin**2, mean_trace_sq),
        (t_quad, mean_quad_trace),
    ]:
        se = sample.std(ddof=1) / math.sqrt(draws)
        assert abs(sample.mean() - want) <= 4 * se


def test_uniform_fit_moment_preservation(sinc16):
    beta = 0.3
    gp = gamma_fit(beta, sinc16, sinc16, UniformRandom(0))
    mean_trace, mean_trace_sq, mean_quad_trace = UniformRandom(0).cascade_moments(sinc16, sinc16)
    mean = beta + mean_trace
    var = beta**2 + 2 * beta * mean_trace + mean_trace_sq + 2 * mean_quad_trace
    assert gp.mean == pytest.approx(mean, rel=1e-12)
    assert gp.variance == pytest.approx(var, rel=1e-12)


def test_uniform_fit_degenerate():
    with pytest.raises(DegenerateScenarioError):
        gamma_fit(0.0, zeros(2), zeros(2), UniformRandom(0))


# --- Outage probability and its sensitivity -----------------------------------


def test_outage_at_zero_threshold():
    assert outage_probability(GammaParams(0.7, 2.0), 0.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_outage_beyond_the_float_range_is_its_limit():
    # z / scale overflows to inf, where the lower incomplete gamma ratio is exactly 1.
    assert outage_probability(GammaParams(1.0, 1e-300), 1e300) == 1.0
    assert outage_probability(GammaParams(2.5, 1e-300), np.array([0.0, 1e300])).tolist() == [0.0, 1.0]


def test_a_gain_whose_variance_underflows_is_degenerate():
    # fig2c's model scaled by beta_sr = 1e-300, which the schema refuses: the
    # variance, about the mean squared, underflows to 0.
    sc = load_scenario("fig2c")
    r = sc.correlation_model()
    r_sr, r_rd = scale_covariance(r, 1e-300), scale_covariance(r, db_to_linear(sc.beta_rd_dhdv_db))
    with pytest.raises(DegenerateScenarioError, match="variance underflows to 0.0"):
        gamma_fit(sc.beta_sd, r_sr, r_rd, sc.design)


def test_small_gains_inside_the_normal_range_fit_the_same_shape():
    # With the direct link blocked the shape does not depend on the gain scale.
    base = load_scenario("fig2c")
    tiny = replace(base, beta_sr_dhdv_db=-760.0, beta_rd_dhdv_db=-760.0)
    want = gamma_fit(base.beta_sd, *base.covariances(), base.design).shape
    got = gamma_fit(tiny.beta_sd, *tiny.covariances(), tiny.design).shape
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_outage_exponential_point():
    assert outage_probability(GammaParams(1.0, 2.0), 2.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-13
    )


def test_outage_against_arbitrary_precision():
    # The regularized lower gamma P(a, x) that outage_probability evaluates, at scale 1.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    shapes = [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.7, 17.0, 210.0, 4321.0, 1e4]
    worst = 0.0
    for a in shapes:
        for x in [0.0, 1e-6, 0.08, 1.0, 9.5, 77.0, 1.1e3, 1e4, 0.5 * a, a, 1.7 * a]:
            ref = float(mp.gammainc(mp.mpf(a), 0, mp.mpf(x), regularized=True))
            got = outage_probability(GammaParams(a, 1.0), x)
            if ref > 1e-300:
                worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-12


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
    with pytest.raises(DomainError):
        GammaParams(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("which", ["shape", "scale"])
def test_non_finite_gamma_params_rejected(which, bad):
    with pytest.raises(DomainError, match="positive and finite"):
        GammaParams(**{"shape": 1.0, "scale": 1.0, which: bad})


@pytest.mark.parametrize("fit", ["fixed", "equal", "uniform"])
def test_each_fit_rejects_a_negative_or_nan_direct_gain(fit):
    r = scalar_matrix(0.5, 2)
    design = {
        "fixed": Fixed(np.zeros(2)),
        "equal": Equal(0.0),
        "uniform": UniformRandom(0),
    }[fit]
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^direct-link gain beta_sd must be nonnegative and finite, got {bad}$"):
            gamma_fit(bad, r, r, design)
