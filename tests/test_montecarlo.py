import math

import numpy as np
import pytest

from irslink.closedform import SystemParameters, gain_moments, snr_threshold
from irslink.correlation import ArrayGeometry, CorrelationMatrix, matrix_sqrt
from irslink.errors import DomainError
from irslink.montecarlo import (
    ChannelRealization,
    McEstimate,
    cophased_phases,
    effective_gain,
    estimate_outage,
    gain_samples,
    outage_counts,
    sample_channels,
    sample_gain_moments,
)
from irslink.phaseshift import Equal, Fixed, OptimalCsi, UniformRandom, phase_vector

from conftest import WAVELENGTH, square_sinc

GEOMETRY = ArrayGeometry(2, 1, 0.0025, 0.0025, WAVELENGTH)


def zeros(n):
    return CorrelationMatrix(np.zeros((n, n)))


def direct_params(xi=1.0, beta_sd=1.0):
    return SystemParameters(
        beta_sd=beta_sd, beta_sr=1.0, beta_rd=1.0, rho=1.0, sigma2=1.0, xi=xi,
        geometry=GEOMETRY,
    )


def test_direct_channel_power(heavy_mc):
    # E|h_sd|^2 = beta_sd; one CN(0,1) power has unit variance
    trials = heavy_mc["trials"]
    se = 1.0 / math.sqrt(trials)
    assert abs(heavy_mc["hsd_power_mean"] - heavy_mc["beta_sd"]) <= 3 * se


def test_sample_covariance_converges(heavy_mc):
    r = heavy_mc["r"].entries
    trials = heavy_mc["cov_trials"]
    diag = np.sqrt(np.diag(r).real)
    se = np.outer(diag, diag) / math.sqrt(trials)  # var of each entry is R_nn R_mm
    assert np.all(np.abs(heavy_mc["cov"] - r) <= 5 * se)


def test_blocked_direct_channel_is_exactly_zero():
    factor = matrix_sqrt(square_sinc(2))
    ch = sample_channels(0.0, factor, factor, 5, 0)
    assert ch.h_sd == 0


def test_sample_channels_deterministic_per_trial():
    factor = matrix_sqrt(square_sinc(2))
    a = sample_channels(1.0, factor, factor, 42, 7)
    b = sample_channels(1.0, factor, factor, 42, 7)
    assert a.h_sd == b.h_sd
    assert np.array_equal(a.h_sr, b.h_sr)
    assert np.array_equal(a.h_rd, b.h_rd)
    c = sample_channels(1.0, factor, factor, 42, 8)
    assert not np.allclose(a.h_sr, c.h_sr)


def test_effective_gain_single_element_modulus_invariance():
    ch = ChannelRealization(h_sd=0j, h_sr=np.array([1.0 + 0j]), h_rd=np.array([1.0 + 0j]))
    for theta in (0.0, 0.4, -2.0):
        assert effective_gain(ch, np.array([np.exp(1j * theta)])) == pytest.approx(1.0)


def test_effective_gain_real_reduction():
    h_sr = np.array([0.5, -1.0, 2.0]).astype(complex)
    h_rd = np.array([1.5, 0.25, -0.5]).astype(complex)
    ch = ChannelRealization(h_sd=0.3 + 0j, h_sr=h_sr, h_rd=h_rd)
    expected = (0.3 + np.sum(h_sr.real * h_rd.real)) ** 2
    assert effective_gain(ch, np.ones(3)) == pytest.approx(expected, rel=1e-14)


def test_effective_gain_dimension_mismatch():
    ch = ChannelRealization(h_sd=0j, h_sr=np.ones(3, dtype=complex), h_rd=np.ones(3, dtype=complex))
    with pytest.raises(DomainError):
        effective_gain(ch, np.ones(4))


def test_cophasing_real_positive_channels():
    ch = ChannelRealization(
        h_sd=2.0 + 0j,
        h_sr=np.array([1.0, 0.5, 2.0], dtype=complex),
        h_rd=np.array([0.25, 1.0, 1.5], dtype=complex),
    )
    assert np.allclose(cophased_phases(ch), np.ones(3))


def test_cophasing_reaches_triangle_bound():
    factor = matrix_sqrt(square_sinc(4))  # hits the rank-deficient factor path too
    for trial in range(20):
        ch = sample_channels(0.8, factor, factor, 31, trial)
        phases = cophased_phases(ch)
        amplitude = abs(ch.h_sd + np.sum(np.conj(ch.h_sr) * phases * ch.h_rd))
        bound = abs(ch.h_sd) + np.sum(np.abs(ch.h_sr) * np.abs(ch.h_rd))
        assert amplitude == pytest.approx(bound, rel=1e-9)


def test_cophasing_blocked_single_element():
    ch = ChannelRealization(
        h_sd=0j, h_sr=np.array([0.4 + 0.3j]), h_rd=np.array([-0.2 + 0.9j])
    )
    gain = effective_gain(ch, cophased_phases(ch))
    assert gain == pytest.approx((abs(ch.h_sr[0]) * abs(ch.h_rd[0])) ** 2, rel=1e-12)


def test_cophasing_dominates_every_fixed_design():
    gen = np.random.default_rng(99)
    factor = matrix_sqrt(square_sinc(3))  # 9 elements
    designs = [gen.uniform(-np.pi, np.pi, 9) for _ in range(100)]
    for trial in range(1000):
        ch = sample_channels(0.5, factor, factor, 77, trial)
        best = effective_gain(ch, cophased_phases(ch))
        for thetas in designs:
            assert best >= effective_gain(ch, np.exp(1j * thetas)) - 1e-12 * best


def test_estimate_outage_direct_only_matches_exponential_law():
    p = direct_params(xi=1.0)
    est = estimate_outage(p, zeros(2), zeros(2), Equal(0.0), 100_000, seed=3)
    exact = 1.0 - math.exp(-snr_threshold(p))
    assert abs(est.p_hat - exact) <= 3 * est.std_err
    assert est.trials == 100_000
    assert est.failures == round(est.p_hat * est.trials)


def test_estimate_outage_bit_identical_reruns():
    p = direct_params(xi=0.5)
    r = square_sinc(2)
    a = estimate_outage(p, r, r, UniformRandom(4), 5_000, seed=11)
    b = estimate_outage(p, r, r, UniformRandom(4), 5_000, seed=11)
    assert a == b


def test_engine_matches_public_per_trial_ops():
    """gain_samples must reproduce the chained public operations bit for bit."""
    r = square_sinc(2)
    factor = matrix_sqrt(r)
    for design in (Equal(0.7), Fixed(np.linspace(-3, 3, 4)), UniformRandom(5), OptimalCsi()):
        engine = gain_samples(0.5, r, r, design, 300, seed=9)
        manual = np.empty(300)
        for i in range(300):
            ch = sample_channels(0.5, factor, factor, 9, i)
            if isinstance(design, OptimalCsi):
                phases = cophased_phases(ch)
            else:
                phases = phase_vector(design, 4, draw_index=i)
            manual[i] = effective_gain(ch, phases)
        assert np.array_equal(engine, manual)


def _all_designs(n):
    return (Equal(0.7), Fixed(np.linspace(-3, 3, n)), UniformRandom(5), OptimalCsi())


@pytest.mark.parametrize("side", [1, 2, 8])  # N = 1, 4, 64
def test_block_boundaries_keep_runs_prefixes(side):
    r = square_sinc(side)
    for design in _all_designs(r.n):
        full = gain_samples(0.5, r, r, design, 200, seed=13)
        for trials in (1, 63, 64, 65, 131):
            assert np.array_equal(gain_samples(0.5, r, r, design, trials, seed=13), full[:trials])


@pytest.mark.parametrize("side", [1, 2, 8])
def test_per_trial_ops_match_partial_blocks(side):
    """First and last trial of a partial trailing block, including a one-trial block."""
    r = square_sinc(side)
    factor = matrix_sqrt(r)
    for design in _all_designs(r.n):
        for trials in (65, 131):
            gains = gain_samples(0.5, r, r, design, trials, seed=13)
            for i in (trials - trials % 64, trials - 1):
                ch = sample_channels(0.5, factor, factor, 13, i)
                if isinstance(design, OptimalCsi):
                    phases = cophased_phases(ch)
                else:
                    phases = phase_vector(design, r.n, draw_index=i)
                assert effective_gain(ch, phases) == gains[i]


def test_outage_counts_match_strict_inequality():
    gains = np.array([0.5, 2.0, 1.0, 1.0, 3.0])
    z = np.array([0.0, 0.5, 1.0, 1.5, 3.0, 4.0])
    assert outage_counts(gains, z).tolist() == [int(np.count_nonzero(gains < zv)) for zv in z]
    assert outage_counts(gains, 1.0) == 1


def test_trials_are_order_independent_units():
    # a shorter run is a strict prefix of a longer one
    r = square_sinc(2)
    long = gain_samples(0.5, r, r, UniformRandom(5), 400, seed=9)
    short = gain_samples(0.5, r, r, UniformRandom(5), 40, seed=9)
    assert np.array_equal(long[:40], short)


def test_uniform_design_worse_than_equal_when_blocked():
    from irslink.scenario import load_scenario
    from dataclasses import replace

    sc = replace(load_scenario("fig2b"), n_h=8, n_v=8)
    r_sr, r_rd = sc.covariances()
    params = sc.system_parameters(0.002)
    z = snr_threshold(params)
    trials = 20_000
    estimates = {}
    for name, design in [("equal", Equal(np.pi / 4)), ("uniform", UniformRandom(6))]:
        gains = gain_samples(0.0, r_sr, r_rd, design, trials, seed=14)
        failures = int(np.count_nonzero(gains < z))
        estimates[name] = McEstimate.from_counts(trials, failures)
    gap = estimates["uniform"].p_hat - estimates["equal"].p_hat
    combined = math.hypot(estimates["uniform"].std_err, estimates["equal"].std_err)
    assert gap > 4 * combined


def test_sample_moments_direct_only_exponential():
    p = direct_params()
    m = sample_gain_moments(p, zeros(2), zeros(2), Equal(0.0), 100_000, seed=8)
    assert abs(m.mean - 1.0) <= 3 * m.se_mean
    assert abs(m.variance - 1.0) <= 3 * m.se_variance


def test_sample_moments_match_closed_form(heavy_mc):
    """Mean, variance and the four-term second moment at one million trials."""
    r = heavy_mc["r"]
    p = SystemParameters(
        beta_sd=heavy_mc["beta_sd"], beta_sr=1.0, beta_rd=1.0, rho=1.0, sigma2=1.0,
        xi=1.0, geometry=ArrayGeometry(4, 4, 0.0025, 0.0025, WAVELENGTH),
    )
    m = sample_gain_moments(p, r, r, Equal(np.pi / 4), heavy_mc["trials"], heavy_mc["seed"])
    assert np.array_equal(
        m.mean, heavy_mc["gains"].mean()
    ), "fixture and op must draw identical trials"
    mean, var = gain_moments(heavy_mc["beta_sd"], r, r, heavy_mc["phases"])
    assert abs(m.mean - mean) <= 3 * m.se_mean
    assert abs(m.variance - var) <= 3 * m.se_variance
    # raw second moment against the four-term expansion
    from irslink.phaseshift import cascade_traces

    t1, t2 = cascade_traces(r, r, heavy_mc["phases"])
    beta = heavy_mc["beta_sd"]
    second = 2 * beta**2 + 4 * beta * t1 + 2 * t1**2 + 2 * t2
    assert abs(m.second_moment - second) <= 3 * m.se_second_moment


def test_mc_estimate_bounds():
    est = McEstimate.from_counts(100, 0)
    assert est.p_hat == 0.0 and est.std_err == 0.0
    est = McEstimate.from_counts(100, 100)
    assert est.p_hat == 1.0 and est.std_err == 0.0


def test_invalid_trial_counts():
    r = square_sinc(2)
    with pytest.raises(DomainError):
        gain_samples(0.5, r, r, Equal(0.0), 0, seed=1)
    with pytest.raises(DomainError):
        sample_gain_moments(direct_params(), r, r, Equal(0.0), 1, seed=1)


def test_channel_realization_validation():
    with pytest.raises(DomainError):
        ChannelRealization(h_sd=0j, h_sr=np.ones(3, dtype=complex), h_rd=np.ones(2, dtype=complex))
    with pytest.raises(DomainError):
        ChannelRealization(
            h_sd=complex(np.nan), h_sr=np.ones(2, dtype=complex), h_rd=np.ones(2, dtype=complex)
        )
