import math
import sys
import threading
import time

import numpy as np
import pytest

from irslink import montecarlo, rng
from irslink.correlation import CorrelationMatrix, matrix_sqrt
from irslink.errors import DomainError
from irslink.montecarlo import (
    ChannelRealization,
    EngineThreads,
    channel_blocks,
    cophased_phases,
    effective_gain,
    gain_samples,
    outage_rates,
    sample_channels,
)
from irslink.phaseshift import Equal, Fixed, OptimalCsi, UniformRandom, phase_vector

from conftest import square_sinc
from test_rng import reference

def zeros(n):
    return CorrelationMatrix(np.zeros((n, n)))


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


def _written_out_channels(beta_sd, l_sr, l_rd, seed, index):
    """The channels of trial ``index``, from a freshly keyed Philox with the draw layout written out."""
    n = l_sr.shape[0]
    u = reference(seed, rng.DOMAIN_CHANNEL, index).random(2 + 4 * n)
    # Box-Muller: radii from the first half of the uniforms, angles from the
    # second; cosines are normals 0..2N, sines the rest.
    pairs = 1 + 2 * n
    radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    angle = 2.0 * np.pi * u[pairs:]
    normals = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    h_sd = np.sqrt(beta_sd / 2.0) * (normals[0] + 1j * normals[1])
    # h_sr from the next 2N normals, h_rd from the last 2N: real parts, then imaginary parts.
    g_sr = (normals[2 : 2 + n] + 1j * normals[2 + n : 2 + 2 * n]) / np.sqrt(2.0)
    g_rd = (normals[2 + 2 * n : 2 + 3 * n] + 1j * normals[2 + 3 * n :]) / np.sqrt(2.0)
    # Each projected as a two-row product, never through the matrix-vector routine.
    h_sr = (np.stack((g_sr, g_sr)) @ l_sr.T)[0]
    h_rd = (np.stack((g_rd, g_rd)) @ l_rd.T)[0]
    return complex(h_sd), h_sr, h_rd


def _same_bits(got, want):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("side", [1, 2, 8])  # N = 1, 4, 64
def test_channel_draw_layout_is_pinned(side):
    """sample_channels and the block rows equal the written-out layout, bit for bit."""
    factor = matrix_sqrt(square_sinc(side))
    for index in (0, 63, 64, 2**128 - 1):
        ch = sample_channels(0.5, factor, factor, 13, index)
        want = _written_out_channels(0.5, factor, factor, 13, index)
        assert _same_bits((ch.h_sd, ch.h_sr, ch.h_rd), want), f"trial {index}"
    blocks = list(channel_blocks(0.5, factor, factor, 13, 0, 65))
    assert [block[0] for block in blocks] == [0, 64]  # trial 64 is a trailing block of one
    h_sd, h_sr, h_rd = (np.concatenate([block[k] for block in blocks]) for k in (1, 2, 3))
    for i in (0, 63, 64):
        want = _written_out_channels(0.5, factor, factor, 13, i)
        assert _same_bits((complex(h_sd[i]), h_sr[i], h_rd[i]), want), f"block row {i}"


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
    z = 2.0**1.0 - 1.0  # rho = sigma2 = 1, xi = 1
    gains = gain_samples(1.0, zeros(2), zeros(2), Equal(0.0), 100_000, seed=3)
    p_hat, std_err = outage_rates(gains, z)
    exact = 1.0 - math.exp(-z)
    assert abs(p_hat - exact) <= 3 * std_err
    assert round(p_hat * 100_000) == np.count_nonzero(gains < z)


def test_estimate_outage_bit_identical_reruns():
    z = 2.0**0.5 - 1.0  # rho = sigma2 = 1, xi = 0.5
    r = square_sinc(2)
    a = outage_rates(gain_samples(1.0, r, r, UniformRandom(4), 5_000, seed=11), z)
    b = outage_rates(gain_samples(1.0, r, r, UniformRandom(4), 5_000, seed=11), z)
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


@pytest.fixture
def workers(monkeypatch):
    """Force gain_samples onto w worker threads; records each range it runs as (first, stop, thread)."""
    ranges = []
    blocks = montecarlo.channel_blocks

    def recorded(beta_sd, l_sr, l_rd, seed, first, stop):
        ranges.append((first, stop, threading.get_ident()))
        return blocks(beta_sd, l_sr, l_rd, seed, first, stop)

    monkeypatch.setattr(montecarlo, "channel_blocks", recorded)

    def force(w):
        monkeypatch.setattr(montecarlo, "engine_threads", lambda: EngineThreads(w, 1, w))
        ranges.clear()
        return ranges

    return force


@pytest.mark.parametrize("side", [1, 4, 8])  # N = 1, 16, 64
def test_worker_count_does_not_change_gains(side, workers):
    r = square_sinc(side)
    for design in _all_designs(r.n):
        for trials in (1, 63, 64, 65, 129, 1000):
            workers(1)
            serial = gain_samples(0.5, r, r, design, trials, seed=21).tobytes()
            for w in (2, 3):
                ranges = workers(w)
                assert gain_samples(0.5, r, r, design, trials, seed=21).tobytes() == serial
                ranges.sort()
                assert len(ranges) == min(w, -(-trials // 64))
                assert ranges[0][0] == 0 and ranges[-1][1] == trials
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert all(first % 64 == 0 and first < stop for first, stop, _ in ranges)
                # the calling thread runs the first range, pool threads the others
                on_caller = [thread == threading.get_ident() for _, _, thread in ranges]
                assert on_caller == [True] + [False] * (len(ranges) - 1)


@pytest.mark.parametrize(
    "total, unit, w",
    [(1000, 64, 3), (1000, 256, 2), (10, 64, 3), (1, 256, 2), (130, 64, 8), (512, 256, 5), (64, 64, 1)],
    ids=["unit-does-not-divide", "unit-does-not-divide-256", "total-below-unit", "one", "w-above-units", "w-above-units-exact", "serial"],
)
def test_run_ranges_covers_the_total_once(total, unit, w, monkeypatch):
    monkeypatch.setattr(montecarlo, "engine_threads", lambda: EngineThreads(w, 1, w))
    lock = threading.Lock()
    ranges, hits = [], np.zeros(total, dtype=int)

    def run(first, stop):
        with lock:
            ranges.append((first, stop, threading.get_ident()))
            hits[first:stop] += 1

    montecarlo.run_ranges(total, unit, run)
    assert np.all(hits == 1)
    units = -(-total // unit)
    assert len(ranges) == min(w, units)
    ranges.sort()
    assert all(first % unit == 0 and first < stop for first, stop, _ in ranges)
    assert [thread == threading.get_ident() for _, _, thread in ranges] == [True] + [False] * (len(ranges) - 1)


def test_many_workers_under_fast_thread_switching(workers):
    """More workers than cores, switching threads every microsecond: a lost or misplaced write would show."""
    r = square_sinc(4)
    workers(1)
    serial = gain_samples(0.5, r, r, UniformRandom(3), 3000, seed=5)
    workers(6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = gain_samples(0.5, r, r, UniformRandom(3), 3000, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled, serial)


class _RangeFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["calling thread", "pool thread"])
def test_range_failure_waits_for_every_range(failing, workers, monkeypatch):
    """A range's exception reaches the caller, and only once no other range is still writing."""
    caller = threading.current_thread()
    gains = montecarlo._gains
    lock = threading.Lock()
    active, finished = [0], []

    def failing_gains(h_sd, h_sr, phases, h_rd):
        in_caller = threading.current_thread() is caller
        if in_caller == (failing == "calling thread"):
            raise _RangeFailed(failing)
        with lock:
            active[0] += 1
        time.sleep(0.01)  # the other ranges are still at work when the failure happens
        out = gains(h_sd, h_sr, phases, h_rd)
        with lock:
            active[0] -= 1
            finished.append(in_caller)
        return out

    monkeypatch.setattr(montecarlo, "_gains", failing_gains)
    workers(3)
    r = square_sinc(2)
    with pytest.raises(_RangeFailed, match=failing):
        gain_samples(0.5, r, r, Equal(0.0), 64 * 9, seed=1)
    assert active[0] == 0
    # every range that did not fail ran all of its three blocks
    assert len(finished) == (6 if failing == "calling thread" else 3)


def test_engine_threads_rule(monkeypatch):
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    plan = montecarlo.engine_threads.__wrapped__
    for blas, want in ((1, 4), (2, 2), (3, 1), (8, 1), (None, 1)):
        monkeypatch.setattr(montecarlo, "_blas_threads", lambda blas=blas: blas)
        assert plan() == EngineThreads(want, blas, 4)
    assert plan().line() == "MC engine: 1 worker(s), BLAS threads unreadable, usable cores 4"
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity")  # as on platforms without it
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: 1)
    assert plan() == EngineThreads(3, 1, 3)
    monkeypatch.undo()
    real = montecarlo.engine_threads()
    assert real.workers >= 1 and real.cores >= 1
    assert real is montecarlo.engine_threads()  # read once


def test_unreadable_blas_getter_gives_none(monkeypatch):
    class NoGetters:
        def __init__(self, path):
            pass

    monkeypatch.setattr(montecarlo.ctypes, "CDLL", NoGetters)
    assert montecarlo._blas_threads() is None

    def no_procfs(*args, **kwargs):
        raise FileNotFoundError("no such file")

    monkeypatch.setattr(montecarlo, "open", no_procfs, raising=False)
    assert montecarlo._blas_threads() is None


def test_outage_counts_match_strict_inequality():
    gains = np.array([0.5, 2.0, 1.0, 1.0, 3.0])
    z = np.array([0.0, 0.5, 1.0, 1.5, 3.0, 4.0])
    p_hat, std_err = outage_rates(gains, z)
    assert p_hat.tolist() == [np.count_nonzero(gains < zv) / 5 for zv in z]
    assert std_err.tolist() == [math.sqrt(p * (1.0 - p) / 5) for p in p_hat]
    assert outage_rates(gains, 1.0)[0] == 1 / 5


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
    z = sc.snr_threshold(0.002)
    trials = 20_000
    p_hat, std_err = {}, {}
    for name, design in [("equal", Equal(np.pi / 4)), ("uniform", UniformRandom(6))]:
        gains = gain_samples(0.0, r_sr, r_rd, design, trials, seed=14)
        p_hat[name], std_err[name] = outage_rates(gains, z)
    gap = p_hat["uniform"] - p_hat["equal"]
    combined = math.hypot(std_err["uniform"], std_err["equal"])
    assert gap > 4 * combined


def test_sample_moments_direct_only_exponential():
    # |h_sd|^2 with beta_sd = 1 is Exp(1): mean 1, variance 1.
    gains = gain_samples(1.0, zeros(2), zeros(2), Equal(0.0), 100_000, seed=8)
    n = gains.size
    mean, var = gains.mean(), gains.var(ddof=1)
    se_var = math.sqrt(max(np.mean((gains - mean) ** 4) - var**2, 0.0) / n)
    assert abs(mean - 1.0) <= 3 * math.sqrt(var / n)
    assert abs(var - 1.0) <= 3 * se_var


def test_mc_estimate_bounds():
    gains = np.ones(100)
    assert outage_rates(gains, 0.5) == (0.0, 0.0)  # every trial passes
    assert outage_rates(gains, 2.0) == (1.0, 0.0)  # every trial fails


@pytest.mark.parametrize("z", [math.nan, -1.0, np.array([0.5, math.nan]), np.array([-1.0, 2.0])])
def test_outage_rates_reject_nan_and_negative_thresholds(z):
    with pytest.raises(DomainError, match="SNR threshold"):
        outage_rates(np.ones(100), z)


def test_outage_rates_reject_an_empty_run():
    with pytest.raises(DomainError, match="trial count must be at least 1"):
        outage_rates(np.array([]), 1.0)


def test_invalid_trial_counts():
    r = square_sinc(2)
    with pytest.raises(DomainError):
        gain_samples(0.5, r, r, Equal(0.0), 0, seed=1)


@pytest.mark.parametrize("trials", [True, 2.5, np.float64(64.0), -1, 2**128])
def test_trial_count_must_be_a_nonnegative_integer(trials):
    r = square_sinc(2)
    with pytest.raises(DomainError, match="trial count"):
        gain_samples(0.5, r, r, Equal(0.0), trials, seed=1)


def test_numpy_integer_trial_count_runs_as_int():
    r = square_sinc(2)
    want = gain_samples(0.5, r, r, UniformRandom(2), 65, seed=1)
    for trials in (np.int64(65), np.uint32(65)):
        assert gain_samples(0.5, r, r, UniformRandom(2), trials, seed=1).tobytes() == want.tobytes()


@pytest.mark.parametrize("beta_sd", [-1.0, math.nan, math.inf])
def test_bad_direct_link_gain_is_a_domain_error(beta_sd):
    r = square_sinc(2)
    factor = matrix_sqrt(r)
    message = f"^direct-link gain beta_sd must be nonnegative and finite, got {beta_sd}$"
    with pytest.raises(DomainError, match=message):
        gain_samples(beta_sd, r, r, Equal(0.0), 100, seed=1)
    with pytest.raises(DomainError, match=message):
        sample_channels(beta_sd, factor, factor, 1, 0)


def test_channel_realization_validation():
    with pytest.raises(DomainError):
        ChannelRealization(h_sd=0j, h_sr=np.ones(3, dtype=complex), h_rd=np.ones(2, dtype=complex))
    with pytest.raises(DomainError):
        ChannelRealization(
            h_sd=complex(np.nan), h_sr=np.ones(2, dtype=complex), h_rd=np.ones(2, dtype=complex)
        )
