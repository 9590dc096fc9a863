import contextlib
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import load_scenario, montecarlo, rng, validation
from irslink import scenario as scenario_module
from irslink.correlation import CorrelationMatrix, matrix_sqrt
from irslink.errors import DomainError, ScenarioFormatError
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

from conftest import PROPERTY, Records, force_workers, in_own_children, no_child_left, square_sinc
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


def _check_ranges(ranges, w, trials):
    """The ranges cover trials 0..trials-1 once, in whole 64-trial blocks; this process ran the first, its own children the others."""
    assert len(ranges) == min(w, -(-trials // 64))
    assert ranges[0][0] == 0 and ranges[-1][1] == trials
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(first % 64 == 0 and first < stop for first, stop, _ in ranges)
    assert in_own_children(ranges)


@contextlib.contextmanager
def _another_thread():
    """A second Python thread, alive for the with block."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("side", [1, 4, 8])  # N = 1, 16, 64
def test_worker_count_does_not_change_gains(side, workers):
    r = square_sinc(side)
    for design in _all_designs(r.n):
        for trials in (1, 63, 64, 65, 129, 1000):
            workers(1)
            serial = gain_samples(0.5, r, r, design, trials, seed=21).tobytes()
            for w in (2, 3):
                read_ranges = workers(w)
                assert gain_samples(0.5, r, r, design, trials, seed=21).tobytes() == serial
                _check_ranges(read_ranges(), w, trials)
                assert no_child_left()


def test_a_live_thread_runs_the_ranges_as_one_in_this_process(workers):
    """With another Python thread alive, nothing forks: gain_samples and criterion 3 each run (0, total) here, with the same bytes."""
    r = square_sinc(4)
    for design in _all_designs(r.n):
        read_ranges = workers(3)
        forked = gain_samples(0.5, r, r, design, 1000, seed=21)
        _check_ranges(read_ranges(), 3, 1000)
        with _another_thread():
            in_place = gain_samples(0.5, r, r, design, 1000, seed=21)
        assert in_place.tobytes() == forked.tobytes()
        assert read_ranges() == [(0, 1000, os.getpid())]
    forked = validation._phase_traces(r, 202, 3000)
    assert len(read_ranges()) == 3
    with _another_thread():
        in_place = validation._phase_traces(r, 202, 3000)
    assert [a.tobytes() for a in in_place] == [a.tobytes() for a in forked]
    assert read_ranges() == [(0, 3000, os.getpid())]
    assert no_child_left()


SEEDS = st.integers(0, 2**64 - 1)


@settings(PROPERTY, max_examples=40)
@given(
    side=st.integers(1, 4),  # N = 1, 4, 9, 16
    beta_sd=st.sampled_from([0.0, 0.5]),
    design=st.one_of(st.builds(Equal, st.floats(-4.0, 4.0)), st.builds(UniformRandom, SEEDS), st.just(OptimalCsi())),
    seed=SEEDS,
    trials=st.lists(st.integers(1, 450), min_size=2, max_size=2, unique=True).map(sorted),
    w=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_a_shorter_run_is_a_prefix_of_a_longer_one(side, beta_sd, design, seed, trials, w):
    """Gains of m trials are the first m gains of n > m trials, bit for bit, whatever W each run has.

    The examples run one after another in this process, on the same
    workers, so state a worker carried from one call into the next would show.
    """
    r = square_sinc(side)
    gains = []
    with pytest.MonkeyPatch.context() as patch:
        for count, workers in zip(trials, w):
            force_workers(patch, workers)
            gains.append(gain_samples(beta_sd, r, r, design, count, seed))
    short, long = gains
    assert short.tobytes() == long[: trials[0]].tobytes()


def _cophased_gain(h_sd, h_sr, h_rd):
    """The gain under co-phasing, written out: every cascaded term turned onto h_sd's phase, or onto 0 where h_sd is 0."""
    reference = np.angle(h_sd) if h_sd != 0 else 0.0
    phases = np.exp(1j * (reference - np.angle(np.conj(h_sr) * h_rd)))
    x = h_sd + (np.conj(h_sr) * phases * h_rd).sum()
    return x.real * x.real + x.imag * x.imag


@pytest.mark.parametrize("beta_sd", [0.0, 0.5], ids=["blocked", "direct-link"])
def test_cophased_gains_are_pinned_to_the_written_out_layout(beta_sd, workers):
    """OptimalCsi gains equal co-phasing written out over the written-out channels, bit for bit, on 1-3 workers."""
    r = square_sinc(4)
    factor = matrix_sqrt(r)
    want = np.array([_cophased_gain(*_written_out_channels(beta_sd, factor, factor, 17, i)) for i in range(200)])
    for w in (1, 2, 3):
        workers(w)
        for trials in (1, 65, 200):
            got = gain_samples(beta_sd, r, r, OptimalCsi(), trials, seed=17)
            assert got.tobytes() == want[:trials].tobytes(), f"W={w}, trials={trials}"


def _scattered_dead_factor(seed, dead, negative):
    """A 16 x 16 factor whose columns ``dead`` are 0.0 and ``negative`` are -0.0."""
    gen = np.random.default_rng(seed)
    factor = gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))
    factor[:, dead] = 0.0
    factor[:, negative] = -0.0
    return factor


def _sinc_factors(side):
    # Two spacings, so the two factors have different numbers of dead columns.
    return matrix_sqrt(square_sinc(side, 1 / 40)), matrix_sqrt(square_sinc(side, 1 / 20))


# (l_sr, l_rd) pairs with dead columns: matrix_sqrt of the sinc model (a
# prefix, by eigh's ascending order), synthetic factors with dead columns at
# scattered positions, and all-zero factors.
DEAD_FACTORS = {
    "sinc-8x8": lambda: _sinc_factors(8),
    "sinc-14x14": lambda: _sinc_factors(14),
    "scattered": lambda: (_scattered_dead_factor(8, [1, 4, 5, 9], [15]), _scattered_dead_factor(9, [0, 7, 12], [8])),
    "all-dead": lambda: (np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)),
}


@pytest.mark.parametrize("kind", DEAD_FACTORS)
def test_dead_columns_keep_every_gain_bit(kind, workers, monkeypatch):
    """Gains through factors with dead columns equal the written-out layout's, bit for bit, on 1-3 workers."""
    l_sr, l_rd = DEAD_FACTORS[kind]()
    n = l_sr.shape[0]
    assert sum(stop - start for start, stop in montecarlo._live_normals(l_sr, l_rd)) < 2 + 4 * n
    r_sr, r_rd = zeros(n), CorrelationMatrix(np.eye(n))  # stand-ins whose factors are replaced below
    monkeypatch.setattr(montecarlo, "matrix_sqrt", lambda r: l_sr if r is r_sr else l_rd)
    for design in _all_designs(n):
        want = np.empty(65)
        for i in range(65):
            h_sd, h_sr, h_rd = _written_out_channels(0.5, l_sr, l_rd, 23, i)
            if isinstance(design, OptimalCsi):
                phases = OptimalCsi.cophase(h_sd, h_sr, h_rd)
            else:
                phases = phase_vector(design, n, draw_index=i)
            x = h_sd + (np.conj(h_sr) * phases * h_rd).sum()
            want[i] = x.real * x.real + x.imag * x.imag
            if kind == "all-dead":
                assert want[i] == h_sd.real * h_sd.real + h_sd.imag * h_sd.imag  # |h_sd|^2
            # A channel entry may differ from the written-out one only in the sign of an exact zero.
            ch = sample_channels(0.5, l_sr, l_rd, 23, i)
            assert ch.h_sd == h_sd and np.array_equal(ch.h_sr, h_sr) and np.array_equal(ch.h_rd, h_rd)
        for w in (1, 2, 3):
            workers(w)
            for trials in (1, 65):
                got = gain_samples(0.5, r_sr, r_rd, design, trials, seed=23)
                assert got.tobytes() == want[:trials].tobytes(), f"{type(design).__name__}, W={w}, trials={trials}"


@pytest.mark.parametrize("kind", DEAD_FACTORS)
def test_dead_normals_are_zero_and_live_ones_are_box_mullers(kind, monkeypatch):
    """In every block, a dead normal is +0.0 and a live one has the full transform's bits."""
    l_sr, l_rd = DEAD_FACTORS[kind]()
    n = l_sr.shape[0]
    live = np.zeros(2 + 4 * n, dtype=bool)
    for start, stop in montecarlo._live_normals(l_sr, l_rd):
        live[start:stop] = True
    assert live[:2].all() and not live.all()
    for offset, factor in ((2, l_sr), (2 + 2 * n, l_rd)):  # g[k]'s real and imaginary normal read column k
        read = np.any(factor != 0, axis=0)
        assert np.array_equal(live[offset : offset + n], read) and np.array_equal(live[offset + n : offset + 2 * n], read)
    blocks = []
    box_muller = rng.box_muller

    def recorded(u, *args):
        g = box_muller(u, *args)
        blocks.append((u.copy(), g.copy()))
        return g

    monkeypatch.setattr(rng, "box_muller", recorded)
    for _ in channel_blocks(0.5, l_sr, l_rd, 31, 0, 129):  # blocks of 64, 64 and a trailing one
        pass
    assert [u.shape[0] for u, _ in blocks] == [64, 64, 2]
    for u, g in blocks:
        assert not g[:, ~live].any() and not np.signbit(g[:, ~live]).any()
        assert g[:, live].tobytes() == box_muller(u)[:, live].tobytes()


@pytest.mark.parametrize("model", ["exponential", "uncorrelated", "sinc"])
def test_a_full_rank_factor_keeps_one_run_per_branch(model, monkeypatch):
    """fig2a's full-rank factors take one cosine and one sine call per block; the sinc factor three of each."""
    scenario = load_scenario("fig2a").with_model(model)
    l_sr, l_rd = (matrix_sqrt(r) for r in scenario.covariances())
    live = montecarlo._live_normals(l_sr, l_rd)
    calls = []

    def counted(name):
        ufunc = getattr(np, name)

        def call(*args, **kwargs):
            calls.append(name)
            return ufunc(*args, **kwargs)

        return call

    for name in ("cos", "sin"):
        monkeypatch.setattr(np, name, counted(name))
    next(channel_blocks(scenario.beta_sd, l_sr, l_rd, 1, 0, 64))
    if model == "sinc":
        assert len(live) == 5
        assert calls.count("cos") == calls.count("sin") == 3
    else:
        assert live == ((0, 2 + 4 * 196),)
        assert calls == ["cos", "sin"]


@pytest.mark.parametrize(
    "total, unit, w",
    [(1000, 64, 3), (1000, 256, 2), (10, 64, 3), (1, 256, 2), (130, 64, 8), (512, 256, 5), (64, 64, 1)],
    ids=["unit-does-not-divide", "unit-does-not-divide-256", "total-below-unit", "one", "w-above-units", "w-above-units-exact", "serial"],
)
def test_run_ranges_covers_the_total_once(total, unit, w, monkeypatch):
    force_workers(monkeypatch, w)
    outputs = tuple(np.full(total, np.nan) for _ in range(3))
    montecarlo.run_ranges(outputs, unit, _whereabouts)
    rows = np.stack(outputs, axis=1)
    assert not np.isnan(rows).any()  # every item was written
    assert all(first <= i < stop for i, (first, stop, _) in enumerate(rows))  # by the range that holds it
    ranges = [tuple(map(int, row)) for i, row in enumerate(rows) if i == 0 or (row != rows[i - 1]).any()]
    assert ranges == sorted(ranges)  # the results land in range order
    hits = np.zeros(total, dtype=int)
    for first, stop, _ in ranges:
        hits[first:stop] += 1
    assert np.all(hits == 1)
    assert len(ranges) == min(w, -(-total // unit))
    assert all(first % unit == 0 and first < stop for first, stop, _ in ranges)
    assert in_own_children(ranges)
    assert no_child_left()


def _whereabouts(first, stop, views):
    """A task that writes, for each item of its range, the range and the process that ran it."""
    for view, value in zip(views, (first, stop, os.getpid())):
        view[:] = value


def test_more_forked_ranges_than_cores(workers):
    """Six forked ranges on a 2-core machine: a lost or misplaced write would show."""
    r = square_sinc(4)
    workers(1)
    serial = gain_samples(0.5, r, r, UniformRandom(3), 3000, seed=5)
    read_ranges = workers(6)
    cpu = montecarlo._worker_cpu()
    forked = gain_samples(0.5, r, r, UniformRandom(3), 3000, seed=5)
    assert forked.tobytes() == serial.tobytes()
    _check_ranges(read_ranges(), 6, 3000)
    assert montecarlo._worker_cpu() > cpu  # each reply carried its task's CPU seconds
    assert no_child_left()


@pytest.mark.parametrize("w", [1, 2])
def test_ranges_write_into_the_one_copy_of_the_outputs(w, engine_patch):
    """The allocation peak of a run is its outputs and a block's temporaries: no range's own array and no join.

    At N = 1 a block's temporaries stay under 5% of the outputs: 22 kB of
    65536 gains (524 kB), 313 kB of 500k draws' two traces (8 MB).
    """
    force_workers(engine_patch, w)
    r = square_sinc(1)
    for run, size in (
        (lambda: gain_samples(0.5, r, r, Equal(0.0), 2**16, seed=1), 8 * 2**16),
        (lambda: validation._phase_traces(r, 202, 500_000), 16 * 500_000),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size
    assert no_child_left()


def _pipe_fds():
    """How many of this process's file descriptors are pipe ends."""
    links = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the descriptor of the listing itself, closed by now
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
    return sum(link.startswith("pipe:[") for link in links)


def test_each_live_worker_holds_two_pipe_ends(engine_patch):
    """A killed worker's pipes close with it, its replacement opens two, and _stop_workers closes every one."""
    baseline = _pipe_fds()
    force_workers(engine_patch, 3)
    r = square_sinc(2)
    want = gain_samples(0.5, r, r, Equal(0.0), 1000, seed=1).tobytes()
    assert len(montecarlo._workers) == 2 and _pipe_fds() == baseline + 4
    killed = montecarlo._workers[0]
    os.kill(killed.pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=rf"^Monte-Carlo range 320..640 ended in its forked child with wait status {signal.SIGKILL} "):
        gain_samples(0.5, r, r, Equal(0.0), 1000, seed=1)
    assert len(montecarlo._workers) == 1 and _pipe_fds() == baseline + 2
    assert gain_samples(0.5, r, r, Equal(0.0), 1000, seed=1).tobytes() == want  # on a replacement
    assert len(montecarlo._workers) == 2 and killed not in montecarlo._workers and _pipe_fds() == baseline + 4
    montecarlo._stop_workers()
    assert _pipe_fds() == baseline
    assert no_child_left()


def test_a_worker_that_ends_part_way_through_its_reply_is_an_error(engine_patch):
    """Half a range's bytes is no result: the caller raises the dead-worker error instead of returning a partly filled slice."""
    write, parent = montecarlo._write, os.getpid()

    def cut_short(fd, *buffers):
        if os.getpid() == parent:  # the caller's tasks go through
            return write(fd, *buffers)
        header, gains = buffers
        write(fd, header, memoryview(gains).cast("B")[: gains.nbytes // 2])
        os._exit(0)

    engine_patch.setattr(montecarlo, "_write", cut_short)
    force_workers(engine_patch, 2)
    r = square_sinc(2)
    with pytest.raises(RuntimeError, match=r"^Monte-Carlo range 320..640 ended in its forked child with wait status 0 \(exit code 0\)$"):
        gain_samples(0.5, r, r, Equal(0.0), 640, seed=1)
    assert montecarlo._workers == []
    assert no_child_left()


class _RangeFailed(Exception):
    pass


def _gains_by_range(monkeypatch, act):
    """Run gain_samples' gains through act(k, gains, *args), k the range (0, 1, 2) of 64 * 9 trials on three workers."""
    blocks, gains = montecarlo.channel_blocks, montecarlo._gains
    here = {}  # each process, forked children included, has its own copy

    def ranged(beta_sd, l_sr, l_rd, seed, first, stop):
        here["range"] = first // 192
        return blocks(beta_sd, l_sr, l_rd, seed, first, stop)

    monkeypatch.setattr(montecarlo, "channel_blocks", ranged)
    monkeypatch.setattr(montecarlo, "_gains", lambda *args: act(here["range"], gains, *args))
    force_workers(monkeypatch, 3)


@pytest.mark.parametrize("failing", ["first child", "both children"])
def test_range_failure_waits_for_every_range(failing, engine_patch):
    """A child's failed range is rerun by the caller once every other range has finished; the first in range order wins."""
    finished = Records(1)

    def act(k, gains, *args):
        if k == 1:
            time.sleep(0.05 if failing == "both children" else 0.0)  # range 2 fails first in time
            raise _RangeFailed("range 1")
        if k == 2:
            if failing == "both children":
                raise _RangeFailed("range 2")
            time.sleep(0.1)  # still at work when range 1 fails and when this process's range ends
        out = gains(*args)
        finished.put(k)
        return out

    _gains_by_range(engine_patch, act)
    r = square_sinc(2)
    try:
        with pytest.raises(_RangeFailed, match="^range 1$") as raised:
            gain_samples(0.5, r, r, Equal(0.0), 64 * 9, seed=1)
        # every range that did not fail ran all of its three blocks
        assert sorted(k for k, in finished.take()) == ([0] * 3 if failing == "both children" else [0] * 3 + [2] * 3)
    finally:
        finished.close()
    assert any(entry.name == "act" for entry in raised.traceback)  # raised in this process, with its own traceback
    assert no_child_left()


@pytest.mark.parametrize("failing", ["own range", "wait"])
def test_caller_failure_kills_and_reaps_every_child(failing, engine_patch):
    """If the caller's own range or its wait for the children raises, the children are killed, not waited for."""
    def act(k, gains, *args):
        if k == 0 and failing == "own range":
            raise _RangeFailed("range 0")
        if k > 0:
            time.sleep(10)  # three blocks each: 30 s if the children were waited for
        return gains(*args)

    _gains_by_range(engine_patch, act)
    error = _RangeFailed if failing == "own range" else KeyboardInterrupt
    if failing == "wait":

        def interrupted(*args):  # the caller's wait for a reply, which the workers never call
            raise KeyboardInterrupt

        engine_patch.setattr(montecarlo, "_reply", interrupted)
    r = square_sinc(2)
    start = time.perf_counter()
    with pytest.raises(error):
        gain_samples(0.5, r, r, Equal(0.0), 64 * 9, seed=1)
    assert time.perf_counter() - start < 5
    assert no_child_left()


def test_a_child_killed_by_a_signal_is_an_error_naming_its_wait_status(engine_patch):
    def act(k, gains, *args):
        if k == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return gains(*args)

    _gains_by_range(engine_patch, act)
    r = square_sinc(2)
    message = rf"^Monte-Carlo range 384..576 ended in its forked child with wait status {signal.SIGKILL} \(exit code -{signal.SIGKILL}\)$"
    with pytest.raises(RuntimeError, match=message):
        gain_samples(0.5, r, r, Equal(0.0), 64 * 9, seed=1)
    assert no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


class _Unrebuildable(Exception):
    """Pickles, but its unpickling calls __init__ with the one message argument and fails."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _gain_samples_failing_in_range_1(monkeypatch, error):
    def act(k, gains, *args):
        if k == 1:
            raise error
        return gains(*args)

    _gains_by_range(monkeypatch, act)
    r = square_sinc(2)
    gain_samples(0.5, r, r, Equal(0.0), 64 * 9, seed=1)


@pytest.mark.parametrize(
    "fail, error",
    [
        (_gain_samples_failing_in_range_1, DomainError("no such domain")),
        (_gain_samples_failing_in_range_1, ScenarioFormatError("must be finite", field="rho_dbm")),
        (_gain_samples_failing_in_range_1, KeyboardInterrupt()),
        (_gain_samples_failing_in_range_1, _Unpicklable("lost in transit")),
        (_gain_samples_failing_in_range_1, _Unrebuildable("lost", "in transit")),
    ],
    ids=["domain-error", "with-a-field", "interrupt", "cannot-be-pickled", "cannot-be-rebuilt"],
)
def test_a_child_exception_keeps_its_type_and_message(fail, error, engine_patch):
    with pytest.raises(type(error)) as raised:
        fail(engine_patch, error)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert getattr(raised.value, "field", None) == getattr(error, "field", None)
    assert no_child_left()


@pytest.mark.parametrize("caller", ["gain_samples", "criterion-3"])
def test_a_range_failing_only_in_its_child_gives_the_serial_bytes(caller, engine_patch):
    """The caller recomputes a range whose forked child failed; ranges are pure, so the bytes are W = 1's."""
    if caller == "gain_samples":
        r = square_sinc(2)
        module, name = montecarlo, "_gains"
        compute = lambda: gain_samples(0.5, r, r, UniformRandom(3), 64 * 9, seed=1)
    else:
        module, name = validation, "_kernel_traces"
        compute = lambda: validation._phase_traces(square_sinc(4), 202, 2304)
    force_workers(engine_patch, 1)
    serial = np.asarray(compute()).tobytes()
    real, parent, failed = getattr(module, name), os.getpid(), Records(1)

    def in_parent_only(*args):
        if os.getpid() != parent:
            failed.put(os.getpid())
            raise MemoryError("only in a forked child")
        return real(*args)

    engine_patch.setattr(module, name, in_parent_only)
    force_workers(engine_patch, 3)
    try:
        assert np.asarray(compute()).tobytes() == serial
        assert len({pid for pid, in failed.take()}) == 2  # both children failed
    finally:
        failed.close()
    assert no_child_left()


# A run whose two ranges take one worker, which prints its worker's pid and
# leaves as argv[1] says: by returning, or by an uncaught exception.
_TWO_RANGES = """
import sys
from irslink import montecarlo
from irslink.correlation import identity_correlation
from irslink.montecarlo import EngineThreads, gain_samples
from irslink.phaseshift import UniformRandom

montecarlo.engine_threads = lambda: EngineThreads(2, 1, 2)
r = identity_correlation(4)
gain_samples(0.5, r, r, UniformRandom(1), 1000, seed=1)
print(*(worker.pid for worker in montecarlo._workers), flush=True)
if sys.argv[1] == "raise":
    raise RuntimeError("left by an uncaught exception")
"""


@pytest.mark.parametrize("ending", ["return", "raise"])
def test_no_worker_outlives_its_process(ending):
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", _TWO_RANGES, ending], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == (0 if ending == "return" else 1), child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # signal 0 only asks whether the process exists


def _pipe(fd):
    return os.fstat(fd)[1:3]  # (inode, device): which pipe, whatever its descriptor number


def _reaped_within(pid, seconds):
    """The wait status of child pid, reaped within ``seconds``; killed and reaped, and the test failed, if it is not done by then."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"child {pid} still ran after {seconds} s")


def test_a_forked_child_keeps_off_its_parents_workers(monkeypatch):
    """A process forked from the workers' owner gets the same bytes from workers of its own, and the owner's stay its own."""
    force_workers(monkeypatch, 2)
    r = square_sinc(4)
    want = gain_samples(0.5, r, r, UniformRandom(3), 1000, seed=5).tobytes()
    owners = list(montecarlo._workers)
    pipes = {_pipe(fd) for worker in owners for fd in (worker.tasks, worker.replies)}
    report = Records(3)
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit, never unwinding pytest's stack
        try:
            used = []
            send, reply = montecarlo._send, montecarlo._reply

            def sent(fd, *args):
                used.append(_pipe(fd))
                return send(fd, *args)

            def replied(fd, *args):
                used.append(_pipe(fd))
                return reply(fd, *args)

            montecarlo._send, montecarlo._reply = sent, replied  # in the child's memory only
            same = gain_samples(0.5, r, r, UniformRandom(3), 1000, seed=5).tobytes() == want
            borrowed = {worker.pid for worker in montecarlo._workers} & {worker.pid for worker in owners}
            report.put(same, len(used), len(pipes.intersection(used)) + len(borrowed))
            montecarlo._stop_workers()
            os._exit(0)
        finally:
            os._exit(1)
    try:
        assert _reaped_within(pid, 60.0) == 0
        [(same, used, touched)] = report.take()
    finally:
        report.close()
    assert same and used == 2 and touched == 0  # one task sent and one reply read, on pipes of the child's own
    assert select.select([worker.replies for worker in owners], [], [], 0.05)[0] == []  # no reply waits for anyone
    assert gain_samples(0.5, r, r, UniformRandom(3), 1000, seed=5).tobytes() == want
    assert montecarlo._workers == owners
    assert no_child_left()


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


@pytest.mark.parametrize("w", [1, 2])
def test_gains_through_the_held_model_are_the_bits_of_a_fresh_build(empty_model_slot, workers, w):
    sc = replace(load_scenario("fig2a"), n_h=4, n_v=4, design=UniformRandom(5))
    read_ranges = workers(w)

    def gains():
        r_sr, r_rd = sc.covariances()
        return gain_samples(sc.beta_sd, r_sr, r_rd, sc.design, 65, seed=11).tobytes()

    built = gains()
    held = sc.correlation_model()
    through_held = gains()
    assert sc.correlation_model() is held
    scenario_module._held_model = None  # the next call builds the model again
    assert gains() == through_held == built
    assert len(read_ranges()) == 3 * w  # 65 trials are two 64-trial ranges at W = 2


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


@pytest.mark.parametrize(
    "gains, message",
    [
        (np.array([math.nan, 1.0]), "^gains must not be NaN$"),
        (np.array([0.25, math.nan, 3.0]), "^gains must not be NaN$"),
        (np.ones((2, 2)), r"^gains must be a 1-D array, got shape \(2, 2\)$"),
    ],
    ids=["nan-first", "nan-inside", "2-d"],
)
def test_outage_rates_reject_nan_gains_and_a_2d_array(gains, message):
    """A NaN gain is never below z, so it would count as a success; a 2-D array is not one run."""
    with pytest.raises(DomainError, match=message):
        outage_rates(gains, 0.5)


def test_invalid_trial_counts():
    r = square_sinc(2)
    with pytest.raises(DomainError):
        gain_samples(0.5, r, r, Equal(0.0), 0, seed=1)


@pytest.mark.parametrize("trials", [True, 2.5, np.float64(64.0), -1, 2**128])
def test_trial_count_must_be_a_nonnegative_integer(trials):
    r = square_sinc(2)
    with pytest.raises(DomainError, match="trial count"):
        gain_samples(0.5, r, r, Equal(0.0), trials, seed=1)


# Counts no memory can hold, refused before a byte is touched: 10^14 trials
# take 728 TiB, and numpy cannot even index 2^100 entries.
@pytest.mark.parametrize("trials", [10**14, 2**100])
def test_a_trial_count_that_cannot_be_allocated_is_a_domain_error(trials, monkeypatch):
    ran = []
    monkeypatch.setattr(montecarlo, "run_ranges", lambda *args: ran.append(args))
    r = square_sinc(2)
    with pytest.raises(DomainError, match=f"^trial count {trials} is too large"):
        gain_samples(0.5, r, r, Equal(0.0), trials, seed=1)
    assert ran == []  # the gains' array is refused before any range runs


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


def test_channel_blocks_checks_both_ends_of_its_range():
    factor = matrix_sqrt(square_sinc(2))
    for first, stop in ((-1, 3), (2**128 - 2, 2**128 + 1)):
        with pytest.raises(DomainError, match=r"^stream index must lie in \[0, 2\^128\)"):
            next(channel_blocks(0.5, factor, factor, 1, first, stop))
    start, h_sd, _, _ = next(channel_blocks(0.5, factor, factor, 1, 2**128 - 1, 2**128))  # the last stream
    assert start == 2**128 - 1 and h_sd.shape == (1,)


def test_channel_realization_validation():
    with pytest.raises(DomainError):
        ChannelRealization(h_sd=0j, h_sr=np.ones(3, dtype=complex), h_rd=np.ones(2, dtype=complex))
    with pytest.raises(DomainError):
        ChannelRealization(
            h_sd=complex(np.nan), h_sr=np.ones(2, dtype=complex), h_rd=np.ones(2, dtype=complex)
        )
