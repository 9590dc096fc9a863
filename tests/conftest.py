"""Shared fixtures, including the one expensive Monte-Carlo dataset and the engine's range recorder."""

import contextlib
import os
import struct

import numpy as np
import pytest

from irslink import montecarlo, validation
from irslink.correlation import ArrayGeometry, matrix_sqrt, sinc_correlation
from irslink.montecarlo import EngineThreads, channel_blocks, effective_gain, sample_channels
from irslink.phaseshift import Equal, phase_vector

WAVELENGTH = 0.1  # 3 GHz carrier, meters


def square_sinc(side, spacing_over_lambda=1 / 40):
    d = spacing_over_lambda * WAVELENGTH
    return sinc_correlation(ArrayGeometry(side, side, d, d, WAVELENGTH))


@pytest.fixture(scope="session")
def sinc16():
    return square_sinc(4)


@pytest.fixture(scope="session")
def heavy_mc(sinc16):
    """One million trials of the N=16 planar model with a common quarter-turn phase.

    Drawn through the simulator's channel blocks, with the gain recomputed
    here from its definition, so it doubles as the oracle for the
    closed-form moments, the direct-channel power and the sample covariance
    of the surface channel.  A prefix is checked bit for bit against the
    public per-trial operations.
    """
    beta_sd = 1.0
    trials = 1_000_000
    cov_trials = 100_000
    prefix = 200  # three full 64-trial blocks and part of a fourth
    seed = 321
    factor = matrix_sqrt(sinc16)
    phases = phase_vector(Equal(np.pi / 4), sinc16.n)
    gains = np.empty(trials)
    hsd_power = 0.0
    cov = np.zeros((sinc16.n, sinc16.n), dtype=complex)
    for start, h_sd, h_sr, h_rd in channel_blocks(beta_sd, factor, factor, seed, 0, trials):
        # |h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2, as re^2 + im^2
        x = h_sd + (np.conj(h_sr) * phases * h_rd).sum(axis=-1)
        gains[start : start + h_sd.shape[0]] = x.real * x.real + x.imag * x.imag
        hsd_power += float(np.sum(np.abs(h_sd) ** 2))
        if start < cov_trials:
            h = h_sr[: cov_trials - start]
            cov += h.T @ np.conj(h)
    for i in range(prefix):
        ch = sample_channels(beta_sd, factor, factor, seed, i)
        assert effective_gain(ch, phases) == gains[i], f"trial {i} differs from the per-trial ops"
    return {
        "r": sinc16,
        "beta_sd": beta_sd,
        "phases": phases,
        "seed": seed,
        "trials": trials,
        "gains": gains,
        "hsd_power_mean": hsd_power / trials,
        "cov": cov / cov_trials,
        "cov_trials": cov_trials,
    }


class Records:
    """Fixed-size records of unsigned ints that this process or a forked child writes, and this process reads.

    A record is one write of far fewer than PIPE_BUF bytes, so the records
    of several processes never interleave.
    """

    def __init__(self, fields):
        self._format = f"{fields}Q"
        self._read, self._write = os.pipe()
        for fd in (self._read, self._write):
            os.set_blocking(fd, False)  # a full pipe raises instead of hanging the test

    def put(self, *values):
        os.write(self._write, struct.pack(self._format, *values))

    def take(self):
        """Every record written since the last take, in the order written."""
        data = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self._read, 1 << 16):
                data += chunk
        return list(struct.iter_unpack(self._format, data))

    def close(self):
        os.close(self._read)
        os.close(self._write)


def force_workers(monkeypatch, w):
    monkeypatch.setattr(montecarlo, "engine_threads", lambda: EngineThreads(w, 1, w))


def no_child_left():
    """Whether this process has no child at all, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def workers(monkeypatch):
    """Force the engine onto w workers; returns a reader of the ranges run since, as sorted (first, stop, pid).

    Both callers of run_ranges (gain_samples and criterion 3) record each
    range in the process that runs it, forked children included, so the
    reader sees all of them.
    """
    records = Records(3)
    runner = montecarlo.run_ranges

    def recorded(total, unit, run):
        def run_recorded(first, stop):
            records.put(first, stop, os.getpid())
            run(first, stop)

        runner(total, unit, run_recorded)

    monkeypatch.setattr(montecarlo, "run_ranges", recorded)
    monkeypatch.setattr(validation, "run_ranges", recorded)

    def force(w):
        force_workers(monkeypatch, w)
        records.take()
        return lambda: sorted(records.take())

    yield force
    records.close()


def in_own_children(ranges):
    """Whether this process ran the first range and a forked child of its own each other one."""
    children = [pid for _, _, pid in ranges[1:]]
    return ranges[0][2] == os.getpid() and os.getpid() not in children and len(set(children)) == len(children)
