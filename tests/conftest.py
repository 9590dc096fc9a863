"""Shared fixtures, including the one expensive Monte-Carlo dataset and the engine's range recorder."""

import contextlib
import functools
import os
import struct

import numpy as np
import pytest
from hypothesis import settings

from irslink import montecarlo, scenario, validation
from irslink.correlation import ArrayGeometry, matrix_sqrt, sinc_correlation
from irslink.montecarlo import EngineThreads, channel_blocks, effective_gain, sample_channels
from irslink.phaseshift import Equal, phase_vector

WAVELENGTH = 0.1  # 3 GHz carrier, meters

# Property tests stay deterministic: a fixed example sequence, no deadline
# and no example database; each test sets its own max_examples on top.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


def square_sinc(side, spacing_over_lambda=1 / 40):
    d = spacing_over_lambda * WAVELENGTH
    return sinc_correlation(ArrayGeometry(side, side, d, d, WAVELENGTH))


@pytest.fixture(scope="session")
def sinc16():
    return square_sinc(4)


@pytest.fixture(scope="session")
def heavy_mc(sinc16):
    """One million trials of the N=16 planar model with a common quarter-turn phase.

    Drawn through the simulator's channel blocks on the engine's ranges,
    with the gain recomputed here from its definition, so it doubles as the
    oracle for the closed-form moments, the direct-channel power and the
    sample covariance of the surface channel.  A prefix is checked bit for
    bit against the public per-trial operations.
    """
    beta_sd = 1.0
    trials = 1_000_000
    cov_trials = 100_000
    prefix = 200  # three full 64-trial blocks and part of a fourth
    seed = 321
    factor = matrix_sqrt(sinc16)
    phases = phase_vector(Equal(np.pi / 4), sinc16.n)
    gains, hsd_power = np.empty(trials), np.empty(trials)
    montecarlo.run_ranges((gains, hsd_power), 64, _heavy_range, beta_sd, factor, phases, seed)
    cov = np.zeros((sinc16.n, sinc16.n), dtype=complex)
    for _, _, h_sr, _ in channel_blocks(beta_sd, factor, factor, seed, 0, cov_trials):
        cov += h_sr.T @ np.conj(h_sr)
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
        "hsd_power_mean": float(np.mean(hsd_power)),
        "cov": cov / cov_trials,
        "cov_trials": cov_trials,
    }


def _heavy_range(first, stop, views, beta_sd, factor, phases, seed):
    """Write the gains and |h_sd|^2 of trials first..stop-1 into views: heavy_mc's task for each engine range."""
    gains, hsd_power = views
    for start, h_sd, h_sr, h_rd in channel_blocks(beta_sd, factor, factor, seed, first, stop):
        rows = slice(start - first, start - first + h_sd.shape[0])
        # |h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2, as re^2 + im^2
        x = h_sd + (np.conj(h_sr) * phases * h_rd).sum(axis=-1)
        gains[rows] = x.real * x.real + x.imag * x.imag
        hsd_power[rows] = h_sd.real * h_sd.real + h_sd.imag * h_sd.imag


@pytest.fixture
def empty_model_slot():
    """Empties the held surface model, so that the test's first correlation_model call builds whatever ran before."""
    scenario._held_model = None


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
    monkeypatch.setattr(montecarlo, "engine_threads", lambda: EngineThreads(w, w))


def _children():
    """The pids of this process's children, running or exited, from each process's procfs stat."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])  # the command name may hold spaces
        except (OSError, ValueError):  # not a process, or one that has gone
            continue
        if ppid == os.getpid():
            children.append(int(entry))
    return children


def no_child_left():
    """Whether every child of this process is one of the engine's idle workers: no range outlives its call.

    The engine keeps its workers between calls; any other child, or a
    worker that exited and was not reaped, is left over.
    """
    try:
        if os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
            return False  # an exited child not yet reaped
    except ChildProcessError:
        return True
    return set(_children()) <= {worker.pid for worker in montecarlo._workers}


@pytest.fixture
def engine_patch(monkeypatch):
    """The monkeypatch fixture, for tests that patch code the engine's workers run.

    A worker keeps the code it was forked with, so this fixture stops the
    workers before the test: the test's first call that needs workers forks
    new ones, which see the test's patches and its open pipes.  It stops
    them again after the test, before the patches are undone, so that no
    later test is served by a patched worker.
    """
    montecarlo._stop_workers()
    yield monkeypatch
    montecarlo._stop_workers()


@pytest.fixture
def workers(engine_patch):
    """Force the engine onto w workers; returns a reader of the ranges run since, as sorted (first, stop, pid).

    The tasks of both callers of run_ranges (gain_samples' _gain_range and
    criterion 3's _trace_range) record each range in the process that runs
    it, workers included, so the reader sees all of them.
    """
    records = Records(3)

    def recording(task):
        @functools.wraps(task)  # under the task's own name, which is how the engine sends it to a worker
        def recorded(first, stop, *args):
            records.put(first, stop, os.getpid())
            task(first, stop, *args)

        return recorded

    engine_patch.setattr(montecarlo, "_gain_range", recording(montecarlo._gain_range))
    engine_patch.setattr(validation, "_trace_range", recording(validation._trace_range))

    def force(w):
        force_workers(engine_patch, w)
        records.take()
        return lambda: sorted(records.take())

    yield force
    records.close()


def in_own_children(ranges):
    """Whether this process ran the first range and a worker of its own each other one, a different worker each."""
    children = [pid for _, _, pid in ranges[1:]]
    workers = {worker.pid for worker in montecarlo._workers}
    return ranges[0][2] == os.getpid() and set(children) <= workers and len(set(children)) == len(children)
