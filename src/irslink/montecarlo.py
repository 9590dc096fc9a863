"""Independent Monte-Carlo oracle for the closed-form outage expressions.

Samples the correlated Rayleigh channel model, forms the instantaneous
effective gain and estimates outage empirically for any phase-shift design,
including per-realization co-phasing with perfect channel knowledge.

Reproducibility contract: trial ``i`` draws all of its Gaussians from the
counter-based stream (seed, channel domain, i) in a fixed layout
(2 normals for the direct channel, then 2N for the source-surface vector,
then 2N for the surface-destination vector, Box-Muller throughout), so
trials are order-independent units of work.  Gains, and every estimate made
from them, are a pure function of (scenario, design, trials, seed) for a
given BLAS build and BLAS thread count: the complex ``eigh`` behind
``matrix_sqrt`` and the projection's matrix product both round differently
with the OpenBLAS thread count.  They do not depend on the engine's worker
count.

Engine: one block kernel serves every caller.  channel_blocks draws trials
first..stop-1 in blocks of up to 64: rng.StreamFamily.fill writes each
trial's uniforms into one row of a buffer (by its loop engine, as a block
is short of the vector engine's rows); Box-Muller
and the projection through the two covariance factors (one matrix product
each, over all N columns) then run on the whole block.  Box-Muller computes
only the live normals, those that some factor column reads: normals 0 and 1,
and the two normals of g[k] iff column k of its factor has a nonzero entry
(matrix_sqrt's clipped eigenvalues give all-zero columns).  The dead ones
cost no cosine or sine and stay 0.0 in a buffer zeroed once per range.
Gains keep every bit: a dead normal meets only exact-zero factor entries, so
its products are zeros whatever its value, and a zero term can change only
the sign of a partial sum that is exactly zero; a channel entry that is
exactly zero may flip its sign, which the gain's squares erase.
gain_samples iterates those blocks and applies the design's phases for the
block and the gain, taken as re^2 + im^2.  The per-trial
operations are one-row views of these routes: sample_channels is a block of
one trial, which fills two identical rows because numpy hands a one-row
product to the BLAS matrix-vector routine, which rounds differently from the
matrix-product one; effective_gain and cophased_phases are the block
reductions on one row.  Chaining them reproduces gain_samples bit for bit.

Workers: W contiguous ranges of whole units cover [0, total) once, and
run_ranges, the one range runner, runs them: the caller runs the first and
a child forked with os.fork each other one.  W (engine_threads) is the
usable cores over the OpenBLAS thread count, at least 1 and at most the
number of units, and 1 when that count cannot be read: a worker beside a
BLAS whose threads already fill the cores slows the run.  Each range keys
its own streams and phase function and writes only its own slice of an
array in a MAP_SHARED anonymous mapping (_trial_array), which the children
write into.  gain_samples runs ranges of whole 64-trial blocks, so every
block is the same kernel call as with one worker; criterion 3 of the
acceptance gate runs ranges of whole 256-draw trace stacks.  A child leaves
by os._exit and reports by its exit status alone: 0 if its range finished,
1 if it raised.  Once every child has been reaped, the caller runs again,
in range order, each range whose child failed, so its exception rises in
the caller as itself; a range is pure, so a failure that arises only in a
child gives the same bytes from the caller.  If the caller's own range or
its wait raises, it kills the children with SIGKILL and reaps them first,
so no child outlives the call.  Forked ranges
do not queue on the GIL: the per-row stream positioning and the small
ufuncs of a block hold it between their native parts, so on 2 cores with
one BLAS thread a 10k-trial N = 64 UniformRandom call took 150-258 ms on
one worker, 213-243 ms on two threads and 129-140 ms in two processes,
fork included.  Where os.fork is missing or another Python thread is alive
(forking beside live threads can deadlock the child), the calling thread
runs [0, total) as one range.
"""

import ctypes
import functools
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .closedform import checked_direct_gain, checked_threshold
from .correlation import CorrelationMatrix, matrix_sqrt
from .errors import DomainError
from .phaseshift import OptimalCsi, PhaseShiftDesign, checked_design


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the direct scalar channel and the two surface-side vectors."""

    h_sd: complex
    h_sr: np.ndarray
    h_rd: np.ndarray

    def __post_init__(self):
        if self.h_sr.shape != self.h_rd.shape or self.h_sr.ndim != 1:
            raise DomainError("channel vectors must be 1-D and of equal length")
        if not (
            np.isfinite(self.h_sd)
            and np.isfinite(self.h_sr).all()
            and np.isfinite(self.h_rd).all()
        ):
            raise DomainError("channel realization has non-finite entries")

    @property
    def n(self) -> int:
        return self.h_sr.shape[0]


def outage_rates(gains: np.ndarray, z):
    """(p_hat, std_err) of outage at each threshold of z, from the gains of one run.

    gains must be a 1-D array of at least one gain, none NaN (DomainError).
    A failure is gain < z, the capacity-below-target definition; sorting the
    gains once and bisecting on the left counts the failures of the whole
    grid at once.  std_err is the binomial standard error sqrt(p(1-p)/trials).
    """
    z = checked_threshold(z)
    if gains.ndim != 1:
        raise DomainError(f"gains must be a 1-D array, got shape {gains.shape}")
    trials = rng.check_trials(gains.shape[0], least=1)
    ordered = np.sort(gains)
    if np.isnan(ordered[-1]):  # NaN sorts last, and is never below z
        raise DomainError("gains must not be NaN")
    p = np.searchsorted(ordered, z, side="left") / trials
    return p, np.sqrt(p * (1.0 - p) / trials)


_BLOCK = 64  # trials per kernel call; bounds the uniform buffer at 64 x (2+4N) doubles


def _channel_block(beta_sd, l_sr, l_rd, g):
    """Channels of a block of trials from its normals g, one trial per row.

    h_sd has one entry per row, h_sr and h_rd one row of N; each trial
    depends on its own row of normals alone.
    """
    n = l_sr.shape[0]
    h_sd = np.sqrt(beta_sd / 2.0) * (g[:, 0] + 1j * g[:, 1])
    g_sr = (g[:, 2 : 2 + n] + 1j * g[:, 2 + n : 2 + 2 * n]) / np.sqrt(2.0)
    g_rd = (g[:, 2 + 2 * n : 2 + 3 * n] + 1j * g[:, 2 + 3 * n :]) / np.sqrt(2.0)
    return h_sd, g_sr @ l_sr.T, g_rd @ l_rd.T


def _live_normals(l_sr, l_rd):
    """(start, stop) runs of the normals in a trial's draw layout that its channels read.

    Normals 0 and 1 (h_sd) always; the real and imaginary normals of g_sr[k]
    iff column k of l_sr has a nonzero entry, and likewise for g_rd[k] and
    l_rd.  matrix_sqrt's clipped eigenvalues give all-zero columns, and eigh
    sorts them first, so each rank-deficient factor adds two runs at most.
    """
    sr, rd = l_sr.any(axis=0), l_rd.any(axis=0)  # -0.0 counts as zero
    # Padded with a dead normal at each end, so the runs' edges alternate start, stop.
    live = np.concatenate(([False, True, True], sr, sr, rd, rd, [False]))
    edges = np.flatnonzero(live[1:] != live[:-1]).tolist()
    return tuple(zip(edges[::2], edges[1::2]))


def _trial_array(trials: int) -> np.ndarray:
    """An array of one float per trial in a MAP_SHARED anonymous mapping, which children forked after it write into.

    DomainError naming the count if it cannot be allocated.
    """
    try:
        return np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.float64)
    # ValueError: more entries than numpy can index; OverflowError: more bytes than mmap can map
    except (MemoryError, ValueError, OverflowError, OSError):
        raise DomainError(f"trial count {trials} is too large: its per-trial results cannot be allocated") from None


def _gains(h_sd, h_sr, phases, h_rd):
    """|h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2 along the last axis.

    Taken as re^2 + im^2: numpy's complex modulus rounds differently on its
    vector and scalar paths, which would break the per-trial/batch identity.
    """
    x = h_sd + (np.conj(h_sr) * phases * h_rd).sum(axis=-1)
    return x.real * x.real + x.imag * x.imag


def channel_blocks(beta_sd: float, l_sr: np.ndarray, l_rd: np.ndarray, seed: int, first: int, stop: int):
    """Yield (start, h_sd, h_sr, h_rd) for trials first..stop-1, in blocks of up to 64 from first.

    Row r of a block is trial start + r: h_sd has one entry per trial, h_sr
    and h_rd one row of N.  Each row equals sample_channels(..., start + r)
    bit for bit; l_sr and l_rd are as there, beta_sd must lie in [0, inf)
    and the trials in [0, 2^128) (DomainError).  A block of one trial fills
    two identical rows of the buffer and yields the first: the kernel's
    matrix products then always have two rows or more.
    """
    n = l_sr.shape[0]
    if l_sr.shape != (n, n) or l_rd.shape != (n, n):
        raise DomainError("covariance factors must be square and of equal size")
    checked_direct_gain(beta_sd)
    first = rng.check_index(first)
    rng.check_index(max(stop, first + 1) - 1)  # the last trial
    live = _live_normals(l_sr, l_rd)
    streams = rng.StreamFamily(seed)
    u = np.empty((max(min(_BLOCK, stop - first), 2), 2 + 4 * n))
    g = np.zeros(u.shape)  # box_muller leaves the dead normals 0.0 in every block
    for start in range(first, stop, _BLOCK):
        count = min(_BLOCK, stop - start)
        rows = max(count, 2)
        streams.fill(rng.DOMAIN_CHANNEL, start, u[:count])
        if count == 1:
            u[1] = u[0]
        h_sd, h_sr, h_rd = _channel_block(beta_sd, l_sr, l_rd, rng.box_muller(u[:rows], live, g[:rows]))
        yield start, h_sd[:count], h_sr[:count], h_rd[:count]


def sample_channels(
    beta_sd: float,
    l_sr: np.ndarray,
    l_rd: np.ndarray,
    seed: int,
    trial_index: int,
) -> ChannelRealization:
    """Draw the channel realization of one trial: row 0 of its one-trial block.

    l_sr and l_rd are square-root factors of the covariance matrices (from
    correlation.matrix_sqrt); the surface vectors are L @ g with g a standard
    complex Gaussian vector.  trial_index must lie in [0, 2^128) (DomainError).
    """
    i = rng.check_index(trial_index)
    _, h_sd, h_sr, h_rd = next(channel_blocks(beta_sd, l_sr, l_rd, seed, i, i + 1))
    return ChannelRealization(h_sd=complex(h_sd[0]), h_sr=h_sr[0], h_rd=h_rd[0])


def effective_gain(ch: ChannelRealization, phases: np.ndarray) -> float:
    """|h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2."""
    phases = np.asarray(phases)
    if phases.shape != ch.h_sr.shape:
        raise DomainError(f"phase vector shape {phases.shape} does not match n={ch.n}")
    return float(_gains(ch.h_sd, ch.h_sr, phases, ch.h_rd))


def cophased_phases(ch: ChannelRealization) -> np.ndarray:
    """Per-realization phases aligning every cascaded term with the direct channel.

    The resulting amplitude is |h_sd| + sum_n |h_sr[n]| |h_rd[n]|; with a
    blocked direct channel the reference phase is zero.
    """
    return OptimalCsi.cophase(ch.h_sd, ch.h_sr, ch.h_rd)


@dataclass(frozen=True)
class EngineThreads:
    """How the engine runs: its workers, the OpenBLAS thread count read (None: unreadable), the usable cores.

    run_ranges runs workers - 1 of its ranges in forked children, or all of
    them as one range in the calling thread while another Python thread is
    alive.
    """

    workers: int
    blas_threads: int | None
    cores: int

    def line(self) -> str:
        blas = "unreadable" if self.blas_threads is None else self.blas_threads
        return f"MC engine: {self.workers} worker(s), BLAS threads {blas}, usable cores {self.cores}"


_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """The largest thread count of the loaded OpenBLAS libraries, through their own getters; None if none reads."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:  # no procfs: not Linux
        return None
    counts = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter = next((getattr(lib, name) for name in _BLAS_GETTERS if hasattr(lib, name)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return max(counts) if counts and min(counts) >= 1 else None


@functools.cache
def engine_threads() -> EngineThreads:
    """The engine's thread plan, read once per process: W = usable cores // BLAS threads, or 1 if unreadable."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = _blas_threads()
    return EngineThreads(1 if blas is None else max(1, cores // blas), blas, cores)


def gain_samples(
    beta_sd: float,
    r_sr: CorrelationMatrix,
    r_rd: CorrelationMatrix,
    design: PhaseShiftDesign,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Effective gains of trials 0..trials-1; the raw material of every estimate.

    Equal to chaining sample_channels / phase resolution / effective_gain per
    trial, bit for bit; the work runs in blocks of trials, spread over
    engine_threads().workers contiguous ranges of whole blocks by run_ranges.
    """
    trials = rng.check_trials(trials, least=1)
    design = checked_design(design)
    gains = _trial_array(trials)
    l_sr, l_rd = matrix_sqrt(r_sr), matrix_sqrt(r_rd)

    def run(first, stop):
        # A phase function per range: UniformRandom's closes over one StreamFamily.
        block_phases = design.block_phases(r_sr.n)
        for start, h_sd, h_sr, h_rd in channel_blocks(beta_sd, l_sr, l_rd, seed, first, stop):
            gains[start : start + h_sd.shape[0]] = _gains(h_sd, h_sr, block_phases(start, h_sd, h_sr, h_rd), h_rd)

    run_ranges(trials, _BLOCK, run)
    return gains


def _range_bounds(total: int, unit: int) -> list:
    """Edges 0 = b_0 < b_1 < ... < b_W = total of W contiguous ranges of whole units.

    Each range starts on a multiple of ``unit`` and each but the last stops
    on one; W is engine_threads().workers, at most the number of units and
    at least 1.
    """
    units = -(-total // unit)
    workers = max(1, min(engine_threads().workers, units))
    return [min(total, unit * (units * w // workers)) for w in range(workers + 1)]


def run_ranges(total: int, unit: int, run) -> None:
    """Call run(first, stop) on the ranges of _range_bounds(total, unit), which cover [0, total) once.

    This process runs the first range and a forked child each other one; a
    child reports only by its exit status, 0 if its range finished and 1 if
    it raised.  Once every child has been reaped, this process runs again,
    in range order, each range whose child exited 1, so that range's
    exception rises here with its own type, fields and traceback.  A range
    is a pure function of its bounds that writes only its own slice, so a
    failure that arises only in a forked child (fork-unsafe state, memory
    that is free again once the children are reaped) is recomputed here
    to the same bytes instead of being raised.  A child that ended any
    other way, by a signal say, is a RuntimeError naming its range and
    wait status.  If this process's own range or its wait raises, every
    child not yet reaped is killed with SIGKILL and reaped before the
    exception goes on, so no child outlives the call.  Where os.fork is
    missing or another Python thread is alive, the calling thread runs
    [0, total) as one range.
    """
    bounds = _range_bounds(total, unit)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        bounds = [0, total]  # forking beside live threads can deadlock the child
    children = []  # (pid, first, stop) of each child not yet reaped
    reaped = []  # (wait status, first, stop) of each child reaped
    try:
        for first, stop in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:  # leave by os._exit, never unwinding the caller's stack
                try:
                    run(first, stop)
                    os._exit(0)
                finally:  # reached only if run raised: os._exit does not return
                    os._exit(1)
            children.append((pid, first, stop))
        run(bounds[0], bounds[1])
        while children:
            pid, first, stop = children[0]
            reaped.append((os.waitpid(pid, 0)[1], first, stop))
            children.pop(0)
    except BaseException:
        for pid, *_ in children:
            os.kill(pid, signal.SIGKILL)
        for pid, *_ in children:
            os.waitpid(pid, 0)
        raise
    for status, first, stop in reaped:
        code = os.waitstatus_to_exitcode(status)
        if code == 1:
            run(first, stop)
        elif code != 0:
            raise RuntimeError(f"Monte-Carlo range {first}..{stop} ended in its forked child with wait status {status} (exit code {code})")
