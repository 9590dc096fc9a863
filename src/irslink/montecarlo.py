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
given BLAS build and kernel.  The complex ``eigh`` behind ``matrix_sqrt``
and the projection's matrix product would round differently with the
OpenBLAS thread count, so matrix_sqrt, sample_channels and each range of
run_ranges pin one OpenBLAS thread (correlation.one_blas_thread) whatever
the process's setting, and a range task's kernels are plain numpy.

Engine: one block kernel serves every caller, and it computes whole
aligned blocks only.  For the trials first..stop-1, channel_blocks draws
each block of 64 trials 64b..64b+63 that holds one of them and yields that
block's rows in [first, stop): rng.StreamFamily.fill writes each trial's
uniforms into one row of a buffer (by its loop engine, as a block is short
of the vector engine's rows); Box-Muller and the projection through the
two covariance factors (one matrix product each, over all N columns) then
run on the whole block.  Between them, _complex_normals writes the complex
normals (re + 1j*im) / sqrt(2) into two buffers of the range, one product
by 1/sqrt(2) per part, which gives the division's bits (a -0.0 normal,
from a radius uniform of exactly 0, keeps its sign).  The factors are
matrix_sqrt's, computed once per covariance matrix and kept on it, and
Scenario.covariances holds the last pair, so the curves of one link and
surface share one factor pair.  So every product has 64 rows, and a trial's bits
depend on its block alone, however the BLAS kernel rounds a row with the
product's row count or the row's place in it.  Box-Muller computes
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
operations are one-row views of these routes: sample_channels is trial i's
row of its block, effective_gain and cophased_phases are the block
reductions on one row.  Chaining them reproduces gain_samples bit for bit,
a shorter run is a prefix of a longer one, and the gains do not depend on
the worker count: each compares a block's computation with itself.

Workers: W contiguous ranges of whole units cover [0, total) once, and
run_ranges, the one range runner, runs them: the caller runs the first and
a worker process each other one.  W (engine_threads) is the usable cores,
at most the number of units, as every range runs its BLAS calls on one
thread; it is 1, and BLAS is left alone, where some loaded OpenBLAS cannot
be set to one thread.  The caller allocates its per-item
outputs, one float64 array each, and a range is a task, a module-level
function of (first, stop, views, *args) that writes the range's results
into views, its slices of those outputs: _gain_range for gain_samples, in
whole 64-trial blocks, so every block is the same kernel call as with one
worker, and criterion 3's _trace_range, in whole 256-draw trace stacks.
The workers are forked with os.fork on the first call that needs them and
serve every later call of the process: a call sends each worker its task
and arguments through a pipe, as a pickle whose arrays travel out of band,
and reads the bytes of the worker's results from its reply pipe straight
into the range's slices, so a call costs no fork, no copy-on-write faults
and no second copy of its outputs.  A worker replies whether its range
raised; once every worker has replied, the caller runs again, in range
order, each range that raised, into its slices, so its exception rises in
the caller as itself, and a failure that arises only in a worker gives the
same bytes from the caller.  A worker that ends before its reply is whole
is an error.  If the caller's own range or its wait raises, it kills the
workers still at work with SIGKILL and reaps them, so no range outlives
the call.  A process forked from the caller forgets its workers at the
fork.  Forked ranges do not queue
on the GIL: the per-row stream positioning and the small ufuncs of a block
hold it between their native parts, so on 2 cores with one BLAS thread a
10k-trial N = 64 UniformRandom call took 150-258 ms on one worker, 213-243
ms on two threads and 129-140 ms in two processes forked per call.  Where
os.fork is missing or another Python thread is alive (forking beside live
threads can deadlock the child), the calling thread runs [0, total) as one
range.
"""

import atexit
import contextlib
import functools
import os
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .closedform import checked_direct_gain, checked_threshold
from .correlation import CorrelationMatrix, _blas_controls, matrix_sqrt, one_blas_thread
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
    """An empty array of one float per trial; DomainError naming the count if it cannot be allocated."""
    try:
        return np.empty(trials)
    # ValueError: more entries than numpy can index; OverflowError: more than an index can hold
    except (MemoryError, ValueError, OverflowError):
        raise DomainError(f"trial count {trials} is too large: its per-trial results cannot be allocated") from None


def _gains(h_sd, h_sr, phases, h_rd):
    """|h_sd + sum_n conj(h_sr[n]) phases[n] h_rd[n]|^2 along the last axis.

    Taken as re^2 + im^2: numpy's complex modulus rounds differently on its
    vector and scalar paths, which would break the per-trial/batch identity.
    """
    x = h_sd + (np.conj(h_sr) * phases * h_rd).sum(axis=-1)
    return x.real * x.real + x.imag * x.imag


# numpy divides a complex array by sqrt(2) + 0j as (re + im*0, im - re*0) times
# this reciprocal, so a product by it gives the quotient's bits.
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _complex_normals(re, im, out):
    """Write (re + 1j*im) / sqrt(2) into out, a complex128 array of re's shape, as one product per part.

    Each part has the division's bits but where the normal is -0.0: the
    product keeps that sign, and the division gives +0.0 (the real part
    stays -0.0 only if im < 0).  Only the sign of a zero differs, as a
    dead normal's may.
    """
    np.multiply(re, _SQRT_HALF, out=out.real)
    np.multiply(im, _SQRT_HALF, out=out.imag)
    return out


def channel_blocks(beta_sd: float, l_sr: np.ndarray, l_rd: np.ndarray, seed: int, first: int, stop: int):
    """Yield (start, h_sd, h_sr, h_rd) for trials first..stop-1: the rows in that range of each aligned 64-trial block.

    Row r of a yield is trial start + r: h_sd has one entry per trial, h_sr
    and h_rd one row of N.  Each block is computed whole, so a row is the
    same bits whatever range asked for it, and equals sample_channels(...,
    start + r); l_sr and l_rd are as there, beta_sd must lie in [0, inf)
    and the trials in [0, 2^128) (DomainError).  Nothing is yielded if stop
    <= first.  It runs at the caller's BLAS setting, so its rows are the
    engine's bits in a range of run_ranges or in sample_channels.
    """
    n = l_sr.shape[0]
    if l_sr.shape != (n, n) or l_rd.shape != (n, n):
        raise DomainError("covariance factors must be square and of equal size")
    checked_direct_gain(beta_sd)
    first = rng.check_index(first)
    rng.check_index(max(stop, first + 1) - 1)  # the last trial
    if stop <= first:
        return
    live = _live_normals(l_sr, l_rd)
    streams = rng.StreamFamily(seed)
    u = np.empty((_BLOCK, 2 + 4 * n))
    g = np.zeros(u.shape)  # box_muller leaves the dead normals 0.0 in every block
    g_sr, g_rd = np.empty((_BLOCK, n), dtype=np.complex128), np.empty((_BLOCK, n), dtype=np.complex128)
    for start in range(first - first % _BLOCK, stop, _BLOCK):
        streams.fill(rng.DOMAIN_CHANNEL, start, u)
        normals = rng.box_muller(u, live, g)  # one trial per row, each trial's channels from its row alone
        h_sd = np.sqrt(beta_sd / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
        _complex_normals(normals[:, 2 : 2 + n], normals[:, 2 + n : 2 + 2 * n], g_sr)
        _complex_normals(normals[:, 2 + 2 * n : 2 + 3 * n], normals[:, 2 + 3 * n :], g_rd)
        h_sr, h_rd = g_sr @ l_sr.T, g_rd @ l_rd.T
        rows = slice(max(first, start) - start, min(stop, start + _BLOCK) - start)
        yield start + rows.start, h_sd[rows], h_sr[rows], h_rd[rows]


def sample_channels(
    beta_sd: float,
    l_sr: np.ndarray,
    l_rd: np.ndarray,
    seed: int,
    trial_index: int,
) -> ChannelRealization:
    """Draw the channel realization of one trial: its row of its 64-trial block.

    l_sr and l_rd are square-root factors of the covariance matrices (from
    correlation.matrix_sqrt); the surface vectors are L @ g with g a standard
    complex Gaussian vector.  trial_index must lie in [0, 2^128) (DomainError).
    """
    i = rng.check_index(trial_index)
    with one_blas_thread():
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
    """How the engine runs: its workers and the usable cores.

    run_ranges runs workers - 1 of its ranges in its forked worker
    processes, or all of them as one range in the calling thread while
    another Python thread is alive.
    """

    workers: int
    cores: int

    def line(self) -> str:
        return f"MC engine: {self.workers} worker(s), usable cores {self.cores}"


@functools.cache
def engine_threads() -> EngineThreads:
    """The engine's thread plan, read once per process: W = the usable cores, or 1 if some loaded OpenBLAS cannot be set to one thread."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return EngineThreads(cores if _blas_controls() else 1, cores)


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
    run_ranges((gains,), _BLOCK, _gain_range, beta_sd, l_sr, l_rd, design, seed)
    return gains


def _gain_range(first, stop, views, beta_sd, l_sr, l_rd, design, seed) -> None:
    """Write the gains of trials first..stop-1 into views[0]: gain_samples' task for each of its ranges."""
    (gains,) = views
    # A phase function per range: UniformRandom's closes over one StreamFamily.
    block_phases = design.block_phases(l_sr.shape[0])
    for start, h_sd, h_sr, h_rd in channel_blocks(beta_sd, l_sr, l_rd, seed, first, stop):
        gains[start - first : start - first + h_sd.shape[0]] = _gains(h_sd, h_sr, block_phases(start, h_sd, h_sr, h_rd), h_rd)


def run_ranges(outputs, unit: int, task, *args) -> None:
    """Run task(first, stop, views, *args) on W contiguous ranges of whole units, which cover [0, total) once.

    W is engine_threads().workers, at most the number of units; each range
    starts on a multiple of ``unit`` and each but the last stops on one.
    outputs are the caller's 1-D float64 arrays of one entry per item of
    [0, total), total their common length, and views a range's slices of
    them, [out[first:stop] for out in outputs], into which its task writes
    the range's results.  task must be a module-level function and args
    picklable: this process runs the first range into its slices, and sends
    each other one to a worker of its own as data.  Every task call, here or
    in a worker, runs on one BLAS thread (correlation.one_blas_thread).  The
    workers are forked on the first call that needs them and serve every
    later call of this process, so a call costs no fork: each worker
    receives (task, first, stop, len(outputs), args) on its task pipe, as a
    pickle whose array buffers travel out of band, without a bytes copy,
    runs the task into arrays of its own and replies on its reply pipe with
    its task CPU seconds, whether its range raised and, if it did not, the
    bytes of its arrays, which this process reads straight into the range's
    slices.  A worker forked before a module attribute was patched keeps the
    code it was forked with; _stop_workers lets the next call fork new ones.

    Once every worker has replied, this process runs again, in range
    order, each range whose worker raised, so that range's exception rises
    here with its own type, fields and traceback.  A range is a pure
    function of its bounds, so a failure that arises only in a worker
    (fork-unsafe state, say) is recomputed here to the same result instead
    of being raised.  A worker that died, by a signal say, or part-way
    through its reply, is a RuntimeError naming its range and wait status,
    and the next call forks its replacement.  If this process's own range
    or its wait raises (Ctrl-C included), every worker still at work is
    killed with SIGKILL and reaped before the exception goes on, so no
    range outlives the call.  Workers ignore SIGINT, exit when their task
    pipe closes, and are reaped at exit.  A process forked from this one
    never uses its workers.  Where os.fork is missing or another Python
    thread is alive, the calling thread runs [0, total) as one range.
    """
    global _task_cpu
    total = outputs[0].shape[0]
    units = -(-total // unit)
    # One range where forking beside live threads could deadlock the child, and the pipes serve one caller.
    workers = max(1, min(engine_threads().workers, units)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    bounds = [min(total, unit * (units * w // workers)) for w in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    views = {span: [out[span[0] : span[1]] for out in outputs] for span in ranges}
    busy = list(zip(_workers_for(len(ranges) - 1), ranges[1:]))  # in range order, until each replies
    replies = []  # (range, (task cpu, whether it raised), or the wait status of a worker that died)
    try:
        for worker, (first, stop) in busy:
            with contextlib.suppress(BrokenPipeError):  # a worker that died: its reply below meets end of file
                _send(worker.tasks, (task, first, stop, len(outputs), args))
        with one_blas_thread():
            task(*ranges[0], views[ranges[0]], *args)
        while busy:
            worker, span = busy[0]
            try:
                reply = _reply(worker.replies, views[span])
            except EOFError:  # a worker that died, maybe part-way through its reply
                reply = None
            busy.pop(0)
            replies.append((span, _retire(worker) if reply is None else reply))
    except BaseException:
        for worker, _ in busy:
            os.kill(worker.pid, signal.SIGKILL)
        for worker, _ in busy:
            _retire(worker)
        raise
    _task_cpu += sum(reply[0] for _, reply in replies if isinstance(reply, tuple))
    for span, reply in replies:
        if not isinstance(reply, tuple):
            code = os.waitstatus_to_exitcode(reply)
            raise RuntimeError(f"Monte-Carlo range {span[0]}..{span[1]} ended in its forked child with wait status {reply} (exit code {code})")
        if reply[1]:
            with one_blas_thread():
                task(*span, views[span], *args)


@dataclass(frozen=True)
class _Worker:
    pid: int
    tasks: int  # the write end of its task pipe
    replies: int  # the read end of its reply pipe


_workers = []  # this process's workers, forked by _workers_for
_task_cpu = 0.0  # CPU seconds of the tasks that workers ran for this process's calls


def _workers_for(count: int) -> list:
    """count of this process's workers, forking those it lacks."""
    while len(_workers) < count:
        _workers.append(_fork_worker())
    return _workers[:count]


def _forget_workers() -> None:
    """Close this process's copies of its parent's worker pipes, which a fork inherited, without touching the workers."""
    for worker in _workers:
        os.close(worker.tasks)
        os.close(worker.replies)
    _workers.clear()


# Every child forgets at once: a worker, so that each sibling still sees its
# pipe close when the owner exits, and any other child, so that it forks
# workers of its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _fork_worker() -> _Worker:
    tasks, replies = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:  # leave by os._exit, never unwinding the caller's stack
        try:
            os.close(tasks[1])
            os.close(replies[0])
            _serve(tasks[0], replies[1])
            os._exit(0)
        finally:  # reached only if _serve raised: os._exit does not return
            os._exit(1)
    os.close(tasks[0])
    os.close(replies[1])
    return _Worker(pid, tasks[1], replies[0])


def _serve(tasks: int, replies: int) -> None:
    """A worker's loop: run each task received on ``tasks`` and reply on ``replies``, until ``tasks`` closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the owner's to handle
    while True:
        try:
            head, buffers = _receive(tasks)
        except EOFError:
            return
        start = time.process_time()
        try:
            task, first, stop, count, args = pickle.loads(head, buffers=buffers)
            results = [np.empty(stop - first) for _ in range(count)]
            with one_blas_thread():
                task(first, stop, results, *args)
        except BaseException:  # the owner reruns the range, so its exception rises there
            results = None
        _write(replies, struct.pack("<d?", time.process_time() - start, results is None), *(results or ()))


def _reply(fd: int, views) -> tuple:
    """(task CPU seconds, whether the range raised) of the reply on fd, whose results, if any, are read into views; EOFError if fd closes first."""
    cpu, raised = struct.unpack("<d?", _read(fd, bytearray(9)))
    for view in () if raised else views:
        _read(fd, view)
    return cpu, raised


def _retire(worker: _Worker) -> int:
    """Drop a worker: close its pipes, which ends it if it still runs, and reap it; returns its wait status."""
    _workers.remove(worker)
    os.close(worker.tasks)
    os.close(worker.replies)
    return os.waitpid(worker.pid, 0)[1]


def _stop_workers() -> None:
    """Close every worker's task pipe, so that it exits, and reap it; the next call that needs workers forks new ones."""
    for worker in list(_workers):
        _retire(worker)


atexit.register(_stop_workers)


def _worker_cpu() -> float:
    """CPU seconds of the tasks that workers have run for this process's calls so far."""
    return _task_cpu


def _send(fd: int, obj) -> None:
    """Write obj to fd as one message: a pickle whose buffers go out of band, each part after its length."""
    buffers = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    parts = [memoryview(head), *(buffer.raw() for buffer in buffers)]
    _write(fd, struct.pack(f"<{len(parts) + 1}Q", len(parts), *(part.nbytes for part in parts)), *parts)


def _receive(fd: int):
    """(pickle, buffers) of the message that _send wrote to fd, for pickle.loads; EOFError if fd closes first."""
    (count,) = struct.unpack("<Q", _read(fd, bytearray(8)))
    head, *buffers = (_read(fd, bytearray(n)) for n in struct.unpack(f"<{count}Q", _read(fd, bytearray(8 * count))))
    return head, buffers


def _write(fd: int, *buffers) -> None:
    """Write each buffer to fd in full, in order."""
    for buffer in buffers:
        view = memoryview(buffer).cast("B")
        while view:
            view = view[os.write(fd, view) :]


def _read(fd: int, buffer):
    """Fill buffer, a writable contiguous buffer such as a bytearray or an array slice, from fd and return it; EOFError if fd closes first."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            raise EOFError
        view = view[got:]
    return buffer
