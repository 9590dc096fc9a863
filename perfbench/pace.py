"""Machine pace: fixed reference kernels, timed between ops, that rescale op times.

The 2-core x86_64 virtual machine the baseline was measured on changes
speed for every process alike: for stretches of a few to more than twenty seconds it runs
up to twice as slow as its normal pace, so raw op times of one workload
spread by 18-30% between runs.  The reference kernels are frozen copies of
the program's Monte-Carlo trial loop, at N=196 and at N=64 with the three
designs, so they slow down as the workloads do.  mc_designs_n64 has its own
kernel because slow stretches do not hit BLAS calls and interpreter overhead
alike, and the N=196 kernel tracked its N=64 per-trial work less well.
An op's seconds, divided by the kernel's seconds at the same moment and
multiplied by NOMINAL_S, are its *paced seconds*: its time at the
machine's normal pace.

Set-up is paced the same way by its own reference, IMPORT_REFERENCE: a
fresh interpreter importing numpy and scipy.special, the program's
third-party imports.  Set-up is almost all such imports, whose speed moves
with the machine's state but does not follow the Monte-Carlo kernels.

The kernels and the import reference are part of the benchmark, not of the
program, and must stay fixed: changing one, NOMINAL_S or SETUP_NOMINAL_S
rescales every paced figure it feeds.
"""

import time

import numpy as np

# A unit: paced seconds are op seconds times NOMINAL_S over kernel seconds.
# Each kernel is sized to take about this long at the normal pace of the
# machine the baseline was measured on (2-core x86_64, one BLAS thread).
NOMINAL_S = 0.03

# Prints its own import time in seconds; run with ``python3 -c``.
IMPORT_REFERENCE = (
    "import time; t0 = time.perf_counter(); import numpy, scipy.special; print(repr(time.perf_counter() - t0))"
)
# Paced set-up seconds are set-up seconds times SETUP_NOMINAL_S over the
# reference's seconds; the reference takes about this long at the normal pace.
SETUP_NOMINAL_S = 0.3


class _Streams:
    """Philox repositioned per draw, as the program's counter-based streams are."""

    def __init__(self):
        self._bg = np.random.Philox(0)
        self.gen = np.random.Generator(self._bg)
        self._template = self._bg.state
        self._draw = 0

    def next(self):
        self._draw += 1
        state = self._template
        state["state"] = {
            "counter": np.array([0, self._draw, 0, 0], dtype=np.uint64),
            "key": np.array([12345, 0], dtype=np.uint64),
        }
        state["buffer"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        self._bg.state = state
        return self.gen


def _factor(gen, n):
    return gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))


def _trial(streams, l, n):
    """One Monte-Carlo trial: 2+4N normals by Box-Muller, two projections."""
    u = streams.next().random(2 + 4 * n)
    half = 1 + 2 * n
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * np.pi * u[half:]
    g = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    h_sr = l @ ((g[2 : 2 + n] + 1j * g[2 + n : 2 + 2 * n]) / np.sqrt(2.0))
    h_rd = l @ ((g[2 + 2 * n : 2 + 3 * n] + 1j * g[2 + 3 * n :]) / np.sqrt(2.0))
    return complex(g[0], g[1]), h_sr, h_rd


def _mc196(state):
    """300 N=196 trials with a common phase, and a small eigendecomposition."""
    total = 0.0
    for _ in range(300):
        h_sd, h_sr, h_rd = _trial(state["streams"], state["l196"], 196)
        total += float(np.abs(h_sd + np.sum(np.conj(h_sr) * h_rd)) ** 2)
    return total + float(np.linalg.eigvalsh(state["h96"])[-1])


def _mc64(state):
    """N=64 trials, cycling common, redrawn-uniform and co-phased phases."""
    total = 0.0
    for i in range(360):
        h_sd, h_sr, h_rd = _trial(state["streams"], state["l64"], 64)
        if i % 3 == 0:
            phases = np.full(64, np.exp(0.7j))
        elif i % 3 == 1:
            phases = np.exp(1j * state["phase_streams"].next().uniform(-np.pi, np.pi, 64))
        else:
            phases = np.exp(1j * (np.angle(h_sd) - np.angle(np.conj(h_sr) * h_rd)))
        total += float(np.abs(h_sd + np.sum(np.conj(h_sr) * phases * h_rd)) ** 2)
    return total


# The N=196 kernel also tracked cf_sweep and gate_fast best of those tried; a
# kernel copying the gate's per-call N=16 path tracked the gate worse.
KERNELS = {"mc_fig2a": _mc196, "mc_designs_n64": _mc64, "cf_sweep": _mc196, "gate_fast": _mc196}


class Pace:
    def __init__(self, workload):
        gen = np.random.default_rng(20210223)
        g96 = _factor(gen, 96)
        self._state = {
            "streams": _Streams(),
            "phase_streams": _Streams(),
            "l196": _factor(gen, 196),
            "l64": _factor(gen, 64),
            "h96": g96 @ g96.conj().T,
        }
        self._kernel = KERNELS[workload]
        self.times = []  # time of each sample's midpoint
        self.durations = []

    def sample(self, repeats=3):
        """Time the kernel ``repeats`` times and record the median; returns it.

        One 30 ms run jitters by about 8% on its own; the median of three
        does not follow a single slow run.
        """
        t0 = time.perf_counter()
        runs = []
        for _ in range(repeats):
            r0 = time.perf_counter()
            self._kernel(self._state)
            runs.append(time.perf_counter() - r0)
        t1 = time.perf_counter()
        runs.sort()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(runs[len(runs) // 2])
        return self.durations[-1]

    def paced(self, seconds, start, end):
        """``seconds`` spent over [start, end], rescaled to the nominal pace.

        The kernel's duration during the interval is interpolated between the
        samples around its midpoint.
        """
        kernel = float(np.interp(0.5 * (start + end), self.times, self.durations))
        return seconds * NOMINAL_S / kernel
