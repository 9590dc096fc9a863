"""irslink benchmark: one workload, one seed, a timed window of whole cycles, checked outputs.

    python3 perfbench/run.py --workload mc_fig2a --seed 1 --seconds 17 --trace 0

Runs from a source checkout: the program is imported from ``src/`` next to
this directory, never from an installed copy.  The last line of stdout is
the result JSON (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``); the lines before it, prefixed ``#``, give the machine
record and the workload-specific derived figures.  A full record, and with
``--trace 1`` the spans, are written under ``.perfbench-out/``.
See README.md in this directory for what each metric means.
"""

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads.  On a small shared machine, BLAS
# threads spinning against other processes slowed the N=400
# eigendecompositions by more than 30x, which no bound could absorb.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from pace import IMPORT_REFERENCE, SETUP_NOMINAL_S, Pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1  # the seed whose CSV digests are recorded in digests.json
SETUP_PROBES = 6
SAMPLED_TRIALS = 64  # trials of the sampled MC op recomputed per trial
PACE_EVERY_S = 1.0  # the pace kernel runs after any op that ends this long after its last run


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Machine record


def _blas_threads():
    """Thread count of every loaded OpenBLAS, read through its own API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def machine_record():
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    if any(t > nproc for t in threads.values()):
        raise RuntimeError(f"BLAS threads {threads} exceed nproc={nproc}")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


# ----------------------------------------------------------------------
# Set-up time, measured in fresh interpreters


class SetupProbes:
    """Set-up probes, each a fresh interpreter running setup_probe.py, paced and spread over the run.

    A probe's time jumps by about 20% from one probe to the next with the
    machine's state.  So each probe is followed at once by the frozen import
    reference of pace.py, which the same state slows alike; a run takes
    SETUP_PROBES such pairs at even steps of the timed window, and
    ``setup_s`` is the median over the pairs of probe seconds over reference
    seconds, times SETUP_NOMINAL_S.  Over groups of six pairs this median
    spread by 4% where that of the probe seconds alone spread by 18%; with
    the reference run before the probe instead, it spread by 6%.
    """

    def __init__(self, workload, seed):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(SRC)]
        self.samples = []
        self.references = []
        self.spent = 0.0  # wall seconds spent in probes, kept out of the timed window

    def due(self, elapsed, seconds):
        """Whether a probe is due after ``elapsed`` of ``seconds`` window seconds."""
        return len(self.samples) < min(SETUP_PROBES, 1 + int(elapsed * (SETUP_PROBES - 1) / seconds))

    def take(self):
        t0 = time.perf_counter()
        self.samples.append(self._seconds(self.cmd))
        self.references.append(self._seconds([sys.executable, "-c", IMPORT_REFERENCE]))
        self.spent += time.perf_counter() - t0

    @staticmethod
    def _seconds(cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    def paced(self):
        return statistics.median(p / r for p, r in zip(self.samples, self.references)) * SETUP_NOMINAL_S


# ----------------------------------------------------------------------
# The timed window


def run_window(irslink, workload, cycles, seconds, pace, tracer=None, probes=None):
    """Run whole cycles until ``seconds`` have elapsed (at least one cycle, at most the pool).

    The pace kernel runs before the first op, after any op that ends
    PACE_EVERY_S after its previous run, and after the last op.  Set-up
    probes, if given, run between ops when due and are finished after the
    last op; their time does not count towards ``seconds``.  Returns
    (records, window seconds, window CPU seconds), both without the probes;
    each record carries the op's raw and paced seconds.
    """
    records = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t0 - (probes.spent if probes is not None else 0.0)

    pace.sample()
    last_pace = time.perf_counter()
    op_id = 0
    for ci, cycle in enumerate(cycles):
        if ci and elapsed() >= seconds:
            break
        for pos, op in enumerate(cycle):
            if probes is not None and probes.due(elapsed(), seconds):
                probes.take()
            if tracer is not None:
                tracer.op_id = op_id
            o0 = time.perf_counter()
            try:
                out, error = workloads.run_op(irslink, workload, op), None
            except Exception:
                out, error = None, traceback.format_exc()
            o1 = time.perf_counter()
            records.append({"cycle": ci, "pos": pos, "op": op, "out": out, "error": error,
                            "start": o0, "end": o1, "seconds": o1 - o0})
            op_id += 1
            if o1 - last_pace >= PACE_EVERY_S:
                pace.sample()
                last_pace = time.perf_counter()
    if last_pace < records[-1]["end"]:
        pace.sample()
    window_s, window_cpu_s = elapsed(), time.process_time() - cpu0
    while probes is not None and len(probes.samples) < SETUP_PROBES:
        probes.take()
    for rec in records:
        rec["paced"] = pace.paced(rec["seconds"], rec["start"], rec["end"])
    return records, window_s, window_cpu_s


def cycle_seconds(records, key="paced"):
    """Seconds per cycle: each position's median over the run's cycles, summed (paced by default).

    Taking the median per position rather than of whole-cycle sums lets a
    slow stretch spoil one op instead of a whole cycle.
    """
    by_pos = {}
    for rec in records:
        by_pos.setdefault(rec["pos"], []).append(rec[key])
    return sum(statistics.median(v) for v in by_pos.values())


# ----------------------------------------------------------------------
# Checks


def check_records(irslink, workload, seed, records, sample, gen):
    """Attach a list of problems to every record; returns the number of failed ops."""
    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())["workloads"].get(workload)
    workdir = tempfile.mkdtemp(prefix="csv-", dir=OUT)
    try:
        for rec in records:
            if rec["error"] is not None:
                rec["problems"] = ["raised: " + rec["error"].strip().splitlines()[-1]]
                continue
            if workload == "gate_fast":
                rec["problems"] = checks.check_gate(rec["out"], [rec["op"][0]])
                continue
            op = rec["op"]
            digest = checks.curve_csv_digest(irslink, rec["out"], workdir)
            rec["digest"] = digest
            want = expected[op.index] if expected is not None and op.index < len(expected) else None
            rec["problems"] = checks.check_curve(rec["out"], op, want, digest)
            if (rec["cycle"], rec["pos"]) == sample and op.trials > 0:
                rec["problems"] += check_sampled(irslink, op, rec["out"], gen)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return sum(1 for rec in records if rec["problems"])


def check_sampled(irslink, op, curve, gen):
    """Recompute the op's gains, which the MC bit-identity contract fixes, and check the curve against them."""
    engine = getattr(irslink, "gain_samples", None)
    if engine is None:
        return ["no gains to check: irslink.gain_samples is gone"]
    r_sr, r_rd = op.scenario.covariances()
    gains = engine(op.scenario.beta_sd, r_sr, r_rd, op.scenario.design, op.trials, op.mc_seed)
    indices = sorted(gen.sample(range(op.trials), min(SAMPLED_TRIALS, op.trials)))
    return checks.check_counts(curve, gains) + checks.check_gains_per_trial(irslink, op, gains, indices)


# ----------------------------------------------------------------------
# Derived figures


def derived(workload, records, per_cycle_s):
    """Workload-specific figures: MC throughput and precision per second, curve throughput."""
    good = [r for r in records if not r["problems"]]
    info = {"ops": len(records), "error_rate": (len(records) - len(good)) / len(records)}
    if workload == "gate_fast" or not good:
        return info
    ops_per_cycle = max(r["pos"] for r in records) + 1
    info["curves_per_s"] = ops_per_cycle / per_cycle_s
    mc = [r for r in good if r["op"].trials > 0]
    if mc:
        info["trials_per_s"] = workloads.MC_TRIALS * ops_per_cycle / per_cycle_s
        var = []
        for r in mc:
            j = int(np.nanargmin(np.abs(r["out"].p_mc - 0.1)))
            var.append(float(r["out"].std_err[j]) ** 2)
        info["var_x_s"] = statistics.median(var) * per_cycle_s / ops_per_cycle
    return info


def layer_metrics(tracer, cycles):
    """Per-cycle averages of the per-layer figures over the traced window."""
    from tracer import LayerTotals

    t = LayerTotals(tracer, lambda a: a["op"] >= 0)
    setup = LayerTotals(tracer, lambda a: a["op"] < 0)
    fits = ("closedform.gamma_fit", "closedform.gamma_fit_equal_phase", "closedform.gamma_fit_uniform_phase")
    per_cycle = {
        "correlation.matrices": t.calls_of("correlation.CorrelationMatrix.__post_init__"),
        "correlation.build_s": t.self_of_layer("correlation", exclude=("correlation.matrix_sqrt",)),
        "correlation.sqrt_calls": t.calls_of("correlation.matrix_sqrt"),
        "correlation.sqrt_s": t.time_of("correlation.matrix_sqrt"),
        "rng.family_inits": t.calls_of("rng.StreamFamily.__init__"),
        "rng.position_calls": t.calls_of("rng.StreamFamily.get"),
        "rng.position_s": t.time_of("rng.StreamFamily.get"),
        "rng.normals_calls": t.calls_of("rng.standard_normals"),
        "rng.normals_drawn": t.qty_of("rng.standard_normals"),
        "rng.normals_s": t.time_of("rng.standard_normals"),
        "montecarlo.trials": t.qty_of("montecarlo.gain_samples"),
        "montecarlo.gain_samples_s": t.time_of("montecarlo.gain_samples"),
        "montecarlo.self_s": t.self_of_layer("montecarlo"),
        "phaseshift.phase_vector_calls": t.calls_of("phaseshift.phase_vector"),
        "phaseshift.phase_vector_s": t.time_of("phaseshift.phase_vector"),
        "phaseshift.cascade_traces_calls": t.calls_of("phaseshift.cascade_traces"),
        "phaseshift.cascade_traces_s": t.time_of("phaseshift.cascade_traces"),
        "closedform.oracle_calls": t.calls_of("closedform.uniform_phase_trace_moments_by_sums"),
        "closedform.oracle_s": t.time_of("closedform.uniform_phase_trace_moments_by_sums"),
        "closedform.fit_s": sum(t.time_of(f) for f in fits),
        "closedform.outage_calls": t.calls_of("closedform.outage_probability"),
        "closedform.outage_s": t.time_of("closedform.outage_probability"),
        "scenario.covariances_calls": t.calls_of("scenario.Scenario.covariances"),
        "curves.run_curve_calls": t.calls_of("curves.run_curve"),
        "curves.self_s": t.self_of_layer("curves"),
        "validation.self_s": t.self_of_layer("validation"),
    }
    for n in workloads.GATE_CRITERIA:
        per_cycle[f"validation.criterion{n}_s"] = t.time_of(f"validation.criterion_{n}")
    per_cycle["trace.spans"] = float(t.calls.sum())
    metrics = {name: value / cycles for name, value in per_cycle.items()}
    metrics["scenario.load_s"] = setup.time_of("scenario.load_scenario") + setup.time_of(
        "scenario.scenario_from_dict"
    )
    return metrics


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_wall")):
        return "ratio"
    return "count"


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "irslink" / "__init__.py").is_file():
        print(f"error: no irslink sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Set-up is timed in untraced runs only; a traced run reports no setup_s.
    probes = None if args.trace else SetupProbes(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import irslink

    if args.workload == "gate_fast":
        import irslink.validation  # noqa: F401  (imported before tracing so it is wrapped)
    machine = machine_record()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cycles = workloads.generate(irslink, args.workload, args.seed)
    pace = Pace(args.workload)
    gen = random.Random(f"irslink-perfbench-check:{args.workload}:{args.seed}")
    sample = (0, gen.randrange(len(cycles[0])))

    records, window_s, window_cpu_s = run_window(
        irslink, args.workload, cycles, args.seconds, pace, tracer, probes
    )
    n_cycles = records[-1]["cycle"] + 1
    per_cycle_s = cycle_seconds(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, n_cycles)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        # The same cycles again, untraced (at most two): tracing overhead and CPU share.
        again, wall0, cpu0 = run_window(irslink, args.workload, cycles[: min(2, n_cycles)], float("inf"), pace)
        untraced = cycle_seconds(again)
        layers["trace.overhead_s"] = per_cycle_s - untraced
        layers["trace.overhead_share"] = (per_cycle_s - untraced) / untraced
        layers["run.cpu_s"] = cpu0 / min(2, n_cycles)
        layers["run.cpu_per_wall"] = cpu0 / wall0

    failed = check_records(irslink, args.workload, args.seed, records, sample, gen)
    for rec in records:
        for problem in rec["problems"]:
            print(f"op in cycle {rec['cycle']} at {rec['pos']}: {problem}", file=sys.stderr)
    info = derived(args.workload, records, per_cycle_s)
    info.update(
        cycles=n_cycles,
        raw_wall_s=cycle_seconds(records, "seconds"),
        window_s=window_s,
        window_cpu_s=window_cpu_s,
        setup_samples_s=probes.samples if probes is not None else [],
        setup_reference_s=probes.references if probes is not None else [],
        raw_setup_s=statistics.median(probes.samples) if probes is not None else None,
        pace_kernel_s=statistics.median(pace.durations),
        pace_samples=[[t - pace.times[0], d] for t, d in zip(pace.times, pace.durations)],
        op_intervals=[[r["start"] - pace.times[0], r["end"] - pace.times[0]] for r in records],
        op_seconds=[r["seconds"] for r in records],
    )
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": probes.paced(), "unit": "s"},
            "paced_wall_s": {"value": per_cycle_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "info": info, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# machine " + json.dumps(machine))
    long_lists = ("op_seconds", "pace_samples", "op_intervals")
    print("# info " + json.dumps({k: v for k, v in info.items() if k not in long_lists}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
