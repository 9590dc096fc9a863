"""Run the benchmark over several seeds and summarise each end-to-end metric; or write a baseline.

    python3 perfbench/spread.py --seeds 1-10                       # every workload
    python3 perfbench/spread.py --seeds 1-5 --workloads mc_fig2a
    python3 perfbench/spread.py --baseline new-baseline.json       # two seed sets plus traced runs

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median, next to the metric's bound from BENCHMARK.json.
Runs are sequential; each is a separate ``run.py`` process.

``--baseline`` writes the format of baseline.json: two sets of seeds
(``--seeds``, default 1-10, and ``--seeds2``, default 11-20) with each
end-to-end metric's quartiles and the shift of its median between the sets,
the unpaced ``raw_wall_s`` and ``raw_setup_s`` for comparison, one traced run per workload at
the default seed for the per-layer figures, and the figures compared with
the ROADMAP's timings.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 1  # as in run.py, which pins BLAS threads when imported and so is not imported here
DERIVED = ("trials_per_s", "var_x_s", "curves_per_s")
RAW = ("raw_wall_s", "raw_setup_s")  # the paced metrics' unpaced estimates


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l[len("# info "):]) for l in lines if l.startswith("# info ")), {})
    machine = next((json.loads(l[len("# machine "):]) for l in lines if l.startswith("# machine ")), {})
    return json.loads(lines[-1]), info, machine, elapsed


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def measure(bench, names, seeds, trace):
    """Run every workload over the seeds; returns (machine, {workload: summary})."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    machine, summary = {}, {}
    for workload in names:
        per_metric, infos, runs_s, correct = {}, [], [], True
        for seed in seeds:
            result, info, machine, elapsed = run_once(workload, seed, bench["run_seconds"], trace)
            correct &= result["correct"]
            infos.append(info)
            runs_s.append(elapsed)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"correct": correct, "run_seconds_max": max(runs_s), "metrics": {}, "info": {}}
        for name, values in per_metric.items():
            s = summarise(values) if len(values) > 1 else {"median": values[0], "values": values}
            entry["metrics"][name] = s
            if name in bounds and s.get("spread") is not None:
                print(f"  {workload:15s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                      f"  bound {bounds[name]}  ({'ok' if s['spread'] < bounds[name] / 3 else 'WIDE'})")
        for key in DERIVED + RAW:
            vals = [i[key] for i in infos if key in i]
            if vals:
                entry["info"][key] = summarise(vals) if len(vals) > 1 else {"median": vals[0], "values": vals}
        summary[workload] = entry
    return machine, summary


def roadmap_figures(set1):
    """The timings the ROADMAP quotes, as this machine gives them."""
    trials = 10_000  # per mc_fig2a op, as workloads.MC_TRIALS
    figures = {}
    if "mc_fig2a" in set1:
        e = set1["mc_fig2a"]
        figures["mc_fig2a_us_per_trial_raw"] = 1e6 * e["info"]["raw_wall_s"]["median"] / trials
        figures["mc_fig2a_us_per_trial_paced"] = 1e6 * e["metrics"]["paced_wall_s"]["median"] / trials
    trace = OUT / f"trace-cf_sweep-seed{DEFAULT_SEED}.npz"
    if trace.exists():
        # A cf_sweep cycle is N (16, 64, 196, 400) x 3 models x 3 designs, the design
        # innermost with uniform_random last: the N=196 uniform-phase fits sit at
        # positions 20, 23, 26 and the N=400 ones at 29, 32, 35.
        z = np.load(trace)
        names = list(z["names"])
        dur = z["end"] - z["start"]
        pos = z["op"] % 36

        def ms(span, positions):
            sel = (z["name"] == names.index(span)) & np.isin(pos, positions)
            return 1e3 * float(np.median(dur[sel]))

        fit, oracle = "closedform.gamma_fit_uniform_phase", "closedform.uniform_phase_trace_moments_by_sums"
        figures["uniform_fit_n196_ms_traced"] = ms(fit, [20, 23, 26])
        figures["uniform_fit_n196_oracle_ms_traced"] = ms(oracle, [20, 23, 26])
        figures["uniform_fit_n400_ms_traced"] = ms(fit, [29, 32, 35])
    figures["text"] = (
        "ROADMAP's re-anchor measured 130-190 us per trial for gain_samples at N=196 and 250 ms for the "
        "N=196 uniform-phase fit (244 ms of it the index-sum oracle); an earlier measurement found about "
        "90 us and 108 ms. Here, with one BLAS thread, a 10k-trial fig2a curve costs the per-trial figures "
        "above (raw: as timed, including slow stretches; paced: at the machine's normal pace, covariance "
        "set-up included), and the traced fit figures above include tracing overhead. The machine's pace "
        "moves these by up to 2x within minutes, which is why the wall-time metric is paced."
    )
    return figures


def baseline(bench, names, seeds1, seeds2):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    machine, set1 = measure(bench, names, seeds1, 0)
    _, set2 = measure(bench, names, seeds2, 0)
    out = {
        "about": (
            f"Results of the benchmark. Two sets of runs per workload (seeds {seeds1[0]}-{seeds1[-1]} and "
            f"{seeds2[0]}-{seeds2[-1]}), run_seconds {bench['run_seconds']}, written by perfbench/spread.py "
            "--baseline; spread is the quartile distance over the median (statistics.quantiles n=4). "
            "raw_wall_s and raw_setup_s are the same estimates without pacing, for comparison. per_layer holds one "
            f"traced run per workload at seed {DEFAULT_SEED} (per-cycle averages; times include the "
            "tracing overhead they report)."
        ),
        "machine": machine,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for w in names:
        a, b = set1[w], set2[w]
        e = {"correct": a["correct"] and b["correct"], "end_to_end": {}}
        keep = ("median", "q1", "q3", "spread", "values")
        for name, s1 in a["metrics"].items():
            s2 = b["metrics"][name]
            e["end_to_end"][name] = {
                "bound": bounds[name],
                "set1": {k: s1[k] for k in keep},
                "set2": {k: s2[k] for k in keep},
                "median_change": (s2["median"] - s1["median"]) / s1["median"],
            }
        for key in RAW:
            e[key] = {"set1": {k: a["info"][key][k] for k in keep[:4]}, "set2": {k: b["info"][key][k] for k in keep[:4]}}
        for key in DERIVED:
            if key in a["info"]:
                e[key] = a["info"][key]["median"]
        result, _, _, _ = run_once(w, DEFAULT_SEED, bench["run_seconds"], 1)
        print(f"{w} traced: correct={result['correct']} overhead_share="
              f"{result['metrics']['trace.overhead_share']['value']:.3f}", flush=True)
        e["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        e["traced_correct"] = result["correct"]
        out["workloads"][w] = e
    out["roadmap_comparison"] = roadmap_figures(set1)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seeds2", type=_seeds, default=_seeds("11-20"), help="second seed set of --baseline")
    p.add_argument("--workloads", default="all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", default=None, help="write two seed sets and traced runs here, as JSON")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    if args.baseline:
        out = baseline(bench, names, args.seeds, args.seeds2)
        Path(args.baseline).write_text(json.dumps(out, indent=1) + "\n")
        for w, e in out["workloads"].items():
            for name, m in e["end_to_end"].items():
                print(f"{w:15s} {name:12s} median {m['set1']['median']:.4g} -> {m['set2']['median']:.4g} "
                      f"({m['median_change']:+.3f}, bound {m['bound']})")
        return
    measure(bench, names, args.seeds, args.trace)


if __name__ == "__main__":
    main()
