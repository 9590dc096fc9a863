"""Record the expected outputs: CSV digests of the curve pools, and the criterion-3 seed screen.

    python3 perfbench/record_digests.py            # every workload
    python3 perfbench/record_digests.py cf_sweep   # one workload

Writes perfbench/digests.json.  run.py compares every curve op it runs at
the default seed against the digests, so a change to the program that
alters any ``--trials 0`` CSV byte or any Monte-Carlo count shows as a
failed op.  For gate_fast it runs criterion 3 at its split trial count
under every candidate seed and records the seeds that fail, so that
workloads.py draws the gate's seeds from passing ones only.  Re-record only
in a change that is meant to alter the output, and say so.
"""

import json
import shutil
import sys
import tempfile

import run  # first: it pins BLAS to one thread before numpy loads

import checks
import workloads


def screen_criterion3(irslink):
    import irslink.validation

    first, count = workloads.CRITERION3_FIRST_SEED, workloads.CRITERION3_SCREENED
    failing = [
        s for s in range(first, first + count)
        if not irslink.validation.criterion_3(trials=workloads.CRITERION3_TRIALS, seed=s).passed
    ]
    return {"trials": workloads.CRITERION3_TRIALS, "first_seed": first, "screened": count, "failing": failing}


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    import irslink

    data = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {"workloads": {}}
    data["seed"] = run.DEFAULT_SEED
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="csv-", dir=run.OUT)
    try:
        for name in names:
            if name == "gate_fast":
                data["criterion3"] = screen_criterion3(irslink)
                print(f"gate_fast: criterion-3 seeds failing: {data['criterion3']['failing']}", flush=True)
                continue
            digests = []
            for cycle in workloads.generate(irslink, name, run.DEFAULT_SEED):
                for op in cycle:
                    curve = workloads.run_op(irslink, name, op)
                    digest = checks.curve_csv_digest(irslink, curve, workdir)
                    problems = checks.check_curve(curve, op)
                    if problems:
                        raise SystemExit(f"{name} op {op.index}: {problems}")
                    digests.append(digest)
            data["workloads"][name] = digests
            print(f"{name}: {len(digests)} ops recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
