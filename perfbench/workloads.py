"""Workload definitions: op inputs generated from the workload seed, and op execution.

An op is one unit of user-visible work: one outage curve, or one criterion
of the fast acceptance gate.  A cycle is the smallest group of ops that
covers the workload's whole mix (one op per design, one scenario of every
kind, or every gated criterion once).  A run measures whole cycles, and ops
are kept short (about 1.5 s or less) so that the benchmark can time each
kind of op several times per run.

Generation uses only the standard library, so that timing ``import irslink``
in a fresh interpreter (see setup_probe.py) is not flattered by numpy being
imported already.
"""

import importlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("mc_fig2a", "mc_designs_n64", "cf_sweep", "gate_fast")

# Trials per MC op.  A tenth of the CLI default: ops this short can be timed
# several times per run, which the per-position median in run.py needs.
MC_TRIALS = 10_000
GATE_CRITERIA = (1, 2, 3, 6, 7, 8, 9, 10)
# Criterion 3 draws 100k phase vectors in one call (about 6.5 s), too long to
# time several times per run.  A gate cycle runs the same volume as
# CRITERION3_SPLIT calls of CRITERION3_TRIALS each.  Their seeds are drawn by
# the workload seed, without repeats across the pool, from the seeds
# CRITERION3_FIRST_SEED onwards (202 is the canonical one) that
# record_digests.py screened and found passing.
CRITERION3_TRIALS = 10_000
CRITERION3_SPLIT = 10
CRITERION3_FIRST_SEED = 202
CRITERION3_SCREENED = 240
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Cycles generated (and loaded) per run.  A run stops early when it has used
# them all, so a much faster program cannot reuse a scenario within a run.
# The gate's criteria other than 3 take no seed: they repeat in every cycle.
POOL_CYCLES = {"mc_fig2a": 40, "mc_designs_n64": 24, "cf_sweep": 12, "gate_fast": 8}

CF_SIDES = (4, 8, 14, 20)  # N = 16, 64, 196, 400
CF_MODELS = ("sinc", "exponential", "uncorrelated")
CF_DESIGNS = ("equal", "fixed", "uniform_random")
MC_DESIGNS = ("equal", "uniform_random", "optimal_csi")


class Op:
    """One curve to compute: a validated scenario plus its MC trial count and seed.

    ``index`` numbers the curve ops of a pool in order; digests.json is indexed by it.
    """

    __slots__ = ("index", "scenario", "trials", "mc_seed")

    def __init__(self, index, scenario, trials, mc_seed):
        self.index = index
        self.scenario = scenario
        self.trials = trials
        self.mc_seed = mc_seed


def _rng(workload, seed):
    return random.Random(f"irslink-perfbench:{workload}:{seed}")


def _set_design(raw, kind, gen, n):
    for key in ("theta", "seed"):
        raw.pop(key, None)
    raw["design"] = kind
    if kind == "equal":
        raw["theta"] = gen.uniform(-math.pi, math.pi)
    elif kind == "fixed":
        raw["theta"] = [gen.uniform(-math.pi, math.pi) for _ in range(n)]
    elif kind == "uniform_random":
        raw["seed"] = gen.randrange(2**63)


def generate(irslink, workload, seed):
    """Load and validate every op of the workload's pool; returns a list of cycles.

    This is the set-up the benchmark times: the preset reads and every
    scenario_from_dict call go through the program's own schema validation.
    """
    gen = _rng(workload, seed)
    if workload == "gate_fast":
        # An op is (criterion, trials, seed), with None meaning the criterion's
        # canonical value; only criterion 3 takes a seed.
        importlib.import_module("irslink.validation")
        screen = json.loads(DIGESTS.read_text())["criterion3"]
        if screen["trials"] != CRITERION3_TRIALS:
            raise ValueError("criterion-3 seeds were screened at another trial count; re-run record_digests.py")
        first = screen["first_seed"]
        passing = sorted(set(range(first, first + screen["screened"])) - set(screen["failing"]))
        seeds = gen.sample(passing, POOL_CYCLES[workload] * CRITERION3_SPLIT)
        cycles = []
        for c in range(POOL_CYCLES[workload]):
            cycle = [(n, None, None) for n in GATE_CRITERIA if n != 3]
            own = seeds[c * CRITERION3_SPLIT : (c + 1) * CRITERION3_SPLIT]
            cycle[2:2] = [(3, CRITERION3_TRIALS, s) for s in own]
            cycles.append(cycle)
        return cycles
    cycles = []
    index = 0
    if workload == "mc_fig2a":
        base = irslink.load_scenario("fig2a").to_schema_dict()
        for _ in range(POOL_CYCLES[workload]):
            raw = dict(base)
            _set_design(raw, "equal", gen, 196)
            sc = irslink.scenario_from_dict(raw, name=f"mc_fig2a-{index}")
            cycles.append([Op(index, sc, MC_TRIALS, gen.randrange(2**63))])
            index += 1
    elif workload == "mc_designs_n64":
        base = irslink.load_scenario("fig2b").to_schema_dict()
        base.update(n_h=8, n_v=8, xi_min=0.0005, xi_max=0.15, xi_step=0.0005)
        for _ in range(POOL_CYCLES[workload]):
            cycle = []
            for kind in MC_DESIGNS:
                raw = dict(base)
                _set_design(raw, kind, gen, 64)
                sc = irslink.scenario_from_dict(raw, name=f"mc_designs_n64-{index}")
                cycle.append(Op(index, sc, MC_TRIALS, gen.randrange(2**63)))
                index += 1
            cycles.append(cycle)
    elif workload == "cf_sweep":
        base = irslink.load_scenario("fig2a").to_schema_dict()
        for _ in range(POOL_CYCLES[workload]):
            cycle = []
            for side in CF_SIDES:
                for model in CF_MODELS:
                    for kind in CF_DESIGNS:
                        raw = dict(base)
                        raw.update(
                            n_h=side,
                            n_v=side,
                            model=model,
                            exp_magnitude=gen.uniform(0.5, 0.95),
                            beta_sd_db=gen.choice([None, gen.uniform(-95.0, -85.0)]),
                            beta_sr_dhdv_db=-84.0 + gen.uniform(-3.0, 3.0),
                            beta_rd_dhdv_db=-75.0 + gen.uniform(-3.0, 3.0),
                        )
                        _set_design(raw, kind, gen, side * side)
                        sc = irslink.scenario_from_dict(raw, name=f"cf_sweep-{index}")
                        cycle.append(Op(index, sc, 0, 0))
                        index += 1
            cycles.append(cycle)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cycles


def run_op(irslink, workload, op):
    """The timed unit of work; returns the program's output for checking."""
    if workload == "gate_fast":
        number, trials, seed = op
        return irslink.validation.run_criteria([number], trials=trials, seed=seed)
    return irslink.run_curve(op.scenario, op.trials, op.mc_seed)
