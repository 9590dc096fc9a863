"""Self-test of the benchmark's output checks: perturbed outputs must count as failed ops.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
``test_*.py``); it takes a few seconds.
"""

import copy
import random
import sys
import types
import unittest

import numpy as np

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))
import irslink  # noqa: E402
from irslink.validation import CriterionResult  # noqa: E402

TRIALS = 4000


def _op(design, index=0):
    raw = irslink.load_scenario("fig2a").to_schema_dict()
    raw.update(n_h=4, n_v=4, design=design)
    raw.pop("theta", None)
    if design == "equal":
        raw["theta"] = 0.3
    if design == "uniform_random":
        raw["seed"] = 77
    return workloads.Op(index, irslink.scenario_from_dict(raw, name="selftest"), TRIALS, 1234)


def _run(op):
    sc = op.scenario
    curve = irslink.run_curve(sc, op.trials, op.mc_seed)
    r_sr, r_rd = sc.covariances()
    gains = irslink.gain_samples(sc.beta_sd, r_sr, r_rd, sc.design, op.trials, op.mc_seed)
    return curve, gains


def _mutable(curve):
    """A plain copy of the curve's fields, so a test can break invariants the class enforces."""
    fields = {k: copy.copy(v) for k, v in vars(curve).items()}
    return types.SimpleNamespace(**fields)


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = [_op(d) for d in ("equal", "uniform_random", "optimal_csi")]
        cls.outputs = [_run(op) for op in cls.ops]

    def test_clean_outputs_pass(self):
        for op, (curve, gains) in zip(self.ops, self.outputs):
            self.assertEqual(checks.check_curve(curve, op), [])
            self.assertEqual(checks.check_counts(curve, gains), [])
            self.assertEqual(checks.check_gains_per_trial(irslink, op, gains, range(0, TRIALS, 97)), [])

    def test_one_changed_failure_count_is_caught(self):
        curve, gains = self.outputs[0]
        bad = _mutable(curve)
        j = int(np.flatnonzero((bad.p_mc > 0) & (bad.p_mc < 1))[0])
        bad.p_mc[j] = (round(bad.p_mc[j] * TRIALS) + 1) / TRIALS
        self.assertTrue(checks.check_counts(bad, gains))

    def test_one_changed_gain_is_caught(self):
        op = self.ops[1]
        gains = self.outputs[1][1].copy()
        gains[10] = np.nextafter(gains[10], np.inf)
        self.assertTrue(checks.check_gains_per_trial(irslink, op, gains, [3, 10, 500]))

    def test_range_and_monotonicity_are_caught(self):
        op, (curve, _) = self.ops[0], self.outputs[0]
        above = _mutable(curve)
        above.p_mc[-1] = 1.5
        self.assertTrue(checks.check_curve(above, op))
        falling = _mutable(curve)
        k = int(np.flatnonzero((falling.p_closed_form[:-1] > 0) & (np.diff(falling.p_closed_form) > 0))[0])
        falling.p_closed_form[k + 1] = falling.p_closed_form[k] / 2
        self.assertTrue(checks.check_curve(falling, op))

    def test_digest_mismatch_is_caught(self):
        op, (curve, _) = self.ops[0], self.outputs[0]
        self.assertEqual(checks.check_curve(curve, op, "a" * 64, "a" * 64), [])
        self.assertTrue(checks.check_curve(curve, op, "a" * 64, "b" * 64))

    def test_failed_criterion_is_caught(self):
        ok = [CriterionResult(n, "c", True, "", 0.0, 1.0) for n in workloads.GATE_CRITERIA]
        self.assertEqual(checks.check_gate(ok, workloads.GATE_CRITERIA), [])
        bad = list(ok)
        bad[2] = CriterionResult(3, "c", False, "pull 5 sigma", 0.0, 1.0)
        self.assertTrue(checks.check_gate(bad, workloads.GATE_CRITERIA))
        self.assertTrue(checks.check_gate(ok[:-1], workloads.GATE_CRITERIA))

    def test_perturbed_op_raises_error_rate(self):
        """End to end through run.py's bookkeeping: one changed failure count -> error_rate 1/3."""
        records = []
        for pos, (op, (curve, _)) in enumerate(zip(self.ops, self.outputs)):
            records.append({"cycle": 0, "pos": pos, "op": op, "out": curve, "error": None, "seconds": 1.0})
        sample = (0, 0)
        run.OUT.mkdir(exist_ok=True)

        def failed_with(curve0):
            recs = [dict(r) for r in records]
            recs[0]["out"] = curve0
            n = run.check_records(irslink, "mc_designs_n64", 99, recs, sample, random.Random(0))
            return n, run.derived("mc_designs_n64", recs, 3.0)["error_rate"]

        self.assertEqual(failed_with(self.outputs[0][0]), (0, 0.0))
        bad = self.outputs[0][0]
        p_mc = bad.p_mc.copy()
        j = int(np.flatnonzero((p_mc > 0) & (p_mc < 1))[0])
        p_mc[j] += 1.0 / TRIALS
        n, rate = failed_with(irslink.OutageCurve(**{**vars(bad), "p_mc": p_mc}))
        self.assertEqual(n, 1)
        self.assertAlmostEqual(rate, 1 / 3)


if __name__ == "__main__":
    unittest.main()
