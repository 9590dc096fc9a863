"""Output checks.  Each returns a list of problems; an op with any problem counts as failed.

The checks run outside the timed body and with tracing off.  They call the
program only through its public API, and recompute what they compare from
first principles where that is cheap (outage counts, binomial errors).
"""

import hashlib
import os

import numpy as np


def curve_csv_digest(irslink, curve, workdir):
    """sha256 of the curve's CSV text as the program writes it."""
    path = os.path.join(workdir, "curve.csv")
    irslink.write_curve_csv(curve, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_curve(curve, op, expected_digest=None, digest=None):
    """Shape, range and monotonicity of one curve, and its digest where one is recorded."""
    problems = []
    sc = op.scenario
    if curve.trials != op.trials or (op.trials and curve.seed != op.mc_seed):
        problems.append(f"curve reports trials={curve.trials} seed={curve.seed}")
    if not np.array_equal(curve.xi, sc.xi_grid()):
        problems.append("curve grid differs from the scenario grid")
    has_cf = type(sc.design).__name__ != "OptimalCsi"
    for name, expect_finite in (("p_closed_form", has_cf), ("p_mc", op.trials > 0)):
        col = np.asarray(getattr(curve, name), dtype=float)
        finite = np.isfinite(col)
        if expect_finite and not finite.all():
            problems.append(f"{name} has non-finite entries")
        if not expect_finite and finite.any():
            problems.append(f"{name} should be NaN throughout")
        vals = col[finite]
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
            problems.append(f"{name} leaves [0, 1]")
        if vals.size > 1 and np.any(np.diff(vals) < 0.0):
            problems.append(f"{name} decreases in xi")
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"CSV digest {digest} != recorded {expected_digest}")
    return problems


def check_counts(curve, gains):
    """p_mc and std_err must be exactly the strict-inequality outage counts of the gains."""
    trials = curve.trials
    if gains.shape != (trials,):
        return [f"captured gains have shape {gains.shape}, expected ({trials},)"]
    failures = np.array([np.count_nonzero(gains < z) for z in curve.z])
    p = failures / trials
    se = np.sqrt(p * (1.0 - p) / trials)
    problems = []
    bad = np.flatnonzero((p != curve.p_mc) | (se != curve.std_err))
    if bad.size:
        j = int(bad[0])
        problems.append(
            f"{bad.size} grid points disagree with the gain counts, first xi={curve.xi[j]!r}: "
            f"p_mc={curve.p_mc[j]!r} vs {p[j]!r}"
        )
    return problems


def check_gains_per_trial(irslink, op, gains, indices):
    """Recompute the sampled trials through the public per-trial operations; must match exactly."""
    sc = op.scenario
    r_sr, r_rd = sc.covariances()
    l_sr, l_rd = irslink.matrix_sqrt(r_sr), irslink.matrix_sqrt(r_rd)
    cophased = isinstance(sc.design, irslink.OptimalCsi)
    mismatched = []
    for i in indices:
        ch = irslink.sample_channels(sc.beta_sd, l_sr, l_rd, op.mc_seed, int(i))
        phases = (
            irslink.cophased_phases(ch)
            if cophased
            else irslink.phase_vector(sc.design, sc.n, draw_index=int(i))
        )
        if irslink.effective_gain(ch, phases) != gains[i]:
            mismatched.append(int(i))
    if mismatched:
        return [f"{len(mismatched)}/{len(indices)} sampled trials differ, first trial {mismatched[0]}"]
    return []


def check_gate(results, numbers):
    """Every gated criterion ran, in order, and passed."""
    got = [r.number for r in results]
    if got != list(numbers):
        return [f"gate ran criteria {got}, expected {list(numbers)}"]
    return [f"criterion {r.number} failed: {r.detail}" for r in results if not r.passed]
