"""The acceptance matrix: every release gate as an executable check.

Each criterion is a check returning (ok, detail) that ``_criterion`` times,
holds to its wall-clock limit, turns into a CriterionResult and registers in
CRITERIA; the CLI ``validate`` subcommand and the test suite both run these,
so the gate is identical everywhere.  MC-based
criteria accept trial/seed overrides for quick smoke runs, but the canonical
gate is the default configuration.
"""

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .closedform import (
    GammaParams,
    gain_moments,
    gamma_fit,
    gamma_fit_equal_phase,
    outage_probability,
    outage_scale_sensitivity,
    regularized_upper_gamma,
    snr_threshold,
    uniform_phase_trace_moments,
    uniform_phase_trace_moments_by_sums,
)
from .correlation import ArrayGeometry, CorrelationMatrix, sinc_correlation
from .curves import run_compare, run_curve, run_surface
from .montecarlo import McEstimate, gain_samples, outage_counts
from .phaseshift import Equal, Fixed, OptimalCsi, UniformRandom, cascade_traces, equal_phase_trace_bound, phase_vector
from .scenario import load_scenario

QUARTER_TURN = math.pi / 4.0
_DESIGN_SEED = 9001  # phase seed of the uniform-random design used in MC criteria


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.detail}) [{self.runtime:.1f}s/{self.limit:.0f}s]"


CRITERIA = {}


def _criterion(number: int, name: str, limit: float):
    """Register a check as criterion ``number`` in CRITERIA.

    The check takes (trials, seed) and returns (ok, detail); the registered
    criterion times it and returns its CriterionResult, failed also when the
    check took ``limit`` seconds or more.
    """

    def register(check):
        @functools.wraps(check)
        def criterion(trials=None, seed=None) -> CriterionResult:
            start = time.perf_counter()
            ok, detail = check(trials, seed)
            runtime = time.perf_counter() - start
            if runtime >= limit:
                ok = False
                detail += f"; runtime {runtime:.1f}s exceeded {limit:.0f}s"
            return CriterionResult(number, name, bool(ok), detail, runtime, limit)

        CRITERIA[number] = criterion
        return criterion

    return register


def _random_psd(gen, n: int) -> CorrelationMatrix:
    g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
    return CorrelationMatrix(g @ g.conj().T / n)


def _matrix_pairs(seed: int = 101, count: int = 50):
    gen = np.random.default_rng(seed)
    sizes = (1, 2, 4, 16)
    pairs = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        beta_sd = 0.0 if i % 5 == 0 else float(gen.uniform(0.1, 2.0))
        pairs.append((n, beta_sd, _random_psd(gen, n), _random_psd(gen, n), gen))
    return pairs


def _sinc_square(elements_per_side: int) -> CorrelationMatrix:
    wavelength = 0.1
    spacing = wavelength / 40.0
    geom = ArrayGeometry(elements_per_side, elements_per_side, spacing, spacing, wavelength)
    return sinc_correlation(geom)


@_criterion(1, "moment identities", 10.0)
def criterion_1(trials=None, seed=None):
    """Gamma fit reproduces the matched mean and variance exactly."""
    worst = 0.0
    for n, beta_sd, r_sr, r_rd, gen in _matrix_pairs():
        for _ in range(10):
            phases = phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n)
            mean, var = gain_moments(beta_sd, r_sr, r_rd, phases)
            gp = gamma_fit(beta_sd, r_sr, r_rd, phases)
            worst = max(
                worst,
                abs(gp.mean - mean) / abs(mean),
                abs(gp.variance - var) / var,
            )
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


@_criterion(2, "reduction equivalences", 10.0)
def criterion_2(trials=None, seed=None):
    """Equal-phase reduction and the dual uniform-phase routes agree exactly."""
    worst = 0.0
    for n, beta_sd, r_sr, r_rd, gen in _matrix_pairs():
        theta = float(gen.uniform(-np.pi, np.pi))
        via_general = gamma_fit(beta_sd, r_sr, r_rd, phase_vector(Equal(theta), n))
        via_equal = gamma_fit_equal_phase(beta_sd, r_sr, r_rd)
        worst = max(
            worst,
            abs(via_general.shape - via_equal.shape) / via_equal.shape,
            abs(via_general.scale - via_equal.scale) / via_equal.scale,
        )
        matrix_form = uniform_phase_trace_moments(r_sr, r_rd)
        sums = uniform_phase_trace_moments_by_sums(r_sr, r_rd)
        for field in ("mean_trace", "mean_trace_sq", "mean_quad_trace"):
            a, b = getattr(matrix_form, field), getattr(sums, field)
            worst = max(worst, abs(a - b) / max(1e-300, abs(b)))
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


@_criterion(3, "phase-expectation oracle", 60.0)
def criterion_3(trials=None, seed=None):
    """Phase-averaged trace statistics match their Monte-Carlo expectations."""
    trials = 100_000 if trials is None else trials
    seed = 202 if seed is None else seed
    r = _sinc_square(4)
    design = UniformRandom(seed)
    t_lin = np.empty(trials)
    t_quad = np.empty(trials)
    for i in range(trials):
        t_lin[i], t_quad[i] = cascade_traces(r, r, phase_vector(design, r.n, draw_index=i))
    moments = uniform_phase_trace_moments(r, r)
    checks = [
        ("trace", np.mean(t_lin), np.std(t_lin, ddof=1), moments.mean_trace),
        ("trace^2", np.mean(t_lin**2), np.std(t_lin**2, ddof=1), moments.mean_trace_sq),
        ("quad trace", np.mean(t_quad), np.std(t_quad, ddof=1), moments.mean_quad_trace),
    ]
    detail = []
    ok = True
    for name, got, sd, want in checks:
        se = sd / np.sqrt(trials)
        pull = abs(got - want) / se
        ok &= pull <= 3.0
        detail.append(f"{name} pull {pull:.2f}sigma")
    return ok, ", ".join(detail)


def _mc_curve_gap(scenario, trials, seed):
    """Worst closed-form/MC deviation over the grid, as a multiple of the bound."""
    curve = run_curve(scenario, trials, seed)
    bound = np.maximum(0.02, 4.0 * curve.std_err)
    gap = np.abs(curve.p_closed_form - curve.p_mc)
    return float(np.max(gap / bound)), float(np.max(gap))


@_criterion(4, "closed form vs Monte Carlo", 300.0)
def criterion_4(trials=None, seed=None):
    """Closed form tracks Monte Carlo across the figure-reproduction matrix."""
    trials = 100_000 if trials is None else trials
    seed = 404 if seed is None else seed
    worst_frac, worst_gap, worst_case = 0.0, 0.0, ""
    for preset in ("fig2a", "fig2b"):
        base = load_scenario(preset)
        for side in (8, 14):
            sc = replace(base, n_h=side, n_v=side, name=f"{preset}-{side*side}")
            for design in (Equal(QUARTER_TURN), UniformRandom(_DESIGN_SEED)):
                frac, gap = _mc_curve_gap(sc.with_design(design), trials, seed)
                if frac > worst_frac:
                    worst_frac, worst_gap = frac, gap
                    worst_case = f"{sc.name}/{type(design).__name__}"
    ok = worst_frac <= 1.0
    return ok, f"worst gap {worst_gap:.4f} = {worst_frac:.2f}x bound at {worst_case}"


@_criterion(5, "design ordering (blocked direct channel)", 300.0)
def criterion_5(trials=None, seed=None):
    """Blocked-channel design ordering: uniform > equal > co-phased."""
    trials = 100_000 if trials is None else trials
    seed = 505 if seed is None else seed
    sc = load_scenario("fig2b")
    r_sr, r_rd = sc.covariances()
    # The transitions live at very small target rates for these link gains;
    # sample the decades around them.
    xi = np.array(
        [0.0005, 0.0008, 0.0012, 0.0018, 0.0027, 0.004, 0.006, 0.009,
         0.0135, 0.02, 0.03, 0.045, 0.07, 0.1, 0.15]
    )
    z = snr_threshold(sc.system_parameters(0.0), xi)
    designs = {
        "uniform": UniformRandom(_DESIGN_SEED),
        "equal": Equal(QUARTER_TURN),
        "optimal": OptimalCsi(),
    }
    p, se = {}, {}
    for name, design in designs.items():
        gains = gain_samples(sc.beta_sd, r_sr, r_rd, design, trials, seed)
        p[name], se[name] = McEstimate.rates(trials, outage_counts(gains, z))

    def in_window(name):
        return (p[name] > 0.05) & (p[name] < 0.95)

    def ordered(hi, lo, window):
        if not np.any(window):
            return False, np.inf
        gap = p[hi][window] - p[lo][window]
        need = 4.0 * np.sqrt(se[hi][window] ** 2 + se[lo][window] ** 2)
        return bool(np.all(gap > need)), float(np.min(gap / np.maximum(need, 1e-300)))

    all_window = in_window("uniform") & in_window("equal") & in_window("optimal")
    if np.any(all_window):
        ok1, m1 = ordered("uniform", "equal", all_window)
        ok2, m2 = ordered("equal", "optimal", all_window)
        detail = f"common window ({int(np.sum(all_window))} pts), min gap {min(m1, m2):.1f}x requirement"
    else:
        # The common window is empty for these link gains (the uniform design
        # saturates before co-phasing lifts off), so each ordering is checked
        # on the window where its own pair is resolvable.
        w1 = in_window("uniform") & in_window("equal")
        w2 = in_window("equal") & in_window("optimal")
        ok1, m1 = ordered("uniform", "equal", w1)
        ok2, m2 = ordered("equal", "optimal", w2)
        detail = (
            f"pairwise windows ({int(np.sum(w1))}/{int(np.sum(w2))} pts), "
            f"min gaps {m1:.1f}x/{m2:.1f}x requirement"
        )
    return ok1 and ok2, detail


@_criterion(6, "correlation-model ordering", 60.0)
def criterion_6(trials=None, seed=None):
    """Correlation-model ordering and the direct channel masking it."""
    blocked = load_scenario("fig2c")
    present = blocked.with_direct_gain_db(-90.0)
    models = ("sinc", "exponential", "uncorrelated")

    def curves_and_gap(sc):
        curves = run_compare(sc, models, trials=0, seed=0)
        stack = np.stack([curves[m].p_closed_form for m in models])
        gap = np.max(stack, axis=0) - np.min(stack, axis=0)
        return curves, float(np.max(gap))

    curves_b, gap_b = curves_and_gap(blocked)
    _, gap_p = curves_and_gap(present)
    sinc_p = curves_b["sinc"].p_closed_form
    exp_p = curves_b["exponential"].p_closed_form
    window = (sinc_p > 0.01) & (sinc_p < 0.99) & (exp_p > 0.01) & (exp_p < 0.99)
    ordering = np.any(window) and bool(np.all(sinc_p[window] <= exp_p[window]))
    ratio = gap_b / gap_p if gap_p > 0 else np.inf
    ok = ordering and ratio >= 5.0
    return ok, f"{int(np.sum(window))} window pts, blocked/present gap ratio {ratio:.0f}"


@_criterion(7, "scale-derivative closed form", 5.0)
def criterion_7(trials=None, seed=None):
    """Closed-form scale derivative against central finite differences."""
    shapes = np.logspace(np.log10(0.2), np.log10(20.0), 10)
    scales = np.logspace(-1.0, 1.0, 10)
    ratios = np.logspace(-1.0, 1.0, 10)
    worst = 0.0
    all_negative = True
    for k in shapes:
        for w in scales:
            for r in ratios:
                z = r * w
                closed = outage_scale_sensitivity(GammaParams(k, w), z)
                all_negative &= closed < 0
                h = 1e-6 * w
                fd = (
                    outage_probability(GammaParams(k, w + h), z)
                    - outage_probability(GammaParams(k, w - h), z)
                ) / (2.0 * h)
                worst = max(worst, abs(closed - fd) / abs(closed))
    ok = worst <= 1e-5 and all_negative
    return ok, f"max rel dev {worst:.2e}"


@_criterion(8, "equal-phase asymptotics", 30.0)
def criterion_8(trials=None, seed=None):
    """Equal phases dominate and the fit tightens as the surface grows."""
    gen = np.random.default_rng(808)
    shapes, scale_gaps, bounds_ok = [], [], []
    for side in (4, 8, 12, 16, 20):
        r = _sinc_square(side)
        gp = gamma_fit_equal_phase(0.0, r, r)
        t1, _ = cascade_traces(r, r, phase_vector(Equal(0.0), r.n))
        shapes.append(gp.shape)
        scale_gaps.append(abs(gp.scale - t1) / t1)
        designs = [Fixed(gen.uniform(-np.pi, np.pi, r.n)) for _ in range(100)]
        bounds_ok.append(equal_phase_trace_bound(r, 1.0, designs).passed)
    shapes = np.array(shapes)
    toward_one = np.all(np.diff(np.abs(shapes - 1.0)) < 0) and np.all(shapes < 1.0)
    gaps_down = np.all(np.diff(scale_gaps) < 0)
    ok = bool(toward_one and gaps_down and all(bounds_ok))
    return ok, (
        f"shape {shapes[0]:.3f}->{shapes[-1]:.3f}, scale gap {scale_gaps[0]:.2f}->{scale_gaps[-1]:.2f}, "
        f"bound {'held' if all(bounds_ok) else 'violated'}"
    )


@_criterion(9, "special-function identities", 1.0)
def criterion_9(trials=None, seed=None):
    """Special-function identities for the regularized upper gamma."""
    xs = np.linspace(0.0, 50.0, 501)
    worst = 0.0
    for x in xs:
        q1 = regularized_upper_gamma(1.0, x)
        ref = math.exp(-x)
        worst = max(worst, abs(q1 - ref) / ref)
        qh = regularized_upper_gamma(0.5, x)
        refh = math.erfc(math.sqrt(x))
        worst = max(worst, abs(qh - refh) / max(refh, 5e-324))
        for m in (2, 3, 5, 10):
            qm = regularized_upper_gamma(float(m), x)
            term, total = 1.0, 1.0
            for j in range(1, m):
                term *= x / j
                total += term
            refm = math.exp(-x) * total
            worst = max(worst, abs(qm - refm) / refm)
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


@_criterion(10, "outage surface", 5.0)
def criterion_10(trials=None, seed=None):
    """The outage surface: exact spot value and monotonicity in both axes."""
    spot = outage_probability(GammaParams(1.0, 2.0), 2.0)
    spot_ok = abs(spot - (1.0 - math.exp(-1.0))) <= 1e-12
    ka = np.arange(0.25, 5.0001, 0.25)
    wa = np.arange(0.25, 5.0001, 0.25)
    surf = run_surface(ka, wa, 2.0)
    down_in_scale = np.all(np.diff(surf, axis=1) < 0)
    down_in_shape = np.all(np.diff(surf, axis=0) < 0)
    ok = bool(spot_ok and down_in_scale and down_in_shape)
    return ok, (
        f"spot dev {abs(spot - (1.0 - math.exp(-1.0))):.1e}, monotone={down_in_scale and down_in_shape}"
    )


def run_criteria(numbers=None, trials=None, seed=None):
    """Run the criteria in order; a bad seed override fails before any of them starts."""
    if seed is not None:
        rng.check_seed(seed)
    numbers = sorted(CRITERIA) if numbers is None else list(numbers)
    return [CRITERIA[n](trials=trials, seed=seed) for n in numbers]
