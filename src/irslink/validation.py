"""The acceptance matrix: every release gate as an executable check.

Each criterion is a check returning (ok, detail) that ``_criterion`` times,
holds to its wall-clock limit, turns into a CriterionResult and registers in
CRITERIA; the CLI ``validate`` subcommand and the test suite both run these,
so the gate is identical everywhere.  MC-based criteria accept trial/seed
overrides for quick smoke runs, but the canonical gate is the default
configuration.  The oracles only the gate needs sit beside the criterion
that runs each: the index-sum phase averages (2), the scale derivative (7)
and the equal-phase trace bound (8); ``import irslink`` does not load them.
Each closed-form statistic the gate checks comes from the route that
``gamma_fit`` runs, a design's ``cascade_moments``: criterion 1 fits
``Fixed`` designs' moments through closedform's ``_moments`` and ``_fit``;
criterion 2 holds the general trace of an ``Equal`` design's phases
(``cascade_traces``) against ``gamma_fit`` of that design, and
``UniformRandom.cascade_moments`` against the index sums; criterion 3
holds its draws against the moments of the ``UniformRandom`` design that
draws them.
Criterion 3 traces its phase draws by a route of its own: it
traces one real, exactly symmetric model R against itself, so each draw's
R conj(D) R is symmetric, and one matrix product per stack of draws
against an (N, N(N+1)/2) kernel gives its upper triangle.  The kernel grows
as N^3 and so suits its N = 16 only; the route agrees with
``cascade_traces`` of each draw to rounding and makes the same checks.
Criteria 3 and 8 both need R real and exactly symmetric, and
``_real_symmetric`` is their one guard.
"""

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .closedform import GammaParams, _fit, _moments, gamma_fit, outage_probability
from .correlation import ArrayGeometry, CorrelationMatrix, sinc_correlation
from .curves import run_compare, run_curve, run_surface
from .errors import DomainError
from .montecarlo import _trial_array, _worker_cpu, gain_samples, outage_rates, run_ranges
from .phaseshift import Equal, Fixed, OptimalCsi, UniformRandom, _checked_traces, _wrap_angle, cascade_traces
from .scenario import MODELS, load_scenario

QUARTER_TURN = math.pi / 4.0
_DESIGN_SEED = 9001  # phase seed of the uniform-random design used in MC criteria
# Phase draws per stack in criterion 3, and the unit of its engine ranges.
# A stack's upper triangles take 0.56 MB at N = 16.  In a warm process,
# stacks of 128 and 256 cost about the same per draw and stacks of 512
# about 40% more: what moves the cost of a stack is whether the allocator
# must page its arrays in afresh, as it does for every stack of 512.
_TRACE_CHUNK = 256
# Stacks whose phases are drawn in one batch: the vector engine of
# rng.StreamFamily.fill costs less per draw on more rows.
_DRAW_STACKS = 8
TRACE_BOUND_SLACK = 1e-10  # a trace-bound margin may fall this far below zero


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float  # wall seconds, held to ``limit``
    limit: float
    cpu: float = 0.0  # CPU seconds of the process and of its engine workers' ranges; tells contention apart from a slower check

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.number}: {self.name} ({self.detail}) "
            f"[{self.runtime:.1f}s/{self.limit:.0f}s, cpu {self.cpu:.1f}s]"
        )


CRITERIA = {}


def _criterion(number: int, name: str, limit: float):
    """Register a check as criterion ``number`` in CRITERIA.

    The check takes (trials, seed) and returns (ok, detail); the registered
    criterion first checks the overrides (DomainError: a trial count below
    2, as criterion 3's sample deviations need two draws, or a seed outside
    [0, 2^64)), then times the check in wall seconds and in CPU seconds (the
    process's, plus those its engine workers report for their ranges) and returns its CriterionResult, failed also when the check took
    ``limit`` wall seconds or more.
    """

    def register(check):
        @functools.wraps(check)
        def criterion(trials=None, seed=None) -> CriterionResult:
            if trials is not None:
                trials = rng.check_trials(trials, least=2)
            if seed is not None:
                seed = rng.check_seed(seed)
            import scipy.special  # loaded before the clocks start, so that no check's time holds this one-time import

            start, cpu_start, workers_start = time.perf_counter(), time.process_time(), _worker_cpu()
            ok, detail = check(trials, seed)
            runtime = time.perf_counter() - start
            cpu = time.process_time() - cpu_start + (_worker_cpu() - workers_start)
            if runtime >= limit:
                ok = False
                detail += f"; runtime {runtime:.1f}s exceeded {limit:.0f}s"
            return CriterionResult(number, name, bool(ok), detail, runtime, limit, cpu)

        CRITERIA[number] = criterion
        return criterion

    return register


def _random_psd(gen, n: int) -> CorrelationMatrix:
    g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
    return CorrelationMatrix(g @ g.conj().T / n)


def _matrix_pairs():
    gen = np.random.default_rng(101)
    sizes = (1, 2, 4, 16)
    pairs = []
    for i in range(50):
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
            mean, var = _moments(beta_sd, *Fixed(gen.uniform(-np.pi, np.pi, n)).cascade_moments(r_sr, r_rd))
            gp = _fit(mean, var)  # what gamma_fit returns, with its mean and variance kept
            worst = max(
                worst,
                abs(gp.mean - mean) / abs(mean),
                abs(gp.variance - var) / var,
            )
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def uniform_phase_trace_moments_by_sums(r_sr: CorrelationMatrix, r_rd: CorrelationMatrix):
    """``UniformRandom.cascade_moments``'s phase averages (E[tr C], E[(tr C)^2],
    E[tr C^2]) from first principles, as explicit index sums.

    Deliberately naive O(N^2) loops; serves as the independent oracle for
    the matrix expressions.
    """
    rs, rd = r_sr.entries, r_rd.entries
    n = r_sr.n
    nu = sum((rs[i, i] * rd[i, i]).real for i in range(n))
    eta = -sum((rd[i, i].real ** 2) * (rs[i, i].real ** 2) for i in range(n))
    for i in range(n):
        for m in range(n):
            eta += (rd[i, i] * rs[i, i] * rd[m, m] * rs[m, m]).real
            eta += (rd[i, m] * rs[m, i] * rd[m, i] * rs[i, m]).real
    delta = -sum((rd[i, i].real ** 2) * (rs[i, i].real ** 2) for i in range(n))
    for i in range(n):
        for m in range(n):
            delta += (rd[i, m] * rs[m, m] * rd[m, i] * rs[i, i]).real
            delta += (rd[i, i] * rs[i, m] * rd[m, m] * rs[m, i]).real
    return float(nu), float(eta), float(delta)


@_criterion(2, "reduction equivalences", 10.0)
def criterion_2(trials=None, seed=None):
    """Equal-phase reduction and the dual uniform-phase routes agree exactly."""
    worst = 0.0
    for n, beta_sd, r_sr, r_rd, gen in _matrix_pairs():
        theta = float(gen.uniform(-np.pi, np.pi))
        t1, t2 = cascade_traces(r_rd, r_sr, Equal(theta).phases(n))
        via_general = _fit(*_moments(beta_sd, t1, t1 * t1, t2))
        via_equal = gamma_fit(beta_sd, r_sr, r_rd, Equal(theta))
        worst = max(
            worst,
            abs(via_general.shape - via_equal.shape) / via_equal.shape,
            abs(via_general.scale - via_equal.scale) / via_equal.scale,
        )
        matrix_form = UniformRandom(_DESIGN_SEED).cascade_moments(r_sr, r_rd)
        sums = uniform_phase_trace_moments_by_sums(r_sr, r_rd)
        for a, b in zip(matrix_form, sums):
            worst = max(worst, abs(a - b) / max(1e-300, abs(b)))
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def _real_symmetric(r: CorrelationMatrix, what: str) -> None:
    """DomainError unless R is real and exactly symmetric, as criteria 3 and 8 need.

    A float64 matrix is real by its dtype: its .imag would be a new N x N
    array of zeros.  A complex one is real if its imaginary part is all zero.
    """
    if (r.entries.dtype.kind == "c" and r.entries.imag.any()) or r.hermitian_residual != 0:
        raise DomainError(f"{what} needs a real, exactly symmetric correlation matrix")


@functools.cache
def _triangle(n: int):
    """Row and column indices of the upper triangle of an n x n matrix: the diagonal first, then the rest row by row.

    Cached: numpy takes about 0.1 ms to build them, a third of the time
    that tracing a stack of 256 draws takes at N = 16.
    """
    rows, cols = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    return np.concatenate((diagonal, rows)), np.concatenate((diagonal, cols))


def _trace_kernel(r: CorrelationMatrix) -> np.ndarray:
    """K (N, N(N+1)/2) with column (i, j), i <= j, = R[i, :] * R[:, j], in ``_triangle`` order.

    Row b of conj(P) @ K is then the upper triangle of A_b = R conj(D_b) R
    for the phases p_b = P[b] on the diagonal of D_b; A_b is symmetric, so
    that triangle is all of it.  R must be real and exactly symmetric
    (DomainError otherwise).  K is complex128, as the phases it meets are:
    it takes 8 N^2 (N + 1) bytes, 34 KB at N = 16, and each stack's product
    is one complex product with no cast of K.
    """
    _real_symmetric(r, "the trace kernel")
    rows, cols = _triangle(r.n)
    return np.asarray(r.entries.T[:, rows] * r.entries[:, cols], dtype=np.complex128)


def _kernel_traces(kernel: np.ndarray, phases: np.ndarray):
    """``cascade_traces(r, r, p_b)`` of each row p_b of a stack (B, N), from K = _trace_kernel(r).

    One matrix product gives the upper triangle of every row's
    A_b = R conj(D_b) R, whose cascade matrix is C_b = A_b D_b; so
    tr C_b = sum_i A_ii p_i and, as A_b is symmetric,
    tr C_b^2 = sum_ij A_ij A_ji p_i p_j = sum_{i<=j} w_ij A_ij^2 p_i p_j with
    w = 1 on the diagonal and 2 off it.  The traces agree with the
    one-vector ``cascade_traces`` of each row to rounding and pass the same
    checks, the first bad row raising its one-vector error.  The product
    runs at the caller's BLAS setting, one thread in a range of run_ranges.
    """
    n = kernel.shape[0]
    rows, cols = _triangle(n)
    a = np.conj(phases) @ kernel
    t_lin = (a[:, :n] * phases).sum(axis=1)
    a *= a
    # take, not phases[:, rows]: that gives a column-major copy, which
    # multiplies into the row-major a several times slower.
    a *= np.take(phases, rows, axis=1)
    a *= np.take(phases, cols, axis=1)
    return _checked_traces(t_lin, a[:, :n].sum(axis=1) + 2.0 * a[:, n:].sum(axis=1))


def _phase_traces(r: CorrelationMatrix, seed: int, trials: int):
    """(t_lin, t_quad): the cascade traces of R under UniformRandom(seed) draws 0..trials-1.

    The draws run in stacks of _TRACE_CHUNK on the engine's ranges
    (run_ranges), each range by _trace_range.
    """
    t_lin, t_quad = _trial_array(trials), _trial_array(trials)
    run_ranges((t_lin, t_quad), _TRACE_CHUNK, _trace_range, _trace_kernel(r), seed)
    return t_lin, t_quad


def _trace_range(first: int, stop: int, views, kernel: np.ndarray, seed: int) -> None:
    """Write (t_lin, t_quad) of draws first..stop-1, from K = _trace_kernel(r), into views: _phase_traces' task for each of its ranges.

    first is a multiple of _TRACE_CHUNK, as run_ranges gives it.  The range
    keys its own draws.  It draws whole aligned stacks of _TRACE_CHUNK
    draws in order, at most _DRAW_STACKS stacks per batch; it traces each
    stack whole and writes the rows that lie in its range.
    """
    draw = UniformRandom(seed).phase_draws(kernel.shape[0])
    t_lin, t_quad = views
    span = _TRACE_CHUNK * -(-(stop - first) // _TRACE_CHUNK)  # the range's whole stacks
    for begin in range(0, span, _TRACE_CHUNK * _DRAW_STACKS):
        phases = draw(first + begin, min(span - begin, _TRACE_CHUNK * _DRAW_STACKS))
        for start in range(begin, begin + phases.shape[0], _TRACE_CHUNK):
            top = min(start + _TRACE_CHUNK, stop - first)
            traces = _kernel_traces(kernel, phases[start - begin : start - begin + _TRACE_CHUNK])
            t_lin[start:top], t_quad[start:top] = (t[: top - start] for t in traces)


@_criterion(3, "phase-expectation oracle", 60.0)
def criterion_3(trials=None, seed=None):
    """Phase-averaged trace statistics match their Monte-Carlo expectations."""
    trials = 100_000 if trials is None else trials
    seed = 202 if seed is None else seed
    r = _sinc_square(4)
    t_lin, t_quad = _phase_traces(r, seed, trials)
    mean_trace, mean_trace_sq, mean_quad_trace = UniformRandom(seed).cascade_moments(r, r)  # the design _phase_traces draws
    checks = [
        ("trace", np.mean(t_lin), np.std(t_lin, ddof=1), mean_trace),
        ("trace^2", np.mean(t_lin**2), np.std(t_lin**2, ddof=1), mean_trace_sq),
        ("quad trace", np.mean(t_quad), np.std(t_quad, ddof=1), mean_quad_trace),
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
                frac, gap = _mc_curve_gap(replace(sc, design=design), trials, seed)
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
    z = sc.snr_threshold(xi)
    designs = {
        "uniform": UniformRandom(_DESIGN_SEED),
        "equal": Equal(QUARTER_TURN),
        "optimal": OptimalCsi(),
    }
    p, se = {}, {}
    for name, design in designs.items():
        gains = gain_samples(sc.beta_sd, r_sr, r_rd, design, trials, seed)
        p[name], se[name] = outage_rates(gains, z)

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
    present = replace(blocked, beta_sd_db=-90.0)

    def curves_and_gap(sc):
        curves = run_compare(sc, MODELS, trials=0, seed=0)
        stack = np.stack([curves[m].p_closed_form for m in MODELS])
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


def outage_scale_sensitivity(gp: GammaParams, z: float) -> float:
    """d(outage)/d(scale) = -z^k e^(-z/w) / (Gamma(k) w^(k+1)); always negative."""
    if not z > 0:
        raise DomainError(f"SNR threshold must be positive, got {z}")
    k, w = gp.shape, gp.scale
    return -math.exp(k * math.log(z) - z / w - math.lgamma(k) - (k + 1.0) * math.log(w))


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
            z = ratios * w
            closed = np.array([outage_scale_sensitivity(GammaParams(k, w), zi) for zi in z])
            all_negative &= bool(np.all(closed < 0))
            h = 1e-6 * w
            fd = (
                outage_probability(GammaParams(k, w + h), z)
                - outage_probability(GammaParams(k, w - h), z)
            ) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(closed - fd) / np.abs(closed))))
    ok = worst <= 1e-5 and all_negative
    return ok, f"max rel dev {worst:.2e}"


def equal_phase_trace_bound(r: CorrelationMatrix, phases: np.ndarray) -> np.ndarray:
    """Margins by which equal phases out-trace each row of a phase stack (B, N).

    Valid for the model where both covariances are proportional to the same
    real, exactly symmetric matrix R (DomainError otherwise); the margin of
    row b is tr under equal phases - Re tr under phases[b], and the bound
    holds when no margin falls below -TRACE_BOUND_SLACK.  With S = R∘R and phases p = c + is,
    Re tr(R P^H R P) = c^T S c + s^T S s, so the margins of the whole stack
    take one real matrix product.
    """
    _real_symmetric(r, "the equal-phase trace bound")
    phases = np.asarray(phases, dtype=np.complex128)
    if phases.ndim != 2 or phases.shape[1] != r.n:
        raise DomainError(f"dimension mismatch: r {r.n}, phases {phases.shape}")
    real = r.entries.real
    t_equal = float(np.sum(real * real.T))
    parts = np.concatenate((phases.real, phases.imag))  # c rows, then s rows
    quad = np.einsum("dn,dn->d", parts @ (real * real), parts)
    return t_equal - (quad[: len(phases)] + quad[len(phases) :])


@_criterion(8, "equal-phase asymptotics", 30.0)
def criterion_8(trials=None, seed=None):
    """Equal phases dominate and the fit tightens as the surface grows."""
    gen = np.random.default_rng(808)
    shapes, scale_gaps, bounds_ok = [], [], []
    for side in (4, 8, 12, 16, 20):
        r = _sinc_square(side)
        t1, t1_sq, t2 = Equal(0.0).cascade_moments(r, r)
        gp = _fit(*_moments(0.0, t1, t1_sq, t2))  # what gamma_fit returns, with t1 kept for the scale gap
        shapes.append(gp.shape)
        scale_gaps.append(abs(gp.scale - t1) / t1)
        # 100 Fixed designs' phase vectors: the draws of 100 calls in one, mapped as Fixed.phases maps them.
        margins = equal_phase_trace_bound(r, np.exp(1j * _wrap_angle(gen.uniform(-np.pi, np.pi, (100, r.n)))))
        bounds_ok.append(bool(np.all(margins >= -TRACE_BOUND_SLACK)))
    shapes = np.array(shapes)
    toward_one = np.all(np.diff(np.abs(shapes - 1.0)) < 0) and np.all(shapes < 1.0)
    gaps_down = np.all(np.diff(scale_gaps) < 0)
    ok = bool(toward_one and gaps_down and all(bounds_ok))
    return ok, (
        f"shape {shapes[0]:.3f}->{shapes[-1]:.3f}, scale gap {scale_gaps[0]:.2f}->{scale_gaps[-1]:.2f}, "
        f"bound {'held' if all(bounds_ok) else 'violated'}"
    )


def _rel_dev(got, ref) -> float:
    return float(np.max(np.abs(got - ref) / np.maximum(ref, 5e-324)))


@_criterion(9, "special-function identities", 1.0)
def criterion_9(trials=None, seed=None):
    """Special-function identities for scipy's regularized upper gamma and, through
    ``outage_probability``, the regularized lower gamma."""
    from scipy import special  # here, like closedform's, so that importing the gate loads numpy only

    xs = np.linspace(0.0, 50.0, 501)
    # One scipy call per shape on the whole grid; the references are math's, point by point.
    exp_ref = np.array([math.exp(-x) for x in xs])
    worst = max(
        _rel_dev(special.gammaincc(1.0, xs), exp_ref),
        _rel_dev(special.gammaincc(0.5, xs), np.array([math.erfc(math.sqrt(x)) for x in xs])),
    )
    for m in (2, 3, 5, 10):
        # Q(m, x) = e^-x sum_{j<m} x^j/j!, each point's terms summed in order.
        term, total = np.ones_like(xs), np.ones_like(xs)
        for j in range(1, m):
            term *= xs / j
            total += term
        worst = max(worst, _rel_dev(special.gammaincc(float(m), xs), exp_ref * total))
    # Lower tail, over the whole grid per shape: P(m, x) = e^-x sum_{j>=m} x^j/j!
    # (terms past j = 200 are below e^-130 of the sum for x <= 50) and P(1/2, x) = erf(sqrt(x)).
    terms = np.empty((201, xs.size))
    terms[0] = 1.0
    for j in range(1, terms.shape[0]):
        terms[j] = terms[j - 1] * xs / j
    tails = np.cumsum(terms[::-1], axis=0)[::-1]  # tails[m] sums j >= m, smallest terms first
    for m in (1, 2, 3, 5, 10):
        lower = outage_probability(GammaParams(float(m), 1.0), xs)
        worst = max(worst, _rel_dev(lower, np.exp(-xs) * tails[m]))
    lower_half = outage_probability(GammaParams(0.5, 1.0), xs)
    worst = max(worst, _rel_dev(lower_half, np.array([math.erf(math.sqrt(x)) for x in xs])))
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
    """Run the criteria in order (all by default); a bad selection, trial or seed override fails before any check runs."""
    valid = ",".join(map(str, sorted(CRITERIA)))
    numbers = sorted(CRITERIA) if numbers is None else list(numbers)
    if not numbers:
        raise DomainError(f"the selection names no criterion; valid numbers are {valid}")
    bad = [n for n in numbers if n not in CRITERIA]
    if bad:
        raise DomainError(f"no criterion {bad[0]}; valid numbers are {valid}")
    return [CRITERIA[n](trials=trials, seed=seed) for n in numbers]
