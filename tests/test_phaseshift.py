import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import rng, validation
from irslink.closedform import _fit, _moments, gamma_fit
from irslink.correlation import (
    ArrayGeometry,
    CorrelationMatrix,
    exponential_correlation,
    identity_correlation,
    sinc_correlation,
)
from irslink.curves import run_curve
from irslink.errors import ContractViolationError, DomainError, InternalConsistencyError
from irslink.montecarlo import gain_samples
from irslink.phaseshift import (
    Equal,
    Fixed,
    OptimalCsi,
    UniformRandom,
    _checked_traces,
    _phasors,
    cascade_traces,
    phase_vector,
    real_trace,
)
from irslink.scenario import DESIGNS, load_scenario
from irslink.validation import TRACE_BOUND_SLACK, criterion_3, equal_phase_trace_bound

from conftest import PROPERTY, Records, force_workers, in_own_children, no_child_left, square_sinc


def random_psd(gen, n):
    g = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
    return CorrelationMatrix(g @ g.conj().T / n)


def test_equal_zero_phase():
    assert np.array_equal(phase_vector(Equal(0.0), 3), np.ones(3))


def test_equal_quarter_turn():
    v = phase_vector(Equal(np.pi / 4), 2)
    assert np.allclose(v, np.exp(1j * np.pi / 4))
    assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-14


def test_angles_wrap_into_principal_range():
    assert Equal(3 * np.pi).theta == pytest.approx(-np.pi)
    assert Equal(5 * np.pi / 2).theta == pytest.approx(np.pi / 2)
    fx = Fixed(np.array([5 * np.pi / 2, -3 * np.pi]))
    assert fx.thetas == pytest.approx([np.pi / 2, -np.pi])


def test_fixed_length_mismatch():
    with pytest.raises(DomainError):
        phase_vector(Fixed(np.zeros(3)), 4)


@pytest.mark.parametrize(
    "make_design",
    [
        Equal,
        lambda v: Fixed([v, 0.0]),
        lambda v: Fixed(np.array([0.0, v, 1.0])),
    ],
    ids=["equal", "fixed-list", "fixed-array"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_angles_are_domain_errors(make_design, value):
    with pytest.raises(DomainError, match="phase angles must be finite"):
        make_design(value)


@pytest.mark.parametrize("make_design", [Equal, lambda v: Fixed([v, 0.0])], ids=["equal", "fixed-list"])
def test_huge_integer_angles_are_domain_errors(make_design):
    with pytest.raises(DomainError, match="phase angles must be finite"):
        make_design(-(10**400))


def test_uniform_random_stream():
    v = phase_vector(UniformRandom(42), 10_000)
    assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-14
    # law of large numbers on the seeded stream
    assert abs(np.mean(np.angle(v))) < 0.05
    again = phase_vector(UniformRandom(42), 10_000)
    assert np.array_equal(v, again)
    other_draw = phase_vector(UniformRandom(42), 10_000, draw_index=1)
    assert not np.allclose(v, other_draw)


def test_uniform_random_seed_validation():
    with pytest.raises(ValueError):
        UniformRandom(-1)
    with pytest.raises(ValueError):
        UniformRandom(2**64)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_bad_seeds_are_domain_errors(seed):
    with pytest.raises(DomainError):
        UniformRandom(seed)


def test_unknown_design_is_a_domain_error():
    r = identity_correlation(4)
    for entry in (lambda d: phase_vector(d, 4), lambda d: gain_samples(1.0, r, r, d, 3, 1)):
        for design in ("equal", None, Equal):
            with pytest.raises(DomainError, match="unknown phase-shift design"):
                entry(design)
    with pytest.raises(DomainError, match="unknown phase-shift design"):
        run_curve(replace(load_scenario("fig2c"), design=object()), 0, 1)


@pytest.mark.parametrize(
    "thetas", [np.zeros((2, 2)), np.zeros((1, 2)), np.array([]), []], ids=["2x2", "1x2", "empty", "empty-list"]
)
def test_fixed_needs_a_1d_array_of_at_least_one_angle(thetas):
    r = identity_correlation(2)
    message = "^fixed design needs a 1-D array of at least one angle, got shape"
    with pytest.raises(DomainError, match=message):
        Fixed(thetas)
    with pytest.raises(DomainError, match=message):
        gain_samples(0.0, r, r, Fixed(thetas), 3, 1)
    with pytest.raises(DomainError, match=message):
        gamma_fit(0.0, r, r, Fixed(thetas))
    assert Fixed(0.5).thetas.shape == (1,)  # one angle, given as a scalar


def test_design_kinds_are_the_schema_names():
    kinds = [d.kind for d in (Equal(0.5), Fixed(np.zeros(2)), UniformRandom(3), OptimalCsi())]
    assert kinds == ["equal", "fixed", "uniform_random", "optimal_csi"]
    assert tuple(kinds) == DESIGNS
    assert Equal(0.5).schema_fields() == {"theta": 0.5}
    assert Fixed(np.array([0.0, 0.5])).schema_fields() == {"theta": [0.0, 0.5]}
    assert UniformRandom(3).schema_fields() == {"seed": 3}
    assert OptimalCsi().schema_fields() == {}


def test_each_design_fits_with_its_own_closed_form():
    gen = np.random.default_rng(11)
    r_sr, r_rd = random_psd(gen, 5), random_psd(gen, 5)
    fixed = Fixed(gen.uniform(-np.pi, np.pi, 5))
    t1, t2 = cascade_traces(r_rd, r_sr, phase_vector(Equal(0.3), 5))
    assert Equal(0.3).cascade_moments(r_sr, r_rd) == pytest.approx((t1, t1 * t1, t2), rel=1e-12)
    t1, t2 = cascade_traces(r_rd, r_sr, phase_vector(fixed, 5))
    assert fixed.cascade_moments(r_sr, r_rd) == (t1, t1 * t1, t2)
    want = validation.uniform_phase_trace_moments_by_sums(r_sr, r_rd)
    assert UniformRandom(8).cascade_moments(r_sr, r_rd) == pytest.approx(want, rel=1e-12)
    assert OptimalCsi().cascade_moments(r_sr, r_rd) is None
    # One fit route: the design's moments, matched by _moments and _fit.
    for design in (Equal(0.3), fixed, UniformRandom(8)):
        assert gamma_fit(0.4, r_sr, r_rd, design) == _fit(*_moments(0.4, *design.cascade_moments(r_sr, r_rd)))
    assert gamma_fit(0.4, r_sr, r_rd, OptimalCsi()) is None
    with pytest.raises(DomainError, match="unknown phase-shift design"):
        gamma_fit(0.4, r_sr, r_rd, "equal")


def test_block_phases_are_the_per_draw_phase_vectors():
    h = np.ones((3, 6), dtype=complex)
    for design in (Equal(1.0), Fixed(np.linspace(-3.0, 3.0, 6)), UniformRandom(77)):
        block = np.broadcast_to(design.block_phases(6)(130, h[:, 0], h, h), h.shape)
        for r in range(3):
            assert np.array_equal(block[r], phase_vector(design, 6, draw_index=130 + r))


def test_uniform_block_draws_are_the_per_draw_phase_vectors():
    design = UniformRandom(77)
    draw = design.phase_draws(16)
    # Chunks of 5, 130 and 3 cross the simulator's 64-trial blocks; a later call may start anywhere.
    rows = np.concatenate([draw(0, 5), draw(5, 130), draw(135, 3)])
    assert rows.shape == (138, 16)
    for i in range(138):
        assert np.array_equal(rows[i], phase_vector(design, 16, draw_index=i))
    assert np.array_equal(draw(3, 2), rows[3:5])
    assert np.array_equal(draw(1000, 1)[0], phase_vector(design, 16, draw_index=1000))


def test_uniform_block_draws_stay_in_the_phase_domain():
    design = UniformRandom(77)
    draw = design.phase_draws(4)
    last = 2**128 - 1
    assert np.array_equal(draw(last, 1)[0], phase_vector(design, 4, draw_index=last))
    # Draw 2^128 would be draw 0 of the next domain; index -1 lies before the domain.
    for start, count in ((last, 2), (-1, 2), (-1, 0), (2**128, 0)):
        with pytest.raises(DomainError, match=r"stream index must lie in \[0, 2\^128\)"):
            draw(start, count)


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_one_vector_traces_keep_their_arithmetic(n):
    gen = np.random.default_rng(n)
    r_sr, r_rd = random_psd(gen, n), random_psd(gen, n)
    fixed = np.stack([phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n) for _ in range(7)])
    for phases in np.concatenate([fixed, UniformRandom(19).phase_draws(n)(40, 70)]):
        # One matrix product, the trace, then a pairwise sum of c * c^T.
        c = r_rd.entries @ ((np.conj(phases)[:, None] * r_sr.entries) * phases[None, :])
        assert cascade_traces(r_rd, r_sr, phases) == (np.trace(c).real, np.sum(c * c.T).real)


def _per_row_traces(r_rd, r_sr, stack):
    """(t_lin, t_quad) of a phase stack (B, N) from one-vector cascade_traces on each row."""
    rows = [cascade_traces(r_rd, r_sr, phases) for phases in stack]
    return np.array([t for t, _ in rows]), np.array([q for _, q in rows])


def _diagonal(values):
    """A stand-in for a correlation matrix, unchecked: R = diag(values)."""
    return SimpleNamespace(n=len(values), entries=np.diag(np.asarray(values, dtype=complex)))


def _symmetric(entries):
    """A stand-in for a real symmetric correlation matrix, unchecked: PSD or not."""
    return SimpleNamespace(n=len(entries), entries=np.asarray(entries, dtype=complex), hermitian_residual=0.0)


def test_stacked_traces_raise_the_per_call_error():
    # R = [[1, 2], [2, 1]] is symmetric but not PSD: p = (1, 1) gives traces (10, 82),
    # p = (1, -1) gives (-6, 18) and p = (1, -1/2) gives (-2.75, 3.0625).
    r = _symmetric([[1.0, 2.0], [2.0, 1.0]])
    good, bad, worse = np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, -0.5])
    with pytest.raises(InternalConsistencyError, match="must be nonnegative") as per_call:
        cascade_traces(r, r, bad)
    kernel = validation._trace_kernel(r)
    # Criterion 3's one-product route raises the error of the first bad row's one-vector call.
    with pytest.raises(InternalConsistencyError) as stacked:
        validation._kernel_traces(kernel, np.stack([good, good, bad, worse, good]))
    assert str(stacked.value) == str(per_call.value)
    t_lin = validation._kernel_traces(kernel, np.stack([good, good]))[0]
    assert t_lin.tolist() == _per_row_traces(r, r, [good, good])[0].tolist() == [10.0, 10.0]


@pytest.mark.parametrize(
    "diagonal, rows, message",
    [  # row 1 is the first bad row
        # tr = 1, 0.5 + 0.25j, -1 + 1j: two imaginary rows, the second also negative.
        ([1.0, -2.0 + 1j], [[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]], "cascade trace should be real"),
        # tr = 1, -1, 1 + 1j: a negative row before an imaginary one.
        ([1.0, -2.0, 1j], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], "must be nonnegative"),
        # tr = 1, 1 + 1j, -1: an imaginary row before a negative one.
        ([1.0, -2.0, 1j], [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "cascade trace should be real"),
    ],
    ids=["imaginary-then-both", "negative-then-imaginary", "imaginary-then-negative"],
)
def test_stacked_traces_report_the_first_bad_row(diagonal, rows, message):
    r_sr = identity_correlation(len(diagonal))
    r_rd = _diagonal(diagonal)
    rows = np.array(rows)
    with pytest.raises(InternalConsistencyError, match=message) as per_call:
        cascade_traces(r_rd, r_sr, rows[1])
    with pytest.raises(InternalConsistencyError) as per_row:
        _per_row_traces(r_rd, r_sr, rows)
    assert str(per_row.value) == str(per_call.value)


@pytest.mark.parametrize("seed", [202, 317])
def test_criterion_3_matches_a_per_call_loop(seed):
    """The chunked gate gives the detail of the per-draw loop it replaced."""
    trials = 3000
    r = sinc_correlation(ArrayGeometry(4, 4, 0.1 / 40.0, 0.1 / 40.0, 0.1))
    design = UniformRandom(seed)
    t_lin, t_quad = np.empty(trials), np.empty(trials)
    for i in range(trials):
        t_lin[i], t_quad[i] = cascade_traces(r, r, phase_vector(design, r.n, draw_index=i))
    mean_trace, mean_trace_sq, mean_quad_trace = design.cascade_moments(r, r)
    checks = [
        ("trace", np.mean(t_lin), np.std(t_lin, ddof=1), mean_trace),
        ("trace^2", np.mean(t_lin**2), np.std(t_lin**2, ddof=1), mean_trace_sq),
        ("quad trace", np.mean(t_quad), np.std(t_quad, ddof=1), mean_quad_trace),
    ]
    pulls = [abs(got - want) / (sd / np.sqrt(trials)) for _, got, sd, want in checks]
    detail = ", ".join(f"{name} pull {pull:.2f}sigma" for (name, *_), pull in zip(checks, pulls))
    result = criterion_3(trials=trials, seed=seed)
    assert result.detail == detail
    assert result.passed == all(p <= 3.0 for p in pulls)


# 1, 2, 12 and 40 stacks of 256 draws; at 10k each range draws in several batches.
@pytest.mark.parametrize("trials", [255, 257, 3000, 10_000])
def test_criterion_3_does_not_depend_on_the_worker_count(trials, workers):
    r = sinc_correlation(ArrayGeometry(4, 4, 0.1 / 40.0, 0.1 / 40.0, 0.1))
    outcomes = []
    for w in (1, 2, 3):
        read_ranges = workers(w)
        t_lin, t_quad = validation._phase_traces(r, 202, trials)
        ranges = read_ranges()
        assert len(ranges) == min(w, -(-trials // 256)) and in_own_children(ranges)
        assert no_child_left()
        outcomes.append((t_lin.tobytes(), t_quad.tobytes(), criterion_3(trials=trials, seed=202).detail))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@settings(PROPERTY, max_examples=30)
@given(
    side=st.integers(1, 4),  # N = 1, 4, 9, 16
    seed=st.integers(0, 2**64 - 1),
    # up to 11 stacks of 256, with 1-draw and partial last stacks among them
    trials=st.lists(
        st.one_of(st.integers(2, 2600), st.integers(0, 10).map(lambda k: 256 * k + 1)), min_size=2, max_size=2, unique=True
    ).map(sorted),
    w=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_a_shorter_trace_run_is_a_prefix_of_a_longer_one(side, seed, trials, w):
    """Criterion 3's traces of m draws are the first m of n > m draws, bit for bit, whatever W each run has.

    The examples share this process's workers, so state carried from one call into the next would show.
    """
    r = square_sinc(side)
    traces = []
    with pytest.MonkeyPatch.context() as patch:
        for count, workers in zip(trials, w):
            force_workers(patch, workers)
            traces.append(validation._phase_traces(r, seed, count))
    (short_lin, short_quad), (long_lin, long_quad) = traces
    assert short_lin.tobytes() == long_lin[: trials[0]].tobytes()
    assert short_quad.tobytes() == long_quad[: trials[0]].tobytes()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_criterion_3_draws_by_the_vector_engine_alone(w, engine_patch):
    """At 10k draws every range's batches have 1024 draws or more, so no stream is repositioned, in this process or a worker."""
    force_workers(engine_patch, w)
    repositioned, get = Records(1), rng.StreamFamily.get

    def recorded(*args):
        repositioned.put(os.getpid())
        return get(*args)

    engine_patch.setattr(rng.StreamFamily, "get", recorded)
    try:
        validation._phase_traces(sinc_correlation(ArrayGeometry(4, 4, 0.1 / 40.0, 0.1 / 40.0, 0.1)), 202, 10_000)
        assert not repositioned.take()
    finally:
        repositioned.close()


def test_phase_draws_tell_the_squared_trace_from_the_trace_of_the_square():
    """On a less correlated model than criterion 3's, its draws separate E[(tr C)^2] from E[tr C^2].

    Criterion 3's 4x4 sinc model is nearly rank 1, which puts the two
    expectations 0.14% apart, below what its draws resolve.
    """
    trials = 20_000
    r = exponential_correlation(16, 0.8)
    t_lin, t_quad = validation._phase_traces(r, 202, trials)
    moments = UniformRandom(202).cascade_moments(r, r)
    for draws, want in zip((t_lin, t_lin**2, t_quad), moments):
        assert abs(np.mean(draws) - want) <= 4.0 * np.std(draws, ddof=1) / np.sqrt(trials)


def test_phasors_are_numpys_complex_exp():
    gen = np.random.default_rng(8)
    for low, high in ((0.0, 2 * np.pi), (-np.pi, np.pi), (-2 * np.pi, 2 * np.pi), (-1e3, 1e3)):
        theta = gen.uniform(low, high, 200_000)
        for angles in (theta, theta.reshape(400, 500)[:, ::3]):
            assert _phasors(angles).tobytes() == np.exp(1j * angles).tobytes()


def _assert_close_per_stack(got, want):
    """Each trace within 1e-12 of the largest |trace| of its 256-draw stack."""
    for start in range(0, want.shape[0], 256):
        rows = slice(start, start + 256)
        assert np.max(np.abs(got[rows] - want[rows])) <= 1e-12 * np.max(np.abs(want[rows]))


@pytest.mark.parametrize("seed", [202, 317])
def test_criterion_3_route_matches_stacked_cascade_traces(seed):
    trials = 10_000
    r = sinc_correlation(ArrayGeometry(4, 4, 0.1 / 40.0, 0.1 / 40.0, 0.1))
    t_lin, t_quad = validation._phase_traces(r, seed, trials)
    want_lin, want_quad = _per_row_traces(r, r, UniformRandom(seed).phase_draws(r.n)(0, trials))
    _assert_close_per_stack(t_lin, want_lin)
    _assert_close_per_stack(t_quad, want_quad)


def _random_real_psd(gen, n):
    g = gen.standard_normal((n, n))
    return CorrelationMatrix(g @ g.T / n)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_kernel_traces_match_stacked_cascade_traces(n):
    gen = np.random.default_rng(40 + n)
    side = 4 if n == 16 else 1
    models = (
        _random_real_psd(gen, n),
        sinc_correlation(ArrayGeometry(n // side, side, 0.1 / 40.0, 0.1 / 40.0, 0.1)),
        exponential_correlation(n, 0.9),
    )
    fixed = np.stack([phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n) for _ in range(7)])
    for r in models:
        kernel = validation._trace_kernel(r)
        assert kernel.shape == (n, n * (n + 1) // 2)
        for stack in (fixed, UniformRandom(19).phase_draws(n)(40, 256), UniformRandom(19).phase_draws(n)(0, 70)):
            for got, want in zip(validation._kernel_traces(kernel, stack), _per_row_traces(r, r, stack)):
                assert got.shape == want.shape == (stack.shape[0],)
                _assert_close_per_stack(got, want)


def test_trace_kernel_needs_a_real_exactly_symmetric_matrix():
    gen = np.random.default_rng(44)
    with pytest.raises(DomainError, match="real, exactly symmetric"):
        validation._trace_kernel(random_psd(gen, 4))  # complex Hermitian
    entries = square_sinc(2).entries.real.copy()
    entries[0, 1] = np.nextafter(entries[0, 1], 2.0)  # Hermitian within tolerance, but not exactly
    r = CorrelationMatrix(entries)
    assert 0 < r.hermitian_residual
    with pytest.raises(DomainError, match="real, exactly symmetric"):
        validation._trace_kernel(r)


def test_optimal_csi_not_materializable():
    with pytest.raises(ContractViolationError):
        phase_vector(OptimalCsi(), 4)


@pytest.mark.parametrize("design", [Equal(0.3), Fixed(np.zeros(4)), UniformRandom(1)], ids=["equal", "fixed", "uniform"])
@pytest.mark.parametrize(
    "n, draw_index, message",
    [
        (-1, 0, "element count n must be an integer >= 1, got -1"),
        (0, 0, "element count n must be an integer >= 1, got 0"),
        (2.5, 0, "element count n must be an integer >= 1, got 2.5"),
        (True, 0, "element count n must be an integer >= 1, got True"),
        (4, -1, r"stream index must lie in \[0, 2\^128\), got -1"),
        (4, 2**128, r"stream index must lie in \[0, 2\^128\)"),
        (4, 1.0, "stream index must be an integer, got 1.0"),
        (4, True, "stream index must be an integer, got True"),
    ],
    ids=["n-negative", "n-zero", "n-fraction", "n-bool", "index-negative", "index-too-large", "index-float", "index-bool"],
)
def test_phase_vector_checks_its_arguments_for_every_design(design, n, draw_index, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        phase_vector(design, n, draw_index)


def test_cascade_identity_phases_is_plain_product():
    gen = np.random.default_rng(7)
    r_sr, r_rd = random_psd(gen, 5), random_psd(gen, 5)
    c = r_rd.entries @ r_sr.entries
    assert cascade_traces(r_rd, r_sr, np.ones(5)) == (np.trace(c).real, np.sum(c * c.T).real)


def test_cascade_scalar_matrices():
    a, b, n = 0.7, 2.5, 6
    r_sr = CorrelationMatrix(a * np.eye(n))
    r_rd = CorrelationMatrix(b * np.eye(n))
    phases = phase_vector(UniformRandom(3), n)
    t_lin, t_quad = cascade_traces(r_rd, r_sr, phases)
    assert t_lin == pytest.approx(n * a * b, rel=1e-12)
    assert t_quad == pytest.approx(n * a * a * b * b, rel=1e-12)


def test_cascade_trace_ignores_common_phase():
    gen = np.random.default_rng(11)
    r_sr, r_rd = random_psd(gen, 8), random_psd(gen, 8)
    base, base_quad = cascade_traces(r_rd, r_sr, phase_vector(Equal(0.0), 8))
    for theta in np.linspace(-np.pi, np.pi, 10, endpoint=False):
        t_lin, t_quad = cascade_traces(r_rd, r_sr, phase_vector(Equal(theta), 8))
        assert abs(t_lin - base) <= 1e-10 * abs(base)
        assert abs(t_quad - base_quad) <= 1e-10 * abs(base_quad)


def test_cascade_traces_real_nonnegative():
    gen = np.random.default_rng(23)
    for n in (1, 2, 5, 12):
        r_sr, r_rd = random_psd(gen, n), random_psd(gen, n)
        phases = phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n)
        t_lin, t_quad = cascade_traces(r_rd, r_sr, phases)
        assert t_lin >= -1e-9
        assert t_quad >= -1e-9


# Real parts on both sides of the floor of 1 in the tolerance 1e-9 max(1, |re|).
@pytest.mark.parametrize("re", [0.0, 0.5, -0.25, 1.0, 3.0, -2e6])
def test_imaginary_residue_edge(re):
    """An imaginary part of exactly 1e-9 max(1, |re|) is dropped; the next float up is an error."""
    edge = 1e-9 * max(1.0, abs(re))
    for im in (edge, -edge):
        assert real_trace(complex(re, im)) == re
        assert real_trace(np.array([complex(re, im)])).tolist() == [re]
        with pytest.raises(InternalConsistencyError, match="should be real"):
            real_trace(complex(re, np.nextafter(im, np.copysign(np.inf, im))))


@pytest.mark.parametrize("which", ["t_lin", "t_quad"])
def test_negative_trace_edge(which):
    """A trace of exactly -1e-9 passes the nonnegativity check; the next float down is an error."""
    zero = np.zeros(2, dtype=complex)
    for value, passes in ((-1e-9, True), (np.nextafter(-1e-9, -np.inf), False)):
        traces = {"t_lin": zero.copy(), "t_quad": zero.copy()}
        traces[which][1] = value
        if passes:
            assert _checked_traces(traces["t_lin"], traces["t_quad"])[which == "t_quad"].tolist() == [0.0, value]
        else:
            with pytest.raises(InternalConsistencyError, match="must be nonnegative"):
                _checked_traces(traces["t_lin"], traces["t_quad"])


def test_cascade_dimension_mismatch():
    r3, r4 = identity_correlation(3), identity_correlation(4)
    with pytest.raises(DomainError):
        cascade_traces(r3, r4, np.ones(3))
    with pytest.raises(DomainError):
        cascade_traces(r3, r3, np.ones(4))
    # One phase vector per call: a stack of them (B, N) is rejected too.
    for stack in (np.ones((2, 3)), np.ones((1, 3)), np.ones((0, 3))):
        with pytest.raises(DomainError, match="dimension mismatch"):
            cascade_traces(r3, r3, stack)


def _fixed_stack(gen, n, rows):
    return np.stack([phase_vector(Fixed(gen.uniform(-np.pi, np.pi, n)), n) for _ in range(rows)])


def test_trace_bound_identity_model():
    margins = equal_phase_trace_bound(identity_correlation(6), _fixed_stack(np.random.default_rng(5), 6, 20))
    # the identity model is phase-invariant, margins vanish to rounding
    assert margins.shape == (20,)
    assert np.max(np.abs(margins)) <= 1e-12


def test_trace_bound_sinc_model():
    margins = equal_phase_trace_bound(square_sinc(4), _fixed_stack(np.random.default_rng(17), 16, 100))
    assert np.all(margins >= -TRACE_BOUND_SLACK)


def _row_margin(r, phases):
    """The margin traced as the complex N x N product it is defined by: the oracle of the one-GEMM form."""
    t_equal = float(np.sum(r.entries.real * r.entries.real.T))
    inner = (np.conj(phases)[:, None] * r.entries) * phases[None, :]
    return t_equal - complex(np.sum(r.entries * inner.T)).real, t_equal


@pytest.mark.parametrize(
    "r",
    [
        *(square_sinc(side) for side in (4, 8, 14, 20)),
        exponential_correlation(30, 0.8),
        identity_correlation(9),
    ],
    ids=["sinc16", "sinc64", "sinc196", "sinc400", "exponential30", "identity9"],
)
def test_trace_bound_matches_the_per_design_complex_trace(r):
    # Rows of Equal, Fixed and UniformRandom phases in turn; equal-phase rows meet the same oracle.
    gen = np.random.default_rng(r.n)
    designs = []
    for i in range(12):
        kind = i % 3
        if kind == 0:
            designs.append(Equal(float(gen.uniform(-np.pi, np.pi))))
        elif kind == 1:
            designs.append(Fixed(gen.uniform(-np.pi, np.pi, r.n)))
        else:
            designs.append(UniformRandom(int(gen.integers(2**63))))
    phases = np.stack([phase_vector(design, r.n) for design in designs])
    margins = equal_phase_trace_bound(r, phases)
    for row, margin in zip(phases, margins):
        want, t_equal = _row_margin(r, row)
        assert abs(margin - want) <= 1e-12 * t_equal


def test_trace_bound_requires_real_model():
    m = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    with pytest.raises(DomainError):
        equal_phase_trace_bound(CorrelationMatrix(m), np.ones((1, 2)))


def test_trace_bound_requires_a_matching_stack():
    r = identity_correlation(3)
    for phases in (np.ones(3), np.ones((2, 4))):
        with pytest.raises(DomainError):
            equal_phase_trace_bound(r, phases)
