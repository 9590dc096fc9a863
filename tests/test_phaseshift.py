import numpy as np
import pytest

from irslink.closedform import gamma_fit, gamma_fit_equal_phase, gamma_fit_uniform_phase
from irslink.correlation import CorrelationMatrix, identity_correlation
from irslink.curves import run_curve
from irslink.errors import ContractViolationError, DomainError
from irslink.montecarlo import gain_samples
from irslink.phaseshift import (
    Equal,
    Fixed,
    OptimalCsi,
    UniformRandom,
    cascade_matrix,
    cascade_traces,
    equal_phase_trace_bound,
    phase_vector,
)
from irslink.scenario import DESIGNS, load_scenario

from conftest import square_sinc


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
    sc = load_scenario("fig2c").with_design(object())
    with pytest.raises(DomainError, match="unknown phase-shift design"):
        run_curve(sc, 0, 1)


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
    assert Equal(0.3).gamma_fit(0.4, r_sr, r_rd) == gamma_fit_equal_phase(0.4, r_sr, r_rd)
    assert fixed.gamma_fit(0.4, r_sr, r_rd) == gamma_fit(0.4, r_sr, r_rd, phase_vector(fixed, 5))
    assert UniformRandom(8).gamma_fit(0.4, r_sr, r_rd) == gamma_fit_uniform_phase(0.4, r_sr, r_rd)
    assert OptimalCsi().gamma_fit(0.4, r_sr, r_rd) is None


def test_block_phases_are_the_per_draw_phase_vectors():
    h = np.ones((3, 6), dtype=complex)
    for design in (Equal(1.0), Fixed(np.linspace(-3.0, 3.0, 6)), UniformRandom(77)):
        block = np.broadcast_to(design.block_phases(6)(130, h[:, 0], h, h), h.shape)
        for r in range(3):
            assert np.array_equal(block[r], phase_vector(design, 6, draw_index=130 + r))


def test_optimal_csi_not_materializable():
    with pytest.raises(ContractViolationError):
        phase_vector(OptimalCsi(), 4)


def test_cascade_identity_phases_is_plain_product():
    gen = np.random.default_rng(7)
    r_sr, r_rd = random_psd(gen, 5), random_psd(gen, 5)
    c = cascade_matrix(r_rd, r_sr, np.ones(5))
    assert np.array_equal(c, r_rd.entries @ r_sr.entries)


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


def test_cascade_dimension_mismatch():
    r3, r4 = identity_correlation(3), identity_correlation(4)
    with pytest.raises(DomainError):
        cascade_matrix(r3, r4, np.ones(3))
    with pytest.raises(DomainError):
        cascade_matrix(r3, r3, np.ones(4))


def test_trace_bound_identity_model():
    gen = np.random.default_rng(5)
    designs = [Fixed(gen.uniform(-np.pi, np.pi, 6)) for _ in range(20)]
    report = equal_phase_trace_bound(identity_correlation(6), 1.0, designs)
    # the identity model is phase-invariant, margins vanish to rounding
    assert np.max(np.abs(report.margins)) <= 1e-12
    assert report.passed


def test_trace_bound_sinc_model():
    gen = np.random.default_rng(17)
    r = square_sinc(4)
    designs = [Fixed(gen.uniform(-np.pi, np.pi, 16)) for _ in range(100)]
    report = equal_phase_trace_bound(r, 1.0, designs)
    assert report.passed
    assert np.all(report.margins >= -1e-10)


def test_trace_bound_equal_vs_equal_is_exact():
    report = equal_phase_trace_bound(square_sinc(3), 1.0, [Equal(0.9), Equal(-2.2)])
    assert np.array_equal(report.margins, np.zeros(2))


def test_trace_bound_requires_real_model():
    m = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.0]])
    with pytest.raises(DomainError):
        equal_phase_trace_bound(CorrelationMatrix(m), 1.0, [Equal(0.0)])
