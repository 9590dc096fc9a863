"""Phase-shift configurations and the cascade coupling matrix they induce.

A design describes how the diagonal unit-modulus phase matrix of the
reflecting surface is produced.  The surface matrix itself is never stored
densely; only its diagonal (the phase vector) is materialized.

Each design class answers for itself: its schema ``kind`` and
``schema_fields``, its phase vector for draw i (``phases``), its closed-form
Gamma fit (``gamma_fit``, None for co-phasing) and, for one simulator run
over n elements, ``block_phases(n)``: a function that maps a block of trials
(start, h_sd, h_sr, h_rd), one trial per row, to the phases of draws start,
start+1, ...
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import closedform, rng
from .correlation import CorrelationMatrix
from .errors import ContractViolationError, DomainError, InternalConsistencyError

TRACE_IMAG_TOL = 1e-9
TRACE_NEG_TOL = 1e-9


def _wrap_angle(theta):
    """Map angles into [-pi, pi); DomainError for a NaN or infinite one."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError(f"phase angles must be finite, got {theta}")
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class Equal:
    """One common phase shift on every element."""

    theta: float
    kind: ClassVar[str] = "equal"

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_wrap_angle(self.theta)))

    def schema_fields(self) -> dict:
        return {"theta": self.theta}

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        return np.full(n, np.exp(1j * self.theta))

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit_equal_phase(beta_sd, r_sr, r_rd)

    def block_phases(self, n: int):
        phases = self.phases(n)
        return lambda start, h_sd, h_sr, h_rd: phases


@dataclass(frozen=True)
class Fixed:
    """An arbitrary per-element phase vector."""

    thetas: np.ndarray
    kind: ClassVar[str] = "fixed"

    def __post_init__(self):
        t = _wrap_angle(np.atleast_1d(self.thetas))
        t.setflags(write=False)
        object.__setattr__(self, "thetas", t)

    def schema_fields(self) -> dict:
        return {"theta": [float(t) for t in self.thetas]}

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        if self.thetas.shape[0] != n:
            raise DomainError(f"fixed design has {self.thetas.shape[0]} phases, scenario needs {n}")
        return np.exp(1j * self.thetas)

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit(beta_sd, r_sr, r_rd, self.phases(r_sr.n))

    def block_phases(self, n: int):
        phases = self.phases(n)
        return lambda start, h_sd, h_sr, h_rd: phases


@dataclass(frozen=True)
class UniformRandom:
    """Independent phases redrawn uniformly on [-pi, pi) per trial; draw i depends on (seed, i) only."""

    seed: int
    kind: ClassVar[str] = "uniform_random"

    def __post_init__(self):
        object.__setattr__(self, "seed", rng.check_seed(self.seed))

    def schema_fields(self) -> dict:
        return {"seed": self.seed}

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        gen = rng.stream(self.seed, rng.DOMAIN_PHASE, draw_index)
        return np.exp(1j * gen.uniform(-np.pi, np.pi, n))

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit_uniform_phase(beta_sd, r_sr, r_rd)

    def block_phases(self, n: int):
        streams = rng.StreamFamily(self.seed)  # one per run: its gets reposition, not re-key

        def draws(start, h_sd, h_sr, h_rd):
            thetas = np.empty((h_sr.shape[0], n))
            for r in range(thetas.shape[0]):
                thetas[r] = streams.get(rng.DOMAIN_PHASE, start + r).uniform(-np.pi, np.pi, n)
            return np.exp(1j * thetas)

        return draws


@dataclass(frozen=True)
class OptimalCsi:
    """Per-realization co-phasing with perfect channel knowledge; no closed form."""

    kind: ClassVar[str] = "optimal_csi"

    def schema_fields(self) -> dict:
        return {}

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        raise ContractViolationError(
            "OptimalCsi phases depend on the channel realization; "
            "resolve them in the simulator, not here"
        )

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return None

    def block_phases(self, n: int):
        return lambda start, h_sd, h_sr, h_rd: self.cophase(h_sd, h_sr, h_rd)

    @staticmethod
    def cophase(h_sd, h_sr, h_rd) -> np.ndarray:
        """Co-phasing phases along the last axis; the reference is 0 where h_sd is 0."""
        reference = np.where(h_sd != 0, np.angle(h_sd), 0.0)
        return np.exp(1j * (reference[..., None] - np.angle(np.conj(h_sr) * h_rd)))


PhaseShiftDesign = Equal | Fixed | UniformRandom | OptimalCsi


def checked_design(design: PhaseShiftDesign) -> PhaseShiftDesign:
    """The design itself; DomainError for anything that is not one of the four."""
    if not isinstance(design, PhaseShiftDesign):
        raise DomainError(f"unknown phase-shift design {design!r}")
    return design


def phase_vector(design: PhaseShiftDesign, n: int, draw_index: int = 0) -> np.ndarray:
    """Materialize the diagonal of the phase matrix as a unit-modulus vector.

    Each design answers for itself (see its ``phases``); OptimalCsi has no
    phases apart from a channel realization and raises ContractViolationError.
    """
    return checked_design(design).phases(n, draw_index)


def real_trace(value: complex, what: str = "trace") -> float:
    """Drop a tiny imaginary residue; anything larger means a real bug."""
    scale = max(1.0, abs(value.real))
    if abs(value.imag) > TRACE_IMAG_TOL * scale:
        raise InternalConsistencyError(
            f"{what} should be real, got imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def cascade_matrix(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray) -> np.ndarray:
    """R_rd P^H R_sr P for diagonal phase matrix P given by its diagonal.

    Scales rows/columns of R_sr by the phases (O(N^2)) and applies one
    matrix product; the phase matrix is never formed densely.
    """
    n = r_rd.n
    phases = np.asarray(phases, dtype=np.complex128)
    if r_sr.n != n or phases.shape != (n,):
        raise DomainError(
            f"dimension mismatch: r_rd {r_rd.n}, r_sr {r_sr.n}, phases {phases.shape}"
        )
    inner = (np.conj(phases)[:, None] * r_sr.entries) * phases[None, :]
    return r_rd.entries @ inner


def cascade_traces(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray):
    """The two invariants of the cascade matrix that drive every closed form.

    Returns (trace, trace of the square); both are provably real and
    nonnegative for PSD inputs, which is asserted.
    """
    c = cascade_matrix(r_rd, r_sr, phases)
    t_lin = real_trace(complex(np.trace(c)), "cascade trace")
    t_quad = real_trace(complex(np.sum(c * c.T)), "squared-cascade trace")
    if t_lin < -TRACE_NEG_TOL or t_quad < -TRACE_NEG_TOL:
        raise InternalConsistencyError(
            f"cascade traces must be nonnegative, got {t_lin:.3e}, {t_quad:.3e}"
        )
    return t_lin, t_quad


@dataclass(frozen=True)
class TraceBoundReport:
    """Per-design margins of the equal-phase trace dominance check."""

    margins: np.ndarray
    slack: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.margins >= -self.slack))


def equal_phase_trace_bound(
    r: CorrelationMatrix, scale: float, designs, slack: float = 1e-10
) -> TraceBoundReport:
    """Check that equal phases maximize the cascade trace for the planar model.

    Valid for the model where both covariances are proportional to the same
    real symmetric matrix; the margin of sample design d is
    scale * (tr under equal phases - Re tr under d).
    """
    if np.max(np.abs(r.entries.imag)) > TRACE_IMAG_TOL:
        raise DomainError("trace bound is only claimed for real symmetric models")
    t_equal = float(np.sum(r.entries.real * r.entries.real.T))
    margins = np.empty(len(designs))
    for i, design in enumerate(designs):
        if isinstance(design, Equal):
            # The common phase cancels identically; no need to round-trip it.
            margins[i] = 0.0
            continue
        phases = phase_vector(design, r.n)
        inner = (np.conj(phases)[:, None] * r.entries) * phases[None, :]
        t_d = complex(np.sum(r.entries * inner.T)).real
        margins[i] = scale * (t_equal - t_d)
    margins.setflags(write=False)
    return TraceBoundReport(margins=margins, slack=slack)
