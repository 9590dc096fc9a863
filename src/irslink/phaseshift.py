"""Phase-shift configurations and the cascade coupling matrix they induce.

A design describes how the diagonal unit-modulus phase matrix of the
reflecting surface is produced.  The surface matrix itself is never stored
densely; only its diagonal (the phase vector) is materialized.

Each design class answers for itself: its schema ``kind`` and keys, which
``from_schema(want, n)`` reads for n elements through a scenario's key reader
``want(key, kinds)`` and ``schema_fields`` writes back, its phase vector for draw i
(``phases``), its closed-form Gamma fit (``gamma_fit``, None for co-phasing)
and, for one simulator run over n elements, ``block_phases(n)``: a function
that maps a block of trials (start, h_sd, h_sr, h_rd), one trial per row, to
the phases of draws start, start+1, ...  ``UniformRandom.phase_draws(n)`` is
the one draw of random phases: the simulator, criterion 3 and, one draw at a
time, ``UniformRandom.phases`` use it.  It fills each draw's angles with the
stream's ``random()`` uniforms u and maps the whole stack to (2 pi * u) - pi
in two rounded steps, which is exactly ``Generator.uniform(-pi, pi, n)``.

``cascade_matrix`` and ``cascade_traces`` take one phase vector (N,) or a
stack of them (B, N), one vector per row.  Row b of a stacked call equals the
one-vector call on row b bit for bit, and a bad row raises the error that
call would raise.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import closedform, rng
from .correlation import CorrelationMatrix
from .errors import ContractViolationError, DomainError, InternalConsistencyError, ScenarioFormatError

TRACE_IMAG_TOL = 1e-9
TRACE_NEG_TOL = 1e-9


def _wrap_angle(theta):
    """Map angles into [-pi, pi); DomainError for a NaN or infinite one."""
    try:
        theta = np.asarray(theta, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise DomainError("phase angles must be finite, got an integer beyond the float range") from None
    if not np.isfinite(theta).all():
        raise DomainError(f"phase angles must be finite, got {theta}")
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


class _Design:
    """Defaults the designs share: the keys' values as schema fields, one phase vector for all trials."""

    schema_keys: ClassVar[tuple] = ()

    def schema_fields(self) -> dict:
        return {key: getattr(self, key) for key in self.schema_keys}

    def block_phases(self, n: int):
        phases = self.phases(n)
        return lambda start, h_sd, h_sr, h_rd: phases


@dataclass(frozen=True)
class Equal(_Design):
    """One common phase shift on every element."""

    theta: float
    kind: ClassVar[str] = "equal"
    schema_keys: ClassVar[tuple] = ("theta",)

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_wrap_angle(self.theta)))

    @classmethod
    def from_schema(cls, want, n: int) -> "Equal":
        return cls(float(want("theta", (int, float))))

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        return np.full(n, np.exp(1j * self.theta))

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit_equal_phase(beta_sd, r_sr, r_rd)


@dataclass(frozen=True)
class Fixed(_Design):
    """An arbitrary per-element phase vector."""

    thetas: np.ndarray
    kind: ClassVar[str] = "fixed"
    schema_keys: ClassVar[tuple] = ("theta",)

    def __post_init__(self):
        t = _wrap_angle(np.atleast_1d(self.thetas))
        t.setflags(write=False)
        object.__setattr__(self, "thetas", t)

    @classmethod
    def from_schema(cls, want, n: int) -> "Fixed":
        theta = want("theta", list)
        if len(theta) == n and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in theta):
            try:
                return cls(theta)
            except DomainError:  # a non-finite angle
                pass
        raise ScenarioFormatError(f"fixed design needs a list of {n} finite numbers, got {len(theta)} entries", field="theta")

    def schema_fields(self) -> dict:
        return {"theta": [float(t) for t in self.thetas]}

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        if self.thetas.shape[0] != n:
            raise DomainError(f"fixed design has {self.thetas.shape[0]} phases, scenario needs {n}")
        return np.exp(1j * self.thetas)

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit(beta_sd, r_sr, r_rd, self.phases(r_sr.n))


@dataclass(frozen=True)
class UniformRandom(_Design):
    """Independent phases redrawn uniformly on [-pi, pi) per trial; draw i depends on (seed, i) only.

    Draw i takes n uniforms u in [0, 1) from phase stream i of the seed and
    sets theta = (2 pi * u) - pi, each operation rounded on its own: the
    values of numpy's ``Generator.uniform(-pi, pi, n)`` on that stream, bit
    for bit, without the cost of its per-call argument handling.
    """

    seed: int
    kind: ClassVar[str] = "uniform_random"
    schema_keys: ClassVar[tuple] = ("seed",)

    def __post_init__(self):
        object.__setattr__(self, "seed", rng.check_seed(self.seed))

    @classmethod
    def from_schema(cls, want, n: int) -> "UniformRandom":
        seed = want("seed", int)
        try:
            return cls(seed)
        except DomainError as exc:
            raise ScenarioFormatError(str(exc), field="seed") from None

    def phases(self, n: int, draw_index: int = 0) -> np.ndarray:
        return self.phase_draws(n)(draw_index, 1)[0]

    def gamma_fit(self, beta_sd, r_sr, r_rd):
        return closedform.gamma_fit_uniform_phase(beta_sd, r_sr, r_rd)

    def phase_draws(self, n: int):
        """A function (start, count) -> the phases of draws start..start+count-1, one per row.

        ``phases(n, i)`` is row 0 of ``draw(i, 1)``.  The function keys
        one StreamFamily for a whole run and repositions it for every draw;
        a range that leaves [0, 2^128) raises DomainError.
        """
        get = rng.StreamFamily(self.seed).get

        def draw(start: int, count: int) -> np.ndarray:
            start = rng.check_index(start)
            rng.check_index(start + max(count, 1) - 1)  # the last draw
            thetas = np.empty((count, n))
            for r in range(count):
                get(rng.DOMAIN_PHASE, start + r).random(out=thetas[r])
            # Generator.uniform(-pi, pi) is low + range*u with range = 2 pi
            # exactly, rounded twice; two ufunc passes round the same way and
            # cannot be fused into one multiply-add.
            thetas *= 2.0 * np.pi
            thetas -= np.pi
            return np.exp(1j * thetas)

        return draw

    def block_phases(self, n: int):
        draw = self.phase_draws(n)
        return lambda start, h_sd, h_sr, h_rd: draw(start, h_sr.shape[0])


@dataclass(frozen=True)
class OptimalCsi(_Design):
    """Per-realization co-phasing with perfect channel knowledge; no closed form."""

    kind: ClassVar[str] = "optimal_csi"

    @classmethod
    def from_schema(cls, want, n: int) -> "OptimalCsi":
        return cls()

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


def real_trace(value, what: str = "trace"):
    """Drop a tiny imaginary residue; more means a bug.  One trace gives a float, an array an array."""
    value = np.asarray(value)
    bad = np.abs(value.imag) > TRACE_IMAG_TOL * np.fmax(1.0, np.abs(value.real))
    if bad.any():
        raise InternalConsistencyError(f"{what} should be real, got imaginary part {value[bad][0].imag:.3e}")
    return value.real if value.ndim else float(value.real)


def cascade_matrix(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray) -> np.ndarray:
    """R_rd P^H R_sr P for diagonal phase matrix P given by its diagonal.

    Scales rows/columns of R_sr by the phases (O(N^2)) and applies one
    matrix product; the phase matrix is never formed densely.  A stack of
    phase vectors (B, N) gives the (B, N, N) stack of cascade matrices, one
    matrix product per row.
    """
    return _cascade(r_rd, r_sr, phases)[0]


def _cascade(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray):
    """(cascade_matrix, a spent buffer of its shape and dtype that the caller may overwrite)."""
    n = r_rd.n
    phases = np.asarray(phases, dtype=np.complex128)
    if r_sr.n != n or phases.ndim not in (1, 2) or phases.shape[-1] != n:
        raise DomainError(
            f"dimension mismatch: r_rd {r_rd.n}, r_sr {r_sr.n}, phases {phases.shape}"
        )
    inner = (np.conj(phases)[..., :, None] * r_sr.entries) * phases[..., None, :]
    return r_rd.entries @ inner, inner


def _real_nonnegative(t_lin: np.ndarray, t_quad: np.ndarray):
    t_lin = real_trace(t_lin, "cascade trace")
    t_quad = real_trace(t_quad, "squared-cascade trace")
    negative = (t_lin < -TRACE_NEG_TOL) | (t_quad < -TRACE_NEG_TOL)
    if negative.any():
        b = int(np.argmax(negative))
        raise InternalConsistencyError(
            f"cascade traces must be nonnegative, got {t_lin[b]:.3e}, {t_quad[b]:.3e}"
        )
    return t_lin, t_quad


def _checked_traces(t_lin: np.ndarray, t_quad: np.ndarray):
    """The real parts of a stack's traces (B,), each checked real and nonnegative.

    The first row that fails a check raises the error its one-vector
    ``cascade_traces`` call would raise.
    """
    try:
        return _real_nonnegative(t_lin, t_quad)
    except InternalConsistencyError:
        for b in range(t_lin.shape[0]):
            _real_nonnegative(t_lin[b : b + 1], t_quad[b : b + 1])
        raise


def cascade_traces(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray):
    """The two invariants of the cascade matrix that drive every closed form.

    Returns (trace, trace of the square); both are provably real and
    nonnegative for PSD inputs, which is asserted.  One phase vector gives
    two floats; a stack (B, N) gives two length-B arrays whose row b equals
    the one-vector call on phases[b] bit for bit, and the first row that
    fails a check raises the error that call would raise.
    """
    phases = np.asarray(phases, dtype=np.complex128)
    c, spare = _cascade(r_rd, r_sr, phases[None] if phases.ndim == 1 else phases)
    t_lin = np.trace(c, axis1=-2, axis2=-1)
    # An explicit row size: numpy cannot infer -1 for an empty stack (B = 0).
    t_quad = np.multiply(c, np.swapaxes(c, -1, -2), out=spare).reshape(c.shape[0], r_rd.n * r_rd.n).sum(axis=-1)
    t_lin, t_quad = _checked_traces(t_lin, t_quad)
    if phases.ndim == 1:
        return float(t_lin[0]), float(t_quad[0])
    return t_lin, t_quad
