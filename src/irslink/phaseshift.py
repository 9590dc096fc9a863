"""Phase-shift configurations and the cascade coupling matrix they induce.

A design describes how the diagonal unit-modulus phase matrix of the
reflecting surface is produced.  The surface matrix itself is never stored
densely; only its diagonal (the phase vector) is materialized.

Each design class answers for itself: its schema ``kind`` and keys, which
``from_schema(want, n)`` reads for n elements through a scenario's key reader
``want(key, kinds)`` and ``schema_fields`` writes back, its phase vector for draw i
(``phases``), the cascade moments (t1, t1_sq, t2) that ``closedform.gamma_fit``
matches (``cascade_moments``, None for co-phasing) and, for one simulator run
over n elements, ``block_phases(n)``: a function
that maps a block of trials (start, h_sd, h_sr, h_rd), one trial per row, to
the phases of draws start, start+1, ...  ``UniformRandom.phase_draws(n)`` is
the one draw of random phases: the simulator, criterion 3 and, one draw at a
time, ``UniformRandom.phases`` use it.  It fills each draw's angles with the
stream's ``random()`` uniforms u and maps the whole stack to (2 pi * u) - pi
in two rounded steps, which is exactly ``Generator.uniform(-pi, pi, n)``.
Phasors exp(i theta) are formed as cos + i sin (``_phasors``), which is
numpy's complex exp of i theta bit for bit.

Each design with a closed form owns its statistics: ``Equal`` and
``UniformRandom`` compute theirs in ``cascade_moments`` (every phase equal,
and averaged over i.i.d. uniform phases), and ``Fixed`` traces its one phase
vector through ``cascade_traces``, which also serves per-vector callers.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rng
from .correlation import CorrelationMatrix, _check_count
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


def _phasors(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real angles, as cos theta + i sin theta in one complex128 array.

    The same bits as np.exp(1j * theta), whose real part is then a zero:
    the C library's cexp of 0 + i theta is its cos and sin of theta.
    """
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


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

    def cascade_moments(self, r_sr, r_rd):
        """Cascade traces when all phases coincide: the phase matrix cancels.

        t1 = tr(R_rd R_sr) as an elementwise sum, t2 = tr((R_rd R_sr)^2) with
        a single matrix product.
        """
        if r_sr.n != r_rd.n:
            raise DomainError(f"dimension mismatch: r_sr {r_sr.n}, r_rd {r_rd.n}")
        # One N x N buffer holds each elementwise product before its sum.
        buf = np.multiply(r_rd.entries, r_sr.entries.T)
        t1 = real_trace(complex(np.sum(buf)), "equal-phase trace")
        prod = r_rd.entries @ r_sr.entries
        t2 = real_trace(complex(np.sum(np.multiply(prod, prod.T, out=buf))), "equal-phase squared trace")
        return t1, t1 * t1, t2


@dataclass(frozen=True)
class Fixed(_Design):
    """An arbitrary per-element phase vector: a 1-D array of at least one angle (DomainError otherwise)."""

    thetas: np.ndarray
    kind: ClassVar[str] = "fixed"
    schema_keys: ClassVar[tuple] = ("theta",)

    def __post_init__(self):
        t = _wrap_angle(np.atleast_1d(self.thetas))
        if t.ndim != 1 or not t.size:
            raise DomainError(f"fixed design needs a 1-D array of at least one angle, got shape {t.shape}")
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

    def cascade_moments(self, r_sr, r_rd):
        t1, t2 = cascade_traces(r_rd, r_sr, self.phases(r_sr.n))
        return t1, t1 * t1, t2


@dataclass(frozen=True)
class UniformRandom(_Design):
    """Independent phases redrawn uniformly on [-pi, pi) per trial; draw i depends on (seed, i) only.

    Draw i takes n uniforms u in [0, 1) from phase stream i of the seed and
    sets theta = (2 pi * u) - pi, each operation rounded on its own: the
    values of numpy's ``Generator.uniform(-pi, pi, n)`` on that stream, bit
    for bit.  A stack of draws fills its uniforms in one
    ``rng.StreamFamily.fill`` call, whose engine its shape picks.
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

    def cascade_moments(self, r_sr, r_rd):
        """Phase averages (E[tr C], E[(tr C)^2], E[tr C^2]) via Hadamard-product identities.

        validation.uniform_phase_trace_moments_by_sums is the independent
        index-sum oracle for these expressions; acceptance criterion 2 and
        the test suite require the two routes to agree to 1e-12 relative.
        """
        if r_sr.n != r_rd.n:
            raise DomainError(f"dimension mismatch: r_sr {r_sr.n}, r_rd {r_rd.n}")
        a = r_rd.entries * r_sr.entries  # Hadamard product
        diag_sq = np.sum(np.real(np.diag(a)) ** 2)
        nu = real_trace(complex(np.trace(a)), "phase-averaged trace")
        mag = np.abs(a)
        eta = nu * nu + float(np.sum(np.square(mag, out=mag))) - diag_sq
        # b = R_rd diag(R_sr) and c = R_sr diag(R_rd), each built in a's buffer
        # once a is spent, and each b * b^T in one second buffer.
        prod = np.empty_like(a)
        sums = []
        for x, y in ((r_rd, r_sr), (r_sr, r_rd)):
            b = np.multiply(x.entries, np.diag(y.entries)[None, :], out=a)
            sums.append(np.sum(np.multiply(b, b.T, out=prod)))
        quad = real_trace(np.array(sums), "phase-averaged quad trace")
        return nu, eta, quad[0] + quad[1] - diag_sq

    def phase_draws(self, n: int):
        """A function (start, count) -> the phases of draws start..start+count-1, one per row.

        ``phases(n, i)`` is row 0 of ``draw(i, 1)``.  The function keys
        one StreamFamily for a whole run and fills each stack of draws
        through it; a range that leaves [0, 2^128) raises DomainError.
        """
        streams = rng.StreamFamily(self.seed)

        def draw(start: int, count: int) -> np.ndarray:
            start = rng.check_index(start)
            rng.check_index(start + max(count, 1) - 1)  # the last draw
            thetas = streams.fill(rng.DOMAIN_PHASE, start, np.empty((count, n)))
            # Generator.uniform(-pi, pi) is low + range*u with range = 2 pi
            # exactly, rounded twice; two ufunc passes round the same way and
            # cannot be fused into one multiply-add.
            thetas *= 2.0 * np.pi
            thetas -= np.pi
            return _phasors(thetas)

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

    def cascade_moments(self, r_sr, r_rd):
        return None

    def block_phases(self, n: int):
        return lambda start, h_sd, h_sr, h_rd: self.cophase(h_sd, h_sr, h_rd)

    @staticmethod
    def cophase(h_sd, h_sr, h_rd) -> np.ndarray:
        """Co-phasing phases along the last axis; the reference is 0 where h_sd is 0."""
        reference = np.where(h_sd != 0, np.angle(h_sd), 0.0)
        return _phasors(reference[..., None] - np.angle(np.conj(h_sr) * h_rd))


PhaseShiftDesign = Equal | Fixed | UniformRandom | OptimalCsi


def checked_design(design: PhaseShiftDesign) -> PhaseShiftDesign:
    """The design itself; DomainError for anything that is not one of the four."""
    if not isinstance(design, PhaseShiftDesign):
        raise DomainError(f"unknown phase-shift design {design!r}")
    return design


def phase_vector(design: PhaseShiftDesign, n: int, draw_index: int = 0) -> np.ndarray:
    """Materialize the diagonal of the phase matrix as a unit-modulus vector.

    n must be an integer >= 1 and draw_index lie in [0, 2^128) (DomainError).
    Each design answers for itself (see its ``phases``); OptimalCsi has no
    phases apart from a channel realization and raises ContractViolationError.
    """
    _check_count("element count n", n)
    return checked_design(design).phases(n, rng.check_index(draw_index))


def _not_real(value) -> np.ndarray:
    """Where an imaginary part exceeds TRACE_IMAG_TOL of max(1, |real part|)."""
    return np.abs(value.imag) > TRACE_IMAG_TOL * np.fmax(1.0, np.abs(value.real))


def real_trace(value, what: str = "trace"):
    """Drop a tiny imaginary residue; more means a bug.  One trace gives a float, an array an array."""
    value = np.asarray(value)
    bad = _not_real(value)
    if bad.any():
        raise InternalConsistencyError(f"{what} should be real, got imaginary part {value[bad][0].imag:.3e}")
    return value.real if value.ndim else float(value.real)


def _checked_traces(t_lin: np.ndarray, t_quad: np.ndarray):
    """The real parts of a stack's traces (B,), each checked real and nonnegative.

    The first row that fails a check raises the error its one-vector
    ``cascade_traces`` call would raise.
    """
    bad = _not_real(t_lin) | _not_real(t_quad) | (t_lin.real < -TRACE_NEG_TOL) | (t_quad.real < -TRACE_NEG_TOL)
    if bad.any():
        b = int(np.argmax(bad))
        real_trace(t_lin[b], "cascade trace")
        real_trace(t_quad[b], "squared-cascade trace")
        raise InternalConsistencyError(
            f"cascade traces must be nonnegative, got {t_lin[b].real:.3e}, {t_quad[b].real:.3e}"
        )
    return t_lin.real, t_quad.real


def cascade_traces(r_rd: CorrelationMatrix, r_sr: CorrelationMatrix, phases: np.ndarray):
    """The two invariants of the cascade matrix that drive every closed form.

    Returns (trace, trace of the square) of one phase vector (N,) as two
    floats; both are provably real and nonnegative for PSD inputs, which is
    asserted.
    """
    n = r_rd.n
    phases = np.asarray(phases, dtype=np.complex128)
    if r_sr.n != n or phases.shape != (n,):
        raise DomainError(
            f"dimension mismatch: r_rd {r_rd.n}, r_sr {r_sr.n}, phases {phases.shape}"
        )
    # C = R_rd P^H R_sr P: R_sr's rows and columns scaled by the phases
    # (O(N^2)), then one matrix product; the scaled copy's buffer then holds
    # C * C^T.  The phase matrix is never formed densely.
    inner = (np.conj(phases)[:, None] * r_sr.entries) * phases[None, :]
    c = r_rd.entries @ inner
    t_lin, t_quad = _checked_traces(np.trace(c)[None], np.multiply(c, c.T, out=inner).sum()[None])
    return float(t_lin[0]), float(t_quad[0])
