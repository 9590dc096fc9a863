"""Counter-based random streams for reproducible, order-independent sampling.

Every draw in this package comes from a Philox bit generator keyed by the
user seed, with the 256-bit counter partitioned as

    counter = (domain << 192) | (stream_index << 64)

so stream ``i`` in [0, 2^128) of a domain owns 2^64 counter blocks that no
other (domain, index) pair can touch (``check_index``); ``StreamFamily`` keys
every stream.  Draws depend only on (seed, domain, index), never on
evaluation order, chunking, or the thread that makes them.  Gains built
from them also pass through BLAS and LAPACK, whose rounding changes with the
OpenBLAS thread count: they are a pure function of (scenario, design,
trials, seed) for a given BLAS build and BLAS thread count, and do not
depend on how many worker threads the simulator runs.

Standard normals are produced by the basic Box-Muller transform on the
stream's uniforms; this mapping is part of the reproducibility contract and
must not be changed without revalidating every pinned-seed test.
"""

import numpy as np

from .errors import DomainError

# Stream domains.  Channel fading draws and phase draws share the user seed
# but must never share counter space.
DOMAIN_CHANNEL = 0
DOMAIN_PHASE = 1

_WORD = 0xFFFFFFFFFFFFFFFF


def _checked_int(value, what: str, bits: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if not 0 <= int(value) < 2**bits:
        raise DomainError(f"{what} must lie in [0, 2^{bits}), got {value}")
    return int(value)


def check_seed(seed) -> int:
    return _checked_int(seed, "seed", 64)


def check_index(index) -> int:
    return _checked_int(index, "stream index", 128)


def check_trials(trials, least: int = 0) -> int:
    """A trial count of at least ``least`` as an int; trials 0..trials-1 are stream indices, so fewer than 2^128."""
    trials = _checked_int(trials, "trial count", 128)
    if trials < least:
        raise DomainError(f"trial count must be at least {least}, got {trials}")
    return trials


class StreamFamily:
    """All streams of one seed, sharing a single reusable bit generator.

    ``get(domain, index)`` repositions the generator at the stream's counter
    block; the values are identical to a freshly keyed Philox, but without
    per-stream construction cost.  Each ``get`` invalidates the generator
    returned by the previous one.
    """

    def __init__(self, seed: int):
        seed = check_seed(seed)
        key = [seed & _WORD, (seed >> 64) & _WORD]
        self._bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        # One state record, reused by every get: only the counter words change.
        # Plain ints, not uint64 arrays: the Philox state setter reads 14
        # entries one by one, and an array entry is a numpy scalar each time.
        self._counter = [0, 0, 0, 0]  # word 0 stays 0: the counter is a multiple of 2^64
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def get(self, domain: int, index: int) -> np.random.Generator:
        """The generator at stream ``index`` of ``domain``; index in [0, 2^128), as ``check_index`` admits."""
        index = int(index)
        words = self._counter
        words[1] = index & _WORD
        words[2] = index >> 64
        words[3] = domain
        self._bg.state = self._state
        return self._gen


def box_muller(u: np.ndarray) -> np.ndarray:
    """N(0,1) variates from uniforms along the last axis, which has even length.

    The first half of each row gives the radii, the second half the angles;
    the cosine branch fills the first half of the output, the sine branch the
    second.  Every row of a 2-D buffer maps exactly as a 1-D call would.
    """
    pairs = u.shape[-1] // 2
    radius = np.log1p(-u[..., :pairs])  # 1-u in (0,1], no log(0)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = 2.0 * np.pi * u[..., pairs:]
    out = np.empty(u.shape)
    np.multiply(radius, np.cos(angle), out=out[..., :pairs])
    np.multiply(radius, np.sin(angle), out=out[..., pairs:])
    return out
