"""Counter-based random streams for reproducible, order-independent sampling.

Every draw in this package comes from a Philox bit generator keyed by the
user seed, with the 256-bit counter partitioned as

    counter = (domain << 192) | (stream_index << 64)

so stream ``i`` of a given domain owns 2^64 counter blocks that no other
(domain, index) pair can touch.  Results therefore depend only on
(seed, domain, index), never on evaluation order, chunking, or thread count.

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

_MAX_SEED = 2**64
_WORD = 0xFFFFFFFFFFFFFFFF
_COUNTER_MASK = (1 << 256) - 1


def check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _MAX_SEED:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    return int(seed)


class StreamFamily:
    """All streams of one seed, sharing a single reusable bit generator.

    ``get(domain, index)`` repositions the generator at the stream's counter
    block; the values are identical to a freshly keyed Philox, but without
    per-stream construction cost.  Each ``get`` invalidates the generator
    returned by the previous one.
    """

    def __init__(self, seed: int):
        seed = check_seed(seed)
        key = np.array([seed & _WORD, (seed >> 64) & _WORD], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        # One state record, reused by every get: only the counter words change.
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def get(self, domain: int, index: int) -> np.random.Generator:
        counter = (domain << 192) | (int(index) << 64)
        words = self._counter  # word 0 stays 0: the counter is a multiple of 2^64
        words[1] = (counter >> 64) & _WORD
        words[2] = (counter >> 128) & _WORD
        words[3] = (counter >> 192) & _WORD
        self._bg.state = self._state
        return self._gen


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Standalone generator for stream ``index`` of ``domain`` under ``seed``.

    Keyed and positioned at construction: the same values as
    ``StreamFamily(seed).get(domain, index)``, at the cost of one Philox.
    """
    seed = check_seed(seed)
    counter = ((domain << 192) | (int(index) << 64)) & _COUNTER_MASK
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


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
