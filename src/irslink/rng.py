"""Counter-based random streams for reproducible, order-independent sampling.

Every draw in this package comes from a Philox4x64-10 bit generator keyed by
the user seed, with the 256-bit counter partitioned as

    counter = (domain << 192) | (stream_index << 64)

so stream ``i`` in [0, 2^128) of a domain owns 2^64 counter blocks that no
other (domain, index) pair can touch (``check_index``); ``StreamFamily`` keys
every stream.  A stream's uniforms are numpy's ``Generator.random()`` on that
Philox: block b (counter word 0 = b + 1, as numpy increments before it
generates) gives four 64-bit words x, each mapped to (x >> 11) * 2^-53.
Draws depend only on (seed, domain, index), never on evaluation order,
chunking, or the thread that makes them.  Gains built from them also pass
through BLAS and LAPACK, whose rounding changes with the OpenBLAS thread
count: they are a pure function of (scenario, design, trials, seed) for a
given BLAS build and BLAS thread count, and do not depend on how many worker
threads the simulator runs.

``StreamFamily.fill`` writes the uniforms of consecutive streams into the
rows of a buffer, by one of two engines with the same bits.  The loop engine
repositions numpy's Philox at each row's stream and lets it fill the row;
its cost is mostly the two calls per row.  The vector engine evaluates
Philox4x64-10 in numpy over all the rows' counter blocks at once (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), at a cost per
block.  The shape decides: rows of at most 16 values (4 blocks), 1024 rows or
more, go to the vector engine, and everything else to the loop engine.

Standard normals are produced by the basic Box-Muller transform on the
stream's uniforms; this mapping is part of the reproducibility contract and
must not be changed without revalidating every pinned-seed test.  So is the
phase-draw mapping of ``phaseshift.UniformRandom.phase_draws``: the
stream's uniforms u become the angles (2 pi * u) - pi, each operation
rounded on its own, which is ``Generator.uniform(-pi, pi)`` bit for bit.

A caller may ask ``box_muller`` for some runs of normals only: those it
computes keep the full transform's bits and the rest are 0.0.  The channel
kernel asks only for the normals that some covariance-factor column reads.
A dead normal would only multiply exact zeros, so gains keep their bits,
and a channel entry that is exactly zero may flip only its sign.
"""

import numpy as np

from .errors import DomainError

# Stream domains.  Channel fading draws and phase draws share the user seed
# but must never share counter space.
DOMAIN_CHANNEL = 0
DOMAIN_PHASE = 1

_WORD = 0xFFFFFFFFFFFFFFFF

# The engine rule of StreamFamily.fill: the vector engine takes rows of at
# most _VECTOR_VALUES uniforms when there are _VECTOR_ROWS of them or more.
# Measured on a 2-core VM, the loop engine costs about 2.6 us per row of 16
# values; the vector engine 2.6 us at 256 such rows and 1.5 at 1024, but
# 3.8 us per row of 64 values, where the loop engine takes 1.9.
_VECTOR_VALUES = 16
_VECTOR_ROWS = 1024
_CHUNK_BLOCKS = 8192  # counter blocks per vector pass, which bounds its buffers

# Philox4x64-10's constants.  Those that meet a uint64 array are uint64
# scalars: a Python int would promote it differently before NumPy 2 (NEP 50).
# The Weyl increments build the round keys in Python ints.
_U = np.uint64
_MUL = (_U(0xD2E7470EE14C6C93), _U(0xCA5A826395121157))
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32 = _U(0xFFFFFFFF)
_32 = _U(32)
_11 = _U(11)


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
    returned by the previous one.  ``fill(domain, start, out)`` writes the
    uniforms of streams start, start+1, ... into the rows of ``out``.
    """

    def __init__(self, seed: int):
        seed = check_seed(seed)
        key = [seed & _WORD, (seed >> 64) & _WORD]
        self._bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._seed = seed
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

    def fill(self, domain: int, start: int, out: np.ndarray) -> np.ndarray:
        """Row r of ``out`` (rows, values) gets stream start + r's first ``values`` uniforms; returns out.

        The streams start..start+rows-1 must lie in [0, 2^128), as
        ``check_index`` admits, and the rows must be contiguous.  Rows of at
        most _VECTOR_VALUES values, _VECTOR_ROWS of them or more, take the
        vector engine, and any other shape the loop engine; both give
        ``get(domain, start + r).random()``'s bits.
        """
        rows, values = out.shape
        if values <= _VECTOR_VALUES and rows >= _VECTOR_ROWS:
            _philox_uniforms(self._seed, domain, start, out)
        else:
            for r in range(rows):
                self.get(domain, start + r).random(out=out[r])
        return out


def _mulhilo(a, m, hi, lo, a_lo, a_hi, t, w):
    """hi, lo = the high and low words of a * m, for a uint64 array a and a _MUL constant m.

    numpy has no 128-bit product, so the high word is put together from the
    32-bit halves' products, none of which can overflow.  a_lo, a_hi, t and w
    are scratch buffers of a's shape.
    """
    m_lo, m_hi = m & _LOW32, m >> _32
    np.multiply(a, m, out=lo)
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _32, out=a_hi)
    np.multiply(a_lo, m_lo, out=t)
    t >>= _32
    np.multiply(a_hi, m_lo, out=w)
    t += w  # a_hi m_lo + the carry of a_lo m_lo
    np.multiply(a_lo, m_hi, out=w)
    np.bitwise_and(t, _LOW32, out=a_lo)
    w += a_lo  # a_lo m_hi + the low half of t
    np.multiply(a_hi, m_hi, out=hi)
    t >>= _32
    hi += t
    w >>= _32
    hi += w


def _philox_uniforms(seed: int, domain: int, start: int, out: np.ndarray) -> None:
    """The vector engine of StreamFamily.fill: Philox4x64-10 over every counter block of the rows.

    Row r's block b has the counter words (b + 1, low and high words of
    start + r, domain) and the seed's two words as its key; the carry from
    the low word into the high one is taken per row.  Rows are evaluated in
    chunks of at most _CHUNK_BLOCKS blocks through one set of buffers.
    """
    rows, values = out.shape
    blocks = -(-values // 4)
    chunk = max(1, min(rows, _CHUNK_BLOCKS // blocks))
    round_keys = [
        (_U((seed + i * _WEYL[0]) & _WORD), _U(((seed >> 64) + i * _WEYL[1]) & _WORD)) for i in range(_ROUNDS)
    ]
    first_block = np.arange(1, blocks + 1, dtype=_U)
    low = _U(start & _WORD)
    index_low = np.arange(rows, dtype=_U)
    index_low += low  # wraps past 2^64 - 1
    index_high = (index_low < low).astype(_U)  # the carry into the high word
    index_high += _U(start >> 64)
    x0, x1, x2, x3, hi0, lo0, hi1, lo1, a_lo, a_hi, t, w = np.empty((12, chunk, blocks), dtype=_U)
    for first in range(0, rows, chunk):
        size = min(chunk, rows - first)
        c0, c1, c2, c3 = x0[:size], x1[:size], x2[:size], x3[:size]
        c0[...] = first_block
        c1[...] = index_low[first : first + size, None]
        c2[...] = index_high[first : first + size, None]
        c3[...] = _U(domain)
        h0, l0, h1, l1, s0, s1, s2, s3 = (b[:size] for b in (hi0, lo0, hi1, lo1, a_lo, a_hi, t, w))
        for k0, k1 in round_keys:
            _mulhilo(c0, _MUL[0], h0, l0, s0, s1, s2, s3)
            _mulhilo(c2, _MUL[1], h1, l1, s0, s1, s2, s3)
            # (c0, c1, c2, c3) <- (h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0): the
            # spent c0, c2, c1 and c3 become the next round's h1, h0, l1 and l0.
            np.bitwise_xor(h1, c1, out=h1)
            h1 ^= k0
            np.bitwise_xor(h0, c3, out=h0)
            h0 ^= k1
            c0, h1, c1, l1, c2, h0, c3, l0 = h1, c0, l1, c1, h0, c2, l0, c3
        # Word j of block b is value 4b + j of its row, if the row has one.
        for j, c in enumerate((c0, c1, c2, c3)[:values]):
            column = out[first : first + size, j::4]
            x = c[:, : column.shape[1]]
            x >>= _11
            np.multiply(x, 2.0**-53, out=column)


def box_muller(u: np.ndarray, live=None, out=None) -> np.ndarray:
    """N(0,1) variates from uniforms along the last axis, which has even length.

    The first half of each row gives the radii, the second half the angles;
    the cosine branch fills the first half of the output, the sine branch the
    second.  Every row of a 2-D buffer maps exactly as a 1-D call would.

    ``live`` lists (start, stop) runs of output positions, all of them when
    None.  The cosine and sine are evaluated only on those runs, and every
    normal computed there has the bits of the full transform; the others are
    0.0.  ``out`` defaults to a zeroed array, and one given must hold 0.0
    outside the runs, as a buffer written only by calls with the same runs
    does.  The channel kernel leaves out the normals that only meet
    all-zero factor columns: their products are zeros either way, so gains
    keep their bits and an exactly-zero channel entry may flip only its sign.
    """
    pairs = u.shape[-1] // 2
    if live is None:
        live = ((0, 2 * pairs),)
    if out is None:
        out = np.zeros(u.shape)
    radius = np.log1p(-u[..., :pairs])  # 1-u in (0,1], no log(0)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = 2.0 * np.pi * u[..., pairs:]
    for start, stop in live:
        if start < pairs:  # cosine branch
            end = min(stop, pairs)
            np.cos(angle[..., start:end], out=out[..., start:end])
        if stop > pairs:  # sine branch
            begin = max(start, pairs)
            np.sin(angle[..., begin - pairs : stop - pairs], out=out[..., begin:stop])
    # cos * radius equals radius * cos bit for bit, and a dead 0.0 stays 0.0.
    out[..., :pairs] *= radius
    out[..., pairs:] *= radius
    return out
