import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irslink import rng
from irslink.correlation import identity_correlation, matrix_sqrt
from irslink.errors import DomainError
from irslink.montecarlo import sample_channels
from irslink.phaseshift import UniformRandom, phase_vector

from conftest import PROPERTY

SEEDS = [0, 1, 2**64 - 1]
INDICES = [0, 1, 63, 64, 2**64 - 1, 2**64, 2**128 - 1]


def reference(seed, domain, index):
    """A freshly keyed Philox at the stream's counter block: the layout the package promises."""
    return np.random.Generator(np.random.Philox(key=seed, counter=(domain << 192) | (index << 64)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", [rng.DOMAIN_CHANNEL, rng.DOMAIN_PHASE])
def test_family_streams_are_the_keyed_philox_streams(seed, domain):
    streams = rng.StreamFamily(seed)
    for index in INDICES:
        assert np.array_equal(streams.get(domain, index).random(10), reference(seed, domain, index).random(10))


def test_a_second_get_repositions_the_generator():
    streams = rng.StreamFamily(7)
    first = streams.get(rng.DOMAIN_PHASE, 3).random(6)
    streams.get(rng.DOMAIN_PHASE, 4).random(5)  # leaves the generator mid-stream
    assert np.array_equal(streams.get(rng.DOMAIN_PHASE, 3).random(6), first)
    assert np.array_equal(streams.get(rng.DOMAIN_CHANNEL, 3).random(6), reference(7, rng.DOMAIN_CHANNEL, 3).random(6))


@pytest.mark.parametrize(
    "index", [np.int64(0), np.int64(5), np.int64(2**63 - 1), np.uint64(7), np.uint64(2**63), np.uint64(2**64 - 1)]
)
def test_numpy_integer_indices_position_like_python_ints(index):
    streams = rng.StreamFamily(11)
    for domain in (rng.DOMAIN_CHANNEL, rng.DOMAIN_PHASE):
        assert np.array_equal(streams.get(domain, index).random(6), reference(11, domain, int(index)).random(6))


def test_interleaved_families_keep_their_own_state():
    a, b = rng.StreamFamily(3), rng.StreamFamily(2**64 - 1)
    for index in (0, 9, 2**64 - 1, 2**64, 2**128 - 1):
        other = 2**128 - 1 - index
        gen_a = a.get(rng.DOMAIN_PHASE, index)
        gen_b = b.get(rng.DOMAIN_CHANNEL, other)
        assert np.array_equal(gen_a.random(5), reference(3, rng.DOMAIN_PHASE, index).random(5))
        assert np.array_equal(gen_b.random(5), reference(2**64 - 1, rng.DOMAIN_CHANNEL, other).random(5))
        # Repositioning b did not move a: a goes on along its own stream.
        assert np.array_equal(gen_a.random(3), reference(3, rng.DOMAIN_PHASE, index).random(8)[5:])


def test_box_muller_maps_each_row_as_a_1d_call():
    u = np.random.default_rng(3).random((5, 12))
    rows = rng.box_muller(u)
    assert rows.shape == u.shape
    for r in range(5):
        assert np.array_equal(rows[r], rng.box_muller(u[r]))


def test_index_2_128_would_be_the_next_domain():
    assert np.array_equal(reference(5, rng.DOMAIN_CHANNEL, 2**128).random(4), reference(5, rng.DOMAIN_PHASE, 0).random(4))


@pytest.mark.parametrize("index", [-1, -3, 2**128, 2**130, 1.0, True])
def test_per_call_streams_reject_an_index_outside_the_domain(index):
    factor = matrix_sqrt(identity_correlation(2))
    with pytest.raises(DomainError, match="stream index"):
        sample_channels(0.5, factor, factor, 5, index)
    with pytest.raises(DomainError, match="stream index"):
        phase_vector(UniformRandom(1), 3, draw_index=index)


def test_largest_index_is_a_stream():
    factor = matrix_sqrt(identity_correlation(2))
    last = 2**128 - 1
    assert np.array_equal(
        phase_vector(UniformRandom(1), 3, draw_index=last),
        np.exp(1j * reference(1, rng.DOMAIN_PHASE, last).uniform(-np.pi, np.pi, 3)),
    )
    assert sample_channels(0.5, factor, factor, 5, last).n == 2


# Draws 0..2599 and windows around the index where the counter's stream
# index spills into its next word, and up to the last index of the domain.
# At n <= 16 the windows of 1024 draws or more take fill's vector engine, the
# others its loop engine; at n = 16 the 2600-draw windows span two of its
# passes, and the second one's spills over.
PHASE_WINDOWS = [(0, 2600), (2**64 - 32, 64), (2**128 - 64, 64), (2**64 - 2500, 2600), (2**128 - 1100, 1100)]


@pytest.mark.parametrize("n", [1, 3, 16, 17, 64, 196])
def test_phase_draws_are_the_streams_uniform_draws(n):
    """Each draw is numpy's uniform(-pi, pi, n) on its phase stream, bit for bit.

    A platform whose numpy fused the uniform's low + range*u into one
    multiply-add would round differently, and fail here.
    """
    seed = 2**64 - 1 - n
    draw = UniformRandom(seed).phase_draws(n)
    for start, count in PHASE_WINDOWS:
        rows = draw(start, count)
        for r in range(count):
            want = np.exp(1j * reference(seed, rng.DOMAIN_PHASE, start + r).uniform(-np.pi, np.pi, n))
            assert rows[r].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("domain", [rng.DOMAIN_CHANNEL, rng.DOMAIN_PHASE])
@pytest.mark.parametrize("values", [1, 3, 4, 5, 16])  # 5: a partial last counter block
def test_vector_engine_is_the_keyed_philox(seed, domain, values):
    """The numpy Philox4x64-10 against numpy's own, across both word boundaries of the stream index."""
    for start in (0, 2**64 - 3, 2**128 - 6):
        rows = np.empty((6, values))
        rng._philox_uniforms(seed, domain, start, rows)
        for r in range(6):
            assert rows[r].tobytes() == reference(seed, domain, start + r).random(values).tobytes()


@pytest.mark.parametrize(
    "rows, values, vector",
    [
        (rng._VECTOR_ROWS, rng._VECTOR_VALUES, True),
        (rng._VECTOR_ROWS, 1, True),
        (rng._VECTOR_ROWS - 1, rng._VECTOR_VALUES, False),
        (rng._VECTOR_ROWS, rng._VECTOR_VALUES + 1, False),
        (rng._VECTOR_ROWS - 1, rng._VECTOR_VALUES + 1, False),
    ],
)
def test_fill_picks_its_engine_by_shape(monkeypatch, rows, values, vector):
    vector_calls = []
    monkeypatch.setattr(rng, "_philox_uniforms", lambda *args: vector_calls.append(args))
    streams = rng.StreamFamily(4)
    out = np.full((rows, values), np.nan)
    assert streams.fill(rng.DOMAIN_CHANNEL, 2**64 - 5, out) is out
    assert len(vector_calls) == vector
    if not vector:  # the loop engine filled every row
        for r in (0, 4, 5, rows - 1):
            assert out[r].tobytes() == reference(4, rng.DOMAIN_CHANNEL, 2**64 - 5 + r).random(values).tobytes()


@st.composite
def _vector_windows(draw):
    """(seed, domain, start, rows, values) of a fill of the vector engine's shape, within one domain.

    Besides any start, the windows are drawn where the stream index spills
    into its next word, and up to the domain's last stream.
    """
    rows = draw(st.integers(rng._VECTOR_ROWS, 2600))
    values = draw(st.integers(1, rng._VECTOR_VALUES))
    last = 2**128 - rows  # the window's last row is the domain's last stream
    start = draw(st.one_of(st.integers(0, last), st.integers(2**64 - rows, 2**64), st.integers(last - 64, last)))
    domain = draw(st.sampled_from([rng.DOMAIN_CHANNEL, rng.DOMAIN_PHASE]))
    return draw(st.integers(0, 2**64 - 1)), domain, start, rows, values


@settings(PROPERTY, max_examples=40)
@given(window=_vector_windows())
# PHASE_WINDOWS' two vector-engine windows, at n = 16 and n = 1
@example(window=(2**64 - 17, rng.DOMAIN_PHASE, 2**64 - 2500, 2600, 16))
@example(window=(2**64 - 2, rng.DOMAIN_PHASE, 2**128 - 1100, 1100, 1))
def test_vector_engine_is_the_loop_engine(window):
    """fill gives the same bits on both engines for any window the vector engine takes."""
    seed, domain, start, rows, values = window
    streams = rng.StreamFamily(seed)
    vector = streams.fill(domain, start, np.empty((rows, values)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_VECTOR_ROWS", rows + 1)  # the same shape, on the loop engine
        loop = streams.fill(domain, start, np.empty((rows, values)))
    assert vector.tobytes() == loop.tobytes()
