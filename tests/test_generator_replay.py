"""NumPy's ``Generator.shuffle`` and ``Generator.choice(p=...)``, replayed from PCG64's raw stream.

Louvain orders its node visits with ``rng.shuffle`` and ``synth`` draws
categories with ``rng.choice(k, size, p=...)``.  NumPy keeps a bit
generator's raw stream stable across releases, but not the algorithms of the
``Generator`` methods (NEP 19).  Every partition and the synthetic corpus
therefore depend on these two algorithms; a NumPy release that changes
either fails here by name rather than by a moved output byte.
"""

import numpy as np
import pytest

from .oracles import RawStream, choice_by_raw_stream, shuffle_by_raw_stream

# Lengths around the powers of two, where the rejection mask widens.
LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 100, 255, 256, 257, 1000, 4097)


def assert_same_state(stream, generator):
    state = generator.bit_generator.state
    assert stream.bits.state["state"] == state["state"]
    assert (stream.has_uint32, stream.uinteger) == (state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("seed", range(20))
def test_shuffle_is_fisher_yates_over_masked_32_bit_draws(seed):
    # Successive calls on one generator: the buffered upper half carries over.
    rng = np.random.default_rng(seed)
    stream = RawStream(rng)
    for n in LENGTHS:
        order = np.arange(n)
        rng.shuffle(order)
        assert order.tolist() == shuffle_by_raw_stream(stream, range(n)), n
        assert_same_state(stream, rng)


# law -> the category probabilities a synth column is drawn from
LAWS = (
    [0.5, 0.5],
    [0.7, 0.3],
    [0.2, 0.3, 0.5],
    [0.05, 0.05, 0.3, 0.6],
    [1.0 / 3.0] * 3,
    [0.0, 1.0],
)


@pytest.mark.parametrize("seed", range(20))
def test_choice_with_p_looks_up_one_double_per_draw(seed):
    rng = np.random.default_rng(1000 + seed)
    stream = RawStream(rng)
    for size, law in zip((1, 7, 60, 200, 33, 5), LAWS):
        probs = np.asarray(law)
        picks = rng.choice(len(law), size=size, p=probs / probs.sum())
        assert picks.tolist() == choice_by_raw_stream(stream, size, probs / probs.sum())
        assert_same_state(stream, rng)


@pytest.mark.parametrize("seed", range(10))
def test_interleaved_shuffles_and_choices_share_one_stream(seed):
    # A double does not touch the buffered 32-bit half, so a shuffle after a
    # choice still starts with the half an earlier shuffle left.
    rng = np.random.default_rng(2000 + seed)
    stream = RawStream(rng)
    p = np.array([0.25, 0.25, 0.5])
    for n in (3, 10, 33):
        order = np.arange(n)
        rng.shuffle(order)
        assert order.tolist() == shuffle_by_raw_stream(stream, range(n))
        assert rng.choice(3, size=n, p=p).tolist() == choice_by_raw_stream(stream, n, p)
        assert_same_state(stream, rng)
