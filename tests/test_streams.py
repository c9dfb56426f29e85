"""Counter-based substreams and their block reads."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit.streams import BLOCK, Draws, substream, words_drawn


@pytest.mark.parametrize("scale", [1.0, 1e-4, 3.7, 2.5e5, 1e300])
def test_buffered_draws_equal_scalar_generator_draws_across_a_block_boundary(scale):
    exponentials = Draws(substream(601, "draws", scale), "standard_exponential")
    uniforms = Draws(substream(601, "draws", scale), "random")
    reference = substream(601, "draws", scale)
    uniform_reference = substream(601, "draws", scale)
    got = [exponentials.exponential(scale) for _ in range(BLOCK - 3)]
    got += (exponentials.take(10) * scale).tolist()  # across the boundary
    exponentials.take(5)
    got += [exponentials.exponential(scale) for _ in range(BLOCK)]
    expected = [reference.exponential(scale) for _ in range(2 * BLOCK + 12)]
    assert got == expected[: BLOCK + 7] + expected[BLOCK + 12:]
    assert exponentials.taken == 2 * BLOCK + 12
    assert [uniforms.random() for _ in range(BLOCK + 7)] == [uniform_reference.random() for _ in range(BLOCK + 7)]
    assert uniforms.take(3).tolist() == uniform_reference.random(3).tolist()
    assert uniforms.taken == BLOCK + 10


def test_take_reads_across_a_refill_and_at_most_a_block():
    draws = Draws(substream(602, "take"), "random")
    draws.take(BLOCK - 2)
    taken = draws.take(6)
    assert draws.taken == BLOCK + 4
    assert taken.tolist() == substream(602, "take").random(BLOCK + 4)[-6:].tolist()
    assert [draws.next() for _ in range(3)] == substream(602, "take").random(BLOCK + 7)[-3:].tolist()
    longer = draws.take(3 * BLOCK + 1)  # a take longer than a block tops the buffer up to its length
    assert longer.tolist() == substream(602, "take").random(4 * BLOCK + 8)[-(3 * BLOCK + 1):].tolist()
    assert draws.taken == 4 * BLOCK + 8
    assert draws.next() == substream(602, "take").random(4 * BLOCK + 9)[-1]


READS = st.one_of(
    st.tuples(st.just("next"), st.none()),
    st.tuples(st.just("take"), st.integers(0, 3 * BLOCK)),
    st.tuples(st.just("exponential"), st.floats(1e-3, 1e3)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["random", "standard_exponential"]), before=st.integers(0, 3),
       reads=st.lists(READS, max_size=30))
def test_interleaved_reads_give_the_generators_own_draws(kind, before, reads):
    generator = substream(607, "interleave", kind)
    getattr(generator, kind)(before)
    draws = Draws(generator, kind, taken=before)
    got, scales = [], []
    for read, arg in reads:
        if read == "next":
            got.append(draws.next())
            scales.append(None)
        elif read == "take":
            got += draws.take(arg).tolist()
            scales += [None] * arg
        else:
            got.append(draws.exponential(arg))
            scales.append(arg)
        assert draws.taken == before + len(got)
    own = getattr(substream(607, "interleave", kind), kind)(before + len(got))[before:].tolist()
    assert got == [v if scale is None else v * scale for v, scale in zip(own, scales)]


def test_taken_starts_at_the_draws_made_before_the_buffer():
    generator = substream(603, "before")
    generator.random()
    draws = Draws(generator, "standard_exponential", taken=1)
    assert draws.taken == 1
    draws.next()
    assert draws.taken == 2


def test_scalar_reads_are_python_floats():
    draws = Draws(substream(604, "floats"), "random")
    assert type(draws.next()) is float and type(draws.random()) is float
    assert type(Draws(substream(604, "exp"), "standard_exponential").exponential(2.0)) is float


def test_words_drawn_reads_the_philox_counter():
    generator = substream(605, "words")
    assert words_drawn(generator) == 0
    generator.random(10)
    generator.standard_exponential(1000)
    before = repr(generator.bit_generator.state)
    words = words_drawn(generator)
    assert repr(generator.bit_generator.state) == before  # reading the count draws nothing
    assert words >= 1010
    probe = substream(605, "words")
    probe.bit_generator.random_raw(words)
    assert probe.random() == generator.random()


def test_substreams_are_named_and_reproducible():
    a = substream(606, "x", 1).random(4)
    assert np.array_equal(a, substream(606, "x", 1).random(4))
    assert not np.array_equal(a, substream(606, "x", 2).random(4))
