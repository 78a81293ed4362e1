"""Property tests of the batched ChaCha20 stream against tests/oracle.py.

`RefStream` computes one block at a time with scalar quarter rounds and
serves one word at a time, so it shares no code with the package.  Both
streams get the same interleaving of scalar and array draws and must give
identical output; small refill sizes put refill boundaries inside
`below_array` calls.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors import prng
from supportminors.prng import ChaChaStream

from oracle import RefStream, ref_chacha20_block

# 2**31 + 1 rejects almost half of all words.
BOUNDS = (1, 2, 3, 7, 32003, 2**31 - 1, 2**31 + 1, 2**32)
COUNTS = (0, 1, 15, 16, 17, 40, 100)
REFILLS = (1, 2, 3, prng._REFILL_BLOCKS)

draws = st.one_of(
    st.tuples(st.just("u32"), st.just(0), st.just(1)),
    st.tuples(st.just("below"), st.sampled_from(BOUNDS), st.just(1)),
    st.tuples(st.just("nonzero_below"), st.sampled_from(BOUNDS[1:]), st.just(1)),
    st.tuples(st.just("below_array"), st.sampled_from(BOUNDS), st.sampled_from(COUNTS)),
)


def replay(stream, kind, bound, count):
    if kind == "u32":  # the package draws a raw word as below(2**32)
        return [stream.u32() if isinstance(stream, RefStream) else stream.below(2**32)]
    if kind == "below_array":
        if isinstance(stream, RefStream):
            return [stream.below(bound) for _ in range(count)]
        out = stream.below_array(bound, count)
        assert out.dtype == np.int64 and out.shape == (count,)
        return out.tolist()
    return [getattr(stream, kind)(bound)]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    refill=st.sampled_from(REFILLS),
    ops=st.lists(draws, min_size=1, max_size=12),
)
def test_stream_matches_reference(seed, refill, ops):
    with mock.patch.object(prng, "_REFILL_BLOCKS", refill):
        got, ref = ChaChaStream(seed), RefStream(seed)
        for op in ops:
            assert replay(got, *op) == replay(ref, *op), op


@pytest.mark.parametrize("bound", BOUNDS)
def test_empty_below_array_consumes_nothing(bound):
    got, ref = ChaChaStream(5), RefStream(5)
    assert got.below(7) == ref.below(7)
    assert got.below_array(bound, 0).size == 0
    assert [got.below(2**32) for _ in range(3)] == [ref.u32() for _ in range(3)]


@pytest.mark.parametrize("bound", (32003, 2**31 + 1))
def test_below_array_across_refills_at_full_size(bound):
    count = 3 * 16 * prng._REFILL_BLOCKS + 5
    got, ref = ChaChaStream(2**64 - 1), RefStream(2**64 - 1)
    assert got.below_array(bound, count).tolist() == [ref.below(bound) for _ in range(count)]
    assert got.below(2**32) == ref.u32()


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    counter=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 8, 2**32 - 1)),
    count=st.integers(1, 12),
)
def test_batched_blocks_match_scalar_blocks(key, nonce, counter, count):
    """Consecutive blocks, including a 32-bit counter wrap, equal the scalar ones."""
    words = prng._keystream(prng._words(key), counter, prng._words(nonce), count)
    expected = b"".join(ref_chacha20_block(key, counter + i, nonce) for i in range(count))
    assert words.astype("<u4").tobytes() == expected


def test_below_array_validates_arguments():
    s = ChaChaStream(0)
    for bound in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError):
            s.below_array(bound, 1)
    with pytest.raises(ValueError):
        s.below_array(7, -1)
