"""Deterministic random stream built on the ChaCha20 block function (RFC 8439).

A 64-bit seed is expanded to a ChaCha20 key (seed as 8 little-endian bytes,
zero-padded to 32); the nonce is 12 zero bytes and the block counter starts
at 0.  The keystream is consumed as consecutive little-endian 32-bit words,
and bounded draws use rejection sampling, so any conforming ChaCha20
implementation reproduces the same instances byte for byte.

Blocks are computed in batches: `_keystream` runs the 20 rounds on a
(16, N) uint32 state, one column per block, so each add / xor / rotate is
one array operation over N blocks.  `ChaChaStream` refills a word buffer
`_REFILL_BLOCKS` blocks at a time; `below_array` draws bounded values by
filtering that buffer, and `below` and `nonzero_below` are single draws
through it.
"""

from __future__ import annotations

import numpy as np

_CONSTANTS = np.array([0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32)
# Blocks per refill (8192 words).  A batch of up to ~64 blocks costs the
# same as one, so small instances pay little for the unused words, while a
# (20, 20, 60) instance needs only three refills.
_REFILL_BLOCKS = 512
# Row orders that line the diagonals up as columns (b, c, d rotated by 1, 2, 3)
# and their inverses.
_DIAG = (np.array([1, 2, 3, 0]), np.array([2, 3, 0, 1]), np.array([3, 0, 1, 2]))
_UNDIAG = (_DIAG[2], _DIAG[1], _DIAG[0])


def _rotl(v: np.ndarray, n: int) -> None:
    """Rotate every word of v left by n bits, in place."""
    t = v << n
    v >>= 32 - n
    v |= t


def _quarter_rounds(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> None:
    """Quarter round (a[i], b[i], c[i], d[i]) for each of the four rows, in place."""
    a += b
    d ^= a
    _rotl(d, 16)
    c += d
    b ^= c
    _rotl(b, 12)
    a += b
    d ^= a
    _rotl(d, 8)
    c += d
    b ^= c
    _rotl(b, 7)


def _keystream(key: np.ndarray, counter: int, nonce: np.ndarray, count: int) -> np.ndarray:
    """Blocks counter .. counter+count-1 as one uint32 array of 16*count words."""
    state = np.empty((16, count), dtype=np.uint32)
    state[0:4] = _CONSTANTS[:, None]
    state[4:12] = key[:, None]
    start = counter & 0xFFFFFFFF  # the 32-bit block counter wraps
    counters = np.arange(start, start + count, dtype=np.uint64) & 0xFFFFFFFF
    state[12] = counters.astype(np.uint32)
    state[13:16] = nonce[:, None]
    a, b, c, d = (state[i : i + 4].copy() for i in range(0, 16, 4))
    for _ in range(10):
        _quarter_rounds(a, b, c, d)
        b, c, d = b[_DIAG[0]], c[_DIAG[1]], d[_DIAG[2]]
        _quarter_rounds(a, b, c, d)
        b, c, d = b[_UNDIAG[0]], c[_UNDIAG[1]], d[_UNDIAG[2]]
    out = np.concatenate((a, b, c, d))
    out += state
    return out.T.ravel()


def _words(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype="<u4").astype(np.uint32)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (20 rounds, RFC 8439 layout)."""
    if len(key) != 32 or len(nonce) != 12:
        raise ValueError("key must be 32 bytes and nonce 12 bytes")
    return _keystream(_words(key), counter, _words(nonce), 1).astype("<u4").tobytes()


def _limit(bound: int) -> int:
    """Largest multiple of bound that fits in 2**32: words below it are accepted."""
    if not 0 < bound <= 2**32:
        raise ValueError("bound must be in (0, 2**32]")
    return (2**32 // bound) * bound


class ChaChaStream:
    """Seeded uniform integer stream; identical seeds yield identical draws."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self._key = _words(seed.to_bytes(8, "little") + bytes(24))
        self._nonce = np.zeros(3, dtype=np.uint32)
        self._counter = 0
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    def _refill(self) -> None:
        self._buf = _keystream(self._key, self._counter, self._nonce, _REFILL_BLOCKS)
        self._counter += _REFILL_BLOCKS
        self._pos = 0

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) via rejection sampling on 32-bit words."""
        return int(self.below_array(bound, 1)[0])

    def below_array(self, bound: int, count: int) -> np.ndarray:
        """The next `count` draws of `below(bound)` as an int64 array."""
        limit = _limit(bound)
        if count < 0:
            raise ValueError("count must be non-negative")
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos >= len(self._buf):
                self._refill()
            words = self._buf[self._pos :]
            need = count - filled
            accepted = np.flatnonzero(words < limit)
            take = min(need, len(accepted))
            out[filled : filled + take] = words[accepted[:take]]
            # Past the last accepted word, or past the whole buffer when it
            # ran short (its trailing words were all rejected).
            if take == need:
                self._pos += int(accepted[take - 1]) + 1
            else:
                self._pos = len(self._buf)
            filled += take
        out %= bound
        return out

    def nonzero_below(self, bound: int) -> int:
        """Uniform draw in [1, bound); always consumes at least one word."""
        if bound < 2:
            raise ValueError("bound must be at least 2")
        return 1 + self.below(bound - 1)
