import pytest

from supportminors import prng
from supportminors.prng import ChaChaStream, chacha20_block

# RFC 8439 section 2.3.2 block-function test vector.
RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)

# First keystream block for seed 42 under the package's key layout,
# frozen from an independent ChaCha20 implementation.
SEED42_BLOCK0 = bytes.fromhex(
    "1f76e526510ae36a625c8b5c597febb416042cce3db589b3dc82a8f7a4a86626"
    "eb604128710fd1d804264f1a5b080a60565149f216a0b528d73e96ab2da98ac1"
)


def test_rfc8439_block_vector():
    assert chacha20_block(RFC_KEY, 1, RFC_NONCE) == RFC_BLOCK


def test_seed_key_layout_frozen():
    key = (42).to_bytes(8, "little") + bytes(24)
    assert chacha20_block(key, 0, bytes(12)) == SEED42_BLOCK0


def test_stream_words_match_block_bytes():
    s = ChaChaStream(42)
    words = [s.below(2**32) for _ in range(16)]  # accepts every word
    expected = [
        int.from_bytes(SEED42_BLOCK0[4 * i : 4 * i + 4], "little") for i in range(16)
    ]
    assert words == expected


def test_cross_library_keystream():
    crypto = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    key = (2**63 + 12345).to_bytes(8, "little") + bytes(24)
    enc = crypto.Cipher(
        crypto.algorithms.ChaCha20(key, (3).to_bytes(4, "little") + bytes(12)),
        mode=None,
    ).encryptor()
    assert chacha20_block(key, 3, bytes(12)) == enc.update(bytes(64))

    # A run of consecutive blocks from a nonzero counter, with a nonzero nonce.
    nonce = bytes(range(100, 112))
    start, count = 1000, 128
    enc = crypto.Cipher(
        crypto.algorithms.ChaCha20(key, start.to_bytes(4, "little") + nonce), mode=None
    ).encryptor()
    words = prng._keystream(prng._words(key), start, prng._words(nonce), count)
    assert words.astype("<u4").tobytes() == enc.update(bytes(64 * count))


def test_determinism_and_seed_separation():
    a = [ChaChaStream(9).below(1000) for _ in range(50)]
    b = [ChaChaStream(9).below(1000) for _ in range(50)]
    c = [ChaChaStream(10).below(1000) for _ in range(50)]
    assert a == b
    assert a != c


def test_below_bounds_and_rejection():
    s = ChaChaStream(0)
    draws = [s.below(7) for _ in range(2000)]
    assert all(0 <= d < 7 for d in draws)
    counts = [draws.count(v) for v in range(7)]
    assert min(counts) > 180  # ~286 expected per bucket


def test_nonzero_below():
    s = ChaChaStream(1)
    assert all(1 <= s.nonzero_below(5) < 5 for _ in range(200))
    assert ChaChaStream(1).nonzero_below(2) == 1
    with pytest.raises(ValueError):
        s.nonzero_below(1)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        ChaChaStream(-1)
    with pytest.raises(ValueError):
        ChaChaStream(2**64)
    ChaChaStream(2**64 - 1).below(2**32)
