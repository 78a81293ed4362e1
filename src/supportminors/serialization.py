"""The `minrank v1` instance file format and its witness sidecar.

Both formats are line-oriented, LF-terminated, base-10, with no trailing
whitespace, so that generate -> parse -> generate is byte-identical:

    minrank v1
    q <q>
    m <m> n <n> K <K> r <r>
    matrix 1
    <m lines of n space-separated integers in [0, q)>
    ...
    matrix K
    <...>

Witness sidecar (written next to planted instances as <path>.witness):

    minrank-witness v1
    q <q>
    K <K>
    x <K space-separated integers in [0, q)>

Every integer is canonical (ASCII digits, no sign, no leading zero), as
written.  The K * m matrix rows go through one ASCII byte array.  Writing
scatters one digit position of every entry at a time into it.  Parsing
checks all bytes, separators, token counts and leading zeros in whole-array
passes, reads each entry's last digits as one uint64 and converts them with
a few multiplies (SIMD within a register), then range-checks all entries at
once; a failure is mapped back to the first bad row, named by matrix and row.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .field import PrimeField
from .instance import MinRankInstance

_TOKEN = "(?:0|[1-9][0-9]*)"
_INT = re.compile(_TOKEN)
_INTS = re.compile(f"{_TOKEN}(?: {_TOKEN})*")  # one space between tokens, none empty
_LF, _SP, _ZERO = ord("\n"), ord(" "), ord("0")
# _KEEP[k] keeps the last k of the 8 bytes of a little-endian uint64.
_KEEP = np.array([0] + [(1 << 64) - (1 << 8 * (8 - k)) for k in range(1, 9)], np.uint64)


class FormatError(ValueError):
    """Raised when an instance or witness file violates the format."""


def _int(token: str, what: str) -> int:
    if not _INT.fullmatch(token):
        raise FormatError(f"{what} {token!r} is not a canonical integer")
    return int(token)


def _field(q: int) -> PrimeField:
    try:
        return PrimeField(q)
    except ValueError as e:
        raise FormatError(str(e)) from None


def _value(line: str, key: str) -> str:
    """The text after '<key> ' on a keyed witness line."""
    if not line.startswith(key + " "):
        raise FormatError(f"expected a '{key} ' line, got {line!r}")
    return line[len(key) + 1 :]


def write_instance(inst: MinRankInstance) -> str:
    q, K, m, n = inst.field.q, inst.K, inst.m, inst.n
    width = len(str(q - 1))
    values = inst.stack.reshape(-1).astype(np.uint32)
    size = np.full(values.size, 2, np.uint8)  # digits plus the separator
    for j in range(1, width):
        size += values >= 10**j
    # Separator offsets in a buffer led by `width` spare bytes.  Each entry
    # is written as `width` digits ending at its separator, most significant
    # first; the leading zeros land on earlier bytes, which the entries and
    # separators written after them overwrite (or on the spare bytes).
    ends = np.cumsum(size, dtype=np.int64)
    ends += width - 1
    out = np.empty(ends[-1] + 1, np.uint8)
    at = ends - width
    for j in range(width - 1, -1, -1):
        digit = values // 10**j
        digit -= digit // 10 * 10
        digit += _ZERO
        out[at] = digit
        at += 1
    out[ends] = _SP
    out[ends[n - 1 :: n]] = _LF
    body = out[width:].tobytes().decode("ascii")
    cuts = (ends[m * n - 1 :: m * n] + (1 - width)).tolist()  # just past each matrix
    parts = [f"minrank v1\nq {q}\nm {m} n {n} K {K} r {inst.r}\n"]
    for idx, (a, b) in enumerate(zip([0] + cuts, cuts), start=1):
        parts += (f"matrix {idx}\n", body[a:b])
    return "".join(parts)


def _first_bad_row(buf: np.ndarray, n: int) -> int:
    """Index of the first LF-terminated row of `buf` that is not n canonical
    integers separated by single spaces."""
    lf = buf == _LF
    space = buf == _SP
    sep = lf | space
    digit = buf - np.uint8(_ZERO) < 10  # wraps below '0'
    starts = np.concatenate(([True], sep[:-1]))  # bytes that begin a token, or should
    bad = ~(digit | sep) | (sep & starts)
    bad[:-1] |= (buf[:-1] == _ZERO) & starts[:-1] & digit[1:]
    rows = np.flatnonzero(lf)
    row_bad = np.diff(np.cumsum(space)[rows], prepend=0) != n - 1
    row_bad[np.searchsorted(rows, np.flatnonzero(bad))] = True
    return int(np.argmax(row_bad))


def _swar(chunks: np.ndarray, count: np.ndarray) -> np.ndarray:
    """In place, the values of the decimal digits in the last count[i] <= 8
    bytes of each little-endian uint64 chunks[i]: the earlier bytes become
    leading zeros, then adjacent digits, pairs and quads are merged by one
    multiply, shift and mask each."""
    chunks &= _KEEP[count]
    chunks &= 0x0F0F0F0F0F0F0F0F  # '0'..'9' -> 0..9
    for bits, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        chunks *= (10 ** (bits // 8) << bits) + 1
        chunks >>= bits
        chunks &= mask
    return chunks


def _entries(data: bytes, K: int, m: int, n: int, q: int) -> np.ndarray:
    """The K * m * n entries of `data`, K * m LF-terminated rows of ASCII
    text, as one int64 array.  Raises FormatError naming the first row that
    is not n canonical integers separated by single spaces, else the first
    row with an entry not below q."""
    buf = np.frombuffer(data, np.uint8)
    sep = buf == _SP
    sep |= buf == _LF
    ends = np.flatnonzero(sep)  # the byte after each token
    length = np.diff(ends, prepend=-1)
    length -= 1
    # Only digits and separators, no empty token, and with K * m LFs in all,
    # an LF after every n-th token.  Leading zeros only in the token "0".
    if (np.count_nonzero(buf - np.uint8(_ZERO) < 10) + len(ends) != len(buf)
            or len(ends) != K * m * n or length.min() < 1
            or (buf[ends[n - 1 :: n]] != _LF).any()
            or ((buf[ends - length] == _ZERO) & (length > 1)).any()):
        row = _first_bad_row(buf, n)
        raise FormatError(f"matrix {row // m + 1} row {row % m} is not {n} canonical "
                          f"integers separated by single spaces")
    width = len(str(q))
    # The 8 bytes up to each token's end, and the 8 before them, as unaligned
    # uint64 reads; 16 zero bytes in front keep the first token's in range.
    padded = bytes(16) + data
    reads = np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))
    values = _swar(reads[ends + 8], np.minimum(length, 8)).view(np.int64)
    if width > 8:
        values += _swar(reads[ends], np.clip(length - 8, 0, 8)).view(np.int64) * 10**8
    bad = (length > width) | (values >= q)
    if bad.any():
        row = int(np.argmax(bad)) // n
        raise FormatError(f"matrix {row // m + 1} row {row % m} has an entry outside [0, {q})")
    return values


def parse_instance(text: str) -> MinRankInstance:
    if not text.endswith("\n"):
        raise FormatError("file must end with a single LF")
    lines = text[:-1].split("\n")
    if len(lines) < 3:
        raise FormatError("unexpected end of file")
    if lines[0] != "minrank v1":
        raise FormatError("missing 'minrank v1' header")
    qline = lines[1].split(" ")
    if len(qline) != 2 or qline[0] != "q":
        raise FormatError("malformed q line")
    field = _field(_int(qline[1], "q"))
    q = field.q
    dims = lines[2].split(" ")
    if len(dims) != 8 or dims[0::2] != ["m", "n", "K", "r"]:
        raise FormatError("malformed dimension line")
    m, n, K, r = (_int(v, "dimension") for v in dims[1::2])
    if min(m, n, K, r) < 1:
        raise FormatError("m, n, K, r must be positive")
    rows = lines[3:]
    if len(rows) != K * (m + 1):
        raise FormatError(f"expected {K} matrices of {m} rows ({K * (m + 1)} lines), got {len(rows)}")
    for idx, line in enumerate(rows[:: m + 1], start=1):
        if line != f"matrix {idx}":
            raise FormatError(f"expected 'matrix {idx}'")
    del rows[:: m + 1]
    # One byte per character: a non-ASCII one becomes '?', which no row may hold.
    data = ("\n".join(rows) + "\n").encode("ascii", "replace")
    stack = _entries(data, K, m, n, q)
    try:  # r > n
        return MinRankInstance(field, m, n, K, r, stack.reshape(K, m, n))
    except ValueError as e:
        raise FormatError(str(e)) from None


def save_instance(path: str | Path, inst: MinRankInstance) -> None:
    Path(path).write_bytes(write_instance(inst).encode("ascii"))


def read_ascii(path: str | Path) -> str:
    """The file's text; FormatError naming the first non-ASCII byte and its offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"non-ASCII byte 0x{data[e.start]:02x} at offset {e.start}") from None


def load_instance(path: str | Path) -> MinRankInstance:
    return parse_instance(read_ascii(path))


def write_witness(q: int, x: tuple[int, ...]) -> str:
    lines = [
        "minrank-witness v1",
        f"q {q}",
        f"K {len(x)}",
        "x " + " ".join(["%d"] * len(x)) % tuple(x),
    ]
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> tuple[int, tuple[int, ...]]:
    lines = text.split("\n")
    if len(lines) != 5 or lines[4] != "":
        raise FormatError("witness must be exactly four LF-terminated lines")
    if lines[0] != "minrank-witness v1":
        raise FormatError("missing witness header")
    q = _field(_int(_value(lines[1], "q"), "q")).q
    K = _int(_value(lines[2], "K"), "K")
    coords = _value(lines[3], "x")
    if not _INTS.fullmatch(coords):
        raise FormatError(f"witness coordinates {coords!r} are not canonical integers "
                          f"separated by single spaces")
    xs = tuple(map(int, coords.split(" ")))
    if len(xs) != K:
        raise FormatError(f"witness has {len(xs)} coordinates, expected {K}")
    if max(xs) >= q:
        raise FormatError(f"witness coordinates must lie in [0, {q})")
    return q, xs


def witness_path(instance_path: str | Path) -> Path:
    return Path(str(instance_path) + ".witness")
