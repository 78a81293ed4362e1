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
written.  Writing fills one format template per row; parsing matches each
row against one regex and converts all entries at once into a (K, m, n) array.
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
    row = " ".join(["%d"] * inst.n)
    lines = ["minrank v1", f"q {inst.field.q}", f"m {inst.m} n {inst.n} K {inst.K} r {inst.r}"]
    for idx, M in enumerate(inst.matrices, start=1):
        lines.append(f"matrix {idx}")
        lines.extend(row % tuple(values) for values in M.tolist())
    return "\n".join(lines) + "\n"


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
    for pos, row in enumerate(rows):
        if not (_INTS.fullmatch(row) and row.count(" ") == n - 1):
            raise FormatError(f"matrix {pos // m + 1} row {pos % m} is not {n} canonical "
                              f"integers separated by single spaces")
    tokens = " ".join(rows).split(" ")
    try:
        stack = np.fromiter(map(int, tokens), np.int64, len(tokens))
        bad = stack >= q  # entries are non-negative by the token rule
    except OverflowError:  # an entry of 2**63 or more has more digits than q
        bad = np.fromiter(map(len, tokens), np.int64, len(tokens)) > len(str(q))
    if bad.any():
        pos = int(np.argmax(bad)) // n
        raise FormatError(f"matrix {pos // m + 1} row {pos % m} has an entry outside [0, {q})")
    try:  # r > n
        return MinRankInstance(field, m, n, K, r, stack.reshape(K, m, n))
    except ValueError as e:
        raise FormatError(str(e)) from None


def save_instance(path: str | Path, inst: MinRankInstance) -> None:
    Path(path).write_bytes(write_instance(inst).encode("ascii"))


def load_instance(path: str | Path) -> MinRankInstance:
    return parse_instance(Path(path).read_bytes().decode("ascii"))


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
