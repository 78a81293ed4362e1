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
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .field import PrimeField
from .instance import MinRankInstance


class FormatError(ValueError):
    """Raised when an instance or witness file violates the format."""


def _int(token: str, what: str) -> int:
    try:
        v = int(token)
    except ValueError:
        raise FormatError(f"{what} {token!r} is not an integer") from None
    if str(v) != token:  # the written form, so parse -> write is byte-identical
        raise FormatError(f"{what} {token!r} is not a canonical integer")
    return v


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
    lines = ["minrank v1", f"q {inst.field.q}", f"m {inst.m} n {inst.n} K {inst.K} r {inst.r}"]
    for idx, M in enumerate(inst.matrices, start=1):
        lines.append(f"matrix {idx}")
        for row in M:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> MinRankInstance:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise FormatError("file must end with a single LF")
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of file")
        line = lines[pos]
        pos += 1
        if line != line.rstrip():
            raise FormatError(f"trailing whitespace on line {pos}")
        return line

    if take() != "minrank v1":
        raise FormatError("missing 'minrank v1' header")
    qline = take().split(" ")
    if len(qline) != 2 or qline[0] != "q":
        raise FormatError("malformed q line")
    field = _field(_int(qline[1], "q"))
    q = field.q
    dims = take().split(" ")
    if len(dims) != 8 or dims[0::2] != ["m", "n", "K", "r"]:
        raise FormatError("malformed dimension line")
    m, n, K, r = (_int(v, "dimension") for v in dims[1::2])
    if min(m, n, K, r) < 1:
        raise FormatError("m, n, K, r must be positive")
    mats = []
    for idx in range(1, K + 1):
        if take() != f"matrix {idx}":
            raise FormatError(f"expected 'matrix {idx}'")
        M = np.zeros((m, n), dtype=np.int64)
        for i in range(m):
            parts = take().split(" ")
            if len(parts) != n:
                raise FormatError(f"matrix {idx} row {i} has {len(parts)} entries, expected {n}")
            for j, p in enumerate(parts):
                try:  # inline rather than _int: this runs once per entry
                    v = int(p)
                except ValueError:
                    raise FormatError(f"entry {p!r} is not an integer") from None
                if not 0 <= v < q or str(v) != p:
                    raise FormatError(f"entry {p!r} not a canonical integer in [0, {q})")
                M[i, j] = v
        mats.append(M)
    if pos != len(lines):
        raise FormatError("trailing content after the last matrix")
    try:  # r > n
        return MinRankInstance(field, m, n, K, r, tuple(mats))
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
        "x " + " ".join(str(int(v)) for v in x),
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
    xs = tuple(_int(v, "coordinate") for v in _value(lines[3], "x").split(" "))
    if len(xs) != K:
        raise FormatError(f"witness has {len(xs)} coordinates, expected {K}")
    if not all(0 <= v < q for v in xs):
        raise FormatError(f"witness coordinates must lie in [0, {q})")
    return q, xs


def witness_path(instance_path: str | Path) -> Path:
    return Path(str(instance_path) + ".witness")
