"""Exact arithmetic in the prime field GF(q).

Field elements are plain Python ints reduced to the range [0, q); ``inv``
returns one and raises ``ZeroDivisionError`` on 0.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses below 3.2e9


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**31."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(q) for a prime modulus q with 2 <= q < 2**31."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not 2 <= q < 2**31:
            raise ValueError(f"modulus must be an int in [2, 2**31), got {q!r}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def inv(self, a: int) -> int:
        a = int(a) % self.q  # int() also accepts numpy integer scalars
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return pow(a, self.q - 2, self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"
