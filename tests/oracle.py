"""Independent reference implementations used as test oracles.

Everything here is deliberately written without the package's linear
algebra: pure-Python lists, permutation-expansion determinants, a tiny
dict-based polynomial type, and a ChaCha20 block function that runs one
quarter round at a time on Python ints, so the two sides of every
comparison share no code path.  The syzygy references enumerate the
families from their definitions with itertools, and expand every
entry x term product into a dict keyed by (monomial, Plucker subset); they
read one member's equation labels through `eq_label`.
The `minrank v1` references format one row template per matrix row and
parse each row with a regex and one int() per entry.
"""

from __future__ import annotations

import itertools
import re
from math import comb

import numpy as np

from supportminors.combinatorics import subset_rank
from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance
from supportminors.linalg import SparseMatrix
from supportminors.serialization import FormatError


def ref_rref(rows: list[list[int]], q: int) -> tuple[int, list[list[int]], list[int]]:
    """Gauss-Jordan elimination on lists of Python ints: (rank, RREF, pivots)."""
    M = [[v % q for v in row] for row in rows]
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(M):
            break
        piv = None
        for i in range(rank, len(M)):
            if M[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], q - 2, q)
        M[rank] = [v * inv % q for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col]
                M[i] = [(a - f * b) % q for a, b in zip(M[i], M[rank])]
        pivots.append(col)
    return len(pivots), M, pivots


def ref_rank(rows: list[list[int]], q: int) -> int:
    return ref_rref(rows, q)[0]


def ref_det(M: list[list[int]], q: int) -> int:
    """Leibniz expansion over all permutations (tiny matrices only)."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = 1
        for i in range(n):
            prod = prod * M[i][perm[i]] % q
        total = (total + sign * prod) % q
    return total


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


_MASK = 0xFFFFFFFF
_CHACHA_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _quarter_round(s: list[int], a: int, b: int, c: int, d: int) -> None:
    s[a] = (s[a] + s[b]) & _MASK
    s[d] ^= s[a]
    s[d] = ((s[d] << 16) | (s[d] >> 16)) & _MASK
    s[c] = (s[c] + s[d]) & _MASK
    s[b] ^= s[c]
    s[b] = ((s[b] << 12) | (s[b] >> 20)) & _MASK
    s[a] = (s[a] + s[b]) & _MASK
    s[d] ^= s[a]
    s[d] = ((s[d] << 8) | (s[d] >> 24)) & _MASK
    s[c] = (s[c] + s[d]) & _MASK
    s[b] ^= s[c]
    s[b] = ((s[b] << 7) | (s[b] >> 25)) & _MASK


def ref_chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 block, one quarter round at a time on Python ints."""
    state = list(_CHACHA_CONSTANTS)
    state += [int.from_bytes(key[4 * i : 4 * i + 4], "little") for i in range(8)]
    state.append(counter & _MASK)
    state += [int.from_bytes(nonce[4 * i : 4 * i + 4], "little") for i in range(3)]
    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = bytearray()
    for w, init in zip(working, state):
        out += ((w + init) & _MASK).to_bytes(4, "little")
    return bytes(out)


class RefStream:
    """The package's seeded stream drawn one word at a time from a list."""

    def __init__(self, seed: int):
        self._key = seed.to_bytes(8, "little") + bytes(24)
        self._counter = 0
        self._words: list[int] = []

    def u32(self) -> int:
        if not self._words:
            block = ref_chacha20_block(self._key, self._counter, bytes(12))
            self._counter += 1
            self._words = [int.from_bytes(block[i : i + 4], "little") for i in range(60, -4, -4)]
        return self._words.pop()

    def below(self, bound: int) -> int:
        limit = (2**32 // bound) * bound
        while True:
            w = self.u32()
            if w < limit:
                return w % bound

    def nonzero_below(self, bound: int) -> int:
        return 1 + self.below(bound - 1)


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets sorted by reversed-tuple comparison (= colex)."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def subset_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of {0..n-1} with the given colex rank."""
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    out = [0] * k
    r = rank
    for t in range(k, 0, -1):
        # Largest j with C(j, t) <= r; elements are filled from the top down.
        j = t - 1
        while comb(j + 1, t) <= r:
            j += 1
        out[t - 1] = j
        r -= comb(j, t)
    return tuple(out)


def eq_index(eqs, row: int, cols: tuple[int, ...]) -> int:
    """Position of equation (row, cols) in a `BilinearSystem`; ValueError if
    it is not in the system."""
    if not 0 <= row < eqs.m or len(cols) != eqs.r + 1 or not 0 <= cols[0] <= cols[-1] < eqs.n:
        raise ValueError(f"equation ({row}, {cols}) is not in the system")
    return row * len(eqs.plk) + subset_rank(cols)


def eq_label(eqs, e: int) -> tuple[int, tuple[int, ...]]:
    """The (row, column subset) label of equation e of a `BilinearSystem`."""
    row, s = divmod(e, len(eqs.plk))
    return row, subset_unrank(s, eqs.n, eqs.r + 1)


def colex_monomials(K: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d monomials sorted by reversed exponent vectors (= colex)."""
    monos = itertools.combinations_with_replacement(range(K), d)

    def expvec(mono):
        e = [0] * K
        for v in mono:
            e[v] += 1
        return tuple(reversed(e))

    return sorted(monos, key=expvec)


def projective_points(q: int, K: int) -> list[tuple[int, ...]]:
    """Normalized projective representatives via full enumeration + dedupe."""
    seen = set()
    for x in itertools.product(range(q), repeat=K):
        for v in x:
            if v:
                inv = pow(v, q - 2, q)
                seen.add(tuple(u * inv % q for u in x))
                break
    return sorted(seen)


class Poly:
    """Multivariate polynomial as dict: monomial (sorted var tuple) -> coeff."""

    def __init__(self, q: int, terms: dict | None = None):
        self.q = q
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c %= q
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @classmethod
    def const(cls, q, c):
        return cls(q, {(): c})

    @classmethod
    def var(cls, q, name):
        return cls(q, {(name,): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) + c) % self.q
        return Poly(self.q, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) - c) % self.q
        return Poly(self.q, out)

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = (out.get(mono, 0) + c1 * c2) % self.q
        return Poly(self.q, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.q == other.q and self.terms == other.terms


def poly_det(q: int, M: list[list[Poly]]) -> Poly:
    """Determinant of a matrix of polynomials by permutation expansion."""
    n = len(M)
    total = Poly(q)
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = Poly.const(q, sign)
        for i in range(n):
            prod = prod * M[i][perm[i]]
        total = total + prod
    return total


def mat_vec(field, M, v) -> np.ndarray:
    """M v over GF(q), one Python-int dot product per row."""
    vec = [int(c) for c in np.asarray(v).ravel()]
    return np.array([sum(a * b for a, b in zip(row, vec)) % field.q
                     for row in np.asarray(M).tolist()], dtype=np.int64)


def plucker_vector(field, C) -> np.ndarray:
    """All maximal minors of an r x n matrix, colex order on column subsets,
    each by permutation expansion."""
    rows = np.asarray(C).tolist()
    return np.array([ref_det([[row[j] for j in T] for row in rows], field.q)
                     for T in colex_subsets(len(rows[0]), len(rows))], dtype=np.int64)


def extend_to_rank(field, M, r: int) -> np.ndarray:
    """An r x n full-rank matrix whose row space contains that of M: the
    nonzero RREF rows of M, padded with standard basis vectors of the
    non-pivot columns in column order."""
    M = np.asarray(M)
    rk, R, pivots = ref_rref(M.tolist(), field.q)
    if rk > r:
        raise ValueError(f"row space has dimension {rk} > {r}")
    n = M.shape[1]
    rows = R[:rk] + [[int(i == j) for i in range(n)] for j in range(n) if j not in pivots]
    if len(rows) < r:
        raise ValueError("cannot extend: r exceeds n")
    return np.array(rows[:r], dtype=np.int64)


def evaluation_vector(field, mac, x, C) -> np.ndarray:
    """Kernel-member candidate over the columns of `mac`: entry (nu, T) is
    nu(x) * minor_T(C), monomials and subsets in the colex lists above,
    minors by permutation expansion."""
    q = field.q
    rows = np.asarray(C).tolist()
    pluckers = colex_subsets(mac.equations.n, mac.equations.r)
    minors = [ref_det([[row[j] for j in T] for row in rows], q) for T in pluckers]
    out = []
    for nu in colex_monomials(mac.K, mac.b):
        ev = 1
        for var in nu:
            ev = ev * x[var] % q
        out += [ev * p % q for p in minors]
    return np.array(out, dtype=np.int64)


def ref_csr(M):
    """The package's CSR of a dense matrix, its arrays built row by row."""
    indptr, indices, values = [0], [], []
    for row in np.asarray(M).tolist():
        for c, v in enumerate(row):
            if v:
                indices.append(c)
                values.append(v)
        indptr.append(len(indices))
    rows, cols = np.shape(M)
    return SparseMatrix(rows, cols, indptr, indices, values)


def ref_macaulay(inst, b: int) -> list[list[int]]:
    """Dense degree-b Macaulay matrix, entry by entry.

    Row (mu, i, J), for mu a degree-(b-1) monomial, holds
    (-1)^t M_ell[i, j_t] at column (mu * x_ell, J minus j_t).  Rows and
    columns are located by position in the enumerated colex lists above,
    with no rank arithmetic.
    """
    q, m, n, K, r = inst.field.q, inst.m, inst.n, inst.K, inst.r
    col_pos = {mono: c for c, mono in enumerate(colex_monomials(K, b))}
    plk_pos = {T: c for c, T in enumerate(colex_subsets(n, r))}
    width = len(col_pos) * len(plk_pos)
    rows = []
    for mu in colex_monomials(K, b - 1):
        for i in range(m):
            for J in colex_subsets(n, r + 1):
                row = [0] * width
                for t, j in enumerate(J):
                    T = J[:t] + J[t + 1 :]
                    for ell in range(K):
                        c = col_pos[tuple(sorted(mu + (ell,)))] * len(plk_pos) + plk_pos[T]
                        row[c] = (row[c] + (-1) ** t * int(inst.matrices[ell][i, j])) % q
                rows.append(row)
    return rows


def ref_sprime(m: int, n: int, r: int) -> list[list[tuple[int, int, int]]]:
    """S'1 then S'3 members, each a list of (equation index, y-variable
    k * n + j, sign) entries, from the family definitions: a member over the
    (r+2)-subset J+ pairs y_{k, j_t} with eq(h, J+ minus j_t) and sign
    (-1)^t, for (h, k) = (h, h) in S'1 and both (h1, h2) and (h2, h1) in
    S'3.  Members run over h (or colex (h1 < h2)), then colex J+; entries
    are sorted by (h, colex of J+ minus j_t)."""
    pos = {J: c for c, J in enumerate(colex_subsets(n, r + 1))}
    groups = [[(h, h)] for h in range(m)]
    groups += [[(h1, h2), (h2, h1)] for h1, h2 in colex_subsets(m, 2)]
    out = []
    for pairs in groups:
        for Jp in colex_subsets(n, r + 2):
            terms = [(h, Jp[:t] + Jp[t + 1 :], k * n + j, (-1) ** t)
                     for h, k in pairs for t, j in enumerate(Jp)]
            terms.sort(key=lambda term: (term[0], term[1][::-1]))
            out.append([(h * len(pos) + pos[J], v, sign) for h, J, v, sign in terms])
    return out


def ref_specialize(fam, i: int, inst, eqs) -> list:
    """Member i as (equation label, {x-variable: coefficient}) per entry:
    y_{k,j} -> sum_l M_l[k,j] x_l, one dict entry per surviving x-variable."""
    q, n = inst.field.q, inst.n
    out = []
    for e, v, c in zip(fam.eq[i].tolist(), fam.var[i].tolist(), fam.sign[i].tolist()):
        k, j = divmod(v, n)
        acc: dict[int, int] = {}
        for ell in range(inst.K):
            value = c * int(inst.matrices[ell][k, j]) % q
            if value:
                acc[ell] = value
        out.append((eq_label(eqs, e), acc))
    return out


def ref_equation_terms(inst, i: int, J: tuple[int, ...]) -> list:
    """eq(i, J) by its definition: (x-variable, J minus j_t, (-1)^t M_ell[i, j_t])
    triples with zero coefficients dropped."""
    q = inst.field.q
    return [(ell, J[:t] + J[t + 1 :], (-1) ** t * int(inst.matrices[ell][i, j]) % q)
            for t, j in enumerate(J) for ell in range(inst.K) if inst.matrices[ell][i, j] % q]


def ref_annihilates(inst, eqs, spec, i: int) -> bool:
    """Expand member i's sum of entry * equation over (degree-2 monomial,
    Plucker subset) keys, term by term, with every equation expanded from
    the instance's matrices; True iff nothing survives mod q."""
    q = inst.field.q
    acc: dict = {}
    for e, form in zip(spec.eq[i].tolist(), spec.forms[i].tolist()):
        terms = ref_equation_terms(inst, *eq_label(eqs, e))
        for a, ca in enumerate(form):
            for ell, T, ce in terms:
                k = ((min(a, ell), max(a, ell)), T)
                v = (acc.get(k, 0) + ca * ce) % q
                if v:
                    acc[k] = v
                elif k in acc:
                    del acc[k]
    return not acc


_TOKEN = "(?:0|[1-9][0-9]*)"
_INT = re.compile(_TOKEN)
_INTS = re.compile(f"{_TOKEN}(?: {_TOKEN})*")


def ref_write_instance(inst) -> str:
    row = " ".join(["%d"] * inst.n)
    lines = ["minrank v1", f"q {inst.field.q}", f"m {inst.m} n {inst.n} K {inst.K} r {inst.r}"]
    for idx, M in enumerate(inst.matrices, start=1):
        lines.append(f"matrix {idx}")
        lines.extend(row % tuple(values) for values in M.tolist())
    return "\n".join(lines) + "\n"


def _ref_int(token: str, what: str) -> int:
    if not _INT.fullmatch(token):
        raise FormatError(f"{what} {token!r} is not a canonical integer")
    return int(token)


def ref_parse_instance(text: str):
    """Raises FormatError on any file `ref_write_instance` could not have written."""
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
    try:
        field = PrimeField(_ref_int(qline[1], "q"))
    except ValueError as e:
        raise FormatError(str(e)) from None
    q = field.q
    dims = lines[2].split(" ")
    if len(dims) != 8 or dims[0::2] != ["m", "n", "K", "r"]:
        raise FormatError("malformed dimension line")
    m, n, K, r = (_ref_int(v, "dimension") for v in dims[1::2])
    if min(m, n, K, r) < 1:
        raise FormatError("m, n, K, r must be positive")
    rows = lines[3:]
    if len(rows) != K * (m + 1):
        raise FormatError(f"expected {K} matrices of {m} rows ({K * (m + 1)} lines), got {len(rows)}")
    for idx, line in enumerate(rows[:: m + 1], start=1):
        if line != f"matrix {idx}":
            raise FormatError(f"expected 'matrix {idx}'")
    del rows[:: m + 1]
    values = []
    for pos, row in enumerate(rows):
        if not (_INTS.fullmatch(row) and row.count(" ") == n - 1):
            raise FormatError(f"matrix {pos // m + 1} row {pos % m} is not {n} canonical "
                              f"integers separated by single spaces")
        values.append([int(v) for v in row.split(" ")])
    for pos, row in enumerate(values):
        if max(row) >= q:
            raise FormatError(f"matrix {pos // m + 1} row {pos % m} has an entry outside [0, {q})")
    try:  # r > n
        return MinRankInstance(field, m, n, K, r, np.array(values, dtype=np.int64).reshape(K, m, n))
    except ValueError as e:
        raise FormatError(str(e)) from None


# The per-degree closed forms that preceded the one count at every degree.
def ref_eqs_b1(p) -> int:
    """Independent equations at x-degree 1: min(m C(n,r+1), K C(n,r))."""
    return min(p.m * comb(p.n, p.r + 1), p.K * comb(p.n, p.r))


def ref_eqs_b2(p) -> tuple[int, bool]:
    """min(K m C(n,r+1) - C(m+1,2) C(n,r+2), C(K+1,2) C(n,r)) clamped at 0,
    and whether m C(n,r+1) <= K C(n,r)."""
    rows_minus_syz = p.K * p.m * comb(p.n, p.r + 1) - comb(p.m + 1, 2) * comb(p.n, p.r + 2)
    value = max(0, min(rows_minus_syz, comb(p.K + 1, 2) * comb(p.n, p.r)))
    return value, p.m * comb(p.n, p.r + 1) <= p.K * comb(p.n, p.r)


def ref_solvable(p, b: int) -> bool:
    """Linearization reaches a solution at b in {1, 2}: the unclamped count
    is at least cols - 1."""
    if b == 1:
        return p.m * comb(p.n, p.r + 1) >= p.K * comb(p.n, p.r) - 1
    lhs = p.K * p.m * comb(p.n, p.r + 1) - comb(p.m + 1, 2) * comb(p.n, p.r + 2)
    return lhs >= comb(p.K + 1, 2) * comb(p.n, p.r) - 1
