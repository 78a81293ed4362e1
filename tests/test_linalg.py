import numpy as np
import pytest

from supportminors.errors import CapExceededError
from supportminors.field import PrimeField
from supportminors.linalg import (
    SparseMatrix,
    as_matrix,
    check_cell_cap,
    mat_mul,
    rank,
    right_kernel_basis,
    rref,
)
from supportminors.prng import ChaChaStream

from oracle import mat_vec, ref_csr, ref_rank

F5 = PrimeField(5)
F7 = PrimeField(7)
FBIG = PrimeField(32003)


def random_matrix(field, rows, cols, seed):
    s = ChaChaStream(seed)
    return as_matrix(field, [[s.below(field.q) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    rk, R, piv = rref(F5, np.eye(3, dtype=np.int64))
    assert rk == 3
    assert piv == [0, 1, 2]
    assert np.array_equal(R, np.eye(3, dtype=np.int64))


def test_rref_zero_matrix():
    rk, R, piv = rref(F5, np.zeros((3, 4), dtype=np.int64))
    assert rk == 0
    assert piv == []
    assert not R.any()


def test_rref_dependent_rows():
    rk, _, _ = rref(F5, [[1, 2], [2, 4]])  # row 2 = 2 * row 1
    assert rk == 1


def test_rref_idempotent():
    for seed in range(5):
        M = random_matrix(F7, 6, 9, seed)
        _, R, piv = rref(F7, M)
        rk2, R2, piv2 = rref(F7, R)
        assert np.array_equal(R, R2)
        assert piv == piv2


def test_rank_matches_reference():
    for seed in range(8):
        for shape in [(4, 4), (3, 7), (7, 3), (6, 6)]:
            M = random_matrix(F7, *shape, seed=seed)
            assert rank(F7, M) == ref_rank(M.tolist(), 7)


def test_rank_transpose_invariant():
    for seed in range(10):
        M = random_matrix(FBIG, 8, 13, seed)
        assert rank(FBIG, M) == rank(FBIG, M.T.copy())


def test_rank_of_product_bounded():
    for seed in range(6):
        A = random_matrix(F7, 5, 4, seed)
        B = random_matrix(F7, 4, 6, seed + 100)
        assert rank(F7, mat_mul(F7, A, B)) <= min(rank(F7, A), rank(F7, B))


def test_sparse_and_dense_ranks_agree():
    for seed in range(6):
        M = random_matrix(F7, 10, 14, seed)
        M[M < 4] = 0  # sparsify
        sp = ref_csr(M)
        assert rank(F7, sp) == rank(F7, M) == ref_rank(M.tolist(), 7)


def test_sparse_rank_large_field():
    for seed in range(4):
        M = random_matrix(FBIG, 12, 9, seed)
        M[M < 20000] = 0
        assert rank(FBIG, ref_csr(M)) == ref_rank(M.tolist(), 32003)


def test_kernel_identity_empty():
    assert right_kernel_basis(F5, np.eye(4, dtype=np.int64)).shape == (0, 4)


def test_kernel_zero_matrix_standard_basis():
    basis = right_kernel_basis(F5, np.zeros((3, 4), dtype=np.int64))
    assert len(basis) == 4
    for i, v in enumerate(basis):
        e = np.zeros(4, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(v, e)


def test_kernel_canonical_form():
    (v,) = right_kernel_basis(F5, [[1, 2]])
    assert v.tolist() == [3, 1]  # 1*3 + 2*1 = 5 = 0 mod 5


def test_kernel_vectors_annihilate():
    for seed in range(6):
        M = random_matrix(F7, 5, 9, seed)
        basis = right_kernel_basis(F7, M)
        assert len(basis) == 9 - rank(F7, M)
        for v in basis:
            assert not mat_vec(F7, M, v).any()


def test_mat_mul_reference():
    A = as_matrix(F7, [[1, 2], [3, 4]])
    B = as_matrix(F7, [[5, 6], [0, 1]])
    assert mat_mul(F7, A, B).tolist() == [[5, 1], [1, 1]]  # mod 7


def test_mat_mul_no_overflow_near_word_size():
    f = PrimeField(2**31 - 1)
    A = np.full((2, 64), f.q - 1, dtype=np.int64)
    B = np.full((64, 2), f.q - 1, dtype=np.int64)
    got = mat_mul(f, A, B)
    expected = 64 * (f.q - 1) * (f.q - 1) % f.q
    assert (got == expected).all()


def test_sparse_matrix_invariants():
    def one_row(cols, vals):
        return SparseMatrix(1, 3, [0, len(cols)], cols, vals)

    with pytest.raises(ValueError):
        one_row([1, 1], [2, 3])  # repeated column
    with pytest.raises(ValueError):
        one_row([2, 1], [1, 3])  # decreasing columns
    with pytest.raises(ValueError):
        one_row([0], [0])  # stored zero
    with pytest.raises(ValueError):
        one_row([3], [1])  # column out of range
    for indptr in ([1, 1, 1], [0, 2, 1], [0, 1], [0, 1, 1, 1], [0, 1, 2]):  # bad indptr
        with pytest.raises(ValueError):
            SparseMatrix(2, 3, indptr, [0], [1])
    # A later row may restart at a lower column.
    sp = SparseMatrix(3, 3, [0, 2, 2, 3], [0, 2, 1], [1, 4, 5])
    assert sp.nnz == 3
    assert sp.to_dense().tolist() == [[1, 0, 4], [0, 0, 0], [0, 5, 0]]
    assert ref_csr(sp.to_dense()) == sp
    assert ref_csr(np.zeros((2, 0), dtype=np.int64)).nnz == 0
    assert sp != SparseMatrix(3, 3, [0, 2, 2, 3], [0, 2, 1], [1, 4, 6])


def test_cell_cap():
    check_cell_cap(10, 10, 100)
    with pytest.raises(CapExceededError):
        check_cell_cap(11, 10, 100)
