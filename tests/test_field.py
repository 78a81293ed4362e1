import pytest

from supportminors.field import PrimeField, is_prime


def test_inverse_matches_exhaustive_search():
    f = PrimeField(7)
    # Exhaustive oracle: the unique b with 3*b = 1 mod 7.
    expected = [b for b in range(7) if 3 * b % 7 == 1]
    assert expected == [5]
    assert f.inv(3) == 5


@pytest.mark.parametrize("q", [2, 3, 5, 7, 31, 32003, 2**31 - 1])
def test_inverse_of_one(q):
    assert PrimeField(q).inv(1) == 1


def test_modular_reduction():
    f = PrimeField(5)
    assert f.inv(4) == 4  # 4 * 4 = 16 = 1 mod 5
    assert f.inv(9) == f.inv(4)  # reduced before inverting


def test_all_inverses_small_fields():
    for q in (2, 3, 5, 13):
        f = PrimeField(q)
        for a in range(1, q):
            assert a * f.inv(a) % q == 1


def test_inverse_accepts_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert PrimeField(7).inv(np.int64(3)) == 5


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(11).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(11).inv(22)  # reduces to zero


def test_nonprime_moduli_rejected():
    for bad in (0, 1, 4, 9, 15, 32001, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_larger_values():
    assert is_prime(32003)
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)
    assert not is_prime(32003 * 32003 % (2**31))


def test_field_equality_and_repr():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert "7" in repr(PrimeField(7))
