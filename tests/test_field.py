import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fpgeom.field import Prime, inv, is_prime, legendre

PRIMES_TO_100 = [q for q in range(3, 100) if is_prime(q)]


class TestPrime:
    def test_accepts_odd_primes(self):
        assert Prime(3) == 3
        assert Prime(2147483647) == 2147483647  # largest admissible prime

    @pytest.mark.parametrize("bad", [2, 1, 0, -7, 9, 15, 2**31, 2**31 + 11])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Prime(bad)

    def test_behaves_as_int(self):
        p = Prime(7)
        assert p * p == 49 and isinstance(p + 1, int)
        assert str(Prime(31)) == repr(Prime(31)) == "31"


@pytest.mark.parametrize("n", [1, 0, -1, -7])
def test_is_prime_below_two(n):
    assert not is_prime(n)


class TestLegendre:
    def test_zero(self):
        assert legendre(0, 7) == 0

    def test_square_mod_7(self):
        assert legendre(2, 7) == 1  # 3*3 == 2 mod 7

    def test_minus_one_mod_7(self):
        assert legendre(-1, 7) == -1

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_matches_trial_squaring(self, p):
        for a in range(p):
            assert legendre(a, p) == oracles.legendre_by_squares(a, p)

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=60)
    def test_multiplicative(self, a, b):
        p = 31
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_inverse_symbol(self):
        p = 43
        for a in range(1, p):
            assert legendre(a, p) * legendre(inv(a, p), p) == 1


class TestInv:
    def test_examples(self):
        assert inv(1, 11) == 1
        assert inv(2, 7) == 4
        assert inv(3, 11) == 4

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            inv(0, 7)
        with pytest.raises(ZeroDivisionError):
            inv(14, 7)

    @pytest.mark.parametrize("p", [5, 31, 101])
    def test_definition(self, p):
        for a in range(1, p):
            assert a * inv(a, p) % p == 1
