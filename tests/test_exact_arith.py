"""Integer arithmetic primitives, checked against independent references."""

import math

import pytest
from hypothesis import given, strategies as st

from zwform.decomposition import split_u
from zwform.errors import NotDivisible
from zwform.exact_arith import exact_div, extgcd, is_prime


class TestExtgcd:
    def test_frozen_small(self):
        assert extgcd(3, 5) == (1, 2, -1)
        assert extgcd(1, 5) == (1, 1, 0)

    def test_textbook_pair(self):
        g, a, b = extgcd(240, 46)
        assert g == 2
        assert a * 240 + b * 46 == 2

    def test_identity_exhaustive(self):
        for s in range(-100, 101):
            for t in range(-100, 101):
                g, a, b = extgcd(s, t)
                assert g == math.gcd(s, t)
                assert a * s + b * t == g

    @given(st.integers(-10**60, 10**60), st.integers(-10**60, 10**60))
    def test_identity_bigint(self, s, t):
        g, a, b = extgcd(s, t)
        assert g == math.gcd(s, t)
        assert a * s + b * t == g


class TestExactDiv:
    def test_basic(self):
        assert exact_div(12, 3) == 4
        assert exact_div(-12, 3) == -4
        assert exact_div(12, -3) == -4
        assert exact_div(0, 5) == 0

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(7, 2)
        with pytest.raises(NotDivisible):
            exact_div(-7, 2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(7, 0)

    @given(st.integers(-10**40, 10**40), st.integers(-10**20, 10**20))
    def test_inverts_multiplication(self, quotient, divisor):
        if divisor == 0:
            return
        assert exact_div(quotient * divisor, divisor) == quotient


class TestModInverse:
    """The canonical inverse of e modulo |q|, computed inside split_u.

    split_u(1, e, q) returns l = e**-1 mod |q| in [0, |q|).
    """

    def test_frozen(self):
        assert split_u(1, 3, 7)[0] == 5
        assert split_u(1, 1, 2)[0] == 1

    def test_negative_modulus_canonical_range(self):
        inv = split_u(1, 3, -7)[0]
        assert 0 <= inv < 7
        assert (inv * 3) % 7 == 1

    def test_property_small(self):
        for q in list(range(-9, 0)) + list(range(1, 10)):
            for a in range(-20, 21):
                if math.gcd(a, q) != 1:
                    # A shared factor, a == 0 mod |q| included, leaves a
                    # without an inverse.
                    with pytest.raises(ValueError):
                        split_u(1, a, q)
                else:
                    inv = split_u(1, a, q)[0]
                    assert 0 <= inv < abs(q)
                    assert (inv * a) % abs(q) == 1 % abs(q)

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            split_u(1, 3, 0)


class TestIsPrime:
    def test_table(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(-5, 31):
            assert is_prime(n) == (n in primes)

    def test_square_of_prime(self):
        assert not is_prime(49)
        assert not is_prime(121)

    def test_agrees_with_trial_division(self):
        def by_trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(20000):
            assert is_prime(n) == by_trial(n)

    def test_large_primes_and_strong_pseudoprimes(self):
        for n in (10**9 + 7, 2**61 - 1, 1000000000000000003, 2**64 - 59):
            assert is_prime(n)
        # Carmichael numbers, a semiprime, and the smallest strong
        # pseudoprimes to the first 4, 9 and 12 prime bases.
        for n in (561, 41041, (10**9 + 7) * (10**9 + 9), 3215031751,
                  3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)

    def test_undecided_above_the_deterministic_range(self):
        with pytest.raises(ValueError):
            is_prime(2**89 - 1)
        assert not is_prime(2**89)
