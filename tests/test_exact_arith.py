"""Integer arithmetic primitives, checked against independent references."""

import math

import pytest
from hypothesis import given, strategies as st

from zwform.errors import NotDivisible, NotInvertible, ZeroDivisor, ZeroModulus
from zwform.exact_arith import (
    BezoutCertificate,
    binomial,
    exact_div,
    extgcd,
    gcd,
    ipow,
    is_prime,
    mod_inverse,
)


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


class TestGcd:
    def test_matches_math_gcd(self):
        for s in range(-12, 13):
            for t in range(-12, 13):
                assert gcd(s, t) == math.gcd(s, t)

    def test_zero_zero(self):
        assert gcd(0, 0) == 0


class TestExtgcd:
    def test_frozen_small(self):
        assert extgcd(3, 5) == BezoutCertificate(1, 2, -1)
        assert extgcd(1, 5) == BezoutCertificate(1, 1, 0)

    def test_textbook_pair(self):
        cert = extgcd(240, 46)
        assert cert.g == 2
        assert cert.a * 240 + cert.b * 46 == 2

    def test_identity_exhaustive(self):
        for s in range(-100, 101):
            for t in range(-100, 101):
                cert = extgcd(s, t)
                assert cert.g == math.gcd(s, t)
                assert cert.a * s + cert.b * t == cert.g

    @given(st.integers(-10**60, 10**60), st.integers(-10**60, 10**60))
    def test_identity_bigint(self, s, t):
        cert = extgcd(s, t)
        assert cert.g == math.gcd(s, t)
        assert cert.a * s + cert.b * t == cert.g


class TestBinomial:
    def test_frozen(self):
        assert binomial(7, 3) == 35
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_against_pascal(self):
        tri = pascal_triangle(20)
        for p in range(21):
            for k in range(p + 1):
                assert binomial(p, k) == tri[p][k]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial(5, 6)
        with pytest.raises(ValueError):
            binomial(5, -1)
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestIpow:
    def test_frozen(self):
        assert ipow(3, 5) == 243
        assert ipow(-2, 3) == -8

    def test_zero_to_the_zero_is_one(self):
        assert ipow(0, 0) == 1

    def test_matches_repeated_multiplication(self):
        for base in range(-6, 7):
            acc = 1
            for exp in range(8):
                assert ipow(base, exp) == acc
                acc *= base

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ipow(2, -1)


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
        with pytest.raises(ZeroDivisor):
            exact_div(7, 0)

    @given(st.integers(-10**40, 10**40), st.integers(-10**20, 10**20))
    def test_inverts_multiplication(self, quotient, divisor):
        if divisor == 0:
            return
        assert exact_div(quotient * divisor, divisor) == quotient


class TestModInverse:
    def test_frozen(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(1, 2) == 1

    def test_negative_modulus_canonical_range(self):
        inv = mod_inverse(3, -7)
        assert 0 <= inv < 7
        assert (inv * 3) % 7 == 1

    def test_property_small(self):
        for q in list(range(-9, 0)) + list(range(1, 10)):
            for a in range(-20, 21):
                if math.gcd(a, q) != 1:
                    with pytest.raises(NotInvertible):
                        mod_inverse(a, q)
                else:
                    inv = mod_inverse(a, q)
                    assert 0 <= inv < abs(q)
                    assert (inv * a) % abs(q) == 1 % abs(q)

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            mod_inverse(3, 0)


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
