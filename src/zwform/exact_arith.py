"""Exact integer primitives used by every other module.

Everything operates on plain Python ints, which are arbitrary precision, and
nothing here ever rounds: operations that cannot be performed exactly raise
instead of approximating.
"""

from __future__ import annotations

from .errors import NotDivisible, TooLarge

# The most bits a p-th power may have. Larger powers are refused before any
# is taken, with TooLarge.
MAX_POWER_BITS = 1 << 20


def extgcd(s: int, t: int) -> tuple[int, int, int]:
    """Extended Euclid by the standard remainder-sequence recursion.

    Returns (g, a, b) with a*s + b*t == g and g = gcd(s, t) >= 0: the
    canonical coefficients that recursion produces (negated as a whole if
    needed so that g >= 0). Decomposition depends on this exact choice for
    reproducible traces, so do not swap in a different variant.
    """
    old_r, r = s, t
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_a, a = a, old_a - quot * a
        old_b, b = b, old_b - quot * b
    if old_r < 0:
        return -old_r, -old_a, -old_b
    return old_r, old_a, old_b


def exact_div(num: int, den: int) -> int:
    """num / den when den divides num exactly; NotDivisible, or ZeroDivisionError, otherwise."""
    quot, rem = divmod(num, den)
    if rem:
        raise NotDivisible(f"{den} does not divide {num}")
    return quot


def _check_powers(p: int, *values: int) -> None:
    """Raise TooLarge if some value's p-th power would pass MAX_POWER_BITS.

    The test takes p * (bit_length - 1), a lower bound on the bits of v**p,
    so |v| <= 1 always passes, whatever p is.
    """
    largest = 0
    for v in values:
        largest |= abs(v)  # as wide as the widest |v|
    width = largest.bit_length()
    bits = p * (width - 1)
    if bits > MAX_POWER_BITS:
        raise TooLarge(f"the p-th power of a {width}-bit input has at least {bits} bits, "
                       f"more than MAX_POWER_BITS = {MAX_POWER_BITS}")


# The first 13 primes: as Miller-Rabin bases they decide primality for every
# n below _MR_LIMIT (Sorenson & Webster 2015); the smallest strong
# pseudoprime to all of them is _MR_LIMIT itself.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_SMALL_PRIMES = frozenset(_MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic primality check, used to validate exponents.

    The common small exponents are looked up among the first 13 primes.
    Past them, trial division by those primes decides every n < 43**2,
    and Miller-Rabin with them as bases every n < 3.3 * 10**24. A larger n
    without a small factor raises ValueError rather than be guessed at.
    """
    if n <= 41:
        return n in _SMALL_PRIMES
    for b in _MR_BASES:
        if n % b == 0:
            return False
    if n < 43 * 43:
        return True
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided above {_MR_LIMIT}")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
