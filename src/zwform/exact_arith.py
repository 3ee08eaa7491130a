"""Exact integer primitives used by every other module.

Everything operates on plain Python ints, which are arbitrary precision, and
nothing here ever rounds: operations that cannot be performed exactly raise
instead of approximating.
"""

from __future__ import annotations

from .errors import NotDivisible, TooLarge, show

# The most bits a p-th power may have. Larger powers are refused before any
# is taken, with TooLarge.
MAX_POWER_BITS = 1 << 20


def extgcd(s: int, t: int) -> tuple[int, int, int]:
    """Extended Euclid by the standard remainder-sequence recursion.

    Returns (g, a, b) with a*s + b*t == g and g = gcd(s, t) >= 0: the
    canonical coefficients that recursion produces (negated as a whole if
    needed so that g >= 0). These coefficients define decompose's Bezout
    pairs and so its traces. decomposition.bezout_nonzero computes the same
    pairs from pow(v, -1, |z|) without calling this loop; it stays as the
    reference that the tests compare bezout_nonzero with.
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
        raise NotDivisible(f"{show(den)} does not divide {show(num)}")
    return quot


def _check_powers(p: int, magnitude: int) -> None:
    """Raise TooLarge if the p-th power of magnitude would pass MAX_POWER_BITS.

    This is the one power-budget test. A caller that raises several values
    to p passes the OR of their absolute values, which is as wide as the
    widest of them. The test takes p * (bit_length - 1), a lower bound on
    the bits of the power, so a magnitude of 0 or 1 always passes, whatever
    p is.
    """
    width = magnitude.bit_length()
    bits = p * (width - 1)
    if bits > MAX_POWER_BITS:
        raise TooLarge(f"the p-th power of a {show(width)}-bit input has at least "
                       f"{show(bits)} bits, more than MAX_POWER_BITS = {MAX_POWER_BITS}")
