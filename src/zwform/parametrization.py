"""Closed-form generation of solutions to x**p - m*y**p == z*w.

For a prime p, seven integers (e, f, g, l, q, n, r) with q != 0 determine a
solution of the equation. The paper writes the five fields as

    y = n*q + e**(p-2) * l**(p-1) * r
    m = f**p - e*g
    z = sum_{k=0}^{p-1} C(p,k) * e**(p-k-1) * l**(p-k) * (f*q)**k  +  g*q**p
    x = e*l*n
        - (sum_{k=1}^{p-1} C(p,k) * e**(p-k-1) * l**(p-k) * f**k * q**(k-1)
           + g*q**(p-1)) * r
        + f*y
    w = (sum_{k=0}^{p-1} C(p,k) * z**(p-k-1) * (-r)**(p-k) * (u*y)**k
         + e*y**p) / q**p          where u = e*l + f*q

with the convention 0**0 == 1 throughout, which Python's ** follows. When
gcd(e, q) == gcd(l, q) == 1 the division defining w is exact, because z is
then coprime to q.

``closed_forms`` evaluates the telescoped equivalents of the three sums on
plain ints; it is the one evaluator, and ``generate`` runs it on a
ParameterTuple once the tuple has passed generate's own checks: the power
budget (TooLarge) and the two coprimality constraints (NotCoprime). The z
sum is the binomial expansion of u**p with its k == p term removed, divided
by e; the line relation q*x == u*y - z*r gives x, and the defining identity
gives w:

    z = (u**p - (f*q)**p) / e + g*q**p      (p*l*(f*q)**(p-1) + g*q**p at e == 0)
    x = (u*y - z*r) / q
    w = (x**p - m*y**p) / z

Each costs a fixed number of big-integer powers instead of O(p). The
paper-literal sums stay as the reference that gates them: ``eval_z``,
``eval_x``, ``eval_w`` and ``generate_reference``.

The quadratic case has a classical, much older set of closed forms
(Dickson); ``dickson_p2`` implements them independently as a cross-check.
``brahmagupta_compose`` implements the multiplicativity of the norm form
a**2 - m*q**2, the classical precursor of the whole construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .exact_arith import _check_powers, exact_div, is_prime
from .errors import IdentityViolation, NotCoprime, ZeroZ


@dataclass
class ParameterTuple:
    """A prime exponent p and the seven generating integers.

    q must be nonzero; any other component may be zero. The coprimality
    constraints gcd(e,q) == gcd(l,q) == gcd(n,r) == 1 are required of tuples
    produced by decomposition and of inputs to generate (the first two), but
    are not enforced at construction so that error paths stay testable.
    """

    p: int
    e: int
    f: int
    g: int
    l: int
    q: int
    n: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.q == 0:
            raise ValueError("q must be nonzero")

    def satisfies_gcd_constraints(self) -> bool:
        """True when gcd(e,q) == gcd(l,q) == gcd(n,r) == 1."""
        return gcd_constraints_hold(self.e, self.l, self.q, self.n, self.r)


def gcd_constraints_hold(e: int, l: int, q: int, n: int, r: int) -> bool:
    """True when gcd(e,q) == gcd(l,q) == gcd(n,r) == 1."""
    return gcd(e, q) == 1 and gcd(l, q) == 1 and gcd(n, r) == 1


@dataclass
class Solution:
    """One instance (p, x, y, z, m, w) of x**p - m*y**p == z*w.

    The identity itself is not enforced at construction (use
    ``identity_holds`` or ``is_theorem_grade``), only that p is prime.
    """

    p: int
    x: int
    y: int
    z: int
    m: int
    w: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    def identity_holds(self) -> bool:
        """x**p - m*y**p == z*w, exactly.

        Raises TooLarge, before either power is taken, when the p-th power
        of x or y would pass MAX_POWER_BITS.
        """
        _check_powers(self.p, self.x, self.y)
        return self.x ** self.p - self.m * self.y ** self.p == self.z * self.w


def theorem_grade_flags(sol: Solution) -> dict[str, bool]:
    """The hypotheses under which decomposition is guaranteed to work, by name.

    generate() itself can emit solutions that fail them (zero or
    non-coprime fields are fine in the forward direction). The identity is
    identity_holds', so a solution whose x or y has a p-th power past
    MAX_POWER_BITS raises TooLarge, here and in is_theorem_grade.
    """
    return {
        "identity": sol.identity_holds(),
        "nonzero": 0 not in (sol.x, sol.y, sol.z, sol.m, sol.w),
        "pairwise_coprime": gcd(sol.x, sol.y) == gcd(sol.x, sol.z) == gcd(sol.y, sol.z) == 1,
    }


def is_theorem_grade(sol: Solution) -> bool:
    """All three flags of theorem_grade_flags hold."""
    return all(theorem_grade_flags(sol).values())


def eval_y(t: ParameterTuple) -> int:
    """y = n*q + e**(p-2) * l**(p-1) * r, with 0**0 == 1 at p == 2."""
    return t.n * t.q + t.e ** (t.p - 2) * t.l ** (t.p - 1) * t.r


def eval_m(t: ParameterTuple) -> int:
    """m = f**p - e*g."""
    return t.f ** t.p - t.e * t.g


def eval_z(t: ParameterTuple) -> int:
    """z = sum_{k<p} C(p,k) e**(p-k-1) l**(p-k) (f q)**k + g q**p."""
    p, e, l = t.p, t.e, t.l
    fq = t.f * t.q
    acc = 0
    for k in range(p):
        acc += comb(p, k) * e ** (p - k - 1) * l ** (p - k) * fq ** k
    return acc + t.g * t.q ** p


def eval_x(t: ParameterTuple, y: int) -> int:
    """x from the remaining closed form, given y = eval_y(t)."""
    p, e, f, l, q = t.p, t.e, t.f, t.l, t.q
    acc = 0
    for k in range(1, p):
        acc += comb(p, k) * e ** (p - k - 1) * l ** (p - k) * f ** k * q ** (k - 1)
    return e * l * t.n - (acc + t.g * q ** (p - 1)) * t.r + f * y


def eval_w(t: ParameterTuple, z: int, y: int) -> int:
    """w as the exact quotient of the alternating bracket by q**p.

    Given z = eval_z(t) and y = eval_y(t), the bracket

        sum_{k<p} C(p,k) z**(p-k-1) (-r)**(p-k) (u y)**k + e y**p

    with u = e*l + f*q is divisible by q**p whenever gcd(e, q) and
    gcd(l, q) are 1 (z is then a unit mod q). A NotDivisible escape here
    means that precondition was violated.
    """
    p, e, q, r = t.p, t.e, t.q, t.r
    uy = (e * t.l + t.f * q) * y
    acc = 0
    for k in range(p):
        acc += comb(p, k) * z ** (p - k - 1) * (-r) ** (p - k) * uy ** k
    acc += e * y ** p
    return exact_div(acc, q ** p)


def closed_forms(p: int, e: int, f: int, g: int, l: int, q: int, n: int,
                 r: int) -> tuple[int, int, int, int, int]:
    """The telescoped closed forms on plain ints: (x, y, z, m, w).

    For a prime p, q != 0 and gcd(e, q) == gcd(l, q) == 1, a precondition
    that it does not test: generate tests it, and decomposition.m_fields has
    tested it as part of gcd_constraints_hold. Nor does it check the power
    budget, which generate checks before calling it. Raises ZeroZ when z is
    0; a remainder in any of its three divisions is a bug, or a broken
    precondition, and raises IdentityViolation. The messages name the
    ParameterTuple, which is built only to raise.
    """
    fq = f * q
    u = e * l + fq
    if e:
        z, rem = divmod(u ** p - fq ** p, e)
        if rem:
            raise IdentityViolation(f"inexact closed-form division in generate("
                                    f"{ParameterTuple(p, e, f, g, l, q, n, r)})")
    else:
        z = p * l * fq ** (p - 1)
    z += g * q ** p
    if z == 0:
        raise ZeroZ(f"z evaluates to 0 for {ParameterTuple(p, e, f, g, l, q, n, r)}")
    y = n * q + e ** (p - 2) * l ** (p - 1) * r
    m = f ** p - e * g
    x, x_rem = divmod(u * y - z * r, q)
    w, w_rem = divmod(x ** p - m * y ** p, z)
    if x_rem or w_rem:
        raise IdentityViolation(f"inexact closed-form division in generate("
                                f"{ParameterTuple(p, e, f, g, l, q, n, r)})")
    return x, y, z, m, w


def generate(t: ParameterTuple) -> Solution:
    """Evaluate the telescoped closed forms and return the resulting Solution.

    Checks its input first, in this order. TooLarge: the power budget, before
    any power is taken. The arithmetic raises u = e*l + f*q, f*q, q and f to
    p, l to p - 1 and e to p - 2, so all six are checked as p-th powers.
    NotCoprime: gcd(e, q) == gcd(l, q) == 1. Then closed_forms evaluates the
    tuple, raising ZeroZ when z is 0. The three divisions are exact by the
    algebra above; a remainder there is a bug, not an input problem, and
    raises IdentityViolation. Agrees field by field with generate_reference
    wherever either is defined.
    """
    p, e, f, g, l, q, n, r = t.p, t.e, t.f, t.g, t.l, t.q, t.n, t.r
    _check_powers(p, e, f, l, q, f * q, e * l + f * q)
    if gcd(e, q) != 1:
        raise NotCoprime(f"gcd(e, q) = gcd({e}, {q}) != 1")
    if gcd(l, q) != 1:
        raise NotCoprime(f"gcd(l, q) = gcd({l}, {q}) != 1")
    return Solution(p, *closed_forms(p, e, f, g, l, q, n, r))


def generate_reference(t: ParameterTuple) -> Solution:
    """The paper-literal evaluation: every closed form as its binomial sum.

    Slow (O(p) big powers per field) and kept as the reference that gates
    generate. Requires gcd(e, q) == gcd(l, q) == 1 and eval_z(t) != 0. The
    defining identity is re-checked on the assembled fields before
    returning; a failure there is a bug, not an input problem.
    """
    if gcd(t.e, t.q) != 1:
        raise NotCoprime(f"gcd(e, q) = gcd({t.e}, {t.q}) != 1")
    if gcd(t.l, t.q) != 1:
        raise NotCoprime(f"gcd(l, q) = gcd({t.l}, {t.q}) != 1")
    z = eval_z(t)
    if z == 0:
        raise ZeroZ(f"z evaluates to 0 for {t}")
    y = eval_y(t)
    m = eval_m(t)
    x = eval_x(t, y)
    w = eval_w(t, z, y)
    if x ** t.p - m * y ** t.p != z * w:
        raise IdentityViolation(f"x**p - m*y**p != z*w for {t}")
    return Solution(t.p, x, y, z, m, w)


def dickson_p2(t: ParameterTuple) -> Solution:
    """The classical quadratic closed forms, written independently.

    x = e*l*n + f*n*q - f*l*r - g*q*r
    y = n*q + l*r
    m = f**2 - e*g
    z = e*l**2 + 2*f*l*q + g*q**2
    w = e*n**2 - 2*f*n*r + g*r**2

    Serves as an oracle for the p == 2 specialization of generate(); the two
    must agree field by field wherever generate() is defined. Raises
    ValueError for any other p.
    """
    if t.p != 2:
        raise ValueError(f"dickson_p2 is only defined for p == 2, got p={t.p}")
    e, f, g, l, q, n, r = t.e, t.f, t.g, t.l, t.q, t.n, t.r
    x = e * l * n + f * n * q - f * l * r - g * q * r
    y = n * q + l * r
    m = f * f - e * g
    z = e * l * l + 2 * f * l * q + g * q * q
    w = e * n * n - 2 * f * n * r + g * r * r
    return Solution(2, x, y, z, m, w)


def brahmagupta_compose(a: int, q: int, b: int, r: int, m: int, sign: int) -> tuple[int, int]:
    """Compose two values of the norm form v**2 - m*u**2.

    Returns (A, Q) = (a*b + sign*m*q*r, a*r + sign*b*q), which satisfies

        (a**2 - m*q**2) * (b**2 - m*r**2) == A**2 - m*Q**2

    for either sign in {+1, -1}. At m == -1 this is the two-squares
    identity: (a**2 + q**2)(b**2 + r**2) == (a*b - q*r)**2 + (a*r + b*q)**2
    for sign == +1, and the swapped-sign variant for sign == -1.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return a * b + sign * m * q * r, a * r + sign * b * q
