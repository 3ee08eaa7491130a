"""Constructive inverse: recover a ParameterTuple from a solution.

Given a theorem-grade solution (all of x, y, z, m, w nonzero, x, y, z
pairwise coprime, identity exact), the pipeline runs in two parts. The row
part, steps 1 and 2, reads only the row (x, y, z); ``row_prefix`` runs it.
The m part, steps 3 to 5, also reads m; ``m_step`` runs it on a prefix:

    1. Bezout coefficients  a*x - b*z == 1  and  c*y - d*z == 1, a, c != 0.
    2. h = gcd(a, c) > 0, q = a/h, u = c/h, r = (d - b)/h. Dividing the
       combined Bezout relation by h gives the line relation
       q*x == -z*r + u*y.
    3. Residual e = (u**p - m*q**p) / z (exact: z | u**p - m*q**p because
       raising the line relation to the p-th power shows z divides
       y**p * (u**p - m*q**p) and gcd(y, z) == 1).
    4. Split u = e*l + f*q with the canonical representative 0 <= l < |q|.
    5. Residual g = (f**p - m) / e (exact for the same style of reason),
       then n = (y - e**(p-2) * l**(p-1) * r) / q.

Every division is exact and every choice is canonical, so the procedure is
deterministic and its full intermediate trace is kept for auditing. The one
genuinely undefined path is e == 0 (equivalently u**p == m*q**p, which
forces |q| == 1 and m to be a p-th power up to sign): g has no defining
relation there and DegenerateE is raised with the partial trace.

Every solution of one row shares its prefix, so a batch over many m (the
oracle's round trip) computes the prefix once per row and runs only the m
step per solution; ``decompose`` is the same two calls on one solution.
``trace_identities`` splits the same way, into ``row_identities`` and
``m_identities``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .exact_arith import _check_powers, exact_div, extgcd
from .errors import (
    ConstraintViolation, DegenerateE, NotCoprime, NotTheoremGrade, RegenerateMismatch,
)
from .parametrization import ParameterTuple, Solution, generate, theorem_grade_flags


class RowPrefix(NamedTuple):
    """The intermediates of steps 1 and 2, which depend on (x, y, z) alone."""

    a: int
    b: int
    c: int
    d: int
    h: int
    u: int
    q: int
    r: int


@dataclass
class DecompositionTrace:
    """Every intermediate of one decomposition run, for audits and tests."""

    a: int
    b: int
    c: int
    d: int
    h: int
    u: int
    q: int
    r: int
    e: int
    l: int
    f: int
    g: int
    n: int


def bezout_nonzero(v: int, z: int) -> tuple[int, int]:
    """Return (a, b) with a*v - b*z == 1 and a != 0.

    Canonical choice: the extgcd coefficients, with (a, b) replaced by
    (a + z, b + v) when a lands on 0 (only possible for z == +-1, so the
    replacement is itself nonzero). For z == 0 coprimality forces v == +-1
    and (v, 0) is returned.
    """
    g, a, b = extgcd(v, z)
    if g != 1:
        raise NotCoprime(f"gcd({v}, {z}) = {g} != 1")
    if z == 0:
        return v, 0
    b = -b
    if a == 0:
        a, b = a + z, b + v
    return a, b


def line_coeffs(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Extract (h, q, u, r) from two Bezout pairs sharing the same z.

    h = gcd(a, c) > 0, q = a/h, u = c/h, r = (d - b)/h. When a and c come
    from Bezout relations on a common z, h is coprime to z and therefore
    divides d - b; on fabricated inputs that divisibility can fail, which
    raises NotDivisible.
    """
    if a == 0 or c == 0:
        raise ValueError("line_coeffs requires a != 0 and c != 0")
    h = gcd(a, c)
    return h, a // h, c // h, exact_div(d - b, h)


def residual_e(u: int, q: int, m: int, z: int, p: int) -> int:
    """e = (u**p - m*q**p) / z, exact for pipeline-produced inputs."""
    return exact_div(u ** p - m * q ** p, z)


def split_u(u: int, e: int, q: int) -> tuple[int, int]:
    """Write u = e*l + f*q with the canonical 0 <= l < |q|.

    Solvable because gcd(e, q) == 1 in the pipeline: l is u/e modulo |q|
    and f the exact quotient of the remainder; an e with no inverse modulo
    |q| raises ValueError. At |q| == 1 the convention is l = 0, f = u/q.
    The whole family l -> l + q*t, f -> f - e*t also works; this function
    always picks the canonical member.
    """
    mod = abs(q)
    if mod == 1:
        return 0, u // q
    if e % mod == 0:
        raise DegenerateE(f"e = {e} is 0 modulo q = {q}, cannot split u")
    l = pow(e, -1, mod) * u % mod
    return l, exact_div(u - e * l, q)


def residual_g(f: int, m: int, e: int, p: int) -> int:
    """g = (f**p - m) / e, exact for pipeline-produced inputs."""
    if e == 0:
        raise DegenerateE("e = 0 leaves g undefined (f**p - m = e*g has no solution)")
    return exact_div(f ** p - m, e)


def residual_n(y: int, e: int, l: int, r: int, q: int, p: int) -> int:
    """n = (y - e**(p-2) * l**(p-1) * r) / q, with 0**0 == 1 at p == 2."""
    return exact_div(y - e ** (p - 2) * l ** (p - 1) * r, q)


def row_prefix(p: int, x: int, y: int, z: int) -> RowPrefix:
    """Steps 1 and 2 on one row: both Bezout pairs and the line coefficients.

    Requires x, y, z pairwise coprime (bezout_nonzero raises NotCoprime
    otherwise). TooLarge is raised when the p-th power that residual_e takes
    of u or q would pass MAX_POWER_BITS, before any m step takes it.
    """
    a, b = bezout_nonzero(x, z)
    c, d = bezout_nonzero(y, z)
    h, q, u, r = line_coeffs(a, b, c, d)
    # residual_e raises u and q to p; refuse them before it does.
    _check_powers(p, u, q)
    return RowPrefix(a, b, c, d, h, u, q, r)


def m_step(sol: Solution, prefix: RowPrefix) -> tuple[ParameterTuple, DecompositionTrace]:
    """Steps 3 to 5 on sol, given its row's prefix, and the postconditions.

    sol must be theorem grade and prefix must be row_prefix of its row;
    decompose checks the one and computes the other. Postconditions checked
    before returning: q != 0, the three coprimality constraints gcd(e,q) ==
    gcd(l,q) == gcd(n,r) == 1, and that generate(tuple) reproduces sol
    field by field. A violation raises ConstraintViolation or
    RegenerateMismatch and means a bug, not bad input. TooLarge is raised
    before g and n are computed when the p-th power of e or f would pass
    MAX_POWER_BITS.
    """
    p = sol.p
    a, b, c, d, h, u, q, r = prefix
    e = residual_e(u, q, sol.m, sol.z, p)
    if e == 0:
        raise DegenerateE(
            f"u**p == m*q**p for {sol}: m = {sol.m} is a p-th power up to sign",
            {**prefix._asdict(), "e": 0},
        )
    l, f = split_u(u, e, q)
    # The residuals raise f to p and e to p - 2; refuse them before they do.
    _check_powers(p, e, f)
    g = residual_g(f, sol.m, e, p)
    n = residual_n(sol.y, e, l, r, q, p)
    tup = ParameterTuple(p, e, f, g, l, q, n, r)
    if not tup.satisfies_gcd_constraints():
        raise ConstraintViolation(f"coprimality postcondition failed for {tup}")
    regen = generate(tup)
    if regen != sol:
        raise RegenerateMismatch(f"generate({tup}) gave {regen}, expected {sol}")
    return tup, DecompositionTrace(a, b, c, d, h, u, q, r, e, l, f, g, n)


def decompose(sol: Solution) -> tuple[ParameterTuple, DecompositionTrace]:
    """Run the full pipeline and return (tuple, trace).

    Refuses a solution that is not theorem grade with NotTheoremGrade, naming
    the first hypothesis it fails, then runs m_step on row_prefix of its
    row; see those two for the postconditions and the TooLarge refusals.
    """
    flags = theorem_grade_flags(sol)
    if not flags["nonzero"]:
        raise NotTheoremGrade(f"x, y, z, m, w must all be nonzero, got {sol}")
    if not flags["pairwise_coprime"]:
        raise NotTheoremGrade(f"x, y, z must be pairwise coprime, got {sol}")
    if not flags["identity"]:
        raise NotTheoremGrade(f"x**p - m*y**p != z*w for {sol}")
    return m_step(sol, row_prefix(sol.p, sol.x, sol.y, sol.z))


def row_identities(x: int, y: int, z: int, t) -> dict[str, bool]:
    """Exact re-check of the relations of steps 1 and 2 on one row.

    t is a RowPrefix or a DecompositionTrace of the row (x, y, z).
    """
    return {
        "bezout_x": t.a * x - t.b * z == 1 and t.a != 0,
        "bezout_y": t.c * y - t.d * z == 1 and t.c != 0,
        "gcd_split": (
            t.h == gcd(t.a, t.c)
            and t.h > 0
            and t.a == t.q * t.h
            and t.c == t.u * t.h
            and t.d - t.b == t.r * t.h
        ),
        "line": t.q * x == -z * t.r + t.u * y,
    }


def m_identities(sol: Solution, trace: DecompositionTrace) -> dict[str, bool]:
    """Exact re-check of the relations of steps 3 to 5 on one solution."""
    t = trace
    p = sol.p
    return {
        "residual_e": t.u ** p - sol.m * t.q ** p == sol.z * t.e,
        "split_u": t.u == t.e * t.l + t.f * t.q,
        "residual_g": t.f ** p - sol.m == t.e * t.g,
        "residual_n": sol.y == t.n * t.q + t.e ** (p - 2) * t.l ** (p - 1) * t.r,
    }


def trace_identities(sol: Solution, trace: DecompositionTrace) -> dict[str, bool]:
    """Exact re-check of every relation the pipeline relies on.

    Keyed by relation name: the four of row_identities, then the four of
    m_identities. All values are True for any trace produced by a
    successful decompose. Kept separate from decompose so tests and batch
    audits can verify traces without trusting the pipeline's own checks.
    """
    return {**row_identities(sol.x, sol.y, sol.z, trace), **m_identities(sol, trace)}
