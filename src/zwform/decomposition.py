"""Constructive inverse: recover a ParameterTuple from a solution.

Given a theorem-grade solution (all of x, y, z, m, w nonzero, x, y, z
pairwise coprime, identity exact), the pipeline runs in two parts. The row
part, steps 1 and 2 and the row constants, reads only the row (x, y, z);
``row_prefix`` runs it. The m part, steps 3 to 5, also reads m;
``m_fields`` runs it on a prefix:

    1. Bezout coefficients  a*x - b*z == 1  and  c*y - d*z == 1, a, c != 0.
    2. h = gcd(a, c) > 0, q = a/h, u = c/h, r = (d - b)/h. Dividing the
       combined Bezout relation by h gives the line relation
       q*x == -z*r + u*y.
    3. Residual e = (u**p - m*q**p) / z (exact: z | u**p - m*q**p because
       raising the line relation to the p-th power shows z divides
       y**p * (u**p - m*q**p) and gcd(y, z) == 1).
    4. Split u = e*l + f*q with the canonical representative 0 <= l < |q|.
       l comes from the row: e*z == u**p (mod q) and gcd(u, q) == 1, so
       l == u/e == z * u**(1-p) (mod |q|) for every m, and l = 0 at
       |q| == 1. Then f = (u - e*l) / q is exact.
    5. Residual g = (f**p - m) / e (exact for the same style of reason),
       then n = (y - e**(p-2) * l**(p-1) * r) / q.

Every division is exact and every choice is canonical, so the procedure is
deterministic and its full intermediate trace is kept for auditing. The one
genuinely undefined path is e == 0 (equivalently u**p == m*q**p, which
forces |q| == 1 and m to be a p-th power up to sign): g has no defining
relation there. m_fields is the one place that tests for it and returns
None, and decompose turns that None into DegenerateE, the only place that
raises it.

Every solution of one row shares its prefix, which also holds the row
constants u**p, q**p and l**(p-1)*r that steps 3 to 5 read. The oracle's
round trip, whose rows the scan has already found theorem grade, computes
the prefix once per row and runs only the m part per solution, on plain
ints: ``m_fields`` and ``m_relations`` take the fields (x, y, z, m, w) and
build no Solution, ParameterTuple or trace. ``decompose`` is the
theorem-grade check plus ``m_fields`` on one solution's ``row_prefix``,
and ``trace_identities`` audits its trace with ``row_identities`` and
``m_relations``. The stage functions ``residual_e``, ``split_u`` and
``residual_n`` compute steps 3 to 5 from u, q, l and r directly; the tests
rebuild every tuple of a box from them and compare it with decompose.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .exact_arith import MAX_POWER_BITS, _check_powers, exact_div, extgcd
from .errors import (
    ConstraintViolation, DegenerateE, NotCoprime, NotDivisible, NotTheoremGrade,
    RegenerateMismatch,
)
from .parametrization import (
    ParameterTuple, Solution, closed_forms, gcd_constraints_hold, theorem_grade_flags,
)


class RowPrefix(NamedTuple):
    """The intermediates of steps 1 and 2 and the row constants of steps 3 to 5.

    All depend on (x, y, z) and p alone: l is step 4's canonical split
    coefficient, and up, qp and lr are u**p, q**p and l**(p-1)*r.
    """

    a: int
    b: int
    c: int
    d: int
    h: int
    u: int
    q: int
    r: int
    l: int
    up: int
    qp: int
    lr: int


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
    |q|, e == 0 among them, raises ValueError, and q == 0 raises
    ZeroDivisionError. At |q| == 1 the convention is l = 0, f = u/q. The
    whole family l -> l + q*t, f -> f - e*t also works; this function
    always picks the canonical member.
    """
    mod = abs(q)
    if mod == 1:
        return 0, u // q
    # At q == 0, e % mod raises ZeroDivisionError (pow would raise ValueError).
    l = pow(e % mod, -1, mod) * u % mod
    return l, exact_div(u - e * l, q)


def residual_g(f: int, m: int, e: int, p: int) -> int:
    """g = (f**p - m) / e, exact for pipeline-produced inputs.

    e == 0 leaves g undefined and raises ZeroDivisionError.
    """
    return exact_div(f ** p - m, e)


def residual_n(y: int, e: int, l: int, r: int, q: int, p: int) -> int:
    """n = (y - e**(p-2) * l**(p-1) * r) / q, with 0**0 == 1 at p == 2."""
    return exact_div(y - e ** (p - 2) * l ** (p - 1) * r, q)


def row_prefix(p: int, x: int, y: int, z: int, bezout=bezout_nonzero) -> RowPrefix:
    """The row part on one row: both Bezout pairs, the line coefficients and
    the row constants l, u**p, q**p and l**(p-1)*r.

    Requires x, y, z pairwise coprime (bezout_nonzero raises NotCoprime
    otherwise). The pairs are bezout(x, z) and bezout(y, z); a caller that
    walks many rows of one z passes a memo of bezout_nonzero, so that each
    (v, z) is solved once. TooLarge is raised, before the power is taken,
    when the p-th power of x or y would pass MAX_POWER_BITS (the refusal
    that decompose's identity check makes on each solution of the row),
    then when that of u or q would. l = z * u**(1-p) mod |q|, or 0 at
    |q| == 1, is split_u's l for every m of the row.
    """
    _check_powers(p, x, y)
    a, b = bezout(x, z)
    c, d = bezout(y, z)
    h, q, u, r = line_coeffs(a, b, c, d)
    # The row constants raise u and q to p; refuse them before they do.
    _check_powers(p, u, q)
    mod = abs(q)
    l = z * pow(u, 1 - p, mod) % mod if mod > 1 else 0
    return RowPrefix(a, b, c, d, h, u, q, r, l, u ** p, q ** p, l ** (p - 1) * r)


def m_fields(p: int, fields: tuple, prefix: RowPrefix) -> tuple[int, int, int, int, int] | None:
    """Steps 3 to 5 on one solution, given its row's prefix, and the postconditions.

    fields is the solution's (x, y, z, m, w); it must be theorem grade, and
    prefix must be row_prefix of its row. Returns (e, l, f, g, n), with l
    the prefix's, or None when e == 0, where g is undefined: the one test
    for that case, on which decompose raises DegenerateE and the round trip
    counts degenerate_e. Postconditions checked before returning: the three
    coprimality constraints gcd(e,q) == gcd(l,q) == gcd(n,r) == 1
    (gcd_constraints_hold), and that closed_forms on the tuple reproduces
    fields. closed_forms requires gcd(e, q) == gcd(l, q) == 1 and does not
    test it; gcd_constraints_hold has just passed it, so a solution takes
    three gcds. A violation raises ConstraintViolation or RegenerateMismatch
    and means a bug, not bad input. TooLarge is raised before g and n are
    computed when the p-th power of e or f would pass MAX_POWER_BITS. The
    Solution and ParameterTuple that the messages name are built only to
    raise.
    """
    x, y, z, m, w = fields
    _, _, _, _, _, u, q, r, l, up, qp, lr = prefix
    # Each division is exact_div's, inline: a remainder raises NotDivisible.
    e, rem = divmod(up - m * qp, z)
    if rem:
        raise NotDivisible(f"{z} does not divide {up - m * qp}")
    if e == 0:
        return None
    f, rem = divmod(u - e * l, q)
    if rem:
        raise NotDivisible(f"{q} does not divide {u - e * l}")
    # g and n raise f to p and e to p - 2: _check_powers' test, inline, refuses them first.
    if p * ((abs(e) | abs(f)).bit_length() - 1) > MAX_POWER_BITS:
        _check_powers(p, e, f)
    g, rem = divmod(f ** p - m, e)
    if rem:
        raise NotDivisible(f"{e} does not divide {f ** p - m}")
    n, rem = divmod(y - e ** (p - 2) * lr, q)
    if rem:
        raise NotDivisible(f"{q} does not divide {y - e ** (p - 2) * lr}")
    if not gcd_constraints_hold(e, l, q, n, r):
        raise ConstraintViolation(
            f"coprimality postcondition failed for {ParameterTuple(p, e, f, g, l, q, n, r)}")
    regen = closed_forms(p, e, f, g, l, q, n, r)
    if regen != (x, y, z, m, w):
        raise RegenerateMismatch(f"generate({ParameterTuple(p, e, f, g, l, q, n, r)}) gave "
                                 f"{Solution(p, *regen)}, expected {Solution(p, x, y, z, m, w)}")
    return e, l, f, g, n


def decompose(sol: Solution) -> tuple[ParameterTuple, DecompositionTrace]:
    """Run the full pipeline and return (tuple, trace).

    Refuses a solution that is not theorem grade with NotTheoremGrade, naming
    the first hypothesis it fails, then runs m_fields on row_prefix of its
    row; see those two for the postconditions and the TooLarge refusals.
    The theorem-grade check takes x**p and y**p, so a solution whose x or y
    has a p-th power past MAX_POWER_BITS is refused with TooLarge
    (Solution.identity_holds) before any of it runs. Raises DegenerateE
    where m_fields finds e == 0.
    """
    flags = theorem_grade_flags(sol)
    if not flags["nonzero"]:
        raise NotTheoremGrade(f"x, y, z, m, w must all be nonzero, got {sol}")
    if not flags["pairwise_coprime"]:
        raise NotTheoremGrade(f"x, y, z must be pairwise coprime, got {sol}")
    if not flags["identity"]:
        raise NotTheoremGrade(f"x**p - m*y**p != z*w for {sol}")
    p = sol.p
    prefix = row_prefix(p, sol.x, sol.y, sol.z)
    found = m_fields(p, (sol.x, sol.y, sol.z, sol.m, sol.w), prefix)
    if found is None:
        raise DegenerateE(f"u**p == m*q**p for {sol}: m = {sol.m} is a p-th power up to sign")
    e, l, f, g, n = found
    a, b, c, d, h, u, q, r = prefix[:8]
    return (ParameterTuple(p, e, f, g, l, q, n, r),
            DecompositionTrace(a, b, c, d, h, u, q, r, e, l, f, g, n))


# The relations of steps 1 and 2 and of the row constants, in the order
# row_identities names them; trace_identities lists the first four.
ROW_RELATIONS = ("bezout_x", "bezout_y", "gcd_split", "line", "powers")


def row_identities(p: int, x: int, y: int, z: int, prefix: RowPrefix) -> tuple[str, ...]:
    """Exact re-check of the row part's relations on one row.

    prefix is a RowPrefix of the row (x, y, z) at exponent p. Returns the
    names of the relations that fail, in ROW_RELATIONS order: empty when all
    hold. The first four relations are steps 1 and 2; "powers" checks the
    row constants against u, q, l and r.
    """
    a, b, c, d, h, u, q, r, l, up, qp, lr = prefix
    bad = ()
    if a * x - b * z != 1 or a == 0:
        bad += ("bezout_x",)
    if c * y - d * z != 1 or c == 0:
        bad += ("bezout_y",)
    if not (h == gcd(a, c) and h > 0 and a == q * h and c == u * h and d - b == r * h):
        bad += ("gcd_split",)
    if q * x != -z * r + u * y:
        bad += ("line",)
    if up != u ** p or qp != q ** p or lr != l ** (p - 1) * r:
        bad += ("powers",)
    return bad


# The relations of steps 3 to 5, in the order trace_identities lists them.
M_RELATIONS = ("residual_e", "split_u", "residual_g", "residual_n")


def m_relations(p: int, fields: tuple, prefix: RowPrefix, found: tuple) -> tuple[str, ...]:
    """Exact re-check of the relations of steps 3 to 5 on plain ints.

    fields is the solution's (x, y, z, m, w), prefix the RowPrefix of its
    row and found the (e, l, f, g, n) of m_fields. Returns the names of the
    relations that fail, in M_RELATIONS order: empty when all hold. The
    relations read the row constants, which row_identities' "powers" checks
    once per row.
    """
    _, y, z, m, _ = fields
    e, l, f, g, n = found
    _, _, _, _, _, u, q, _, _, up, qp, lr = prefix
    bad = ()
    if up - m * qp != z * e:
        bad += ("residual_e",)
    if u != e * l + f * q:
        bad += ("split_u",)
    if f ** p - m != e * g:
        bad += ("residual_g",)
    if y != n * q + e ** (p - 2) * lr:
        bad += ("residual_n",)
    return bad


def trace_identities(sol: Solution, trace: DecompositionTrace) -> dict[str, bool]:
    """Exact re-check of every relation the pipeline relies on.

    Keyed by relation name: the four relations of steps 1 and 2 from
    row_identities, then the four of m_relations. All values are True for
    any trace produced by a successful decompose. The trace holds no row
    constants: they are derived from it here, so row_identities' "powers"
    holds by construction and is left out. Kept separate from decompose so
    tests and batch audits can verify traces without trusting the
    pipeline's own checks.
    """
    p, t = sol.p, trace
    prefix = RowPrefix(t.a, t.b, t.c, t.d, t.h, t.u, t.q, t.r, t.l,
                       t.u ** p, t.q ** p, t.l ** (p - 1) * t.r)
    bad = row_identities(p, sol.x, sol.y, sol.z, prefix) + m_relations(
        p, (sol.x, sol.y, sol.z, sol.m, sol.w), prefix, (t.e, t.l, t.f, t.g, t.n))
    return {name: name not in bad for name in ROW_RELATIONS[:4] + M_RELATIONS}
