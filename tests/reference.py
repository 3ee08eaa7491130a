"""Slow, obviously-correct references that the tests gate the package against.

Nothing in the package imports this module: the engine in ``src/zwform``
keeps only what it runs, and each function here is the independent
reference for one of its fast paths or a classical cross-check of its
closed forms.

- ``dickson_p2`` and ``brahmagupta_compose``: the classical quadratic
  closed forms and the norm-form composition law, cross-checks of
  ``generate`` at p == 2 (A2, A6, TestDickson, TestBrahmagupta).
- ``extgcd_bezout``: ``bezout_nonzero`` as extgcd computes it.
- ``naive_box_scan`` and ``naive_counts``: the box, instance by instance,
  for the residue-class scan.
- ``roundtrip_reference``: the round trip solution by solution, for the
  row-by-row walk of ``roundtrip_check``.
- ``mix64`` and ``SplitMix64``: splitmix64 stepped in order, for
  ``sample_tuples``' out-of-order words.

pytest's default import mode puts ``tests/`` on ``sys.path``, so a test
module imports this one as ``reference``.
"""

import math

from zwform.decomposition import decompose, trace_identities
from zwform.errors import (
    ConstraintViolation, DegenerateE, NotCoprime, RegenerateMismatch, ZwformError, show,
)
from zwform.exact_arith import extgcd
from zwform.oracle import _GAMMA, _MASK64, Failure, SearchReport, stream_solutions
from zwform.parametrization import ParameterTuple, Solution


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
        raise ValueError(f"dickson_p2 is only defined for p == 2, got p={show(t.p)}")
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
        raise ValueError(f"sign must be +1 or -1, got {show(sign)}")
    return a * b + sign * m * q * r, a * r + sign * b * q


def extgcd_bezout(v, z):
    """bezout_nonzero as extgcd computes it: the reference for its pow form."""
    g, a, b = extgcd(v, z)
    if g != 1:
        raise NotCoprime(f"gcd({v}, {z}) = {g} != 1")
    if z == 0:
        return v, 0
    b = -b
    if a == 0:
        a, b = a + z, b + v
    return a, b


def naive_box_scan(p, bound, m_min, m_max):
    """The most literal possible enumeration, kept independent of the package."""
    found = []
    for m in range(m_min, m_max + 1):
        if m == 0:
            continue
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                for z in range(-bound, bound + 1):
                    if x == 0 or y == 0 or z == 0:
                        continue
                    if (math.gcd(x, y) != 1 or math.gcd(x, z) != 1
                            or math.gcd(y, z) != 1):
                        continue
                    t = x ** p - m * y ** p
                    if t != 0 and t % z == 0:
                        found.append(Solution(p, x, y, z, m, t // z))
    return found


def naive_counts(p, bound, m_min, m_max):
    """The SCAN_COUNTERS of a box, counted instance by instance."""
    vals = [v for v in range(-bound, bound + 1) if v]
    triples = [(x, y, z) for x in vals for y in vals for z in vals
               if math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1]
    nonzero_m = [m for m in range(m_min, m_max + 1) if m]
    return {
        "instances_checked": len(nonzero_m) * len(triples),
        "solutions_found": len(naive_box_scan(p, bound, m_min, m_max)),
        "filtered_zero_m": (m_max - m_min + 1 - len(nonzero_m)) * len(triples),
        "filtered_zero_w": sum(1 for m in nonzero_m for (x, y, z) in triples
                               if x ** p == m * y ** p),
    }


def roundtrip_reference(bounds):
    """The round trip solution by solution: decompose and trace_identities
    on every enumerated solution, with no work shared between the solutions
    of one row. The reference the row-by-row walk of roundtrip_check is
    gated against."""
    report = SearchReport()
    sols = []
    report.absorb(stream_solutions(bounds, sols.append))
    for sol in sols:
        try:
            tup, trace = decompose(sol)
        except DegenerateE:
            report.degenerate_e += 1
            continue
        except ConstraintViolation as exc:
            report.failures.append((sol, Failure.CONSTRAINT, str(exc)))
            continue
        except RegenerateMismatch as exc:
            report.failures.append((sol, Failure.REGENERATE, str(exc)))
            continue
        except ZwformError as exc:
            report.failures.append((sol, Failure.EXCEPTION, f"{type(exc).__name__}: {exc}"))
            continue
        bad = [name for name, ok in trace_identities(sol, trace).items() if not ok]
        if bad:
            report.failures.append((sol, Failure.TRACE, ",".join(bad)))
        else:
            report.decompose_success += 1
    return report


def mix64(z: int) -> int:
    """splitmix64's output function of one 64-bit state.

    The k-th word of splitmix64 from seed s is mix64(s + k*_GAMMA mod
    2**64), identical on every platform and Python version, and a function
    of k alone. oracle.sample_tuples, the package's one source of
    randomness, inlines this function.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 generator, stepped in order: the reference for the
    package's out-of-order words, mix64 of seed + k*gamma."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def randint(self, lo, hi):
        """Draw from [lo, hi] by reducing one 64-bit word modulo the span."""
        return lo + self.next_u64() % (hi - lo + 1)
