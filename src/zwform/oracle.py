"""Desk-scale ground truth: box enumeration and batch verification.

The enumeration covers every pairwise-coprime triple against every m, but
divides only where the quotient is an integer: for such a triple z divides
x**p - m*y**p exactly when m lies in one residue class modulo |z|, so each
m visits only the triples of its classes. The deliberately naive scan (test
every instance directly) is kept as the reference it is gated against,
``naive_box_scan`` in tests/test_oracle.py. On top of the enumeration sit
batch round-trip checking, seeded tuple sampling, and identity fuzzing, all
producing mergeable reports.

Determinism contract: enumeration output is sorted by (m, x, y, z); report
counters are plain sums. _run_chunks partitions a box over worker processes
by contiguous m chunks and yields their results in range order, so a pooled
run serializes to the same bytes as a serial one.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from math import gcd

from .decomposition import decompose, trace_identities
from .errors import (
    ConstraintViolation, DegenerateE, NotDivisible, RegenerateMismatch, ZwformError,
)
from .exact_arith import is_prime
from .parametrization import ParameterTuple, Solution, eval_w, eval_z, generate


@dataclass(frozen=True)
class SearchBounds:
    """Box to search: |x|, |y|, |z| <= bound and m_min <= m <= m_max."""

    p: int
    bound: int
    m_min: int
    m_max: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if self.m_min > self.m_max:
            raise ValueError(f"empty m range [{self.m_min}, {self.m_max}]")


# The counters one scan fills, in the order the search report lists them.
SCAN_COUNTERS = ("instances_checked", "solutions_found", "filtered_zero_m", "filtered_zero_w")


class Failure(enum.Enum):
    """The category of a failures entry; the value names it in details.

    The round trip gives EXCEPTION, CONSTRAINT (ConstraintViolation),
    REGENERATE (RegenerateMismatch) and TRACE; identity_fuzz gives
    EXCEPTION and one member per relation it checks.
    """

    EXCEPTION = "exception"
    CONSTRAINT = "constraint"
    REGENERATE = "regenerate"
    TRACE = "trace"
    IDENTITY = "identity"
    LINE = "line relation"
    NORM = "norm relation"
    BRACKET = "bracket divisibility"


@dataclass
class SearchReport:
    """Counters of a scan, a round trip or an identity fuzz.

    instances_checked counts the (m, triple) instances a scan covers on
    nonzero m, whether or not it had to divide: every triple of the box,
    once per nonzero m. Instances skipped for m == 0 and instances whose
    quotient w would be 0 are filtered out of the results but counted for
    transparency. Each failures entry is (subject, Failure, detail), one
    per failed subject.

    Invariant: decompose_success + degenerate_e + len(failures) equals
    solutions_found. For identity fuzzing, "decompose_success" counts tuples
    whose generated solution passed every identity check, and the filtered
    counters stay 0.
    """

    instances_checked: int = 0
    solutions_found: int = 0
    decompose_success: int = 0
    degenerate_e: int = 0
    failures: list = field(default_factory=list)
    filtered_zero_m: int = 0
    filtered_zero_w: int = 0

    def consistent(self) -> bool:
        return (
            self.decompose_success + self.degenerate_e + len(self.failures)
            == self.solutions_found
        )

    def absorb(self, other: "SearchReport") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_counts(self) -> dict[str, int]:
        counts = {f.name: getattr(self, f.name) for f in fields(self)}
        counts["failures"] = len(self.failures)
        return counts


@lru_cache(maxsize=4)
def _triples(bound: int, p: int) -> tuple[list, list]:
    """The box's rows and their residue classes, as (rows, classes).

    rows lists the pairwise-coprime nonzero (x, y, z, x**p, y**p),
    lexicographic in (x, y, z). For such a row z divides x**p - m*y**p
    exactly when m == x**p * (y**p)**-1 mod |z|, so classes[k][r] lists,
    ascending, the indices of the rows with |z| == k whose admissible m are
    m == r mod k (classes[0] is empty). One scan call covers a whole m
    chunk, so the cache serves repeated scans of one box within a process
    (the benchmark clears it between commands). Treat as read-only.
    """
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    # inverse[y][k - 1] is (y**p)**-1 mod k, for k coprime to y.
    inverse = {y: [pow(y, -p, k) if gcd(y, k) == 1 else 0 for k in range(1, bound + 1)]
               for y in vals}
    rows = []
    classes = [[[] for _ in range(k)] for k in range(bound + 1)]
    for x in vals:
        xp = x ** p
        for y in vals:
            if gcd(x, y) != 1:
                continue
            xy, yp, inv = x * y, y ** p, inverse[y]
            # z runs over -bound..-1, then 1..bound; z and -z share a class.
            admissible = [(k, classes[k][xp * inv[k - 1] % k])
                          for k in range(1, bound + 1) if gcd(xy, k) == 1]
            for k, members in reversed(admissible):
                members.append(len(rows))
                rows.append((x, y, -k, xp, yp))
            for k, members in admissible:
                members.append(len(rows))
                rows.append((x, y, k, xp, yp))
    return rows, classes


def scan(bounds: SearchBounds, stats):
    """Return (rows, batches): the box's rows and its solutions, m by m.

    This is the package's one enumeration loop. rows[i] is (x, y, z, x**p,
    y**p) as in _triples. batches yields (m, [(i, w), ...]) for every
    nonzero m in range, ascending, scanning each m only when the consumer
    asks for its batch; each batch lists the m's solutions in (x, y, z)
    order as a row index and the quotient w. Only the rows whose residue
    class admits m are divided, so the work per m follows its solutions,
    not the box. The SCAN_COUNTERS of stats (a SearchReport) grow as
    batches are drawn and are complete once it is exhausted.
    """
    return _triples(bounds.bound, bounds.p)[0], _batches(bounds, stats)


def _batches(bounds: SearchBounds, stats):
    rows, classes = _triples(bounds.bound, bounds.p)
    by_modulus = list(enumerate(classes))[1:]
    for m in range(bounds.m_min, bounds.m_max + 1):
        if m == 0:
            stats.filtered_zero_m += len(rows)
            continue
        stats.instances_checked += len(rows)
        hits = []
        for k, residues in by_modulus:
            hits += residues[m % k]
        # Each class is ascending, so this sort merges bound runs.
        hits.sort()
        sols = []
        for i in hits:
            _, _, z, xp, yp = rows[i]
            t = xp - m * yp
            if t:
                sols.append((i, t // z))
            else:
                stats.filtered_zero_w += 1
        stats.solutions_found += len(sols)
        yield m, sols


def _roundtrip_chunk(bounds: SearchBounds) -> SearchReport:
    """Worker: enumerate one m chunk, decompose every solution (decompose
    checks the constraints and the regenerate itself) and audit its trace."""
    p = bounds.p
    rep = SearchReport()
    rows, batches = scan(bounds, rep)
    for m, sols in batches:
        for i, w in sols:
            x, y, z, _, _ = rows[i]
            sol = Solution(p, x, y, z, m, w)
            try:
                tup, trace = decompose(sol)
            except DegenerateE:
                rep.degenerate_e += 1
                continue
            except ConstraintViolation as exc:
                rep.failures.append((sol, Failure.CONSTRAINT, str(exc)))
                continue
            except RegenerateMismatch as exc:
                rep.failures.append((sol, Failure.REGENERATE, str(exc)))
                continue
            except ZwformError as exc:
                rep.failures.append((sol, Failure.EXCEPTION, f"{type(exc).__name__}: {exc}"))
                continue
            bad = [name for name, ok in trace_identities(sol, trace).items() if not ok]
            if bad:
                rep.failures.append((sol, Failure.TRACE, ",".join(bad)))
            else:
                rep.decompose_success += 1
    return rep


def _run_chunks(worker, bounds: SearchBounds, jobs: int):
    """Yield worker's result on each m chunk of bounds, in range order.

    The m range is cut into at most min(jobs, cores) contiguous chunks, and
    as many worker processes scan them; a single chunk runs in process.
    """
    ms = range(bounds.m_min, bounds.m_max + 1)
    parts = min(jobs, os.cpu_count() or 1, len(ms))
    if parts == 1:
        yield worker(bounds)
        return
    cuts = [ms[len(ms) * i // parts:len(ms) * (i + 1) // parts] for i in range(parts)]
    chunks = [replace(bounds, m_min=cut[0], m_max=cut[-1]) for cut in cuts]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        yield from pool.map(worker, chunks)


def stream_solutions(bounds: SearchBounds, sink) -> SearchReport:
    """Feed every enumerated Solution to sink in (m, x, y, z) order.

    Only the SCAN_COUNTERS of the returned report are filled.
    """
    stats = SearchReport()
    p = bounds.p
    rows, batches = scan(bounds, stats)
    for m, sols in batches:
        for i, w in sols:
            x, y, z, _, _ = rows[i]
            sink(Solution(p, x, y, z, m, w))
    return stats


def enumerate_solutions(bounds: SearchBounds) -> list[Solution]:
    """All theorem-grade solutions in the box, sorted by (m, x, y, z).

    Every pairwise-coprime nonzero triple against every nonzero m in range
    with z | x**p - m*y**p and a nonzero quotient, as scan finds them.
    """
    out: list[Solution] = []
    stream_solutions(bounds, out.append)
    return out


def roundtrip_check(bounds: SearchBounds, jobs: int = 1) -> SearchReport:
    """Decompose every enumerated solution and verify the round trip.

    Each decomposition is audited: decompose itself checks that the tuple
    satisfies the coprimality constraints and regenerates the original, and
    every trace identity must hold exactly. Anything short of that is
    recorded in failures under its Failure category; e == 0 degeneracies
    are counted separately.
    """
    report = SearchReport()
    for piece in _run_chunks(_roundtrip_chunk, bounds, jobs):
        report.absorb(piece)
    return report


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: 64-bit state, identical on every platform.

    This is the single source of randomness in the package; seeded runs are
    reproducible across machines and Python versions by construction.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi] by reducing one 64-bit word modulo the span.

        The modulo bias is astronomically small for the spans used here
        (hundreds of values against 2**64) and irrelevant for fuzzing.
        """
        return lo + self.next_u64() % (hi - lo + 1)


def sample_tuples(p: int, limit: int, count: int, seed: int) -> list[ParameterTuple]:
    """Exactly count tuples with components in [-limit, limit].

    Rejection sampling: all seven components are drawn in the fixed order
    e, f, g, l, q, n, r and the whole draw is discarded unless q != 0 and
    gcd(e,q) == gcd(l,q) == gcd(n,r) == 1. Deterministic for a fixed seed.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        e = rng.randint(-limit, limit)
        f = rng.randint(-limit, limit)
        g = rng.randint(-limit, limit)
        l = rng.randint(-limit, limit)
        q = rng.randint(-limit, limit)
        n = rng.randint(-limit, limit)
        r = rng.randint(-limit, limit)
        if q == 0 or gcd(e, q) != 1 or gcd(l, q) != 1 or gcd(n, r) != 1:
            continue
        out.append(ParameterTuple(p, e, f, g, l, q, n, r))
    return out


def identity_fuzz(p: int, limit: int, count: int, seed: int) -> SearchReport:
    """Generate sampled tuples and re-verify every identity independently.

    Tuples whose z evaluates to 0 are skipped (they generate nothing).
    For the rest, the defining identity, the line relation
    q*x == -z*r + u*y, the norm relation z*e == u**p - m*q**p with
    u = e*l + f*q, and the exact q**p divisibility of the w bracket are all
    checked by direct integer arithmetic, not by trusting generate(). The
    bracket is the paper-literal one of eval_w.
    """
    report = SearchReport()
    for t in sample_tuples(p, limit, count, seed):
        report.instances_checked += 1
        if eval_z(t) == 0:
            continue
        report.solutions_found += 1
        try:
            sol = generate(t)
        except ZwformError as exc:
            report.failures.append((t, Failure.EXCEPTION, f"{type(exc).__name__}: {exc}"))
            continue
        u = t.e * t.l + t.f * t.q
        try:
            bracket_ok = eval_w(t, sol.z, sol.y) == sol.w
        except NotDivisible:
            bracket_ok = False
        checks = {
            Failure.IDENTITY: sol.x ** p - sol.m * sol.y ** p == sol.z * sol.w,
            Failure.LINE: t.q * sol.x == -sol.z * t.r + u * sol.y,
            Failure.NORM: sol.z * t.e == u ** p - sol.m * t.q ** p,
            Failure.BRACKET: bracket_ok,
        }
        failed = [kind for kind, ok in checks.items() if not ok]
        if failed:
            detail = "failed: " + ", ".join(kind.value for kind in failed)
            report.failures.append((t, failed[0], detail))
        else:
            report.decompose_success += 1
    return report
