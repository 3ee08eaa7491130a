"""Desk-scale ground truth: brute-force enumeration and batch verification.

The enumeration here is deliberately naive (scan every pairwise-coprime
triple against every m and test divisibility directly) so that it is
obviously correct; it is the oracle the clever parts of the package are
judged against. On top of it sit batch round-trip checking, seeded tuple
sampling, and identity fuzzing, all producing mergeable reports.

Determinism contract: enumeration output is sorted by (m, x, y, z); report
counters are plain sums. Work may be partitioned over worker processes by
splitting the m range into contiguous chunks, and because chunks are merged
in range order the result is identical to a serial run, byte for byte once
serialized.
"""

from __future__ import annotations

import enum
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

    instances_checked counts (m, triple) divisibility tests on nonzero m.
    Instances skipped for m == 0 and instances whose quotient w would be 0
    are filtered out of the results but counted for transparency. Each
    failures entry is (subject, Failure, detail), one per failed subject.

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
def _triples(bound: int, p: int) -> list:
    """Pairwise-coprime nonzero (x, y, z, x**p, y**p), lexicographic in (x, y, z).

    Cached because consecutive m chunks reuse the same list. Treat as
    read-only.
    """
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    out = []
    for x in vals:
        xp = x ** p
        for y in vals:
            if gcd(x, y) != 1:
                continue
            yp = y ** p
            for z in vals:
                if gcd(x, z) == 1 and gcd(y, z) == 1:
                    out.append((x, y, z, xp, yp))
    return out


def _split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """At most `parts` contiguous inclusive chunks covering [lo, hi] in order."""
    total = hi - lo + 1
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    chunks = []
    start = lo
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append((start, start + size - 1))
        start += size
    return chunks


def scan(bounds: SearchBounds, stats, jobs: int = 1):
    """Yield (m, [(x, y, z, w), ...]) for every nonzero m in range, ascending.

    This is the package's one enumeration loop. Each batch lists the m's
    solutions in (x, y, z) order. The SCAN_COUNTERS of stats (a
    SearchReport) grow as the scan goes and are complete once the
    generator is exhausted. With jobs == 1 each m is scanned only when the
    consumer asks for its batch; otherwise the m range is split into chunks
    that worker processes scan, and their batches are yielded in range
    order once every chunk has returned.
    """
    if jobs > 1:
        for part, batches in _run_chunks(_scan_chunk, bounds, jobs):
            stats.absorb(part)
            yield from batches
        return
    trip = _triples(bounds.bound, bounds.p)
    for m in range(bounds.m_min, bounds.m_max + 1):
        if m == 0:
            stats.filtered_zero_m += len(trip)
            continue
        stats.instances_checked += len(trip)
        sols = []
        for x, y, z, xp, yp in trip:
            t = xp - m * yp
            if t % z:
                continue
            if t:
                sols.append((x, y, z, t // z))
            else:
                stats.filtered_zero_w += 1
        stats.solutions_found += len(sols)
        yield m, sols


def _scan_chunk(bounds: SearchBounds) -> tuple[SearchReport, list]:
    """Worker: the stats and the batches of one m chunk."""
    stats = SearchReport()
    return stats, list(scan(bounds, stats))


def _roundtrip_chunk(bounds: SearchBounds) -> SearchReport:
    """Worker: enumerate one m chunk, decompose every solution (decompose
    checks the constraints and the regenerate itself) and audit its trace."""
    p = bounds.p
    rep = SearchReport()
    for m, sols in scan(bounds, rep):
        for x, y, z, w in sols:
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


def _run_chunks(worker, bounds: SearchBounds, jobs: int) -> list:
    chunks = [
        replace(bounds, m_min=lo, m_max=hi)
        for lo, hi in _split_range(bounds.m_min, bounds.m_max, jobs)
    ]
    if len(chunks) == 1:
        return [worker(chunks[0])]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(worker, chunks))


def stream_solutions(bounds: SearchBounds, sink, jobs: int = 1) -> SearchReport:
    """Feed every enumerated Solution to sink in (m, x, y, z) order.

    The order, and therefore anything serialized from it, is independent of
    jobs: chunks cover disjoint ascending m ranges and are drained in range
    order. Only the SCAN_COUNTERS of the returned report are filled.
    """
    stats = SearchReport()
    p = bounds.p
    for m, sols in scan(bounds, stats, jobs):
        for x, y, z, w in sols:
            sink(Solution(p, x, y, z, m, w))
    return stats


def enumerate_solutions(bounds: SearchBounds, jobs: int = 1) -> list[Solution]:
    """All theorem-grade solutions in the box, sorted by (m, x, y, z).

    Brute force: every pairwise-coprime nonzero triple is tested against
    every nonzero m in range for z | x**p - m*y**p with nonzero quotient.
    """
    out: list[Solution] = []
    stream_solutions(bounds, out.append, jobs=jobs)
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
