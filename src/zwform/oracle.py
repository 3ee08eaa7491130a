"""Desk-scale ground truth: box enumeration and batch verification.

The enumeration covers every pairwise-coprime triple against every m, but
divides only where the quotient is an integer: for such a triple z divides
x**p - m*y**p exactly when m lies in one residue class modulo |z|, so each
m visits only the triples of its classes. The deliberately naive scan (test
every instance directly) is kept as the reference it is gated against,
``naive_box_scan`` in tests/test_oracle.py. On top of the enumeration sit
batch round-trip checking, seeded tuple sampling, and a fuzz of generate
against its paper-literal reference, all producing mergeable reports.

Determinism contract: enumeration output and a round trip's failures are
sorted by (m, x, y, z), although the round trip walks the box row by row;
report counters are plain sums. _run_chunks partitions a box over worker
processes by contiguous m chunks and yields their results in range order,
so a pooled run serializes to the same bytes as a serial one. The process
pool is imported on first use, so only a run with more than one chunk
loads it.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, fields, replace
from functools import cache, lru_cache
from math import gcd

from .decomposition import bezout_nonzero, m_fields, m_relations, row_identities, row_prefix
from .errors import ConstraintViolation, RegenerateMismatch, TooLarge, ZeroZ, ZwformError
from .exact_arith import is_prime
from .parametrization import ParameterTuple, Solution, closed_forms, generate_reference


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
    EXCEPTION and REFERENCE (generate differs from generate_reference).
    """

    EXCEPTION = "exception"
    CONSTRAINT = "constraint"
    REGENERATE = "regenerate"
    TRACE = "trace"
    REFERENCE = "reference"


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
    whose generated solution equals the reference's, and the filtered
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
    m == r mod k (classes[0] is empty). The table is walked in two orders:
    m by m (scan's batches) and row by row, each row over its own m
    progression (_roundtrip_chunk). One scan or round trip covers a whole m
    chunk, so the cache serves repeated walks of one box within a process
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

    One table, two traversal orders: this is the m-major walk of _triples'
    table, which search and enumerate_solutions use because their output
    is in (m, x, y, z) order; _roundtrip_chunk walks the same table row by
    row and counts the same SCAN_COUNTERS. rows[i] is (x, y, z, x**p,
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


# The Failure category of a round-trip exception, by exact type: any other
# ZwformError is an EXCEPTION failure, detailed with its type's name.
_CATEGORIES = {ConstraintViolation: Failure.CONSTRAINT, RegenerateMismatch: Failure.REGENERATE}


def _failure(exc: ZwformError) -> tuple[Failure, str]:
    """The (Failure, detail) of a failures entry for exc."""
    kind = _CATEGORIES.get(type(exc))
    if kind is None:
        return Failure.EXCEPTION, f"{type(exc).__name__}: {exc}"
    return kind, str(exc)


def _roundtrip_chunk(bounds: SearchBounds) -> SearchReport:
    """Worker: round-trip every solution of one m chunk, row by row.

    The chunk walks _triples' table in its second order: for each modulus k
    and residue r, each row of classes[k][r] walks its own m progression
    r + j*k within the chunk, and its solutions are the nonzero m whose
    quotient w is nonzero. The SCAN_COUNTERS come out equal to scan's. A
    row's solutions are collected first; a row with none is skipped, and
    for the rest the row part runs once: row_prefix (with the row
    constants) and the names of the row relations that fail. row_prefix
    reads its Bezout pairs through a memo of bezout_nonzero made for this
    chunk alone, so each (v, z) is solved once per chunk however many rows
    share it, and no state outlives the call. Then, per solution, m_fields
    checks the constraints and the regenerate, which implies the identity,
    and m_relations audits the m relations; a None from m_fields is e == 0
    (degenerate_e). scan's rows are theorem grade, so none is re-checked.
    One mapping, _failure, turns an exception of either part into a
    failures entry: a row that row_prefix refuses makes each of its
    solutions one, and a failed row relation is a TRACE failure of each of
    its solutions that decomposes. All of this runs on the fields (x, y, z,
    m, w) as plain ints; a Solution is built only as the subject of a
    failures entry, once the failures are sorted into (m, x, y, z) order.
    TooLarge is a refusal of the whole box, not one solution's failure: the
    chunk raises the one the first refused solution in (m, x, y, z) order
    raises, as an m-by-m walk would, and walks no solution past it.
    """
    p, m_min, m_max = bounds.p, bounds.m_min, bounds.m_max
    rows, classes = _triples(bounds.bound, p)
    ms = range(m_min, m_max + 1)
    has_zero = 0 in ms
    found = zero_w = degenerate = success = 0
    failed = []  # (m, row index, fields, Failure, detail)
    refused = None  # (m, row index, TooLarge) of the first refusal in (m, x, y, z) order
    bezout = cache(bezout_nonzero)
    for k in range(1, len(classes)):
        for r, members in enumerate(classes[k]):
            start = m_min + (r - m_min) % k
            for i in members:
                x, y, z, xp, yp = rows[i]
                # Past a refusal at (m0, i0), only an earlier one can still be
                # raised: at m < m0, or at m0 in a row before i0.
                top = m_max if refused is None else min(m_max, refused[0] - (i >= refused[1]))
                sols = []
                for m in range(start, top + 1, k):
                    t = xp - m * yp
                    if not t:
                        zero_w += 1
                    elif m:
                        sols.append((x, y, z, m, t // z))
                if not sols:
                    continue
                found += len(sols)
                try:
                    prefix = row_prefix(p, x, y, z, bezout)
                except TooLarge as exc:
                    refused = sols[0][3], i, exc
                    continue
                except ZwformError as exc:
                    kind, detail = _failure(exc)
                    failed += [(fields[3], i, fields, kind, detail) for fields in sols]
                    continue
                bad_row = row_identities(p, x, y, z, prefix)
                for fields in sols:
                    try:
                        params = m_fields(p, fields, prefix)
                    except TooLarge as exc:
                        refused = fields[3], i, exc
                        break
                    except ZwformError as exc:
                        failed.append((fields[3], i, fields, *_failure(exc)))
                        continue
                    if params is None:
                        degenerate += 1
                        continue
                    bad = bad_row + m_relations(p, fields, prefix, params)
                    if bad:
                        failed.append((fields[3], i, fields, Failure.TRACE, ",".join(bad)))
                    else:
                        success += 1
    if refused is not None:
        raise refused[2]
    failed.sort(key=lambda entry: entry[:2])
    return SearchReport(
        instances_checked=len(rows) * (len(ms) - has_zero),
        solutions_found=found,
        decompose_success=success,
        degenerate_e=degenerate,
        failures=[(Solution(p, *fields), kind, detail) for _, _, fields, kind, detail in failed],
        filtered_zero_m=len(rows) * has_zero,
        filtered_zero_w=zero_w,
    )


def _run_chunks(worker, bounds: SearchBounds, jobs: int):
    """Yield worker's result on each m chunk of bounds, in range order.

    The m range is cut into at most min(jobs, cores) contiguous chunks, and
    as many worker processes scan them; a single chunk runs in process. The
    pool is imported here, past that case, so that a process which never
    starts one never loads multiprocessing.
    """
    ms = range(bounds.m_min, bounds.m_max + 1)
    parts = min(jobs, os.cpu_count() or 1, len(ms))
    if parts == 1:
        yield worker(bounds)
        return
    cuts = [ms[len(ms) * i // parts:len(ms) * (i + 1) // parts] for i in range(parts)]
    chunks = [replace(bounds, m_min=cut[0], m_max=cut[-1]) for cut in cuts]
    from concurrent.futures import ProcessPoolExecutor
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

    The solutions are those scan finds, all theorem grade, walked row by
    row; each is decomposed by decomposition.m_fields on its row's
    row_prefix, computed once per row that has a solution. Each
    decomposition is audited: m_fields itself checks that the tuple
    satisfies the coprimality constraints and regenerates the original
    through closed_forms, and every relation (row_identities once per row,
    m_relations per solution) must hold exactly. The work runs on plain
    ints, with no per-solution Solution, ParameterTuple or trace. Anything short of that is recorded
    in failures under its Failure category, with the Solution as its
    subject, in (m, x, y, z) order. The e == 0 degeneracies, where m_fields
    returns None, are counted separately as degenerate_e.
    """
    report = SearchReport()
    for piece in _run_chunks(_roundtrip_chunk, bounds, jobs):
        report.absorb(piece)
    return report


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64's output function of one 64-bit state.

    The k-th word of splitmix64 from seed s is _mix64(s + k*_GAMMA mod
    2**64), identical on every platform and Python version, and a function
    of k alone. sample_tuples, the package's one source of randomness,
    inlines this function; it stays as the reference that the tests step
    splitmix64 with.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_tuples(p: int, limit: int, count: int, seed: int) -> list[ParameterTuple]:
    """Exactly count tuples with components in [-limit, limit].

    Rejection sampling: draw j (from 0) takes the splitmix64 words
    _mix64(seed + k*_GAMMA mod 2**64) for k = 7*j + 1 .. 7*j + 7, each
    reduced modulo 2*limit + 1 and shifted down by limit, as e, f, g, l,
    q, n, r, and is discarded unless q != 0 and gcd(e,q) == gcd(l,q) ==
    gcd(n,r) == 1. A word depends only on its index, so q is computed
    first, the others only while the draw can still pass, and f and g only
    for draws that do. Each word is one call, with _mix64 inlined.
    Deterministic for a fixed seed.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    span = 2 * limit + 1
    state = seed & _MASK64

    def word(k):
        """The k-th word past state (_mix64, inlined), reduced to [-limit, limit]."""
        z = (state + k * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) % span - limit

    out = []
    while len(out) < count:
        # This draw's words are the 1st to 7th past state: e f g l q n r.
        q = word(5)
        if q and gcd(e := word(1), q) == 1 and gcd(l := word(4), q) == 1:
            n, r = word(6), word(7)
            if gcd(n, r) == 1:
                out.append(ParameterTuple(p, e, word(2), word(3), l, q, n, r))
        state = (state + 7 * _GAMMA) & _MASK64
    return out


# The most bits the reference sums of one fuzzed tuple may add up to. A
# sampled tuple's components have at most width = limit.bit_length() bits.
# The z sum multiplies 2p - 1 of them per term, so z has about
# p * (2*width - 1) bits (p at limit 1, where the powers stay 1), and
# eval_w's sum has p terms of up to about p * bits(z) bits. On a 2-core
# x86-64 host with CPython 3.11, the largest admitted p took 0.8 ms per
# tuple at limit 1 (p = 127), 7 ms at limit 10 (p = 61) and up to 27 ms at
# larger limits (p = 47 at limit 1000, p = 19 at limit 2**100).
MAX_REFERENCE_BITS = 1 << 21


def identity_fuzz(p: int, limit: int, count: int, seed: int) -> SearchReport:
    """Compare generate with the paper-literal generate_reference on sampled tuples.

    Tuples whose z is 0 (ZeroZ from the reference) are skipped: they
    generate nothing. For the rest, an error from either side is an
    EXCEPTION failure, and fields that differ from the reference's in any
    of x, y, z, m and w are a REFERENCE failure whose detail names them.
    The generate side is closed_forms, generate's evaluator, on plain ints:
    no Solution is built for it. Its gcd precondition holds, as every
    sampled tuple is coprime and the reference raises NotCoprime first on
    any that is not; a fuzz within MAX_REFERENCE_BITS samples no tuple past
    generate's power budget. Before any tuple is sampled, a fuzz whose
    reference sums would pass MAX_REFERENCE_BITS is refused with TooLarge;
    a count of 0 samples nothing and is never refused.
    """
    cost = p * p * p * (2 * limit.bit_length() - 1)
    if count > 0 and cost > MAX_REFERENCE_BITS:
        raise TooLarge(f"the reference sums of one tuple at p = {p}, limit {limit} add up to "
                       f"about {cost} bits, more than MAX_REFERENCE_BITS = {MAX_REFERENCE_BITS}")
    report = SearchReport()
    for t in sample_tuples(p, limit, count, seed):
        report.instances_checked += 1
        try:
            ref = generate_reference(t)
        except ZeroZ:
            continue
        except ZwformError as exc:
            report.solutions_found += 1
            report.failures.append(
                (t, Failure.EXCEPTION, f"generate_reference: {type(exc).__name__}: {exc}"))
            continue
        report.solutions_found += 1
        try:
            got = closed_forms(t.p, t.e, t.f, t.g, t.l, t.q, t.n, t.r)
        except ZwformError as exc:
            report.failures.append((t, Failure.EXCEPTION, f"{type(exc).__name__}: {exc}"))
            continue
        want = ref.x, ref.y, ref.z, ref.m, ref.w
        if got == want:
            report.decompose_success += 1
        else:
            differs = [name for name, a, b in zip("xyzmw", got, want) if a != b]
            report.failures.append((t, Failure.REFERENCE, "differs in " + ", ".join(differs)))
    return report
