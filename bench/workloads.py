"""The benchmark's three workloads.

Each workload makes its inputs from a seed, runs one operation at a time
through ``zwform.cli.run`` with stdout and stderr captured in memory, and
checks every output between operations, outside the timed region. The
checks compare against arithmetic done here, apart from the program, or
against properties the method must have. The checks that build a box's
whole solution list run in a forked child (``in_child``), so that their
memory stays out of the run's ``peak_rss_mb``.

Importing this module imports ``zwform``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import time
from dataclasses import dataclass

from zwform import cli
from zwform import oracle

# search-box: one `search --p 3` over |x|,|y|,|z| <= 16 and 41 consecutive m,
# about 100k records (7.6 MB of JSON lines), 1-1.5 s per command.
SEARCH_P = 3
SEARCH_BOUND = 16
SEARCH_M = 20

# roundtrip-box: `roundtrip` at p = 2 then p = 3 over |x|,|y|,|z| <= 10 and
# 21 consecutive m, about 17k solutions per prime, default --fuzz-count.
ROUNDTRIP_PS = (2, 3)
ROUNDTRIP_BOUND = 10
ROUNDTRIP_M = 10

# closed-forms-bigint: |component| <= limit per prime. Solutions have
# hundreds of digits and the tuples decompose recovers up to about 3300.
CLOSED_FORM_LIMITS = {7: 10 ** 5, 11: 30, 13: 5}
# Inputs whose decompose output could reach CPython's 4300-digit int/str
# limit are redrawn (see decompose_bits_bound); that limit is a known fault.
MAX_OUTPUT_BITS = int(4000 * math.log2(10))


class Capture:
    """In-memory text stream, one UTF-8 byte buffer, that timestamps its first write."""

    def __init__(self):
        self.buf = bytearray()
        self.first_write = None

    def write(self, text: str) -> int:
        if self.first_write is None:
            self.first_write = time.perf_counter()
        self.buf += text.encode()
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def nbytes(self) -> int:
        return len(self.buf)

    def getvalue(self) -> str:
        return self.buf.decode()

    def lines(self) -> list:
        return self.buf.decode().splitlines()

    def digest(self) -> bytes:
        return hashlib.sha256(self.buf).digest()


def in_child(fn, *args):
    """fn(*args), computed in a forked child; its result comes back pickled.

    The child's allocations never count towards this process's peak
    resident memory. An exception in fn is raised again here. The
    benchmark's process runs one thread, so forking it is safe.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                data = pickle.dumps((True, fn(*args)))
            except Exception as exc:  # noqa: BLE001, re-raised in the parent
                data = pickle.dumps((False, exc))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"check process ended with status {status}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


@dataclass
class Command:
    """One `zwform` command line run in this process."""

    code: int
    out: Capture
    err: Capture
    start: float
    end: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    def records(self) -> list:
        return [json.loads(line) for line in self.out.lines()]


def fresh_caches() -> None:
    """Empty the package's memo caches, so each command starts as in a new process."""
    oracle._triples.cache_clear()


def run_cli(argv: list) -> Command:
    fresh_caches()
    out, err = Capture(), Capture()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(argv)
        end = time.perf_counter()
    return Command(code, out, err, start, end)


@dataclass
class Op:
    """One operation: its commands, its latency and the solutions it handled."""

    commands: list
    solutions: int = 0
    inputs: tuple = ()

    @property
    def latency(self) -> float:
        return sum(c.wall for c in self.commands)

    @property
    def first_record(self) -> float:
        first = self.commands[0]
        return (first.out.first_write or first.end) - first.start


def m_window(rng: random.Random, half_width: int) -> tuple[int, int]:
    """2*half_width + 1 consecutive m values centred in [-half_width, half_width]."""
    centre = rng.randint(-half_width, half_width)
    return centre - half_width, centre + half_width


def box_solutions(p: int, bound: int, m_lo: int, m_hi: int) -> list:
    """Sorted (m, x, y, z) of every theorem-grade solution in the box.

    For pairwise-coprime x, y, z, z divides x**p - m*y**p exactly when
    m == x**p * (y**p)**-1 mod |z|, so the admissible m of each triple form
    one progression of step |z|. m == 0 and w == 0 are left out.
    """
    vals = [v for v in range(-bound, bound + 1) if v]
    out = []
    for x in vals:
        xp = x ** p
        for y in vals:
            if math.gcd(x, y) != 1:
                continue
            yp = y ** p
            for z in vals:
                if math.gcd(x, z) != 1 or math.gcd(y, z) != 1:
                    continue
                step = abs(z)
                m0 = xp * pow(yp, -1, step) % step
                for m in range(m_lo + (m0 - m_lo) % step, m_hi + 1, step):
                    if m and xp != m * yp:
                        out.append((m, x, y, z))
    out.sort()
    return out


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_power_up_to_sign(m: int, p: int) -> bool:
    return iroot(abs(m), p) ** p == abs(m)


def exact(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{den} does not divide {num}")
    return quot


def closed_form(p, e, f, g, l, q, n, r):
    """(x, y, z, m, w) from the telescoped closed forms, or None when z == 0.

    With u = e*l + f*q and e != 0, the paper's sum for z telescopes to
    (u**p - (f*q)**p)/e + g*q**p; the line relation gives x and the
    defining identity gives w, all by exact division.
    """
    u = e * l + f * q
    y = n * q + e ** (p - 2) * l ** (p - 1) * r
    m = f ** p - e * g
    z = exact(u ** p - (f * q) ** p, e) + g * q ** p
    if z == 0:
        return None
    x = exact(u * y - z * r, q)
    return x, y, z, m, exact(x ** p - m * y ** p, z)


def decompose_bits_bound(p, x, y, z, m) -> int:
    """Upper bound on the bit length of any integer `decompose --trace` prints.

    Bezout coefficients are at most |z|, |x| and |y|, so |q|, |u| <= |z|;
    then |e| <= |z|**(p-1) * (1 + |m|), |f| <= |z| + |e|,
    |g| <= |f|**p + |m| and |n| <= |y| + |e|**(p-2) * |z|**(p-1) * (|x| + |y|).
    """
    bx, by, bz, bm = (abs(v).bit_length() for v in (x, y, z, m))
    be = (p - 1) * bz + bm + 1
    bf = max(bz, be) + 1
    bg = p * bf + bm + 1
    bn = (p - 2) * be + (p - 1) * bz + max(bx, by) + 2
    return max(bx, by, bz, bm, be, bf, bg, bn)


def _solution_fields(rec: dict) -> tuple:
    return tuple(int(rec[k]) for k in ("x", "y", "z", "m", "w"))


class SearchBox:
    """`search --p 3 --format json --jobs 1` over one seeded box."""

    name = "search-box"
    ops_per_round = 1

    def __init__(self, seed: int):
        self.p, self.bound = SEARCH_P, SEARCH_BOUND
        self.m_lo, self.m_hi = m_window(random.Random(seed), SEARCH_M)
        self.argv = ["search", "--p", str(self.p), "--bound", str(self.bound),
                     "--m", f"{self.m_lo}..{self.m_hi}", "--format", "json", "--jobs", "1"]
        self._verified = set()

    def operation(self, run=run_cli) -> Op:
        cmd = run(self.argv)
        return Op([cmd], solutions=cmd.out.buf.count(b"\n") - 1)

    def check(self, op: Op) -> list:
        (cmd,) = op.commands
        if cmd.code != 0:
            return [f"search exited {cmd.code}: {cmd.err.getvalue().strip()}"]
        digest = cmd.out.digest()
        if digest in self._verified:  # byte-identical to an output already checked
            return []
        problems = in_child(self.check_records, cmd.out)
        if not problems:
            self._verified.add(digest)
        return problems

    def check_records(self, out: Capture) -> list:
        """Compare the records, one line at a time, with the independent enumeration.

        The expected list is sorted, duplicate-free, inside the box and
        pairwise coprime, so matching it also checks order, box and coprimality.
        """
        p = self.p
        expected = box_solutions(p, self.bound, self.m_lo, self.m_hi)
        i = -1
        for i, line in enumerate(out.lines()):
            rec = json.loads(line)
            if i == len(expected):
                if rec.get("kind") != "report" or rec["counts"]["solutions_found"] != str(i):
                    return [f"report does not count {i} solutions: {rec}"]
                continue
            if i > len(expected) or rec["kind"] != "solution" or rec["p"] != str(p):
                return [f"unexpected record {i}: {rec}"]
            x, y, z, m, w = _solution_fields(rec)
            if (m, x, y, z) != expected[i]:
                return [f"record {i} is {rec}, the independent enumeration has {expected[i]}"]
            if w == 0 or x ** p - m * y ** p != z * w:
                return [f"identity fails or w == 0 in {rec}"]
        if i != len(expected):
            return [f"{i + 1} lines, expected {len(expected)} solutions and a report"]
        return []


class RoundtripBox:
    """`roundtrip` at p = 2 and p = 3 over one seeded box, --jobs 1."""

    name = "roundtrip-box"
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed, self.bound = seed, ROUNDTRIP_BOUND
        self.m_lo, self.m_hi = m_window(random.Random(seed), ROUNDTRIP_M)
        self.argvs = [
            ["roundtrip", "--p", str(p), "--bound", str(self.bound),
             "--m", f"{self.m_lo}..{self.m_hi}", "--seed", str(seed),
             "--format", "json", "--jobs", "1"]
            for p in ROUNDTRIP_PS
        ]
        self.instances, self.expected = in_child(
            roundtrip_expected, self.bound, self.m_lo, self.m_hi)

    def operation(self, run=run_cli) -> Op:
        cmds = [run(argv) for argv in self.argvs]
        solutions = 0
        for cmd in cmds:
            with contextlib.suppress(ValueError, KeyError, IndexError):
                solutions += int(cmd.records()[-1]["counts"]["solutions_found"])
        return Op(cmds, solutions=solutions)

    def check(self, op: Op) -> list:
        problems = []
        for p, cmd in zip(ROUNDTRIP_PS, op.commands):
            if cmd.code != 0:
                problems.append(f"roundtrip p={p} exited {cmd.code}: {cmd.err.getvalue().strip()}")
                continue
            problems += self.check_report(p, cmd.records())
        return problems

    def check_report(self, p: int, records: list) -> list:
        if len(records) != 1 or records[0].get("kind") != "report":
            return [f"p={p}: expected one report record, got {records}"]
        counts = {k: int(v) for k, v in records[0]["counts"].items()}
        found, powers = self.expected[p]
        problems = []
        if counts["failures"] or counts["fuzz_failures"]:
            problems.append(f"p={p}: failures reported: {counts}")
        if counts["decompose_success"] + counts["degenerate_e"] != counts["solutions_found"]:
            problems.append(f"p={p}: decompose_success + degenerate_e != solutions_found: {counts}")
        if counts["solutions_found"] != found:
            problems.append(f"p={p}: solutions_found {counts['solutions_found']}, expected {found}")
        if counts["degenerate_e"] > powers:
            problems.append(f"p={p}: degenerate_e {counts['degenerate_e']} > {powers} solutions "
                            f"whose m is a p-th power up to sign")
        if counts["instances_checked"] != self.instances:
            problems.append(f"p={p}: instances_checked {counts['instances_checked']}, "
                            f"expected {self.instances}")
        return problems


def roundtrip_expected(bound: int, m_lo: int, m_hi: int) -> tuple:
    """Instances per prime, and per prime (box solutions, those with m = ± a p-th power)."""
    vals = [v for v in range(-bound, bound + 1) if v]
    triples = sum(1 for x, y, z in itertools.product(vals, repeat=3)
                  if math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1)
    instances = triples * sum(1 for m in range(m_lo, m_hi + 1) if m)
    expected = {}
    for p in ROUNDTRIP_PS:
        sols = box_solutions(p, bound, m_lo, m_hi)
        expected[p] = (len(sols), sum(1 for m, *_ in sols if is_power_up_to_sign(m, p)))
    return instances, expected


class ClosedFormsBigint:
    """`generate --tuple` at p = 7, 11, 13, then `decompose --trace` of its output."""

    name = "closed-forms-bigint"
    ops_per_round = len(CLOSED_FORM_LIMITS)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.primes = itertools.cycle(CLOSED_FORM_LIMITS)

    def next_input(self, p: int):
        """Seeded tuple whose solution is theorem-grade and decomposes within the digit limit."""
        limit = CLOSED_FORM_LIMITS[p]
        while True:
            t = tuple(self.rng.randint(1, limit) * self.rng.choice((1, -1)) for _ in range(7))
            e, f, g, l, q, n, r = t
            if math.gcd(e, q) != 1 or math.gcd(l, q) != 1 or math.gcd(n, r) != 1:
                continue
            sol = closed_form(p, *t)
            if sol is None:
                continue
            x, y, z, m, w = sol
            if 0 in sol or math.gcd(x, y) != 1 or math.gcd(x, z) != 1 or math.gcd(y, z) != 1:
                continue
            if decompose_bits_bound(p, x, y, z, m) > MAX_OUTPUT_BITS:
                continue
            return t, sol

    def operation(self, run=run_cli) -> Op:
        p = next(self.primes)
        t, expected = self.next_input(p)
        gen = run(["generate", "--p", str(p), "--tuple", ",".join(map(str, t)),
                   "--format", "json"])
        op = Op([gen], solutions=1, inputs=(p, t, expected))
        try:
            x, y, z, m, _ = _solution_fields(gen.records()[1])
        except (ValueError, KeyError, IndexError):
            return op
        op.commands.append(run(
            ["decompose", "--p", str(p), "--x", str(x), "--y", str(y), "--z", str(z),
             "--m", str(m), "--trace", "--format", "json"]))
        return op

    def check(self, op: Op) -> list:
        p, t, expected = op.inputs
        gen = op.commands[0]
        if gen.code != 0 or len(op.commands) != 2:
            return [f"generate p={p} {t} exited {gen.code}: {gen.err.getvalue().strip()}"]
        problems = check_generate(p, t, expected, gen.records())
        if problems:
            return problems
        dec = op.commands[1]
        if dec.code == 2 and dec.records() == [{"kind": "error", "error": "DegenerateE"}]:
            if is_power_up_to_sign(expected[3], p):
                return []
            return [f"DegenerateE for m={expected[3]}, not a p-th power up to sign"]
        if dec.code != 0:
            return [f"decompose p={p} exited {dec.code}: {dec.err.getvalue().strip()}"]
        return check_decompose(p, expected, dec.records())


def check_generate(p: int, t: tuple, expected: tuple, records: list) -> list:
    if [r.get("kind") for r in records] != ["tuple", "solution"]:
        return [f"generate printed {records}"]
    tup, sol = records
    if tuple(int(tup[k]) for k in "efglqnr") != t:
        return [f"tuple record {tup} is not {t}"]
    x, y, z, m, w = _solution_fields(sol)
    e, f, g, l, q, n, r = t
    if y != n * q + e ** (p - 2) * l ** (p - 1) * r or m != f ** p - e * g:
        return [f"y or m of {sol} differ from the closed forms"]
    if x ** p - m * y ** p != z * w or (x, y, z, m, w) != expected:
        return [f"generate {t} gave {sol}, expected {expected}"]
    return []


def check_decompose(p: int, expected: tuple, records: list) -> list:
    if [r.get("kind") for r in records] != ["solution", "tuple", "trace"]:
        return [f"decompose printed {records}"]
    sol, tup, trace = records
    if _solution_fields(sol) != expected:
        return [f"decompose echoed {sol}, expected {expected}"]
    x, y, z, m, _ = expected
    e, f, g, l, q, n, r = (int(tup[k]) for k in "efglqnr")
    a, b, c, d, h, u = (int(trace[k]) for k in "abcdhu")
    if any(int(trace[k]) != int(tup[k]) for k in "efglqnr"):
        return [f"trace {trace} disagrees with tuple {tup}"]
    problems = []
    if q == 0 or math.gcd(e, q) != 1 or math.gcd(l, q) != 1 or math.gcd(n, r) != 1:
        problems.append("gcd constraints")
    if q * x != u * y - z * r:
        problems.append("line relation")
    if e * z != u ** p - m * q ** p:
        problems.append("norm relation")
    if a * x - b * z != 1 or c * y - d * z != 1:
        problems.append("Bezout relations")
    if h != math.gcd(a, c) or (a, c, d - b) != (q * h, u * h, r * h):
        problems.append("gcd split")
    if u != e * l + f * q or f ** p - m != e * g or y != n * q + e ** (p - 2) * l ** (p - 1) * r:
        problems.append("residual relations")
    return [f"decompose of {expected}: {', '.join(problems)}"] if problems else []


WORKLOADS = {w.name: w for w in (SearchBox, RoundtripBox, ClosedFormsBigint)}
