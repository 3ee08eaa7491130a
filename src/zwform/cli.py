"""Command line front end.

Five subcommands: generate (tuple -> solution), decompose (solution ->
tuple), verify (check one solution), search (enumerate a box), roundtrip
(batch decompose + fuzz). Output is a stream of records, one per line, in
either a plain text or a JSON-lines format. Every integer is serialized as
a base-10 string, JSON included, so arbitrarily large values survive any
downstream JSON parser untouched.

Exit codes follow sysexits where it has an opinion:

    0   success
    1   internal error (a bug in this package, or a failed self-check)
    2   domain error (well-formed input outside the math's domain)
    64  usage error (malformed command line, composite or too large --p)
    74  output file could not be written
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .decomposition import decompose
from .errors import DegenerateE, NotCoprime, NotTheoremGrade, TooLarge, ZeroZ
from .exact_arith import _check_powers, is_prime
from .oracle import (
    SCAN_COUNTERS, SearchBounds, SearchReport, _run_chunks, identity_fuzz, roundtrip_check, scan,
)
from .parametrization import ParameterTuple, Solution, generate, theorem_grade_flags

EX_OK = 0
EX_INTERNAL = 1
EX_DOMAIN = 2
EX_USAGE = 64
EX_IOERR = 74

# argparse's stock matcher rejects values like -1..-1 and -1,0,2,1,1,1,0 as
# unknown options; anything starting with a minus and a digit is a value.
_NEGATIVE_VALUE = re.compile(r"^-\d")


class UsageError(Exception):
    """Malformed command line; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise UsageError(message)


def _record(kind: str, **fields) -> dict:
    """kind, then the fields in the order given; every value, counts' too, as a string."""
    rec = {"kind": kind}
    for key, value in fields.items():
        rec[key] = {k: str(v) for k, v in value.items()} if key == "counts" else str(value)
    return rec


# The bytes _emit writes for a solution record, per format, in four parts:
# templates of the head up to x (p), of the row's part up to m (x, y, z) and
# of m's fragment up to w, then the tail after w.
_SOLUTION_LINE = {
    "json": ('{"kind":"solution","p":"%d","x":"', '%d","y":"%d","z":"%d","m":"', '%d","w":"',
             '"}\n'),
    "text": ("solution p=%d x=", "%d y=%d z=%d m=", "%d w=", "\n"),
}

# search writes at most this many records per write call, so the text it holds
# at a time stays a few kilobytes however many solutions one m has.
_WRITE_RECORDS = 256


def _tuple_record(t: ParameterTuple) -> dict:
    return _record("tuple", p=t.p, e=t.e, f=t.f, g=t.g, l=t.l, q=t.q, n=t.n, r=t.r)


def _solution_record(s: Solution) -> dict:
    return _record("solution", p=s.p, x=s.x, y=s.y, z=s.z, m=s.m, w=s.w)


def _trace_record(trace, tuple_rec: dict) -> dict:
    # The trace's e, f, g, l, q, n, r are the tuple's: reuse their strings.
    rec = {"kind": "trace"}
    for key in ("e", "f", "g", "l", "q", "n", "r"):
        rec[key] = tuple_rec[key]
    for key in ("a", "b", "c", "d", "h", "u"):
        rec[key] = str(getattr(trace, key))
    return rec


def _emit(rec: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(rec, separators=(",", ":")) + "\n")
        return
    if rec["kind"] == "error":
        stream.write(f"error {rec['error']}\n")
        return
    parts = [rec["kind"]]
    for key, value in rec.items():
        if key == "kind":
            continue
        if key == "counts":
            parts.extend(f"{ck}={cv}" for ck, cv in value.items())
        else:
            parts.append(f"{key}={value}")
    stream.write(" ".join(parts) + "\n")


def _fail(name: str, detail: str, fmt: str, code: int) -> int:
    _emit(_record("error", error=name), fmt, sys.stdout)
    print(f"error: {detail}", file=sys.stderr)
    return code


def _prime_arg(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"too large: {exc}")
    if not prime:
        raise argparse.ArgumentTypeError(f"must be prime, got {p}")
    return p


def _tuple_arg(text: str):
    parts = text.split(",")
    if len(parts) != 7:
        raise argparse.ArgumentTypeError("expected 7 comma-separated integers e,f,g,l,q,n,r")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer component in {text!r}")


def _m_range_arg(text: str):
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    try:
        return int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed m range {text!r}")


def _cmd_generate(args) -> int:
    fmt = args.format
    try:
        tup = ParameterTuple(args.p, *args.tuple)
    except ValueError as exc:
        return _fail("ValueError", str(exc), fmt, EX_DOMAIN)
    try:
        sol = generate(tup)
    except (ZeroZ, NotCoprime) as exc:
        _emit(_tuple_record(tup), fmt, sys.stdout)
        return _fail(type(exc).__name__, str(exc), fmt, EX_DOMAIN)
    _emit(_tuple_record(tup), fmt, sys.stdout)
    _emit(_solution_record(sol), fmt, sys.stdout)
    return EX_OK


def _cmd_decompose(args) -> int:
    fmt = args.format
    p, x, y, z, m = args.p, args.x, args.y, args.z, args.m
    _check_powers(p, x, y)
    lhs = x ** p - m * y ** p
    if args.w is None:
        if z == 0:
            return _fail("NotTheoremGrade", "z must be nonzero", fmt, EX_DOMAIN)
        if lhs % z:
            return _fail("NotDivisible", f"z={z} does not divide x**p - m*y**p = {lhs}", fmt, EX_DOMAIN)
        w = lhs // z
    else:
        w = args.w
        if z * w != lhs:
            return _fail("InconsistentW", f"z*w = {z * w} but x**p - m*y**p = {lhs}", fmt, EX_DOMAIN)
    sol = Solution(p, x, y, z, m, w)
    try:
        tup, trace = decompose(sol)
    except (NotTheoremGrade, DegenerateE) as exc:
        return _fail(type(exc).__name__, str(exc), fmt, EX_DOMAIN)
    _emit(_solution_record(sol), fmt, sys.stdout)
    tuple_rec = _tuple_record(tup)
    _emit(tuple_rec, fmt, sys.stdout)
    if args.trace:
        _emit(_trace_record(trace, tuple_rec), fmt, sys.stdout)
    return EX_OK


def _cmd_verify(args) -> int:
    flags = theorem_grade_flags(Solution(args.p, args.x, args.y, args.z, args.m, args.w))
    flags["theorem_grade"] = all(flags.values())
    counts = {name: int(ok) for name, ok in flags.items()}
    _emit(_record("report", counts=counts), args.format, sys.stdout)
    return EX_OK if flags["identity"] else EX_DOMAIN


def _search_bounds(args) -> SearchBounds:
    try:
        bounds = SearchBounds(args.p, args.bound, *args.m)
    except ValueError as exc:
        raise UsageError(exc)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    return bounds


def _search_text(bounds: SearchBounds, fmt: str, stats: SearchReport):
    """Yield the box's solution records as strings of at most _WRITE_RECORDS records."""
    head_line, row_line, m_line, tail = _SOLUTION_LINE[fmt]
    head = head_line % bounds.p
    rows, batches = scan(bounds, stats)
    # A row's part is formatted when it is first written: most rows are
    # solutions for several m, and some for none in the range.
    parts = [None] * len(rows)

    def part(i):
        parts[i] = row_line % rows[i][:3]
        return parts[i]

    for m, sols in batches:
        mid = m_line % m
        for j in range(0, len(sols), _WRITE_RECORDS):
            yield "".join([f"{head}{parts[i] or part(i)}{mid}{w}{tail}"
                           for i, w in sols[j:j + _WRITE_RECORDS]])


def _search_chunk(fmt: str, bounds: SearchBounds) -> tuple[SearchReport, list[str]]:
    """Worker: one m chunk's stats and record strings. It lifts the int/str
    digit limit itself: a spawned worker does not inherit run()'s lift."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    stats = SearchReport()
    return stats, list(_search_text(bounds, fmt, stats))


def _pooled_text(bounds: SearchBounds, fmt: str, stats: SearchReport, jobs: int):
    for part, texts in _run_chunks(functools.partial(_search_chunk, fmt), bounds, jobs):
        stats.absorb(part)
        yield from texts


def _cmd_search(args) -> int:
    bounds = _search_bounds(args)
    _check_powers(bounds.p, bounds.bound)
    fmt = args.format
    stats = SearchReport()
    texts = (_search_text(bounds, fmt, stats) if args.jobs == 1
             else _pooled_text(bounds, fmt, stats, args.jobs))
    if args.out is not None:
        try:
            stream = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open {args.out!r}: {exc}", file=sys.stderr)
            return EX_IOERR
    else:
        stream = sys.stdout
    try:
        for text in texts:
            stream.write(text)
        counts = {name: getattr(stats, name) for name in SCAN_COUNTERS}
        _emit(_record("report", counts=counts), fmt, stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EX_OK


def _cmd_roundtrip(args) -> int:
    bounds = _search_bounds(args)
    if args.fuzz_count < 0:
        raise UsageError(f"--fuzz-count must be >= 0, got {args.fuzz_count}")
    _check_powers(bounds.p, bounds.bound)
    # The fuzz refuses a reference it cannot afford before sampling, so it
    # runs first: a refusal comes before the box's round trip, not after.
    fuzz = identity_fuzz(args.p, args.bound, args.fuzz_count, args.seed)
    report = roundtrip_check(bounds, jobs=args.jobs)
    counts = report.as_counts()
    counts.update({f"fuzz_{key}": value for key, value in fuzz.as_counts().items()})
    _emit(_record("report", counts=counts), args.format, sys.stdout)
    if report.failures or fuzz.failures:
        for subject, kind, detail in (report.failures + fuzz.failures)[:20]:
            print(f"failure: {kind.name}: {subject}: {detail}", file=sys.stderr)
        return EX_INTERNAL
    return EX_OK


@functools.cache
def _build_parser() -> _Parser:
    fmt_parent = _Parser(add_help=False)
    fmt_parent.add_argument("--format", choices=("text", "json"), default="text",
                            help="record format (default: text)")
    p_parent = _Parser(add_help=False)
    p_parent.add_argument("--p", type=_prime_arg, required=True, help="prime exponent")
    solution_parent = _Parser(add_help=False)
    for name in ("x", "y", "z", "m"):
        solution_parent.add_argument(f"--{name}", type=int, required=True)
    box_parent = _Parser(add_help=False)
    box_parent.add_argument("--bound", type=int, required=True, help="|x|, |y|, |z| <= bound")
    box_parent.add_argument("--m", type=_m_range_arg, required=True, metavar="LO..HI")
    box_parent.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")

    parser = _Parser(prog="zwform",
                     description="Generate, decompose, and audit integral solutions "
                                 "of x**p - m*y**p == z*w.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[fmt_parent, p_parent],
                         help="evaluate the closed forms on one parameter tuple")
    gen.add_argument("--tuple", type=_tuple_arg, required=True, metavar="E,F,G,L,Q,N,R")
    gen.set_defaults(handler=_cmd_generate)

    dec = sub.add_parser("decompose", parents=[fmt_parent, p_parent, solution_parent],
                         help="recover a parameter tuple from one solution")
    dec.add_argument("--w", type=int, default=None,
                     help="optional; recomputed from the identity when omitted")
    dec.add_argument("--trace", action="store_true", help="also print the Bezout trace")
    dec.set_defaults(handler=_cmd_decompose)

    ver = sub.add_parser("verify", parents=[fmt_parent, p_parent, solution_parent],
                         help="check one solution against the identity and constraints")
    ver.add_argument("--w", type=int, required=True)
    ver.set_defaults(handler=_cmd_verify)

    sea = sub.add_parser("search", parents=[fmt_parent, p_parent, box_parent],
                         help="enumerate all solutions in a box by brute force")
    sea.add_argument("--out", default=None, help="write records to this file instead of stdout")
    sea.set_defaults(handler=_cmd_search)

    rou = sub.add_parser("roundtrip", parents=[fmt_parent, p_parent, box_parent],
                         help="decompose every solution in a box and fuzz the identities")
    rou.add_argument("--seed", type=int, default=0, help="fuzzing seed (default: 0)")
    rou.add_argument("--fuzz-count", type=int, default=1000,
                     help="random tuples to fuzz (default: 1000)")
    rou.set_defaults(handler=_cmd_roundtrip)
    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code.

    Integers of any length are read and printed: CPython's int/str digit
    limit is lifted for the call and restored afterwards. Interpreters
    older than the limit have nothing to lift.
    """
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except TooLarge as exc:
        return _fail("TooLarge", str(exc), args.format, EX_DOMAIN)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EX_IOERR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


def main(argv=None) -> None:
    raise SystemExit(run(argv))
