"""Traced pass: the layers of zwform timed from outside, on the workloads' inputs.

The layers are the package's modules: oracle, parametrization,
decomposition, exact_arith and cli. For each workload the pass runs one
round of its operations untraced, then the same round traced. In the traced
round each operation's span holds its CLI commands and, after them, the
public functions of each module those commands run, called again from here
on the same inputs, in the order the program calls them. decompose's stages
are called one by one in decompose's order, and the tuples they rebuild must
equal the ones decompose returns, or the run is not correct.

Spans record name, start, end and parent, nested as workload, operation,
layer call. They stay in memory and are written out as JSON lines when the
run ends. Every traced run covers all three workloads, so that it reports
every per-layer metric, each measured on the workload it applies to.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

from zwform import (
    ParameterTuple, SearchBounds, Solution, bezout_nonzero, decompose, enumerate_solutions,
    extgcd, generate, identity_fuzz, line_coeffs, residual_e, residual_g, residual_n,
    split_u, stream_solutions, trace_identities,
)
from zwform.errors import DegenerateE

from workloads import (
    ROUNDTRIP_PS, ClosedFormsBigint, RoundtripBox, SearchBox, fresh_caches, run_cli,
)

CLOSED_FORM_TRACE_ROUNDS = 100
FUZZ_COUNT = 1000  # roundtrip's default --fuzz-count


class Tracer:
    """In-memory spans, with total seconds per (workload, span name)."""

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(float)
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = {"id": len(self.spans), "parent": parent and parent["id"], "name": name,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            self.totals[self._open[0]["name"] if self._open else name, name] += (
                span["end"] - span["start"])

    def run_cli(self, argv: list):
        with self.span(f"cli.{argv[0]}"):
            return run_cli(argv)


def _no_sink(_solution) -> None:
    pass


def _decompose_or_none(sol: Solution):
    try:
        return decompose(sol)
    except DegenerateE:
        return None


def rebuild_by_stages(tr: Tracer, sols: list, decomposed: list) -> list:
    """Rebuild each tuple from decompose's stage functions; problems where it differs.

    decomposed holds decompose's (tuple, trace) per solution, None where it
    raised DegenerateE, which the stages must meet as e == 0.
    """
    with tr.span("decomposition.bezout"):
        ab = [bezout_nonzero(s.x, s.z) for s in sols]
        cd = [bezout_nonzero(s.y, s.z) for s in sols]
    with tr.span("decomposition.line"):
        lines = [line_coeffs(a, b, c, d) for (a, b), (c, d) in zip(ab, cd)]
    with tr.span("decomposition.residual_e"):
        es = [residual_e(u, q, s.m, s.z, s.p) for s, (_, q, u, _) in zip(sols, lines)]
    live = [i for i, e in enumerate(es) if e]
    with tr.span("decomposition.split_u"):
        lfs = [split_u(lines[i][2], es[i], lines[i][1]) for i in live]
    with tr.span("decomposition.residual_g"):
        gs = [residual_g(f, sols[i].m, es[i], sols[i].p) for i, (_, f) in zip(live, lfs)]
    with tr.span("decomposition.residual_n"):
        ns = [residual_n(sols[i].y, es[i], l, lines[i][3], lines[i][1], sols[i].p)
              for i, (l, _) in zip(live, lfs)]
    with tr.span("decomposition.postcheck"):
        tuples = [ParameterTuple(sols[i].p, es[i], f, g, l, lines[i][1], n, lines[i][3])
                  for i, (l, f), g, n in zip(live, lfs, gs, ns)]
        passed = [t.satisfies_gcd_constraints() and generate(t) == sols[i]
                  for i, t in zip(live, tuples)]
    rebuilt = [None] * len(sols)
    for i, t, ok in zip(live, tuples, passed):
        rebuilt[i] = t if ok else "postcheck failed"
    return [f"stage rebuild {r} differs from decompose {d and d[0]}"
            for d, r in zip(decomposed, rebuilt) if (d and d[0]) != r][:5]


STAGES = ("bezout", "line", "residual_e", "split_u", "residual_g", "residual_n", "postcheck")


def _decomposition_metrics(tr: Tracer, w: str, decomposed: list) -> dict:
    metrics = {f"{w}.decomposition.decompose_s": tr.totals[w, "decomposition.decompose"],
               f"{w}.decomposition.degenerate": sum(d is None for d in decomposed),
               f"{w}.exact_arith.extgcd_s": tr.totals[w, "exact_arith.extgcd"]}
    for stage in STAGES:
        metrics[f"{w}.decomposition.{stage}_s"] = tr.totals[w, f"decomposition.{stage}"]
    return metrics


def _trace_overhead(tr: Tracer, w: str, untraced_s: float) -> float:
    """Traced CLI command time of workload w minus the same commands' untraced time."""
    traced_s = sum(t for (top, name), t in tr.totals.items()
                   if top == w and name.startswith("cli."))
    return traced_s - untraced_s


def _box_fields(bounds: SearchBounds) -> list:
    return [(s.p, s.x, s.y, s.z, s.m, s.w) for s in enumerate_solutions(bounds)]


def trace_search_box(tr: Tracer, seed: int):
    w = SearchBox(seed)
    untraced = w.operation()
    problems = w.check(untraced)
    untraced_s = untraced.latency
    del untraced
    bounds = SearchBounds(w.p, w.bound, w.m_lo, w.m_hi)
    with tr.span(w.name):
        with tr.span("operation"):
            op = w.operation(run=tr.run_cli)
            fresh_caches()
            with tr.span("oracle.scan"):
                stats = stream_solutions(bounds, _no_sink)
            with tr.span("bench.collect"):
                fields = _box_fields(bounds)
            with tr.span("parametrization.solution_init"):
                [Solution(*f) for f in fields]
    problems += w.check(op)
    scan_s = tr.totals[w.name, "oracle.scan"]
    serialize_s = tr.totals[w.name, "cli.search"] - scan_s
    nbytes = op.commands[0].out.nbytes
    metrics = {
        "oracle.scan_s": scan_s,
        "oracle.instances_checked": stats.instances_checked,
        "oracle.solutions_per_instance": stats.solutions_found / stats.instances_checked,
        "parametrization.solution_init_s": tr.totals[w.name, "parametrization.solution_init"],
        "cli.serialize_s": serialize_s,
        "cli.bytes_written": nbytes,
        "cli.bytes_per_s": nbytes / serialize_s,
        "trace.overhead_s": _trace_overhead(tr, w.name, untraced_s),
    }
    return {f"{w.name}.{k}": v for k, v in metrics.items()}, [op], problems


def trace_roundtrip_box(tr: Tracer, seed: int):
    w = RoundtripBox(seed)
    untraced = w.operation()
    problems = w.check(untraced)
    instances = solutions = 0
    decomposed_all = []
    with tr.span(w.name):
        with tr.span("operation"):
            op = w.operation(run=tr.run_cli)
            for p in ROUNDTRIP_PS:
                bounds = SearchBounds(p, w.bound, w.m_lo, w.m_hi)
                fresh_caches()
                with tr.span("oracle.scan"):
                    stats = stream_solutions(bounds, _no_sink)
                instances += stats.instances_checked
                solutions += stats.solutions_found
                with tr.span("bench.collect"):
                    fields = _box_fields(bounds)
                with tr.span("parametrization.solution_init"):
                    sols = [Solution(*f) for f in fields]
                with tr.span("exact_arith.extgcd"):
                    for s in sols:
                        extgcd(s.x, s.z)
                        extgcd(s.y, s.z)
                with tr.span("decomposition.decompose"):
                    decomposed = [_decompose_or_none(s) for s in sols]
                problems += rebuild_by_stages(tr, sols, decomposed)
                done = [(s, d) for s, d in zip(sols, decomposed) if d]
                with tr.span("parametrization.regenerate"):
                    [generate(tup) for _, (tup, _) in done]
                with tr.span("decomposition.trace_audit"):
                    [trace_identities(s, trace) for s, (_, trace) in done]
                with tr.span("oracle.fuzz"):
                    identity_fuzz(p, w.bound, FUZZ_COUNT, seed)
                decomposed_all += decomposed
    problems += w.check(op)
    metrics = {
        f"{w.name}.oracle.scan_s": tr.totals[w.name, "oracle.scan"],
        f"{w.name}.oracle.instances_checked": instances,
        f"{w.name}.oracle.solutions_per_instance": solutions / instances,
        f"{w.name}.oracle.fuzz_s": tr.totals[w.name, "oracle.fuzz"],
        f"{w.name}.parametrization.solution_init_s":
            tr.totals[w.name, "parametrization.solution_init"],
        f"{w.name}.parametrization.regenerate_s": tr.totals[w.name, "parametrization.regenerate"],
        f"{w.name}.decomposition.trace_audit_s": tr.totals[w.name, "decomposition.trace_audit"],
        **_decomposition_metrics(tr, w.name, decomposed_all),
        f"{w.name}.trace.overhead_s": _trace_overhead(tr, w.name, untraced.latency),
    }
    return metrics, [op], problems


def trace_closed_forms(tr: Tracer, seed: int):
    rounds = CLOSED_FORM_TRACE_ROUNDS * ClosedFormsBigint.ops_per_round
    w = ClosedFormsBigint(seed)
    untraced = [w.operation() for _ in range(rounds)]
    problems = [p for op in untraced for p in w.check(op)]
    w = ClosedFormsBigint(seed)
    ops, decomposed_all, overheads = [], [], []
    with tr.span(w.name):
        for _ in range(rounds):
            with tr.span("operation"):
                op = w.operation(run=tr.run_cli)
                p, t, fields = op.inputs
                tup, sol = ParameterTuple(p, *t), Solution(p, *fields)
                with tr.span("parametrization.generate") as gen:
                    generate(tup)
                with tr.span("decomposition.decompose") as dec:
                    decomposed = [_decompose_or_none(sol)]
                with tr.span("exact_arith.extgcd"):
                    extgcd(sol.x, sol.z)
                    extgcd(sol.y, sol.z)
                problems += rebuild_by_stages(tr, [sol], decomposed)
            ops.append(op)
            decomposed_all += decomposed
            overheads.append(op.latency - (gen["end"] - gen["start"]) - (dec["end"] - dec["start"]))
    problems += [p for op in ops for p in w.check(op)]
    metrics = {
        f"{w.name}.parametrization.generate_s": tr.totals[w.name, "parametrization.generate"],
        **_decomposition_metrics(tr, w.name, decomposed_all),
        f"{w.name}.cli.overhead_ms": 1000 * statistics.median(overheads),
        f"{w.name}.trace.overhead_s":
            _trace_overhead(tr, w.name, sum(op.latency for op in untraced)),
    }
    return metrics, ops, problems


def traced_run(seed: int, spans_path) -> dict:
    tr = Tracer()
    metrics, ops, problems = {}, [], []
    for trace_workload in (trace_search_box, trace_roundtrip_box, trace_closed_forms):
        m, o, p = trace_workload(tr, seed)
        metrics.update(m)
        ops += o
        problems += p
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as out:
        for span in tr.spans:
            out.write(json.dumps(span) + "\n")
    failed = sum(any(c.code not in (0, 2) for c in op.commands) for op in ops)
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}
