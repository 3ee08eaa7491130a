"""Brute-force enumeration, round-trip batches, and the seeded fuzzer."""

import concurrent.futures
import dataclasses
import io
import math
import os

import pytest

from reference import SplitMix64, naive_box_scan, naive_counts, roundtrip_reference
from test_acceptance import A3_FAILURES, A4_FAILURES, A5_FAILURES, select_failures
from test_cli import search_report
from zwform import decomposition, exact_arith, oracle, parametrization
from zwform.cli import EX_DOMAIN, _emit, _solution_record, run
from zwform.decomposition import decompose, m_fields, row_prefix
from zwform.errors import DegenerateE, IdentityViolation, NotDivisible, TooLarge, ZeroZ
from zwform.oracle import (
    SCAN_COUNTERS,
    Failure,
    SearchBounds,
    SearchReport,
    enumerate_solutions,
    identity_fuzz,
    roundtrip_check,
    sample_tuples,
    stream_solutions,
)
from zwform.parametrization import ParameterTuple, Solution, eval_z, generate, theorem_grade_flags


class TestSearchBounds:
    def test_rejects_p_below_2(self):
        assert SearchBounds(4, 5, -1, 1).p == 4
        for p in (1, 0, -3):
            with pytest.raises(ValueError, match=f"p must be >= 2, got {p}"):
                SearchBounds(p, 5, -1, 1)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            SearchBounds(2, 0, -1, 1)

    def test_rejects_empty_m_range(self):
        with pytest.raises(ValueError):
            SearchBounds(2, 5, 2, 1)


class TestEnumerate:
    def test_matches_naive_scan(self):
        bounds = SearchBounds(2, 5, -1, -1)
        got = enumerate_solutions(bounds)
        assert got == naive_box_scan(2, 5, -1, -1)
        assert Solution(2, 1, 2, 5, -1, 1) in got

    def test_matches_naive_scan_p3(self):
        bounds = SearchBounds(3, 4, -3, 3)
        assert enumerate_solutions(bounds) == naive_box_scan(3, 4, -3, 3)

    def test_sorted_and_theorem_grade(self):
        sols = enumerate_solutions(SearchBounds(2, 6, -4, 4))
        assert sols == sorted(sols, key=lambda s: (s.m, s.x, s.y, s.z))
        for sol in sols:
            assert all(theorem_grade_flags(sol).values())
            assert abs(sol.x) <= 6 and abs(sol.y) <= 6 and abs(sol.z) <= 6
            assert -4 <= sol.m <= 4

    def test_parallel_equals_serial(self, capsys):
        # The pooled search, rendered in worker processes, against the
        # serial enumeration written record by record.
        bounds = SearchBounds(2, 5, -4, 4)
        expected = io.StringIO()
        for sol in enumerate_solutions(bounds):
            _emit(_solution_record(sol), "text", expected)
        _emit(search_report(stream_solutions(bounds, lambda sol: None)), "text", expected)
        assert run(["search", "--p", "2", "--bound", "5", "--m", "-4..4", "--jobs", "3"]) == 0
        assert capsys.readouterr().out == expected.getvalue()

    def test_stream_order_matches_list(self):
        bounds = SearchBounds(3, 4, -2, 2)
        seen = []
        stats = stream_solutions(bounds, seen.append)
        assert seen == enumerate_solutions(bounds)
        assert stats.solutions_found == len(seen)

    def test_counters(self):
        # The m range holds 0, and m == 1 has w == 0 instances (x == +-y).
        p, bound, m_min, m_max = 2, 3, -2, 2
        expected = naive_counts(p, bound, m_min, m_max)
        assert expected["filtered_zero_m"] > 0 and expected["filtered_zero_w"] > 0
        assert tuple(expected) == SCAN_COUNTERS
        bounds = SearchBounds(p, bound, m_min, m_max)
        out = []
        stats = SearchReport()
        stats.absorb(stream_solutions(bounds, out.append))
        assert stats.as_counts() == {
            **expected, "decompose_success": 0, "degenerate_e": 0, "failures": 0,
        }
        assert len(out) == expected["solutions_found"]
        for jobs in (1, 3):
            report = roundtrip_check(bounds, jobs=jobs)
            assert {key: report.as_counts()[key] for key in expected} == expected


class TestResidueScan:
    """The residue-class scan against the naive instance-by-instance scan."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("bound", range(1, 9))
    def test_classes_partition_the_rows(self, p, bound):
        rows, classes = oracle._triples(bound, p)
        vals = [v for v in range(-bound, bound + 1) if v]
        assert [row[:3] for row in rows] == [
            (x, y, z) for x in vals for y in vals for z in vals
            if math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1]
        assert [len(residues) for residues in classes] == list(range(bound + 1))
        members = [i for residues in classes for members in residues for i in members]
        assert sorted(members) == list(range(len(rows)))
        for k, residues in enumerate(classes):
            for r, members in enumerate(residues):
                assert members == sorted(members)
                for i in members:
                    x, y, z, xp, yp = rows[i]
                    assert abs(z) == k and xp == x ** p and yp == y ** p
                    assert (xp - r * yp) % k == 0

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("bound", range(1, 9))
    @pytest.mark.parametrize("m_range", [(-9, -1), (-4, 5), (0, 0), (3, 11)],
                             ids=["negative", "holds_0", "only_0", "off_residue"])
    def test_matches_naive_scan(self, p, bound, m_range):
        bounds = SearchBounds(p, bound, *m_range)
        naive = naive_box_scan(p, bound, *m_range)
        counts = naive_counts(p, bound, *m_range)
        if m_range == (-4, 5):
            assert counts["filtered_zero_w"] > 0  # m == 1, x == y == 1
        nonzero_m = [m for m in range(m_range[0], m_range[1] + 1) if m]
        stats = SearchReport()
        rows, batches = oracle.scan(bounds, stats)
        batches = list(batches)
        assert [m for m, _ in batches] == nonzero_m
        assert [Solution(p, *rows[i][:3], m, w)
                for m, sols in batches for i, w in sols] == naive
        assert {key: getattr(stats, key) for key in SCAN_COUNTERS} == counts
        assert enumerate_solutions(bounds) == naive
        # The round trip walks the same table row by row, each row over its
        # own m progression, and must count the same instances.
        report = roundtrip_check(bounds)
        assert {key: getattr(report, key) for key in SCAN_COUNTERS} == counts
        assert report.failures == [] and report.consistent()


def fake_pool(monkeypatch, cores=3):
    """Replace the process pool with one that maps in process on cores cores.

    The fake records what it is given, so no worker process starts however
    large jobs is. Returns the list of pools made.
    """
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, chunks):
            self.chunks = list(chunks)
            return map(worker, self.chunks)

    # _run_chunks imports the pool when it starts one, so patch its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return pools


class TestRoundtripCheck:
    def test_clean_box(self):
        report = roundtrip_check(SearchBounds(2, 10, -10, 10))
        assert report.failures == []
        assert report.consistent()
        assert report.solutions_found > 0
        assert report.decompose_success > 0

    def test_parallel_equals_serial(self):
        bounds = SearchBounds(3, 6, -6, 6)
        serial = roundtrip_check(bounds)
        parallel = roundtrip_check(bounds, jobs=3)
        assert serial.as_counts() == parallel.as_counts()
        assert serial.failures == parallel.failures

    def test_jobs_capped_at_cores(self, monkeypatch):
        pools = fake_pool(monkeypatch)
        bounds = SearchBounds(2, 2, -50, 50)
        report = roundtrip_check(bounds, jobs=10**6)
        (pool,) = pools
        assert pool.max_workers == 3 and len(pool.chunks) == 3
        assert all(chunk.m_min <= chunk.m_max for chunk in pool.chunks)
        assert [m for chunk in pool.chunks for m in range(chunk.m_min, chunk.m_max + 1)] == \
            list(range(-50, 51))
        assert all(dataclasses.replace(chunk, m_min=-50, m_max=50) == bounds
                   for chunk in pool.chunks)
        serial = roundtrip_check(bounds)
        assert report.as_counts() == serial.as_counts()
        assert report.failures == serial.failures

    def test_report_consistency_helper(self):
        rep = SearchReport(solutions_found=3, decompose_success=2, degenerate_e=1)
        assert rep.consistent()
        rep.failures.append(("x", Failure.TRACE, "y"))
        assert not rep.consistent()


def _w_plus_one(forms):
    """forms, a function returning (x, y, z, m, w), with its w off by one."""
    def shifted(*t):
        x, y, z, m, w = forms(*t)
        return x, y, z, m, w + 1
    return shifted


def _one_false(p, fields, prefix, found, m_relations=decomposition.m_relations):
    bad = m_relations(p, fields, prefix, found)
    return bad if "residual_n" in bad else bad + ("residual_n",)


def _line_false_where_x_positive(p, x, y, z, t, row_identities=decomposition.row_identities):
    bad = row_identities(p, x, y, z, t)
    return bad + ("line",) if x > 0 and "line" not in bad else bad


def _lr_off_where_q_wide(*args, row_prefix=decomposition.row_prefix):
    prefix = row_prefix(*args)
    return prefix._replace(lr=prefix.lr + 1) if abs(prefix.q) > 1 else prefix


def _not_divisible(*args):
    raise NotDivisible("injected")


def _line_coeffs_refused_where_a_positive_c_negative(
        a, b, c, d, line_coeffs=decomposition.line_coeffs):
    if a > 0 and c < 0:
        raise NotDivisible("injected")
    return line_coeffs(a, b, c, d)


class TestFailureCategories:
    """Each round-trip failure class, injected, reaches exactly its acceptance gate."""

    GATES = {"A3": A3_FAILURES, "A4": A4_FAILURES, "A5": A5_FAILURES}
    BOUNDS = SearchBounds(2, 4, -3, 3)

    def gates_seeing(self, report):
        """The gates whose categories select any of report's failures."""
        return {gate for gate, categories in self.GATES.items()
                if select_failures([report], categories)}

    INJECTIONS = [
        (Failure.CONSTRAINT, decomposition, "gcd_constraints_hold", lambda *args: False),
        (Failure.REGENERATE, decomposition, "closed_forms",
         _w_plus_one(parametrization.closed_forms)),
        (Failure.TRACE, oracle, "m_relations", _one_false),
        (Failure.EXCEPTION, decomposition, "closed_forms", _not_divisible),
    ]
    INJECTION_IDS = ["constraint", "regenerate", "trace", "exception"]

    @pytest.mark.parametrize("category, target, name, fake", INJECTIONS, ids=INJECTION_IDS)
    def test_injected_failure_reaches_its_gate(self, monkeypatch, category, target, name, fake):
        monkeypatch.setattr(target, name, fake)
        report = roundtrip_check(self.BOUNDS)
        assert report.solutions_found > 0
        assert report.failures
        assert {kind for _, kind, _ in report.failures} == {category}
        assert report.consistent()
        (gate,) = self.gates_seeing(report)
        assert select_failures([report], self.GATES[gate]) == report.failures

    def test_injected_row_failure_reaches_every_solution_of_its_rows(self, monkeypatch):
        # A row relation is checked once per row; its failure is still one
        # TRACE failure per solution of the row, as when every solution's
        # trace was audited in full.
        monkeypatch.setattr(oracle, "row_identities", _line_false_where_x_positive)
        report = roundtrip_check(self.BOUNDS)
        affected = []
        for sol in enumerate_solutions(self.BOUNDS):
            try:
                decompose(sol)
            except DegenerateE:
                continue
            if sol.x > 0:
                affected.append(sol)
        assert affected
        assert [sol for sol, _, _ in report.failures] == affected
        assert {(kind, detail) for _, kind, detail in report.failures} == {(Failure.TRACE, "line")}
        assert report.consistent()
        assert self.gates_seeing(report) == {"A5"}

    def test_injected_row_failure_pooled_equals_serial(self, monkeypatch):
        # Rows walk their m progressions within a chunk; the failures of
        # the chunks, each sorted by (m, x, y, z), concatenate into the
        # serial order.
        monkeypatch.setattr(oracle, "row_identities", _line_false_where_x_positive)
        bounds = SearchBounds(3, 5, -9, 9)
        serial = roundtrip_check(bounds)
        pools = fake_pool(monkeypatch)
        pooled = roundtrip_check(bounds, jobs=3)
        assert len(pools) == 1 and len(pools[0].chunks) == 3
        assert serial.failures and pooled.failures == serial.failures
        assert pooled.as_counts() == serial.as_counts()

    def test_corrupt_row_constant_fails_every_solution_of_its_rows(self, monkeypatch):
        # row_prefix computes l**(p-1)*r once per row and every m step of the
        # row reads it: off by one, it fails each solution of the row. Rows
        # with |q| > 1 have no e == 0 solution.
        monkeypatch.setattr(oracle, "row_prefix", _lr_off_where_q_wide)
        bounds = SearchBounds(3, 6, -4, 4)
        report = roundtrip_check(bounds)
        wide = [sol for sol in enumerate_solutions(bounds)
                if abs(row_prefix(sol.p, sol.x, sol.y, sol.z).q) > 1]
        assert len(wide) > 24
        assert [sol for sol, _, _ in report.failures] == wide
        assert report.decompose_success + report.degenerate_e + len(wide) == \
            report.solutions_found
        assert report.consistent()

    def test_every_category_has_a_gate(self):
        round_trip = {Failure.EXCEPTION, Failure.CONSTRAINT, Failure.REGENERATE, Failure.TRACE}
        assert A3_FAILURES | A4_FAILURES | A5_FAILURES == round_trip
        assert not (A3_FAILURES & A4_FAILURES or A3_FAILURES & A5_FAILURES
                    or A4_FAILURES & A5_FAILURES)


class TestRowCache:
    """roundtrip_check's per-row prefixes against the solution-by-solution round trip."""

    BOXES = [SearchBounds(2, 6, -6, 6), SearchBounds(3, 6, -6, 6),
             SearchBounds(5, 5, -10, 10), SearchBounds(7, 4, -10, 10)]
    IDS = ["p2", "p3", "p5", "p7"]

    @pytest.mark.parametrize("bounds", BOXES, ids=IDS)
    def test_report_matches_reference(self, bounds):
        report = roundtrip_check(bounds)
        reference = roundtrip_reference(bounds)
        assert report.degenerate_e > 0 and report.decompose_success > 0
        assert report.as_counts() == reference.as_counts()
        assert report.failures == reference.failures

    @pytest.mark.parametrize("target, name, fake", [
        (decomposition, "row_identities", _line_false_where_x_positive),
        (decomposition, "m_relations", _one_false),
        (decomposition, "closed_forms", _not_divisible),
        (decomposition, "line_coeffs", _line_coeffs_refused_where_a_positive_c_negative),
    ], ids=["row_relation", "m_relation", "exception", "row_exception"])
    def test_injected_failures_match_reference(self, monkeypatch, target, name, fake):
        # The chunk calls the relations through oracle's names, the
        # reference through trace_identities': patch both. A row that
        # row_prefix refuses is one EXCEPTION failure per solution of it.
        monkeypatch.setattr(target, name, fake)
        if hasattr(oracle, name):
            monkeypatch.setattr(oracle, name, fake)
        bounds = SearchBounds(3, 4, -4, 4)
        report = roundtrip_check(bounds)
        reference = roundtrip_reference(bounds)
        assert report.failures
        assert report.as_counts() == reference.as_counts()
        assert report.failures == reference.failures

    @pytest.mark.parametrize("bounds, wide_q_rows", [
        *((bounds, 0) for bounds in BOXES), (SearchBounds(3, 10, -8, 8), 300),
    ], ids=[*IDS, "p3_wide_q"])
    def test_prefix_once_per_row_matches_decompose(self, bounds, wide_q_rows):
        # wide_q_rows is a floor on the rows whose |q| > 1, where l and the
        # split of u are not trivial.
        prefixes = {}
        outcomes = []
        for sol in enumerate_solutions(bounds):
            row = (sol.x, sol.y, sol.z)
            if row not in prefixes:
                prefixes[row] = row_prefix(sol.p, *row)
            found = m_fields(sol.p, (sol.x, sol.y, sol.z, sol.m, sol.w), prefixes[row])
            try:
                direct = decompose(sol)
            except DegenerateE:
                direct = DegenerateE
            # m_fields finds e == 0 exactly where decompose raises DegenerateE.
            assert (found is None) == (direct is DegenerateE), sol
            if direct is not DegenerateE:
                tup, trace = direct
                assert found == (tup.e, tup.l, tup.f, tup.g, tup.n), sol
                assert prefixes[row][:8] == (trace.a, trace.b, trace.c, trace.d, trace.h,
                                             trace.u, trace.q, trace.r), sol
            outcomes.append(direct)
        assert DegenerateE in outcomes
        assert len(outcomes) > len(prefixes)
        assert sum(abs(prefix.q) > 1 for prefix in prefixes.values()) >= wide_q_rows


class TestWorkDoneOnce:
    """A round trip solves each Bezout pair and runs each row part once per chunk."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_one_bezout_pair_per_v_and_z(self, monkeypatch, jobs):
        # Each chunk reads its Bezout pairs through its own memo of
        # oracle.bezout_nonzero, so each call that reaches it solves a pair.
        # Rows of one z share (v, z) pairs, and a row's prefix is computed at
        # its first solution, so the pairs solved are those of the rows with one.
        solved = []

        def counted(v, z, bezout=oracle.bezout_nonzero):
            solved.append((v, z))
            return bezout(v, z)

        monkeypatch.setattr(oracle, "bezout_nonzero", counted)
        bounds = SearchBounds(3, 10, -10, 10)
        pools = fake_pool(monkeypatch)
        report = roundtrip_check(bounds, jobs=jobs)
        assert report.failures == [] and report.decompose_success > 0
        assert len(pools) == (jobs > 1)
        expected = []
        for part in pools[0].chunks if pools else [bounds]:
            expected += {pair for sol in enumerate_solutions(part)
                         for pair in ((sol.x, sol.z), (sol.y, sol.z))}
        assert sorted(solved) == sorted(expected)
        if jobs == 1:
            assert len(solved) == 252

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_row_part_once_per_row(self, monkeypatch, jobs):
        # A chunk collects each row's solutions first and runs the row part
        # once on each row with one; a row with no solution in the chunk
        # runs none of it.
        calls = {"row_prefix": [], "row_identities": []}

        def counted(name):
            real = getattr(oracle, name)

            def call(p, x, y, z, *rest):
                calls[name].append((x, y, z))
                return real(p, x, y, z, *rest)
            return call

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        # An m range shorter than the bound leaves rows of large |z| without a solution.
        bounds = SearchBounds(3, 8, -3, 3)
        pools = fake_pool(monkeypatch)
        report = roundtrip_check(bounds, jobs=jobs)
        assert report.failures == [] and report.decompose_success > 0
        parts = pools[0].chunks if pools else [bounds]
        assert len(parts) == jobs
        rows = len(oracle._triples(bounds.bound, bounds.p)[0])
        expected = []
        for part in parts:
            with_solution = {(sol.x, sol.y, sol.z) for sol in enumerate_solutions(part)}
            assert 0 < len(with_solution) < rows
            expected += with_solution
        for seen in calls.values():
            assert sorted(seen) == sorted(expected)


class TestRefusalOrder:
    """A TooLarge refusal of the row-by-row round trip is the m-by-m one."""

    BOXES = [SearchBounds(7, 6, -9, 9), SearchBounds(5, 8, 2, 12)]

    @pytest.mark.parametrize("limit", [20, 30])
    @pytest.mark.parametrize("bounds", BOXES, ids=["p7", "p5"])
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_first_refusal_in_m_order(self, monkeypatch, limit, bounds, jobs):
        # Under a small power budget, solutions of many rows are refused, with
        # messages that name different widths. The reference records each
        # refusal as a failure, in (m, x, y, z) order.
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", limit)
        refusals = [detail for _, _, detail in roundtrip_reference(bounds).failures
                    if detail.startswith("TooLarge: ")]
        assert len(set(refusals)) > 1
        fake_pool(monkeypatch)
        with pytest.raises(TooLarge) as got:
            roundtrip_check(bounds, jobs=jobs)
        assert f"TooLarge: {got.value}" == refusals[0]

    @pytest.mark.parametrize("bounds", BOXES, ids=["p7", "p5"])
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_box_past_the_budget_is_refused_first(self, monkeypatch, capsys, bounds, jobs):
        # Under a 12-bit budget the bound's own p-th power is past it:
        # SearchBounds refuses the box with the CLI's TooLarge, before its
        # table is built or a pool started.
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", 12)
        with pytest.raises(TooLarge) as door:
            exact_arith._check_powers(bounds.p, bounds.bound)
        message = str(door.value)
        if jobs > 1:
            # A box built under the old budget is checked again as it is cut
            # into pool chunks.
            pools = fake_pool(monkeypatch)
            with pytest.raises(TooLarge) as got:
                roundtrip_check(bounds, jobs=jobs)
            assert str(got.value) == message and pools == []
        self.assert_the_box_is_refused(monkeypatch, capsys, dataclasses.astuple(bounds), jobs,
                                       message)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_huge_p_box_is_refused_as_the_cli_refuses_it(self, monkeypatch, capsys, jobs):
        # Unrefused, this box's table takes 2**22-bit powers of 2, and the
        # walks' time and memory grow with p.
        assert run(["search", "--p", str(2**22), "--bound", "2", "--m", "1..1"]) == EX_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "error TooLarge\n" and captured.err.startswith("error: ")
        self.assert_the_box_is_refused(monkeypatch, capsys, (2**22, 2, 1, 1), jobs,
                                       captured.err[len("error: "):-1])

    @staticmethod
    def assert_the_box_is_refused(monkeypatch, capsys, box, jobs, message):
        """SearchBounds(*box), dataclasses.replace into box, and the CLI's search
        and roundtrip of box at --jobs jobs each refuse it with TooLarge(message),
        with no table built and no pool started."""
        p, bound, m_min, m_max = box
        pools = fake_pool(monkeypatch)
        table = oracle._triples.cache_info()
        unit = SearchBounds(2, 1, m_min, m_max)
        for build in (lambda: SearchBounds(p, bound, m_min, m_max),
                      lambda: dataclasses.replace(unit, p=p, bound=bound)):
            with pytest.raises(TooLarge) as got:
                build()
            assert str(got.value) == message
        argv = ["--p", str(p), "--bound", str(bound), "--m", f"{m_min}..{m_max}",
                "--jobs", str(jobs)]
        for command in (["search"], ["roundtrip", "--fuzz-count", "0"]):
            assert run(command + argv) == EX_DOMAIN
            assert capsys.readouterr() == ("error TooLarge\n", f"error: {message}\n")
        assert pools == [] and oracle._triples.cache_info() == table


class TestSolutionObjects:
    """roundtrip_check builds a Solution only as the subject of a failures entry."""

    def count_solutions(self, monkeypatch):
        calls = []

        def counted(*fields):
            calls.append(fields)
            return Solution(*fields)

        monkeypatch.setattr(oracle, "Solution", counted)
        return calls

    def test_none_on_a_clean_box(self, monkeypatch):
        calls = self.count_solutions(monkeypatch)
        report = roundtrip_check(SearchBounds(3, 6, -6, 6))
        assert report.failures == []
        assert report.decompose_success > 0 and report.degenerate_e > 0
        assert calls == []

    @pytest.mark.parametrize("category, target, name, fake", TestFailureCategories.INJECTIONS,
                             ids=TestFailureCategories.INJECTION_IDS)
    def test_one_per_failure(self, monkeypatch, category, target, name, fake):
        monkeypatch.setattr(target, name, fake)
        calls = self.count_solutions(monkeypatch)
        report = roundtrip_check(TestFailureCategories.BOUNDS)
        assert {kind for _, kind, _ in report.failures} == {category}
        assert len(calls) == len(report.failures)
        assert [Solution(*fields) for fields in calls] == [sol for sol, _, _ in report.failures]


class TestSplitMix64:
    def test_known_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_randint_stays_in_range(self):
        rng = SplitMix64(123)
        draws = [rng.randint(-5, 5) for _ in range(2000)]
        assert min(draws) == -5 and max(draws) == 5


class TestSampleTuples:
    def test_deterministic(self):
        assert sample_tuples(3, 10, 50, seed=7) == sample_tuples(3, 10, 50, seed=7)
        assert sample_tuples(3, 10, 50, seed=7) != sample_tuples(3, 10, 50, seed=8)

    def test_constraints_and_count(self):
        tuples = sample_tuples(5, 6, 300, seed=0)
        assert len(tuples) == 300
        for t in tuples:
            assert t.p == 5 and t.q != 0
            assert t.satisfies_gcd_constraints()
            for v in (t.e, t.f, t.g, t.l, t.q, t.n, t.r):
                assert -6 <= v <= 6

    @staticmethod
    def drawn_in_order(p, limit, count, seed):
        """The sampler as specified: seven randint words per draw, in order."""
        rng = SplitMix64(seed)
        out = []
        while len(out) < count:
            e, f, g, l, q, n, r = (rng.randint(-limit, limit) for _ in range(7))
            if q and math.gcd(e, q) == math.gcd(l, q) == math.gcd(n, r) == 1:
                out.append(ParameterTuple(p, e, f, g, l, q, n, r))
        return out

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 12345678901234567890])
    def test_matches_in_order_draws(self, seed):
        # sample_tuples computes only the words a draw needs, out of order.
        for p in (2, 3, 5):
            for limit in (1, 2, 10, 30):
                assert sample_tuples(p, limit, 300, seed) == \
                    self.drawn_in_order(p, limit, 300, seed)

    def test_empty(self):
        assert sample_tuples(2, 5, 0, seed=0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_tuples(2, 0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_tuples(2, 5, -1, seed=0)


class TestIdentityFuzz:
    def test_p2_reference_run_is_clean(self):
        report = identity_fuzz(2, 20, 10000, seed=42)
        assert report.failures == []
        assert report.instances_checked == 10000
        assert report.consistent()

    def test_p7_reference_run_is_clean(self):
        report = identity_fuzz(7, 5, 1000, seed=1)
        assert report.failures == []
        assert report.instances_checked == 1000
        assert report.consistent()

    def test_counts_add_up(self):
        report = identity_fuzz(3, 8, 500, seed=9)
        assert report.solutions_found <= report.instances_checked
        assert report.decompose_success + len(report.failures) == report.solutions_found

    def test_reference_cost_budget(self):
        # The roundtrip-box workload's boxes, the README's p = 7 fuzz and the
        # largest p at limit 1, whose cost 128**3 is the budget exactly,
        # pass; p = 129 does not. (A p whose fuzz would not finish is
        # refused in a child, in test_cli.py.)
        assert oracle.MAX_REFERENCE_BITS == 128 ** 3
        for p, limit in ((2, 10), (3, 10), (7, 20), (128, 1)):
            assert identity_fuzz(p, limit, 1, seed=0).instances_checked == 1
        with pytest.raises(TooLarge, match="MAX_REFERENCE_BITS"):
            identity_fuzz(129, 1, 1, seed=0)
        assert identity_fuzz(1000000000000000003, 1, 0, seed=0).as_counts() == \
            SearchReport().as_counts()

    def test_matches_generate(self):
        # The fuzzer must exercise exactly the tuples sample_tuples yields.
        for t in sample_tuples(3, 6, 40, seed=4):
            try:
                sol = generate(t)
            except ZeroZ:
                continue
            assert sol.x ** 3 - sol.m * sol.y ** 3 == sol.z * sol.w

    def test_wrong_w_is_a_reference_failure(self, monkeypatch):
        monkeypatch.setattr(oracle, "closed_forms", _w_plus_one(parametrization.closed_forms))
        report = identity_fuzz(3, 4, 50, seed=5)
        assert report.solutions_found > 0
        assert report.decompose_success == 0
        assert {kind for _, kind, _ in report.failures} == {Failure.REFERENCE}
        assert {detail for _, _, detail in report.failures} == {"differs in w"}

    def test_wrong_y_alone_is_a_reference_failure(self, monkeypatch):
        real = oracle.closed_forms

        def y_plus_one(*t):
            x, y, z, m, w = real(*t)
            return x, y + 1, z, m, w

        monkeypatch.setattr(oracle, "closed_forms", y_plus_one)
        report = identity_fuzz(3, 4, 50, seed=5)
        assert report.solutions_found > 0
        assert report.decompose_success == 0
        assert {(kind, detail) for _, kind, detail in report.failures} == {
            (Failure.REFERENCE, "differs in y")}

    def test_builds_only_the_reference_solution(self, monkeypatch):
        # The generate side compares closed_forms' ints with the reference's
        # fields, so only generate_reference builds a Solution.
        built = []

        def counted(*fields):
            built.append(fields)
            return Solution(*fields)

        monkeypatch.setattr(parametrization, "Solution", counted)
        monkeypatch.setattr(oracle, "Solution", counted)
        report = identity_fuzz(3, 10, 500, seed=0)
        assert report.failures == []
        assert report.decompose_success == report.solutions_found > 400
        assert len(built) == report.solutions_found

    def test_reference_error_is_an_exception_failure(self, monkeypatch):
        def broken_reference(t):
            raise IdentityViolation("injected")

        monkeypatch.setattr(oracle, "generate_reference", broken_reference)
        report = identity_fuzz(3, 4, 50, seed=5)
        assert report.solutions_found == 50
        assert report.decompose_success == 0
        assert {kind for _, kind, _ in report.failures} == {Failure.EXCEPTION}
        assert {detail for _, _, detail in report.failures} == {
            "generate_reference: IdentityViolation: injected"}

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_degenerate_z_shift_is_caught(self, monkeypatch, p):
        # A z off by q**p in closed_forms' e == 0 branch, with x and w computed
        # from it (at e == 0, |q| == 1, so that is closed_forms at g + 1). The
        # identity, the line and norm relations and the paper's w bracket
        # all hold for such a solution; only the reference tells it apart.
        real = oracle.closed_forms
        monkeypatch.setattr(oracle, "closed_forms",
                            lambda p, e, f, g, *rest: real(p, e, f, g + (e == 0), *rest))
        report = identity_fuzz(p, 3, 300, seed=1)
        degenerate = [t for t in sample_tuples(p, 3, 300, seed=1) if t.e == 0 and eval_z(t)]
        assert len(degenerate) >= 20
        assert [t for t, _, _ in report.failures] == degenerate
        assert {(kind, detail) for _, kind, detail in report.failures} == {
            (Failure.REFERENCE, "differs in x, z, w")}
        assert report.consistent()
