"""Brute-force enumeration, round-trip batches, and the seeded fuzzer."""

import dataclasses
import io
import math
import os

import pytest

from test_acceptance import A3_FAILURES, A4_FAILURES, A5_FAILURES, select_failures
from test_cli import search_report
from zwform import decomposition, oracle
from zwform.cli import _emit, _solution_record, run
from zwform.errors import NotDivisible, ZeroZ
from zwform.oracle import (
    SCAN_COUNTERS,
    Failure,
    SearchBounds,
    SearchReport,
    SplitMix64,
    enumerate_solutions,
    identity_fuzz,
    roundtrip_check,
    sample_tuples,
    stream_solutions,
)
from zwform.parametrization import Solution, generate, is_theorem_grade


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


class TestSearchBounds:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            SearchBounds(4, 5, -1, 1)

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
            assert is_theorem_grade(sol)
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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("bound", range(1, 9))
    @pytest.mark.parametrize("m_range", [(-9, -1), (-4, 5), (0, 0)],
                             ids=["negative", "holds_0", "only_0"])
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
        # A fake pool records what it is given and maps in process, so no
        # worker process starts however large jobs is.
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

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
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


def _shift_w(t):
    sol = generate(t)
    return dataclasses.replace(sol, w=sol.w + 1)


def _one_false(sol, trace):
    return {**decomposition.trace_identities(sol, trace), "line": False}


def _not_divisible(*args):
    raise NotDivisible("injected")


class TestFailureCategories:
    """Each round-trip failure class, injected, reaches exactly its acceptance gate."""

    GATES = {"A3": A3_FAILURES, "A4": A4_FAILURES, "A5": A5_FAILURES}

    @pytest.mark.parametrize("category, target, name, fake", [
        (Failure.CONSTRAINT, decomposition.ParameterTuple, "satisfies_gcd_constraints",
         lambda self: False),
        (Failure.REGENERATE, decomposition, "generate", _shift_w),
        (Failure.TRACE, oracle, "trace_identities", _one_false),
        (Failure.EXCEPTION, decomposition, "residual_e", _not_divisible),
    ], ids=["constraint", "regenerate", "trace", "exception"])
    def test_injected_failure_reaches_its_gate(self, monkeypatch, category, target, name, fake):
        monkeypatch.setattr(target, name, fake)
        report = roundtrip_check(SearchBounds(2, 4, -3, 3))
        assert report.solutions_found > 0
        assert report.failures
        assert {kind for _, kind, _ in report.failures} == {category}
        assert report.consistent()
        seen_by = {gate for gate, categories in self.GATES.items()
                   if select_failures([report], categories)}
        assert len(seen_by) == 1
        assert select_failures([report], self.GATES[seen_by.pop()]) == report.failures

    def test_every_category_has_a_gate(self):
        round_trip = {Failure.EXCEPTION, Failure.CONSTRAINT, Failure.REGENERATE, Failure.TRACE}
        assert A3_FAILURES | A4_FAILURES | A5_FAILURES == round_trip
        assert not (A3_FAILURES & A4_FAILURES or A3_FAILURES & A5_FAILURES
                    or A4_FAILURES & A5_FAILURES)


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

    def test_matches_generate(self):
        # The fuzzer must exercise exactly the tuples sample_tuples yields.
        for t in sample_tuples(3, 6, 40, seed=4):
            try:
                sol = generate(t)
            except ZeroZ:
                continue
            assert sol.x ** 3 - sol.m * sol.y ** 3 == sol.z * sol.w

    @pytest.mark.parametrize("broken", ["off_by_one", "not_divisible"])
    def test_bracket_failure_is_reported(self, monkeypatch, broken):
        # A wrong quotient and an inexact q**p division are one failure class.
        def fake_eval_w(t, z, y):
            if broken == "not_divisible":
                raise NotDivisible("bracket")
            return oracle.generate(t).w + 1

        monkeypatch.setattr(oracle, "eval_w", fake_eval_w)
        report = identity_fuzz(3, 4, 50, seed=5)
        assert report.solutions_found > 0
        assert report.decompose_success == 0
        assert {kind for _, kind, _ in report.failures} == {Failure.BRACKET}
        assert {detail for _, _, detail in report.failures} == {"failed: bracket divisibility"}
