"""Acceptance gate.

One test per criterion; each prints a single [An] PASS/FAIL line with its
elapsed time. Run `pytest tests/test_acceptance.py -v -s` to watch the
lines as they appear. Criteria with a time budget assert it.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from reference import brahmagupta_compose, dickson_p2
from zwform.cli import EX_OK, run
from zwform.oracle import Failure, SearchBounds, identity_fuzz, roundtrip_check, sample_tuples
from zwform.parametrization import ParameterTuple, eval_z, generate

SWEEP_PRIMES = (2, 3)
SWEEP_BOUND = 30
SWEEP_M = 50

# Independently measured with a throwaway brute-force script before this
# suite existed; a drift here means the enumeration itself changed.
EXPECTED_SWEEP_SOLUTIONS = {2: 1026904, 3: 1027320}

# The paper states p prime; the package takes any p >= 2. A8's boxes, as
# n: (bound, |m| limit, solutions, degenerate_e). The solution counts agree
# with a plain instance-by-instance count; the degenerate counts are the
# round trip's own, pinned so that a drift shows.
COMPOSITE_BOXES = {4: (12, 40, 108352, 2672), 6: (6, 100, 55976, 440)}
COMPOSITE_FUZZ = (4, 6, 8, 9)

# The round-trip failure categories each gate rejects. Every category the
# round trip reports belongs to one gate; tests/test_oracle.py injects each
# one and checks that exactly its gate sees it.
A3_FAILURES = {Failure.EXCEPTION, Failure.REGENERATE}
A4_FAILURES = {Failure.CONSTRAINT}
A5_FAILURES = {Failure.TRACE}


def select_failures(reports, categories):
    """The (subject, category, detail) entries of reports in categories."""
    return [entry for r in reports for entry in r.failures if entry[1] in categories]


def _verdict(name, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    if budget is None:
        print(f"[{name}] {status} {detail} ({elapsed:.1f}s)")
    else:
        print(f"[{name}] {status} {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")


@pytest.fixture(scope="module")
def sweep():
    """The A3/A4/A5 box: every solution with |x|,|y|,|z| <= 30, |m| <= 50.

    Split over every core; the reports do not depend on the number of jobs.
    """
    reports = {}
    start = time.perf_counter()
    jobs = os.cpu_count() or 1
    for p in SWEEP_PRIMES:
        reports[p] = roundtrip_check(SearchBounds(p, SWEEP_BOUND, -SWEEP_M, SWEEP_M), jobs)
    return reports, time.perf_counter() - start


def test_a1_identity_and_bracket_divisibility():
    budget = 30.0
    start = time.perf_counter()
    per_p = 10000
    checked = failures = 0
    for offset, p in enumerate((2, 3, 5, 7)):
        tuples = [
            t for t in sample_tuples(p, 20, per_p + 1000, seed=1000 + offset)
            if eval_z(t) != 0
        ][:per_p]
        assert len(tuples) == per_p
        for t in tuples:
            checked += 1
            sol = generate(t)
            if sol.x ** p - sol.m * sol.y ** p != sol.z * sol.w:
                failures += 1
                continue
            u = t.e * t.l + t.f * t.q
            uy = u * sol.y
            bracket = t.e * sol.y ** p
            for k in range(p):
                bracket += (math.comb(p, k) * sol.z ** (p - k - 1)
                            * (-t.r) ** (p - k) * uy ** k)
            qp = t.q ** p
            if bracket % qp != 0 or bracket // qp != sol.w:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < budget
    _verdict("A1", ok,
             f"identity and exact bracket division on {checked} tuples, "
             f"p in (2,3,5,7), {failures} failures", elapsed, budget)
    assert failures == 0
    assert elapsed < budget


def test_a2_quadratic_closed_forms_agree():
    budget = 30.0
    start = time.perf_counter()
    vals = range(-3, 4)
    compared = zero_z = mismatches = 0
    for q in (-3, -2, -1, 1, 2, 3):
        for e in vals:
            if math.gcd(e, q) != 1:
                continue
            for l in vals:
                if math.gcd(l, q) != 1:
                    continue
                for n in vals:
                    for r in vals:
                        if math.gcd(n, r) != 1:
                            continue
                        for f in vals:
                            for g in vals:
                                t = ParameterTuple(2, e, f, g, l, q, n, r)
                                direct = dickson_p2(t)
                                if direct.z == 0:
                                    zero_z += 1
                                    continue
                                compared += 1
                                if generate(t) != direct:
                                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and compared > 100000 and elapsed < budget
    _verdict("A2", ok,
             f"general and quadratic-only forms agree on {compared} tuples "
             f"({zero_z} zero-z skipped), {mismatches} mismatches", elapsed, budget)
    assert mismatches == 0
    assert compared > 100000
    assert elapsed < budget


def test_a3_every_box_solution_decomposes(sweep):
    budget = 300.0
    reports, elapsed = sweep
    total = sum(r.solutions_found for r in reports.values())
    degenerate = sum(r.degenerate_e for r in reports.values())
    hard = select_failures(reports.values(), A3_FAILURES)
    counts_ok = all(
        reports[p].solutions_found == EXPECTED_SWEEP_SOLUTIONS[p]
        and reports[p].consistent()
        for p in SWEEP_PRIMES
    )
    ok = not hard and counts_ok and elapsed < budget
    _verdict("A3", ok,
             f"{total} solutions in the box: all decompose and regenerate "
             f"({degenerate} degenerate), {len(hard)} hard failures", elapsed, budget)
    assert hard == []
    assert counts_ok
    assert elapsed < budget


def test_a4_recovered_tuples_satisfy_constraints(sweep):
    start = time.perf_counter()
    reports, _ = sweep
    offenders = select_failures(reports.values(), A4_FAILURES)
    audited = sum(r.decompose_success for r in reports.values())
    elapsed = time.perf_counter() - start
    _verdict("A4", not offenders,
             f"q != 0 and coprimality constraints on {audited} recovered tuples, "
             f"{len(offenders)} violations", elapsed)
    assert offenders == []


def test_a5_trace_identities_hold(sweep):
    start = time.perf_counter()
    reports, _ = sweep
    offenders = select_failures(reports.values(), A5_FAILURES)
    audited = sum(r.decompose_success for r in reports.values())
    elapsed = time.perf_counter() - start
    _verdict("A5", not offenders,
             f"all eight trace identities on {audited} decompositions, "
             f"{len(offenders)} violations", elapsed)
    assert offenders == []


def test_a6_composition_identity_exhaustive():
    budget = 60.0
    start = time.perf_counter()
    # int64 is exact here: |a*b + m*q*r| <= 8400, so every product stays
    # far below 2**63.
    vals = np.arange(-20, 21, dtype=np.int64)
    a = vals[:, None, None, None]
    b = vals[None, :, None, None]
    q = vals[None, None, :, None]
    r = vals[None, None, None, :]
    ab, ar, bq, qr = a * b, a * r, b * q, q * r
    a2, b2, q2, r2 = a * a, b * b, q * q, r * r
    checks = violations = 0
    for m in range(-20, 21):
        lhs = (a2 - m * q2) * (b2 - m * r2)
        for sign in (1, -1):
            big_a = ab + (sign * m) * qr
            big_q = ar + sign * bq
            violations += int(np.count_nonzero(big_a * big_a - m * (big_q * big_q) != lhs))
            checks += big_a.size

    # Tie the vectorized arithmetic to the scalar reference function.
    assert brahmagupta_compose(2, 1, 3, 1, -1, 1) == (5, 5)
    scalar_drift = 0
    for a_s in (-20, -7, 0, 3, 20):
        for b_s, q_s, r_s in ((-20, 20, 1), (5, -3, 17), (0, 11, -11)):
            for m_s in (-20, -1, 2, 20):
                for sign in (1, -1):
                    got = brahmagupta_compose(a_s, q_s, b_s, r_s, m_s, sign)
                    want = (a_s * b_s + sign * m_s * q_s * r_s,
                            a_s * r_s + sign * b_s * q_s)
                    if got != want:
                        scalar_drift += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and scalar_drift == 0 and checks == 2 * 41 ** 5 and elapsed < budget
    _verdict("A6", ok,
             f"composition identity on {checks} (a,b,q,r,m,sign) cases, "
             f"{violations} violations", elapsed, budget)
    assert violations == 0
    assert scalar_drift == 0
    assert checks == 2 * 41 ** 5
    assert elapsed < budget


def test_a7_parallel_search_byte_identical(tmp_path):
    start = time.perf_counter()
    identical = True
    for p in SWEEP_PRIMES:
        serial = tmp_path / f"p{p}_jobs1.jsonl"
        parallel = tmp_path / f"p{p}_jobs4.jsonl"
        for path, jobs in ((serial, "1"), (parallel, "4")):
            code = run([
                "search", "--p", str(p), "--bound", str(SWEEP_BOUND),
                "--m", f"-{SWEEP_M}..{SWEEP_M}", "--format", "json",
                "--jobs", jobs, "--out", str(path),
            ])
            assert code == EX_OK
        identical = identical and filecmp.cmp(serial, parallel, shallow=False)
        serial.unlink()
        parallel.unlink()
    elapsed = time.perf_counter() - start
    _verdict("A7", identical,
             f"search --jobs 4 output byte-identical to --jobs 1 for "
             f"p in {SWEEP_PRIMES}", elapsed)
    assert identical


def test_a8_composite_exponents():
    budget = 60.0
    start = time.perf_counter()
    jobs = os.cpu_count() or 1
    reports = {n: roundtrip_check(SearchBounds(n, bound, -m, m), jobs)
               for n, (bound, m, _, _) in COMPOSITE_BOXES.items()}
    fuzzes = {n: identity_fuzz(n, 10, 500, seed=0) for n in COMPOSITE_FUZZ}
    failures = sum(len(r.failures) for r in (*reports.values(), *fuzzes.values()))
    counts_ok = all(
        (reports[n].solutions_found, reports[n].degenerate_e) == (found, degenerate)
        and reports[n].consistent()
        for n, (_, _, found, degenerate) in COMPOSITE_BOXES.items()
    ) and all(f.instances_checked == 500 for f in fuzzes.values())
    elapsed = time.perf_counter() - start
    ok = failures == 0 and counts_ok and elapsed < budget
    _verdict("A8", ok,
             f"round trips at n in {tuple(COMPOSITE_BOXES)} and reference fuzz at "
             f"n in {COMPOSITE_FUZZ}, {failures} failures", elapsed, budget)
    assert failures == 0
    assert counts_ok
    assert elapsed < budget
