"""Recovery pipeline: Bezout data, the exact divisions, and full round trips."""

import dataclasses
import hashlib
import math

import pytest

from zwform.decomposition import (
    DecompositionTrace,
    bezout_nonzero,
    decompose,
    line_coeffs,
    m_identities,
    residual_e,
    residual_g,
    residual_n,
    row_identities,
    row_prefix,
    split_u,
    trace_identities,
)
from zwform.errors import DegenerateE, NotCoprime, NotDivisible, NotTheoremGrade
from zwform.oracle import SearchBounds, enumerate_solutions
from zwform.parametrization import ParameterTuple, Solution, generate


class TestBezoutNonzero:
    def test_frozen(self):
        assert bezout_nonzero(-1, 5) == (-1, 0)
        assert bezout_nonzero(2, 5) == (-2, -1)
        assert bezout_nonzero(3, 5) == (2, 1)

    def test_zero_coefficient_adjusted(self):
        # The raw certificate for (3, 1) has a == 0; the returned pair must not.
        assert bezout_nonzero(3, 1) == (1, 2)

    def test_zero_z(self):
        assert bezout_nonzero(1, 0) == (1, 0)
        assert bezout_nonzero(-1, 0) == (-1, 0)
        with pytest.raises(NotCoprime):
            bezout_nonzero(2, 0)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            bezout_nonzero(4, 6)

    def test_contract_exhaustive(self):
        for v in range(-30, 31):
            for z in range(-30, 31):
                if v == 0 or math.gcd(v, z) != 1:
                    continue
                a, b = bezout_nonzero(v, z)
                assert a != 0
                assert a * v - b * z == 1


class TestLineCoeffs:
    def test_frozen(self):
        assert line_coeffs(2, 1, 1, 0) == (1, 2, 1, -1)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            line_coeffs(0, 1, 1, 0)
        with pytest.raises(ValueError):
            line_coeffs(1, 1, 0, 0)

    def test_offset_not_divisible(self):
        with pytest.raises(NotDivisible):
            line_coeffs(2, 0, 2, 1)

    def test_contract_exhaustive(self):
        for a in range(-12, 13):
            for c in range(-12, 13):
                if a == 0 or c == 0:
                    continue
                for b in range(-4, 5):
                    for d in range(-4, 5):
                        h = math.gcd(a, c)
                        if (d - b) % h:
                            continue
                        got_h, q, u, r = line_coeffs(a, b, c, d)
                        assert got_h == h > 0
                        assert (h * q, h * u) == (a, c)
                        assert math.gcd(q, u) == 1
                        assert b + h * r == d


class TestResiduals:
    def test_residual_e(self):
        assert residual_e(1, 2, 4, 5, 2) == -3
        with pytest.raises(NotDivisible):
            residual_e(1, 1, 4, 5, 2)

    def test_residual_g(self):
        assert residual_g(2, 4, -3, 2) == 0
        assert residual_g(-1, 2, 1, 3) == -3
        with pytest.raises(DegenerateE):
            residual_g(1, 1, 0, 2)

    def test_residual_n(self):
        assert residual_n(1, -3, 1, -1, 2, 2) == 1
        # p == 2 and e == 0 exercises the 0**0 convention in the tail term.
        assert residual_n(3, 0, 2, 1, 1, 2) == 1


class TestSplitU:
    def test_frozen(self):
        assert split_u(5, 3, 4) == (3, -1)
        assert split_u(1, 1, 2) == (1, 0)

    def test_unit_q_short_circuit(self):
        assert split_u(7, 3, 1) == (0, 7)
        assert split_u(7, 3, -1) == (0, -7)

    def test_degenerate(self):
        with pytest.raises(DegenerateE):
            split_u(5, 0, 2)

    def test_canonical_range_exhaustive(self):
        for q in [v for v in range(-8, 9) if abs(v) > 1]:
            for e in range(-10, 11):
                if math.gcd(e, q) != 1:
                    continue
                for u in range(-10, 11):
                    l, f = split_u(u, e, q)
                    assert 0 <= l < abs(q)
                    assert e * l + f * q == u


def _field_line(record):
    return " ".join(str(getattr(record, f.name)) for f in dataclasses.fields(record))


FROZEN_ROUNDTRIPS = [
    (
        Solution(2, -1, 2, 5, -1, 1),
        ParameterTuple(2, 1, 2, 5, 0, -1, -2, -1),
        DecompositionTrace(a=-1, b=0, c=-2, d=-1, h=1, u=-2, q=-1, r=-1,
                           e=1, l=0, f=2, g=5, n=-2),
    ),
    (
        Solution(2, 3, 1, 5, 4, 1),
        ParameterTuple(2, -3, 2, 0, 1, 2, 1, -1),
        DecompositionTrace(a=2, b=1, c=1, d=0, h=1, u=1, q=2, r=-1,
                           e=-3, l=1, f=2, g=0, n=1),
    ),
    (
        Solution(3, 2, 1, 3, 2, 2),
        ParameterTuple(3, 1, -1, -3, 0, -1, -1, 1),
        DecompositionTrace(a=-1, b=-1, c=1, d=0, h=1, u=1, q=-1, r=1,
                           e=1, l=0, f=-1, g=-3, n=-1),
    ),
]


class TestDecompose:
    @pytest.mark.parametrize("sol,expected_tuple,expected_trace", FROZEN_ROUNDTRIPS)
    def test_frozen_roundtrips(self, sol, expected_tuple, expected_trace):
        tup, trace = decompose(sol)
        assert tup == expected_tuple
        assert trace == expected_trace
        assert generate(tup) == sol

    def test_deterministic(self):
        sol = Solution(2, 3, 1, 5, 4, 1)
        assert decompose(sol) == decompose(sol)

    def test_degenerate_carries_partial(self):
        with pytest.raises(DegenerateE) as info:
            decompose(Solution(2, 3, 2, 1, 1, 5))
        partial = info.value.partial
        assert partial == {"a": 1, "b": 2, "c": 1, "d": 1, "h": 1,
                           "u": 1, "q": 1, "r": -1, "e": 0}

    def test_rejects_zero_component(self):
        with pytest.raises(NotTheoremGrade):
            decompose(Solution(2, 2, 1, 3, 4, 0))
        with pytest.raises(NotTheoremGrade):
            decompose(Solution(2, 1, 1, 0, 1, 1))

    def test_rejects_common_factor(self):
        with pytest.raises(NotTheoremGrade):
            decompose(Solution(2, 3, 6, 1, 1, -27))

    def test_rejects_identity_violation(self):
        with pytest.raises(NotTheoremGrade):
            decompose(Solution(2, 1, 2, 5, -1, 2))

    def test_first_failed_hypothesis_is_reported(self):
        # Nonzero is checked first, then coprimality, then the identity.
        with pytest.raises(NotTheoremGrade, match="must all be nonzero"):
            decompose(Solution(2, 2, 4, 0, 1, 5))
        with pytest.raises(NotTheoremGrade, match="pairwise coprime"):
            decompose(Solution(2, 2, 4, 1, 1, 5))

    def test_mini_sweep_roundtrip(self):
        degenerate = 0
        total = 0
        for p in (2, 3):
            for sol in enumerate_solutions(SearchBounds(p, 8, -8, 8)):
                total += 1
                try:
                    tup, trace = decompose(sol)
                except DegenerateE:
                    degenerate += 1
                    continue
                assert generate(tup) == sol
                assert tup.satisfies_gcd_constraints()
                assert all(trace_identities(sol, trace).values())
        assert total > 10000
        assert degenerate < total

    def test_canonical_choices_digest(self):
        # One SHA-256 over every (tuple, trace) of the mini-sweep box pins the
        # canonical extgcd and split_u choices in bulk. The literal predates
        # extgcd's tuple return and split_u's pow inverse, so the code it
        # checks did not compute it.
        digest = hashlib.sha256()
        count = 0
        for p in (2, 3):
            for sol in enumerate_solutions(SearchBounds(p, 8, -8, 8)):
                try:
                    tup, trace = decompose(sol)
                except DegenerateE:
                    continue
                count += 1
                digest.update(f"{_field_line(tup)} | {_field_line(trace)}\n".encode())
        assert count == 17080
        assert digest.hexdigest() == (
            "4b33a879e690500a52ae2961b016a1beaa4570281fe9b03352d3f673c4f167a9"
        )


class TestTraceIdentities:
    def test_all_true_on_frozen(self):
        for sol, _, trace in FROZEN_ROUNDTRIPS:
            checks = trace_identities(sol, trace)
            assert set(checks) == {
                "bezout_x", "bezout_y", "gcd_split", "line",
                "residual_e", "split_u", "residual_g", "residual_n",
            }
            assert all(checks.values())

    def test_union_of_row_and_m_relations(self):
        for sol, _, trace in FROZEN_ROUNDTRIPS:
            row = row_identities(sol.x, sol.y, sol.z, trace)
            assert list(row) == ["bezout_x", "bezout_y", "gcd_split", "line"]
            assert row == row_identities(sol.x, sol.y, sol.z, row_prefix(sol.p, sol.x, sol.y, sol.z))
            assert list(m_identities(sol, trace)) == [
                "residual_e", "split_u", "residual_g", "residual_n"]
            assert trace_identities(sol, trace) == {**row, **m_identities(sol, trace)}

    def test_detects_corruption(self):
        sol, _, trace = FROZEN_ROUNDTRIPS[0]
        bad = dataclasses.replace(trace, b=trace.b + 1)
        checks = trace_identities(sol, bad)
        assert not checks["bezout_x"]
