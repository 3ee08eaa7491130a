"""Recovery pipeline: Bezout data, the exact divisions, and full round trips."""

import dataclasses
import hashlib
import math

import pytest

import zwform
from zwform import decomposition, exact_arith, parametrization
from zwform.decomposition import (
    ROW_RELATIONS,
    DecompositionTrace,
    RowPrefix,
    bezout_nonzero,
    decompose,
    line_coeffs,
    m_fields,
    m_relations,
    residual_e,
    residual_g,
    residual_n,
    row_identities,
    row_prefix,
    split_u,
    trace_identities,
)
from zwform.errors import DegenerateE, NotCoprime, NotDivisible, NotTheoremGrade, TooLarge
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
        # m_fields returns None at e == 0 before it would divide by it.
        with pytest.raises(ZeroDivisionError):
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
        # e == 0 has no inverse modulo |q| > 1.
        with pytest.raises(ValueError):
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

    def test_degenerate_after_row_prefix(self):
        # The row part succeeds; e == 0 is met in the m step. At |q| == 1,
        # l is 0, and so is l**(p-1)*r.
        # m_fields returns None there, and decompose raises DegenerateE.
        prefix = row_prefix(2, 3, 2, 1)
        assert prefix == RowPrefix(1, 2, 1, 1, 1, 1, 1, -1, l=0, up=1, qp=1, lr=0)
        assert m_fields(2, (3, 2, 1, 1, 5), prefix) is None
        with pytest.raises(DegenerateE, match="is a p-th power up to sign"):
            decompose(Solution(2, 3, 2, 1, 1, 5))

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

    @pytest.mark.parametrize("sol", [Solution(3, 1025, 1, 1, 1, 1025**3 - 1),
                                     Solution(3, 1, 1025, 1, 1, 1 - 1025**3)], ids=["x", "y"])
    def test_refuses_large_x_or_y_before_row_prefix(self, monkeypatch, sol):
        # The solution is theorem grade, but under a 20-bit budget the cube
        # of 1025 (at least 30 bits) is refused by the identity check.
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", 20)
        calls = []
        monkeypatch.setattr(decomposition, "row_prefix", lambda *args: calls.append(args))
        with pytest.raises(TooLarge, match="MAX_POWER_BITS = 20"):
            decompose(sol)
        assert calls == []

    def test_row_prefix_refuses_large_x_or_y_first(self, monkeypatch):
        # decompose refuses such a row in its identity check; row_prefix
        # makes the same refusal before its Bezout pairs.
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", 20)
        calls = []
        with pytest.raises(TooLarge) as caught:
            row_prefix(3, 1025, 1, 1, bezout=lambda v, z: calls.append((v, z)))
        assert calls == []
        with pytest.raises(TooLarge) as refused:
            decompose(Solution(3, 1025, 1, 1, 1, 1025**3 - 1))
        assert str(caught.value) == str(refused.value)

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

    @pytest.mark.parametrize("bounds", [
        SearchBounds(2, 6, -6, 6), SearchBounds(3, 6, -6, 6),
        SearchBounds(5, 5, -10, 10), SearchBounds(7, 4, -10, 10),
    ], ids=["p2", "p3", "p5", "p7"])
    def test_stage_functions_rebuild_every_tuple(self, bounds):
        # decompose computes l and the row constants in row_prefix, not
        # through split_u, residual_e and residual_n. The exported stage
        # functions, with their signatures, must still rebuild its results.
        sols = []
        zwform.stream_solutions(bounds, sols.append)
        degenerate = 0
        for sol in sols:
            p, x, y, z, m = sol.p, sol.x, sol.y, sol.z, sol.m
            a, b = zwform.bezout_nonzero(x, z)
            c, d = zwform.bezout_nonzero(y, z)
            h, q, u, r = zwform.line_coeffs(a, b, c, d)
            e = zwform.residual_e(u, q, m, z, p)
            if e == 0:
                with pytest.raises(DegenerateE):
                    decompose(sol)
                degenerate += 1
                continue
            l, f = zwform.split_u(u, e, q)
            g = zwform.residual_g(f, m, e, p)
            n = zwform.residual_n(y, e, l, r, q, p)
            tup, trace = decompose(sol)
            assert tup == ParameterTuple(p, e, f, g, l, q, n, r), sol
            assert trace == DecompositionTrace(a, b, c, d, h, u, q, r, e, l, f, g, n), sol
            assert row_prefix(p, x, y, z).l == split_u(u, e, q)[0], sol
            assert all(zwform.trace_identities(sol, trace).values()), sol
        assert 0 < degenerate < len(sols)

    def test_m_fields_takes_three_gcds(self, monkeypatch):
        # gcd_constraints_hold takes gcd(e, q), gcd(l, q) and gcd(n, r); the
        # regenerate that follows does not take the first two again.
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return math.gcd(s, t)

        solved = 0
        for sol in enumerate_solutions(SearchBounds(3, 6, -6, 6)):
            prefix = row_prefix(sol.p, sol.x, sol.y, sol.z)
            if prefix.up == sol.m * prefix.qp:
                continue
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(parametrization, "gcd", counted)
                patch.setattr(decomposition, "gcd", counted)
                e, l, _, _, n = m_fields(sol.p, (sol.x, sol.y, sol.z, sol.m, sol.w), prefix)
            assert calls == [(e, prefix.q), (l, prefix.q), (n, prefix.r)], sol
            solved += 1
        assert solved > 1000

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
        for sol, tup, trace in FROZEN_ROUNDTRIPS:
            prefix = row_prefix(sol.p, sol.x, sol.y, sol.z)
            assert ROW_RELATIONS == ("bezout_x", "bezout_y", "gcd_split", "line", "powers")
            assert row_identities(sol.p, sol.x, sol.y, sol.z, prefix) == ()
            fields = (sol.x, sol.y, sol.z, sol.m, sol.w)
            found = m_fields(sol.p, fields, prefix)
            assert found == (tup.e, tup.l, tup.f, tup.g, tup.n)
            assert m_relations(sol.p, fields, prefix, found) == ()
            assert trace_identities(sol, trace) == dict.fromkeys(
                ["bezout_x", "bezout_y", "gcd_split", "line",
                 "residual_e", "split_u", "residual_g", "residual_n"], True)

    def test_m_relations_name_what_fails(self):
        sol, tup, _ = FROZEN_ROUNDTRIPS[1]
        prefix = row_prefix(sol.p, sol.x, sol.y, sol.z)
        fields = (sol.x, sol.y, sol.z, sol.m, sol.w)
        e, l, f, g, n = m_fields(sol.p, fields, prefix)
        assert m_relations(sol.p, fields, prefix, (e, l, f, g + 1, n)) == ("residual_g",)
        assert m_relations(sol.p, fields, prefix, (e, l, f + 1, g, n + 1)) == (
            "split_u", "residual_g", "residual_n")

    def test_powers_detects_a_corrupt_row_constant(self):
        sol = FROZEN_ROUNDTRIPS[1][0]
        prefix = row_prefix(sol.p, sol.x, sol.y, sol.z)
        for name in ("up", "qp", "lr"):
            bad = prefix._replace(**{name: getattr(prefix, name) + 1})
            assert row_identities(sol.p, sol.x, sol.y, sol.z, bad) == ("powers",)

    def test_row_identities_name_what_fails(self):
        sol = FROZEN_ROUNDTRIPS[1][0]
        prefix = row_prefix(sol.p, sol.x, sol.y, sol.z)
        bad = prefix._replace(b=prefix.b + 1, r=prefix.r + 1)
        assert row_identities(sol.p, sol.x, sol.y, sol.z, bad) == (
            "bezout_x", "gcd_split", "line", "powers")

    def test_detects_corruption(self):
        sol, _, trace = FROZEN_ROUNDTRIPS[0]
        bad = dataclasses.replace(trace, b=trace.b + 1)
        checks = trace_identities(sol, bad)
        assert not checks["bezout_x"]
