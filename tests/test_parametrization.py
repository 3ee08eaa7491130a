"""Closed forms: frozen examples, cross-checks, and algebraic properties."""

import collections
import dataclasses
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from zwform.decomposition import decompose
from zwform import exact_arith, parametrization
from zwform.errors import DegenerateE, NotCoprime, TooLarge, ZeroZ, ZwformError
from zwform.oracle import SearchBounds, enumerate_solutions, sample_tuples
from zwform.parametrization import (
    ParameterTuple,
    Solution,
    brahmagupta_compose,
    closed_forms,
    dickson_p2,
    eval_m,
    eval_y,
    eval_z,
    generate,
    generate_reference,
    is_theorem_grade,
    theorem_grade_flags,
)

PRIMES = (2, 3, 5, 7)


def constrained_tuples(p, limit):
    """Hypothesis strategy for tuples satisfying the coprimality constraints."""
    coords = st.integers(-limit, limit)
    raw = st.tuples(coords, coords, coords, coords,
                    st.integers(-limit, limit).filter(lambda q: q != 0),
                    coords, coords)
    return raw.filter(
        lambda c: math.gcd(c[0], c[4]) == 1
        and math.gcd(c[3], c[4]) == 1
        and math.gcd(c[5], c[6]) == 1
    ).map(lambda c: ParameterTuple(p, *c))


class TestDataclasses:
    def test_tuple_rejects_composite_p(self):
        with pytest.raises(ValueError):
            ParameterTuple(4, 1, 1, 1, 1, 1, 1, 1)

    def test_tuple_rejects_zero_q(self):
        with pytest.raises(ValueError):
            ParameterTuple(2, 1, 1, 1, 1, 0, 1, 1)

    def test_solution_rejects_composite_p(self):
        with pytest.raises(ValueError):
            Solution(6, 1, 1, 1, 1, 1)

    def test_gcd_constraints(self):
        assert ParameterTuple(2, 1, 1, 2, 1, 1, 1, 1).satisfies_gcd_constraints()
        assert not ParameterTuple(2, 2, 1, 1, 1, 2, 1, 1).satisfies_gcd_constraints()
        assert not ParameterTuple(2, 1, 1, 1, 2, 2, 1, 1).satisfies_gcd_constraints()
        assert not ParameterTuple(2, 1, 1, 1, 1, 1, 2, 2).satisfies_gcd_constraints()

    def test_identity_holds(self):
        assert Solution(2, -1, 2, 5, -1, 1).identity_holds()
        assert not Solution(2, -1, 2, 5, -1, 2).identity_holds()


class TestGenerateFrozen:
    def test_p2_example(self):
        sol = generate(ParameterTuple(2, 1, 1, 2, 1, 1, 1, 1))
        assert sol == Solution(2, -1, 2, 5, -1, 1)

    def test_p3_example(self):
        sol = generate(ParameterTuple(3, 1, 0, 1, 1, 1, 1, 0))
        assert sol == Solution(3, 1, 1, 2, -1, 1)

    def test_zero_e_uses_zero_to_the_zero(self):
        # e == 0 with p == 2 makes the y form hit 0**0, which must be 1.
        sol = generate(ParameterTuple(2, 0, 1, 1, 1, 1, 0, 1))
        assert sol == Solution(2, -2, 1, 3, 1, 1)

    def test_zero_z_raises(self):
        with pytest.raises(ZeroZ):
            generate(ParameterTuple(2, 1, 0, -1, 1, 1, 1, 0))

    def test_common_factor_e_q_raises(self):
        with pytest.raises(NotCoprime):
            generate(ParameterTuple(2, 2, 1, 1, 1, 2, 1, 1))

    def test_common_factor_l_q_raises(self):
        with pytest.raises(NotCoprime):
            generate(ParameterTuple(2, 1, 1, 1, 2, 2, 1, 1))


def outcome(call, *args):
    """call's result, or the type and message of the ZwformError it raises."""
    try:
        return call(*args)
    except ZwformError as exc:
        return type(exc), str(exc)


class TestClosedForms:
    """The int-level closed_forms against generate, which checks its input first."""

    def test_agrees_with_generate(self):
        seen = collections.Counter()
        for p in PRIMES:
            for t in sample_tuples(p, 2, 400, seed=p):
                # Scaling e or l by q breaks a coprimality constraint when |q| > 1.
                for u in (t, dataclasses.replace(t, e=t.e * t.q),
                          dataclasses.replace(t, l=t.l * t.q)):
                    want = outcome(generate, u)
                    kind = Solution if isinstance(want, Solution) else want[0]
                    seen[kind] += 1
                    if kind is NotCoprime:
                        # generate alone tests closed_forms' gcd precondition.
                        assert not (math.gcd(u.e, u.q) == math.gcd(u.l, u.q) == 1), u
                        continue
                    got = outcome(closed_forms, u.p, u.e, u.f, u.g, u.l, u.q, u.n, u.r)
                    assert (Solution(u.p, *got) if kind is Solution else got) == want, u
        assert seen[Solution] > 1000 and seen[ZeroZ] > 100 and seen[NotCoprime] > 100


class TestPowerBudget:
    """generate and the identity refuse a p-th power past MAX_POWER_BITS before taking it."""

    HUGE_P = 1000000000000000003

    def test_generate_refuses_before_closed_forms(self, monkeypatch):
        # e*l + f*q = 1025 has 11 bits: its cube has at least 30, past 20.
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", 20)
        calls = []
        real = parametrization.closed_forms

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(parametrization, "closed_forms", counted)
        for t in (ParameterTuple(3, 1024, 1, 1, 1, 1, 1, 1),
                  ParameterTuple(3, 1, 1, 1, 1024, 1, 1, 1)):
            with pytest.raises(TooLarge, match="MAX_POWER_BITS = 20"):
                generate(t)
        # TooLarge comes before NotCoprime: gcd(e, q) is 2 here.
        with pytest.raises(TooLarge):
            generate(ParameterTuple(3, 1024, 1, 1, 1, 2, 1, 1))
        assert calls == []
        assert generate(ParameterTuple(3, 1, 0, 1, 1, 1, 1, 0)) == Solution(3, 1, 1, 2, -1, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("sol", [Solution(3, 1025, 1, 1, 1, 1025**3 - 1),
                                     Solution(3, 1, 1025, 1, 1, 1 - 1025**3)], ids=["x", "y"])
    def test_identity_refuses_large_x_or_y(self, monkeypatch, sol):
        monkeypatch.setattr(exact_arith, "MAX_POWER_BITS", 20)
        for check in (Solution.identity_holds, theorem_grade_flags, is_theorem_grade):
            with pytest.raises(TooLarge, match="MAX_POWER_BITS = 20"):
                check(sol)

    def test_huge_p_is_refused_quickly(self):
        # At p = 10**18 + 3, 2**p has about 10**18 bits; |v| <= 1 would pass.
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            generate(ParameterTuple(self.HUGE_P, 2, 1, 1, 1, 1, 1, 1))
        for call in (decompose, is_theorem_grade):
            with pytest.raises(TooLarge):
                call(Solution(self.HUGE_P, 2, 1, 1, 1, 1))
        assert time.perf_counter() - start < 1


def assert_matches_reference(t):
    """generate(t) equals generate_reference(t), or both raise ZeroZ.

    Returns True when the tuple hit ZeroZ.
    """
    try:
        ref = generate_reference(t)
    except ZeroZ:
        with pytest.raises(ZeroZ):
            generate(t)
        return True
    assert generate(t) == ref, t
    return False


class TestReferenceGate:
    """The telescoped generate against the paper-literal sums."""

    def test_sampled_tuples(self):
        checked = zero_e = zero_z = 0
        for p in (2, 3, 5, 7, 11, 13):
            for limit in (1, 2, 5, 30):
                for t in sample_tuples(p, limit, 2500, seed=1000 * p + limit):
                    checked += 1
                    zero_e += t.e == 0
                    zero_z += assert_matches_reference(t)
        assert checked == 60000
        assert zero_e > 1000 and zero_z > 1000

    def test_tuples_recovered_from_box(self):
        checked = 0
        for p in (2, 3):
            for sol in enumerate_solutions(SearchBounds(p, 8, -8, 8)):
                try:
                    tup, _ = decompose(sol)
                except DegenerateE:
                    continue
                assert not assert_matches_reference(tup)
                checked += 1
        assert checked > 10000

    def test_large_p(self):
        t = ParameterTuple(101, 1000, 1, 1, 1, 1, 1, 1)
        assert generate(t) == generate_reference(t)


class TestDickson:
    def test_frozen(self):
        sol = dickson_p2(ParameterTuple(2, 1, 0, 1, 0, 1, 1, 0))
        assert sol == Solution(2, 0, 1, 1, -1, 1)

    def test_rejects_other_primes(self):
        with pytest.raises(ValueError, match="only defined for p == 2"):
            dickson_p2(ParameterTuple(3, 1, 0, 1, 0, 1, 1, 0))

    def test_agrees_with_generate_on_grid(self):
        vals = range(-2, 3)
        compared = 0
        for e in vals:
            for f in vals:
                for g in vals:
                    for l in vals:
                        for q in (-2, -1, 1, 2):
                            if math.gcd(e, q) != 1 or math.gcd(l, q) != 1:
                                continue
                            for n in vals:
                                for r in vals:
                                    if math.gcd(n, r) != 1:
                                        continue
                                    t = ParameterTuple(2, e, f, g, l, q, n, r)
                                    direct = dickson_p2(t)
                                    if direct.z == 0:
                                        with pytest.raises(ZeroZ):
                                            generate(t)
                                        continue
                                    assert generate(t) == direct
                                    compared += 1
        assert compared > 1000


class TestAlgebraicProperties:
    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_identity(self, p, data):
        t = data.draw(constrained_tuples(p, 12))
        if eval_z(t) == 0:
            return
        sol = generate(t)
        assert sol.x ** p - sol.m * sol.y ** p == sol.z * sol.w

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_line_relation(self, p, data):
        t = data.draw(constrained_tuples(p, 12))
        if eval_z(t) == 0:
            return
        sol = generate(t)
        u = t.e * t.l + t.f * t.q
        assert t.q * sol.x == -sol.z * t.r + u * sol.y

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_norm_relation(self, p, data):
        t = data.draw(constrained_tuples(p, 12))
        z = eval_z(t)
        u = t.e * t.l + t.f * t.q
        assert z * t.e == u ** p - eval_m(t) * t.q ** p

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_z_congruence_mod_q(self, p, data):
        # Every non-leading term of the z form carries a factor of q.
        t = data.draw(constrained_tuples(p, 12))
        lead = t.e ** (p - 1) * t.l ** p
        assert (eval_z(t) - lead) % t.q == 0

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.data())
    def test_y_decomposes_over_q(self, p, data):
        t = data.draw(constrained_tuples(p, 12))
        tail = t.e ** (p - 2) * t.l ** (p - 1) * t.r
        assert eval_y(t) == t.n * t.q + tail


class TestBrahmagupta:
    def test_frozen_example(self):
        assert brahmagupta_compose(2, 1, 3, 1, -1, 1) == (5, 5)
        # (2**2 + 1)(3**2 + 1) == 50 == 5**2 + 5**2
        assert (2 * 2 + 1 * 1) * (3 * 3 + 1 * 1) == 5 * 5 + 5 * 5

    def test_composition_identity_small(self):
        for m in range(-6, 7):
            for a in range(-4, 5):
                for q in range(-4, 5):
                    for b in range(-4, 5):
                        for r in range(-4, 5):
                            for sign in (1, -1):
                                big_a, big_q = brahmagupta_compose(a, q, b, r, m, sign)
                                lhs = (a * a - m * q * q) * (b * b - m * r * r)
                                assert big_a * big_a - m * big_q * big_q == lhs

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(-10**6, 10**6), st.sampled_from((1, -1)))
    def test_composition_identity_bigint(self, a, q, b, r, m, sign):
        big_a, big_q = brahmagupta_compose(a, q, b, r, m, sign)
        lhs = (a * a - m * q * q) * (b * b - m * r * r)
        assert big_a * big_a - m * big_q * big_q == lhs

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            brahmagupta_compose(1, 1, 1, 1, 2, 0)
        with pytest.raises(ValueError):
            brahmagupta_compose(1, 1, 1, 1, 2, 2)


class TestTheoremGrade:
    def test_accepts_good_solution(self):
        assert is_theorem_grade(Solution(2, -1, 2, 5, -1, 1))

    def test_rejects_zero_component(self):
        assert not is_theorem_grade(Solution(2, 2, 1, 3, 4, 0))

    def test_rejects_common_factor(self):
        assert not is_theorem_grade(Solution(2, 3, 6, 1, 1, -27))

    def test_rejects_identity_violation(self):
        assert not is_theorem_grade(Solution(2, 1, 2, 5, -1, 2))
