"""Newton polyhedra of monomial ideals: hulls, membership, thresholds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct
from operator import le

import pytest

import fsing.newton
from fsing import (
    MonomialIdeal,
    integral_closure_power,
    jumping_candidates,
    lct_monomial,
    member,
    newton_hull,
    newton_ideal,
)
from fsing.errors import DegreeGuardError
from fsing.ring import ceil_div, exponent_antichain

from oracles import (
    closed_member_oracle,
    interior_member_oracle,
    lattice_region_oracle,
    newton_ideal_oracle,
    random_monomial_gens,
)


class TestMonomialIdeal:
    def test_antichain_normalization(self):
        a = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3), (4, 4)])
        assert set(a.generators) == {(2, 0), (0, 3)}

    def test_containment_and_arithmetic(self):
        a = MonomialIdeal(2, [(1, 0)])
        b = MonomialIdeal(2, [(0, 1)])
        assert set((a + b).generators) == {(1, 0), (0, 1)}
        assert (a * b).generators == ((1, 1),)
        assert a.contains((3, 2))
        assert not a.contains((0, 5))
        assert (a + b).contains_ideal(a * b)
        assert not (a * b).contains_ideal(a)

    def test_contains_ideal_matches_pairwise(self):
        # seed 25013, 1,500 pairs of ideals in 1-5 variables: the one sweep
        # against every generator of the other ideal tested with every
        # generator of this one; zero ideals and shared generators included
        rng = random.Random(25013)
        seen = {(n, want) for n in range(1, 6) for want in (True, False)}
        for _ in range(1500):
            n, top = rng.randint(1, 5), rng.choice([2, 4, 7])
            a, b = (MonomialIdeal(n, [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(0, 6))])
                    for _ in range(2))
            if rng.random() < 0.3:
                b = b + MonomialIdeal(n, a.generators[:1])
            want = all(any(all(map(le, g, h)) for g in a.generators) for h in b.generators)
            assert a.contains_ideal(b) == want, (a, b)
            seen.discard((n, want))
        assert not seen, seen

    def test_rejects_bad_exponents(self):
        for bad in ([(1.5, 0), (0, 2)], [(1, 0, 0)], [(-1, 2)], [(True, 1)], [(Fraction(2), 1)]):
            with pytest.raises(ValueError, match="bad exponent vector .* for 2 variables"):
                MonomialIdeal(2, bad)
        assert MonomialIdeal(2, [[2, 0], (0, 3)]).generators == ((0, 3), (2, 0))

    def test_power(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        cube = a.power(3)
        assert set(cube.generators) == {(6, 0), (4, 3), (2, 6), (0, 9)}
        assert a.power(0).is_unit()

    def test_power_guard_names_knob(self, monkeypatch):
        # (n//4 + 1)^2 pairs past MAX_BOX_POINTS = 9 means n >= 12; a
        # principal ideal's power is one product per step and is never refused
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 9)
        a = MonomialIdeal(2, [(1, 0), (0, 1)])
        assert len(a.power(11).generators) == 12
        refused = r"a\^12 forms more than newton\.MAX_BOX_POINTS = 9 .*refusing the power"
        with pytest.raises(DegreeGuardError, match=refused):
            a.power(12)
        assert MonomialIdeal(2, [(1, 2)]).power(10**9).generators == ((10**9, 2 * 10**9),)

    def test_power_guard_three_variables(self, monkeypatch):
        # (x, y, z) has the bounded facet x + y + z >= 1, so a^i has
        # C(i + 2, 2) generators: C(n//4 + 2, 2)^2 passes 100 from n = 16,
        # where the edge count (n//4 + 1)^2 refuses only from n = 40
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 100)
        a = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(a.power(15).generators) == 136
        assert a._hull is None  # a power the edge count passes builds no hull
        refused = r"a\^16 forms more than newton\.MAX_BOX_POINTS = 100 .*refusing the power"
        with pytest.raises(DegreeGuardError, match=refused):
            a.power(16)
        # the last squaring of a^16 forms more pairs than the cap
        assert len(a.power(8).generators) ** 2 > 100
        # (x, y) in three variables has no bounded facet: a^i has i + 1
        # generators and only the edge count applies
        b = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
        assert len(b.power(39).generators) == 40
        with pytest.raises(DegreeGuardError, match=r"a\^40 forms more than"):
            b.power(40)

    def test_unit_zero(self):
        assert MonomialIdeal.unit(3).is_unit()
        assert MonomialIdeal(2).is_zero()
        assert not MonomialIdeal(2, [(1, 1)]).is_unit()


class TestHull:
    def test_single_variable(self):
        P = newton_hull(MonomialIdeal(1, [(3,)]))
        assert P.facets == (((1,), 3),)

    def test_cusp_exponents(self):
        # conv((2,0),(0,3)) + orthant: single slanted facet 3u + 2w >= 6
        P = newton_hull(MonomialIdeal(2, [(2, 0), (0, 3)]))
        assert P.facets == (((3, 2), 6),)

    def test_maximal_ideal(self):
        P = newton_hull(MonomialIdeal(2, [(1, 0), (0, 1)]))
        assert P.facets == (((1, 1), 1),)

    def test_staircase_two_facets(self):
        # (x^3, xy, y^2): facets u + 2w >= 3 via (3,0),(1,1) and u + w >= 2 via (1,1),(0,2)
        P = newton_hull(MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)]))
        assert set(P.facets) == {((1, 2), 3), ((1, 1), 2)}

    def test_facets_valid_primitive_supported(self, rng):
        import math

        for _ in range(30):
            n = rng.randint(1, 3)
            gens = random_monomial_gens(rng, n, rng.randint(1, 4), 6)
            P = newton_hull(MonomialIdeal(n, gens))
            assert P.generators
            for w, c in P.facets:
                assert all(x >= 0 for x in w) and any(x > 0 for x in w)
                assert c > 0
                assert math.gcd(*w, c) == 1
                values = [sum(a * b for a, b in zip(w, g)) for g in P.generators]
                assert all(v >= c for v in values)
                assert c in values  # touches the hull

    def test_four_variable_hulls_complete(self, rng):
        # completeness, not only validity: a missing facet would let member()
        # accept points outside t*P(a)
        for _ in range(5):
            gens = random_monomial_gens(rng, 4, rng.randint(2, 4), 4)
            P = newton_hull(MonomialIdeal(4, gens))
            t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            for v in iproduct(range(0, 7, 2), repeat=4):
                assert member(P, v, t) == closed_member_oracle(gens, v, t), (gens, t, v)

    def test_zero_first_pivot(self):
        # the support (y^2 z, x z^2, x^2 y) puts a zero in the first pivot
        # of its 3x3 system, and a second zero below it
        rows = [[0, 2, 1], [0, 1, 2], [2, 1, 0]]
        assert fsing.newton._det(rows) == 6
        assert fsing.newton._det([[0, 2, 1], [1, 0, 2], [2, 1, 0]]) == 9
        assert fsing.newton._det([[0, 1], [0, 2]]) == 0
        P = newton_hull(MonomialIdeal(3, [(0, 2, 1), (1, 0, 2), (2, 1, 0)]))
        assert ((1, 1, 1), 3) in P.facets

    def test_closed_form_det_matches_bareiss(self):
        # small entries make singular matrices and zero pivots common; the
        # Leibniz sum over permutations is the independent reference
        def leibniz(rows):
            total = 0
            for perm in permutations(range(len(rows))):
                inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
                term = (-1) ** inversions
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                total += term
            return total

        rng = random.Random(23017)
        singular = 0
        for _ in range(800):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 6) for _ in range(n)] for _ in range(n)]
            want = leibniz(rows)
            assert fsing.newton._det(rows) == fsing.newton._bareiss(rows) == want, rows
            singular += not want
        assert singular >= 20, singular

    def test_hull_kept_on_the_ideal(self):
        a = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
        assert newton_hull(a) is newton_hull(a)
        fresh = MonomialIdeal(2, [(0, 2), (1, 1), (3, 0)])
        assert fresh == a
        assert newton_hull(fresh) is not newton_hull(a)
        assert newton_hull(fresh).facets == newton_hull(a).facets

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            newton_hull(MonomialIdeal.unit(2))
        with pytest.raises(ValueError):
            newton_hull(MonomialIdeal(2))


class TestMembership:
    @pytest.mark.parametrize("mode", ["closed", "interior"])
    def test_against_elimination_oracle(self, mode, rng):
        oracle = closed_member_oracle if mode == "closed" else interior_member_oracle
        for _ in range(25):
            n = rng.randint(1, 3)
            gens = random_monomial_gens(rng, n, rng.randint(1, 4), 6)
            P = newton_hull(MonomialIdeal(n, gens))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 9))
            for v in iproduct(range(0, 13, 3), repeat=n):
                assert member(P, v, t, mode) == oracle(gens, v, t)

    def test_interior_implies_closed(self, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            gens = random_monomial_gens(rng, n, 3, 5)
            P = newton_hull(MonomialIdeal(n, gens))
            t = Fraction(rng.randint(1, 8), rng.randint(1, 6))
            for v in iproduct(range(6), repeat=n):
                if member(P, v, t, "interior"):
                    assert member(P, v, t, "closed")

    def test_rejects_bad_exponents(self):
        # a half-integer once passed: (0.5, 0) + 1 clears every facet
        P = newton_hull(MonomialIdeal(2, [(2, 0), (0, 3)]))
        for bad in ((0.5, 0), (1,), (-1, 0), (False, 2)):
            with pytest.raises(ValueError, match="bad exponent vector .* for 2 variables"):
                member(P, bad)
        assert member(P, [1, 1]) and not member(P, (0, 0))


class TestNewtonIdeal:
    def test_known_values(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        # at t = 1 the shift by (1,1) puts x and y in: (2,1) and (1,2) clear 3u+2w >= 6
        assert set(newton_ideal(a, 1, "closed").generators) == {(1, 0), (0, 1)}
        assert newton_ideal(a, 1, "interior") == newton_ideal(a, 1, "closed")
        assert newton_ideal(a, Fraction(5, 6), "closed").is_unit()
        assert set(newton_ideal(a, Fraction(5, 6), "interior").generators) == {(1, 0), (0, 1)}
        # deeper in: closed at t = 11/6 needs 3u + 2w >= 6, the closure of a itself
        assert set(newton_ideal(a, Fraction(11, 6), "closed").generators) == {(2, 0), (1, 2), (0, 3)}

    def test_matches_box_oracle(self, rng):
        for _ in range(12):
            n = rng.randint(1, 2)
            gens = random_monomial_gens(rng, n, rng.randint(1, 3), 5)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            if t > 3:
                t = Fraction(3)
            for mode in ("closed", "interior"):
                got = set(newton_ideal(MonomialIdeal(n, gens), t, mode).generators)
                expect = set(newton_ideal_oracle(gens, t, mode, box=25))
                assert got == expect, (gens, t, mode)
        # three variables walk a two-dimensional prefix; exponents <= 2 and
        # t <= 2 keep every minimal generator inside the oracle's box of 5
        for _ in range(8):
            gens = random_monomial_gens(rng, 3, rng.randint(1, 3), 2)
            t = min(Fraction(rng.randint(1, 9), rng.randint(1, 6)), Fraction(2))
            for mode in ("closed", "interior"):
                got = set(newton_ideal(MonomialIdeal(3, gens), t, mode).generators)
                expect = set(newton_ideal_oracle(gens, t, mode, box=5))
                assert got == expect, (gens, t, mode)

    def test_monotone_in_t(self, rng):
        for _ in range(8):
            gens = random_monomial_gens(rng, 2, 3, 5)
            a = MonomialIdeal(2, gens)
            ts = sorted(Fraction(rng.randint(1, 10), rng.randint(1, 6)) for _ in range(3))
            for lo, hi in zip(ts, ts[1:]):
                assert newton_ideal(a, lo, "closed").contains_ideal(newton_ideal(a, hi, "closed"))
            for t in ts:
                assert newton_ideal(a, t, "closed").contains_ideal(newton_ideal(a, t, "interior"))

    def test_unit_input(self):
        assert newton_ideal(MonomialIdeal.unit(2), 5, "closed").is_unit()

    def test_kept_on_the_hull(self):
        # a repeat call returns the kept object, per (t, mode), and each kept
        # ideal is the one a fresh ideal, with a fresh hull, walks
        rng = random.Random(23029)
        differ = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            gens = random_monomial_gens(rng, n, rng.randint(1, 4), 4 if n == 4 else 6)
            a = MonomialIdeal(n, gens)
            ts = {Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(2)}
            kept = {(t, mode): newton_ideal(a, t, mode) for t in ts for mode in ("closed", "interior")}
            for (t, mode), ideal in kept.items():
                assert newton_ideal(a, t, mode) is ideal
                assert newton_ideal(MonomialIdeal(n, gens), t, mode) == ideal, (gens, t, mode)
            differ += any(kept[t, "closed"] != kept[t, "interior"] for t in ts)
        assert differ >= 30, differ


class TestClosurePowers:
    def test_known_closure(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert set(integral_closure_power(a, 1).generators) == {(2, 0), (1, 2), (0, 3)}

    def test_contains_plain_power(self, rng):
        for _ in range(10):
            gens = random_monomial_gens(rng, 2, 3, 4)
            a = MonomialIdeal(2, gens)
            n = rng.randint(1, 3)
            assert integral_closure_power(a, n).contains_ideal(a.power(n))

    def test_closure_of_power_members_scale(self, rng):
        # w in cl(a^n) iff w in n * P(a): cross-check against hull membership
        for _ in range(10):
            gens = random_monomial_gens(rng, 2, 3, 4)
            a = MonomialIdeal(2, gens)
            P = newton_hull(a)
            n = rng.randint(1, 3)
            cl = integral_closure_power(a, n)
            for v in iproduct(range(0, 14, 2), repeat=2):
                in_cl = cl.contains(v)
                in_scaled = all(sum(w[i] * v[i] for i in range(2)) >= n * c for w, c in P.facets)
                assert in_cl == in_scaled
        for _ in range(10):
            gens = random_monomial_gens(rng, 3, 3, 3)
            a = MonomialIdeal(3, gens)
            P = newton_hull(a)
            n = rng.randint(1, 4)
            cl = integral_closure_power(a, n)
            for v in iproduct(range(13), repeat=3):
                in_cl = cl.contains(v)
                in_scaled = all(sum(w[i] * v[i] for i in range(3)) >= n * c for w, c in P.facets)
                assert in_cl == in_scaled, (gens, n, v)

    def test_idempotent_like(self):
        # closure of the closure adds nothing at the same power
        a = MonomialIdeal(2, [(3, 0), (0, 2)])
        c1 = integral_closure_power(a, 1)
        assert integral_closure_power(c1, 1) == c1

    def test_edges(self):
        a = MonomialIdeal(2, [(2, 1)])
        assert integral_closure_power(a, 0).is_unit()
        assert integral_closure_power(MonomialIdeal.unit(2), 4).is_unit()
        assert integral_closure_power(MonomialIdeal(2), 2).is_zero()

    def test_one_generator_builds_no_box(self):
        # the box [0, 2400 * 2]^2 passes MAX_BOX_POINTS; a principal power is closed
        closure = integral_closure_power(MonomialIdeal(3, [(1, 2, 0)]), 2400)
        assert closure.generators == ((2400, 4800, 0),)


class TestThresholds:
    def test_lct_values(self):
        assert lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)])) == Fraction(5, 6)
        assert lct_monomial(MonomialIdeal(2, [(1, 0), (0, 1)])) == 2
        assert lct_monomial(MonomialIdeal(1, [(1,)])) == 1
        assert lct_monomial(MonomialIdeal(3, [(2, 2, 2)])) == Fraction(1, 2)

    def test_lct_is_first_jump(self, rng):
        for _ in range(10):
            gens = random_monomial_gens(rng, 2, 3, 5)
            a = MonomialIdeal(2, gens)
            jumps = jumping_candidates(a, 3)
            assert jumps and jumps[0] == lct_monomial(a)

    def test_cusp_jumps(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        got = jumping_candidates(a, 2)
        # classical list: a/2 + b/3 with a, b >= 1
        expect = sorted(
            {Fraction(i, 2) + Fraction(j, 3) for i in range(1, 5) for j in range(1, 7)
             if Fraction(i, 2) + Fraction(j, 3) <= 2}
        )
        assert list(got) == expect

    def test_maximal_ideal_jumps(self):
        got = jumping_candidates(MonomialIdeal(2, [(1, 0), (0, 1)]), 2)
        assert list(got) == [2]

    def test_principal_variable_jumps(self):
        got = jumping_candidates(MonomialIdeal(1, [(1,)]), 2)
        assert list(got) == [1, 2]

    def test_jumps_are_exactly_where_ideals_change(self, rng):
        for _ in range(6):
            gens = random_monomial_gens(rng, 2, 2, 4)
            a = MonomialIdeal(2, gens)
            t_max = Fraction(2)
            jumps = jumping_candidates(a, t_max)
            for t in jumps:
                assert newton_ideal(a, t, "closed") != newton_ideal(a, t, "interior")
            # on (lo, hi] the closed ideal is constant and equals interior(lo)
            for lo, hi in zip(jumps, jumps[1:]):
                mid = (lo + hi) / 2
                expected = newton_ideal(a, lo, "interior")
                assert newton_ideal(a, mid, "closed") == expected
                assert newton_ideal(a, hi, "closed") == expected
            # below the first jump everything is the unit ideal
            assert newton_ideal(a, jumps[0] / 2, "closed").is_unit()

    def test_jumps_exact_in_three_variables(self):
        # every critical value is some k/c over a facet (w, c); any t = k/c
        # up to t_max is returned exactly when closed and interior differ
        rng = random.Random(61)
        for _ in range(5):
            a = MonomialIdeal(3, random_monomial_gens(rng, 3, rng.randint(2, 4), 3))
            t_max = Fraction(rng.randint(3, 6), 2)
            jumps = set(jumping_candidates(a, t_max))
            values = {Fraction(k, c) for _, c in newton_hull(a).facets for k in range(1, int(t_max * c) + 1)}
            assert jumps <= values
            for t in values:
                assert (t in jumps) == (newton_ideal(a, t, "closed") != newton_ideal(a, t, "interior")), (a, t)

    @pytest.mark.parametrize(
        "gens, t_max, walks",
        [([(2, 0), (0, 3)], 2, 7), ([(5, 0, 1), (3, 1, 5), (1, 3, 2)], 2, 103), ([(1, 2, 0), (0, 1, 3), (2, 0, 2)], 3, 34)],
    )
    def test_one_walk_per_candidate(self, monkeypatch, gens, t_max, walks):
        # closed and interior were walked apart before: 14, 206 and 68 walks
        calls = []
        walk = fsing.newton._lattice_walk

        def counting(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(fsing.newton, "_lattice_walk", counting)
        jumping_candidates(MonomialIdeal(len(gens[0]), gens), t_max)
        assert len(calls) == walks

    def test_pruned_candidates_match_all_sums(self, monkeypatch):
        # the candidates each get one closed walk, in ascending order; they
        # must be those of the unpruned all-sums filter, guard errors included
        def all_sums(a, t_max):
            candidates = set()
            for w, c in newton_hull(a).facets:
                bounds = [ceil_div(t_max.numerator * c, t_max.denominator * wi) if wi else 0 for wi in w]
                fsing.newton._box_guard(bounds)
                sums = {0}
                for wi, b in zip(w, bounds):
                    sums = {s + wi * k for s in sums for k in range(1, b + 2)}
                candidates.update(t for t in (Fraction(k, c) for k in sums) if 0 < t <= t_max)
            return sorted(candidates)

        walked = []
        monkeypatch.setattr(fsing.newton, "_newton_walk", lambda P, t, mode: walked.append(t) or [])
        rng = random.Random(3030)
        guarded = 0
        for draw in range(320):
            n = rng.randint(1, 3)
            a = MonomialIdeal(n, random_monomial_gens(rng, n, rng.randint(1, 4), 6))
            t_max = Fraction(rng.randint(1, 30), rng.choice((1, 1, 2, 3, 7)))
            # a lowered cap makes the witness-box guard trip on some draws
            monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 5_000_000 if draw % 2 else 2_000)
            walked.clear()
            try:
                want = all_sums(a, t_max)
            except DegreeGuardError as exc:
                with pytest.raises(DegreeGuardError) as got:
                    jumping_candidates(a, t_max)
                assert str(got.value) == str(exc)
                guarded += 1
                continue
            assert jumping_candidates(a, t_max) == ()
            assert walked == want, (a, t_max)
        assert 20 <= guarded <= 200, guarded

    def test_delta_limit(self, rng):
        # closed(t) equals interior(t - d) once d undercuts the candidate gap
        for _ in range(10):
            gens = random_monomial_gens(rng, 2, 3, 4)
            a = MonomialIdeal(2, gens)
            t = Fraction(rng.randint(1, 8), rng.randint(1, 5))
            below = [r for r in jumping_candidates(a, t) if r < t]
            gap = (t - below[-1]) / 2 if below else t / 2
            assert newton_ideal(a, t, "closed") == newton_ideal(a, t - gap, "interior")


class TestLatticeWalk:
    def test_staircase_matches_region_oracle(self):
        # seeded rows <w, u> >= r with w >= 0 over boxes with lb > 0, in 1-4
        # variables; zero coefficients are common, so rows with w_last = 0
        # and r > 0 (feasible only past a prefix threshold) and empty regions
        # both turn up
        rng = random.Random(13013)
        seen = {"empty": 0, "flat_last": 0}
        for _ in range(600):
            n = rng.randint(1, 4)
            rows = [
                (tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)), rng.randint(-2, 14))
                for _ in range(rng.randint(1, 4))
            ]
            lb = [rng.randint(1, 3) for _ in range(n)]
            ub = [lo + rng.randint(0, (9, 6, 4)[min(n, 3) - 1]) for lo in lb[:-1]]
            top = max(lb[-1], *(r for _, r in rows))
            walk = fsing.newton._lattice_walk(rows, lb, ub)
            want = lattice_region_oracle(rows, lb, ub, top)
            assert exponent_antichain(walk) == want, (rows, lb, ub)
            for u in walk:
                assert all(lo <= x for lo, x in zip(lb, u)) and all(x <= hi for x, hi in zip(u, ub)), (rows, lb, ub, u)
                assert all(sum(wi * x for wi, x in zip(w, u)) >= r for w, r in rows), (rows, lb, ub, u)
            for u, v in zip(walk, walk[1:]):
                if u[:-2] == v[:-2]:
                    assert u[-2] < v[-2] and u[-1] > v[-1], (rows, lb, ub, walk)
            seen["empty"] += not want
            seen["flat_last"] += any(not w[-1] and r > 0 for w, r in rows)
        assert seen["empty"] >= 20 and seen["flat_last"] >= 100, seen

    def test_three_variable_walk_ends_at_a_full_fiber(self):
        # the full scan walks each x-fiber on its own; the walk may only cut
        # that scan short, and never changes its antichain
        rng = random.Random(23031)
        seen = {"cut": 0, "flat_last": 0, "infeasible_fiber": 0}
        for _ in range(600):
            rows = [
                (tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(3)), rng.randint(-2, 14))
                for _ in range(rng.randint(1, 4))
            ]
            lb = [rng.randint(0, 3) for _ in range(3)]
            ub = [lo + rng.randint(0, 6) for lo in lb[:-1]]
            fibers = [fsing.newton._lattice_walk(rows, [x, *lb[1:]], [x, ub[1]]) for x in range(lb[0], ub[0] + 1)]
            full = [u for fiber in fibers for u in fiber]
            walk = fsing.newton._lattice_walk(rows, lb, ub)
            assert walk == full[: len(walk)], (rows, lb, ub)
            assert exponent_antichain(walk) == exponent_antichain(full), (rows, lb, ub)
            seen["cut"] += len(walk) < len(full)
            seen["flat_last"] += any(not w[-1] and r > 0 for w, r in rows)
            seen["infeasible_fiber"] += any(not fiber for fiber in fibers) and bool(full)
        assert seen["cut"] >= 50 and seen["flat_last"] >= 100 and seen["infeasible_fiber"] >= 20, seen


class TestBoxGuard:
    def test_prefix_walk_names_knob(self):
        # four variables at t = 1 walk a 201^3 prefix, past MAX_BOX_POINTS
        a = MonomialIdeal(4, [(200, 0, 0, 0), (0, 200, 0, 0), (0, 0, 200, 0), (0, 0, 0, 200)])
        with pytest.raises(DegreeGuardError, match=r"newton\.MAX_BOX_POINTS = 5000000 "):
            newton_ideal(a, 1)
        with pytest.raises(DegreeGuardError, match=r"newton\.MAX_BOX_POINTS = 5000000 "):
            integral_closure_power(a, 2)

    def test_only_the_prefix_counts(self, monkeypatch):
        # (x^3, y^3, z^3) at t = 2: v + 1 in 2P means |v| >= 3, and the
        # prefix box is [0, 7]^2, 64 points
        a = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        cubics = tuple(sorted(v for v in iproduct(range(4), repeat=3) if sum(v) == 3))
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 64)
        assert newton_ideal(a, 2).generators == cubics
        # a's hull keeps the ideal just walked, so the guard needs a fresh ideal
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 63)
        with pytest.raises(DegreeGuardError, match=r"newton\.MAX_BOX_POINTS = 63 "):
            newton_ideal(MonomialIdeal(3, a.generators), 2)

    def test_jumping_witness_box_names_knob(self, monkeypatch):
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 10)
        with pytest.raises(DegreeGuardError, match=r"newton\.MAX_BOX_POINTS = 10 "):
            jumping_candidates(MonomialIdeal(2, [(2, 0), (0, 3)]), 4)
