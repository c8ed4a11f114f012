"""The stabilizing chains: sigma (level sums or a Cartier step), its tails, tau."""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest

import fsing.newton
import fsing.nonfpure
from fsing import (
    Ideal,
    MonomialIdeal,
    Polynomial,
    PolyRing,
    QDivisor,
    RestrictionProblem,
    SigmaOptions,
    Triple,
    check_restriction,
    frobenius_root,
    is_sharply_fpure,
    is_strongly_fregular,
    newton_hull,
    newton_ideal,
    sigma,
    sigma_prime_n,
    sigma_step,
    tau_b,
    verify_monomial_theorem,
)
from fsing.errors import DegreeGuardError, NonconvergenceError
from fsing.nonfpure import _BinomialLane, _LatticeLane, _PolynomialLane, _ceil_mul, _lane, _lucas_floor
from fsing.ring import exponent_antichain, monomial_divides

from oracles import random_monomial_gens, random_poly_terms


def cusp_triple(p: int, coef=1) -> Triple:
    R = PolyRing(p, ["x", "y"])
    f = R.variable(0) ** 3 - R.variable(1) ** 2
    return Triple(R, QDivisor([(coef, f)]))


def maximal_ideal(R: PolyRing) -> Ideal:
    return Ideal(R, [R.variable(i) for i in range(R.nvars)])


def random_divisor(rng: random.Random, R: PolyRing) -> QDivisor:
    """One or two nonconstant entries of degree <= 3 per variable, with
    coefficients n/d for d <= 6 and n <= 2d."""
    entries = []
    count = rng.randint(1, 2)
    while len(entries) < count:
        f = R.from_terms(random_poly_terms(rng, R.nvars, R.p, 3, 3))
        if not f.is_constant():
            den = rng.randint(1, 6)
            entries.append((Fraction(rng.randint(1, 2 * den), den), f))
    return QDivisor(entries)


class TestTripleValidation:
    def test_unit_a_normalized(self):
        R = PolyRing(5, ["x"])
        T = Triple(R, a=MonomialIdeal.unit(1), t=2)
        assert T.a is None

    def test_zero_a_rejected(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ValueError):
            Triple(R, a=MonomialIdeal(1), t=1)

    def test_nonpositive_t_rejected(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ValueError):
            Triple(R, a=MonomialIdeal(1, [(1,)]), t=0)

    def test_divisor_ring_mismatch(self):
        R, S = PolyRing(5, ["x"]), PolyRing(5, ["y"])
        entry = QDivisor([(1, S.variable(0))])
        with pytest.raises(ValueError):
            Triple(R, entry)

    def test_divisor_rejects_bad_entries(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ValueError):
            QDivisor([(0, R.variable(0))])
        with pytest.raises(ValueError):
            QDivisor([(1, R.one())])
        with pytest.raises(ValueError):
            QDivisor([(-2, R.variable(0))])


class TestCuspChain:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_value_maximal_ideal(self, p):
        opts = SigmaOptions(e_max=3, probe=1 if p == 11 else 2)
        result = sigma(cusp_triple(p), opts)
        assert result.ideal == maximal_ideal(result.ideal.ring)
        assert result.iterations <= 3
        assert result.probe_stable

    def test_p13_four_levels(self):
        # digit-by-digit roots keep p^e = 13^4 (f^28560) within reach
        result = sigma(cusp_triple(13), SigmaOptions(e_max=4))
        assert result.ideal == maximal_ideal(result.ideal.ring)
        assert result.probe_stable

    def test_fixed_point(self):
        T = cusp_triple(5)
        result = sigma(T, SigmaOptions(e_max=3))
        assert sigma_step(result.ideal, T, SigmaOptions(e_max=3)) == result.ideal


class TestMixedTriple:
    def test_large_divisor_coefficients_fixed_point(self):
        # divisor coefficients 6 and 2 at p = 2 plus a^3: with every
        # non-coprime S-pair reduced, the chain's bases made 10,209
        # normal_form calls (10,098 zero) in more than 60 s; Gebauer-Moeller
        # pruning leaves 536, about 0.1 s
        R = PolyRing(2, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        D = QDivisor([(6, x**2 * y**3 + x + y), (2, x**2 * y**2 + x**2 * y + x * y)])
        T = Triple(R, D, MonomialIdeal(2, [(0, 2), (1, 1)]), 3)
        opts = SigmaOptions(e_max=2, probe=1)
        start = time.perf_counter()
        result = sigma(T, opts)
        assert time.perf_counter() - start < 10.0
        assert (len(result.ideal.groebner_basis()), result.iterations, result.e_max_used, result.probe_stable) == (5, 4, 3, True)
        assert sigma_step(result.ideal, T, opts) == result.ideal

    @pytest.mark.parametrize("p, e_max", [(5, 3), (7, 2)])
    def test_closure_rows_decide(self, p, e_max):
        # 1/2*(x^3 - y^2) with (x^2, y^3)^(1/2): at these levels the closure
        # factor cl(a^N), N = ceil((p^e - 1)/2), has a full box of more than
        # MAX_BOX_POINTS points, so only a walk that closes fibers decides it
        R = PolyRing(p, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        T = Triple(R, QDivisor([(Fraction(1, 2), x**3 - y**2)]), MonomialIdeal(2, [(2, 0), (0, 3)]), Fraction(1, 2))
        opts = SigmaOptions(e_max=e_max)
        start = time.perf_counter()
        result = sigma(T, opts)
        assert time.perf_counter() - start < 5.0
        assert sigma_step(result.ideal, T, opts) == result.ideal

    def test_p7_row_at_three_levels(self):
        # the same triple at p = 7, e_max = 3: the walks hold thousands of
        # points, and a pairwise minimal-element filter took 52 s on them;
        # the values below were recorded from that slow run, but for the one
        # level now evaluated: level 1 is R, which ends the step with no probe
        R = PolyRing(7, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        T = Triple(R, QDivisor([(Fraction(1, 2), x**3 - y**2)]), MonomialIdeal(2, [(2, 0), (0, 3)]), Fraction(1, 2))
        start = time.perf_counter()
        result = sigma(T, SigmaOptions(e_max=3))
        assert time.perf_counter() - start < 10.0
        assert (str(result.ideal), result.iterations, result.e_max_used, result.probe_stable) == ("(1)", 0, 1, True)


class TestFormalPowerSensitivity:
    @pytest.mark.parametrize("p", [2, 5])
    def test_variable_t_one_is_unit(self, p):
        R = PolyRing(p, ["x"])
        T = Triple(R, a=MonomialIdeal(1, [(1,)]), t=1)
        assert sigma(T).ideal.is_unit()
        assert is_sharply_fpure(T)

    @pytest.mark.parametrize("p", [2, 5])
    def test_pth_power_fractional_t_is_proper(self, p):
        R = PolyRing(p, ["x"])
        T = Triple(R, a=MonomialIdeal(1, [(p,)]), t=Fraction(1, p))
        result = sigma(T)
        assert str(result.ideal) == "(x)"
        assert not is_sharply_fpure(T)
        # the same numeric exponent on the smaller ideal behaves differently
        # (rounding happens before the root), and tau at any smaller exponent
        # is trivial, so the two chains genuinely separate
        assert tau_b(Triple(R, a=MonomialIdeal(1, [(p,)]), t=Fraction(1, p) - Fraction(1, 100))).is_unit()


class TestThresholdPairs:
    def test_p5(self):
        T = cusp_triple(5, Fraction(4, 5))
        assert sigma(T).ideal == maximal_ideal(T.ring)
        assert tau_b(cusp_triple(5, Fraction(79, 100))).is_unit()
        assert is_strongly_fregular(cusp_triple(5, Fraction(79, 100)))

    def test_p11(self):
        T = cusp_triple(11, Fraction(9, 11))
        opts = SigmaOptions(e_max=3, probe=1)
        assert sigma(T, opts).ideal == maximal_ideal(T.ring)
        assert tau_b(cusp_triple(11, Fraction(889, 1100))).is_unit()

    def test_tau_plateau_resumes(self):
        # partial sums sit at (x, y) for two levels before jumping to R
        T = cusp_triple(5, Fraction(79, 100))
        ring = T.ring
        f = T.divisor.entries[0][1]
        t = Fraction(79, 100)
        terms = [
            frobenius_root(Ideal(ring, [f ** _ceil_mul(t, 5**e)]), e) for e in (1, 2, 3)
        ]
        m = maximal_ideal(ring)
        assert terms[0] == m
        assert m.contains_ideal(terms[1])
        assert not m.contains_ideal(terms[2])
        assert tau_b(T).is_unit()


class TestLanesAgree:
    @staticmethod
    def lanes(T: Triple, J: Ideal, e_max: int):
        """The lattice lane with J's antichain, and the polynomial lane.  The
        tests compare their sums over the same levels 1..e_max, which agree
        whether or not those levels hold the whole step."""
        opts = SigmaOptions(e_max=e_max)
        state = exponent_antichain(g.leading_exponent() for g in J.generators)
        return _LatticeLane(T, opts), state, _PolynomialLane(T, opts)

    def test_step_cross_check(self, rng):
        for p in (2, 3, 5):
            R = PolyRing(p, ["x", "y"])
            for _ in range(6):
                gens = random_monomial_gens(rng, 2, 3, 4)
                t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                T = Triple(R, a=MonomialIdeal(2, gens), t=t)
                J = maximal_ideal(R) if rng.random() < 0.5 else Ideal.unit(R)
                lattice, state, forced = self.lanes(T, J, 3)
                assert forced.tail(J, 1, 3) == lattice.to_ideal(lattice.tail(state, 1, 3))
        # three variables walk a two-dimensional prefix in both lanes
        for p in (2, 3):
            R = PolyRing(p, ["x", "y", "z"])
            for _ in range(4):
                gens = random_monomial_gens(rng, 3, 3, 3)
                t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                T = Triple(R, a=MonomialIdeal(3, gens), t=t)
                J = maximal_ideal(R) if rng.random() < 0.5 else Ideal.unit(R)
                lattice, state, forced = self.lanes(T, J, 2)
                assert forced.tail(J, 1, 2) == lattice.to_ideal(lattice.tail(state, 1, 2)), (p, gens, t)

    def test_step_cross_check_repeated_regions(self, rng):
        # three variables at p = 2 with e_max >= 4: region keys recur across
        # levels, so (generator, level) pairs share walks
        R = PolyRing(2, ["x", "y", "z"])
        e_max = 4
        repeats = 0
        for _ in range(8):
            gens = random_monomial_gens(rng, 3, rng.randint(1, 3), 4)
            t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            T = Triple(R, a=MonomialIdeal(3, gens), t=t)
            # generators past p^e give regions with a lower corner lb > 0
            J = MonomialIdeal(3, random_monomial_gens(rng, 3, 2, 6)).to_ideal(R)
            lattice, state, forced = self.lanes(T, J, e_max)
            keys = [set(lattice.level(state, e)) for e in range(1, e_max + 1)]
            repeats += sum(len(k & later) for i, k in enumerate(keys) for later in keys[i + 1 :])
            assert forced.tail(J, 1, e_max) == lattice.to_ideal(lattice.tail(state, 1, e_max)), (gens, t)
            # and the whole chain from R, which walks the regions of every state
            limits = []
            for lane in (lattice, forced):
                x = lane.unit
                while (new := lane.tail(x, 1, e_max)) != x:
                    x = new
                limits.append(lane.to_ideal(x))
            assert limits[0] == limits[1], (gens, t)
        assert repeats

    def test_contains_matches_antichain_of_union(self):
        # seed 25011: ``contains`` sweeps the walked points of a level against
        # the state; it must equal the antichain of state and walked points
        # being the state.  States are drawn as above (unit, maximal, or a
        # random monomial ideal) and then followed down their chain, in 2, 3
        # and 4 variables, so both the staircase and the pairwise branch run
        rng = random.Random(25011)
        seen = {(n, want) for n in (2, 3, 4) for want in (True, False)}
        for _ in range(36):
            n, p = rng.choice((2, 3, 4)), rng.choice((2, 3))
            R = PolyRing(p, ["x", "y", "z", "w"][:n])
            gens = random_monomial_gens(rng, n, rng.randint(1, 3), 3 if n < 4 else 2)
            T = Triple(R, a=MonomialIdeal(n, gens), t=Fraction(rng.randint(1, 6), rng.randint(1, 4)))
            J = rng.choice((maximal_ideal(R), Ideal.unit(R), MonomialIdeal(n, random_monomial_gens(rng, n, 2, 5)).to_ideal(R)))
            lattice, state, _ = self.lanes(T, J, 2)
            for _ in range(4):
                for e in (1, 2):
                    level = lattice.level(state, e)
                    walked = list(chain.from_iterable(lattice._points([level])))
                    want = exponent_antichain([*state, *walked]) == state
                    assert lattice.contains(state, level) == want, (gens, T.t, state, e)
                    seen.discard((n, want))
                state = lattice.tail(state, 1, 2)
        assert not seen, seen

    def test_lattice_walk_guard_names_knob(self, monkeypatch):
        R = PolyRing(5, ["x", "y", "z"])
        T = Triple(R, a=MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]), t=2)
        # at e = 1 the lane walks the prefix box [0, 4]^2 from the unit ideal
        monkeypatch.setattr(fsing.newton, "MAX_BOX_POINTS", 24)
        with pytest.raises(DegreeGuardError, match="MAX_BOX_POINTS"):
            sigma(T, SigmaOptions(e_max=1))

    def test_full_chain_cross_check(self, rng):
        for p in (2, 3):
            R = PolyRing(p, ["x", "y"])
            for _ in range(4):
                gens = random_monomial_gens(rng, 2, 2, 3)
                t = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                T = Triple(R, a=MonomialIdeal(2, gens), t=t)
                opts = SigmaOptions(e_max=3, probe=1)
                fast = sigma(T, opts).ideal
                state = Ideal.unit(R)
                forced = _PolynomialLane(T, opts)
                for _ in range(opts.n_max):
                    new = forced.step(state)
                    if new == state:
                        break
                    state = new
                assert state == fast


class TestLatticeLaneKeys:
    def test_keys_and_boxes_match_ceil_formulas(self):
        # one lane per pair serves several states and levels, so kept facet
        # products are reused; every key and box must be the integer the ceil
        # formulas of the _LatticeLane docstring give
        rng = random.Random(13131)
        for _ in range(120):
            n, p = rng.randint(1, 3), rng.choice((2, 3, 5, 7))
            a = MonomialIdeal(n, random_monomial_gens(rng, n, rng.randint(1, 4), 6))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            lane = _LatticeLane(Triple(PolyRing(p, ["x", "y", "z"][:n]), a=a, t=t), SigmaOptions())
            hull = fsing.newton.newton_hull(a)
            maxima = [hull.coordinate_maximum(i) for i in range(n - 1)]
            for _ in range(4):
                draws = [tuple(rng.randint(0, 3 * p) for _ in range(n)) for _ in range(rng.randint(1, 5))]
                state = exponent_antichain(draws + [(0,) * n] * rng.randint(0, 1))
                e = rng.randint(1, 4)
                q = p**e
                N = -(-t.numerator * (q - 1) // t.denominator)
                want: dict = {}
                for g in state:
                    base = [q - 1 - gi for gi in g]
                    lb = [max(0, -(b // q)) for b in base]
                    r = [-(-(N * c - sum(vi * b for vi, b in zip(v, base))) // q) for v, c in hull.facets]
                    box = [max(lo, -(-(N * m - b) // q)) for lo, m, b in zip(lb, maxima, base)]
                    want.setdefault((*lb, *r), box)
                assert lane._summand(state, e) == want, (a, t, p, state, e)


class TestLatticeLaneWalks:
    """The lattice lane walks each region once per triple: the two heaviest
    monomial-battery pairs made 502 and 372 walks, one per (generator,
    level) pair, before regions were keyed and pruned to the minimal keys."""

    @pytest.mark.parametrize(
        "gens, t, p, opts, walks",
        [
            # (y z^4, x y^6, x^2 y^5 z^2, x^5 y z)^2 at p = 7
            ([(0, 1, 4), (1, 6, 0), (2, 5, 2), (5, 1, 1)], Fraction(2), 7, SigmaOptions(e_max=4, probe=2, n_max=30), 11),
            # (x z^5, x^3 y^4 z^3, x^6 y^5 z)^(16/9) at p = 2
            ([(1, 0, 5), (3, 4, 3), (6, 5, 1)], Fraction(16, 9), 2, SigmaOptions(e_max=12, probe=6, n_max=30), 7),
        ],
    )
    def test_walk_counts(self, monkeypatch, gens, t, p, opts, walks):
        calls = []
        walk = fsing.nonfpure._lattice_walk

        def counting(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(fsing.nonfpure, "_lattice_walk", counting)
        R = PolyRing(p, ["x", "y", "z"])
        a = MonomialIdeal(3, gens)
        result = sigma(Triple(R, a=a, t=t), opts)
        assert len(calls) == walks
        assert result.probe_stable
        assert result.ideal == newton_ideal(a, t, "closed").to_ideal(R)


class TestLatticePeriod:
    """A divisor-free triple with a lattice period steps exactly: past the
    lane's bound a level only repeats the region keys of the period before
    it, so summing more levels changes no step."""

    def test_more_levels_change_nothing(self):
        rng = random.Random(1818)
        newton_checked = p_divides = 0
        for _ in range(200):
            p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            a = MonomialIdeal(n, random_monomial_gens(rng, n, rng.randint(1, 3), 4))
            den = rng.randint(1, 12)
            t = Fraction(rng.randint(1, 2 * den), den)
            T = Triple(PolyRing(p, ["x", "y", "z"][:n]), a=a, t=t)
            lane = _LatticeLane(T, SigmaOptions())
            assert lane.order is not None
            state = lane.unit
            for _ in range(SigmaOptions().n_max):
                new = lane.tail(state, 1, lane.levels(state)[-1] + 7)
                assert new == lane.step(state), (p, a, t, state)
                if new == state:
                    break
                state = new
            result = sigma(T)
            assert (result.ideal, result.probe_stable) == (lane.to_ideal(state), True), (p, a, t)
            if t.denominator % p:
                assert result.ideal == newton_ideal(a, t, "closed").to_ideal(T.ring), (p, a, t)
                newton_checked += 1
            else:
                p_divides += 1
        assert newton_checked >= 100 and p_divides >= 20

    def test_top_reads_kept_products(self):
        # E against every product <v, g> computed afresh, on states that
        # mix generators a level has kept <v, g> for with unseen ones
        rng = random.Random(1919)
        fresh = 0
        for _ in range(200):
            p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            a = MonomialIdeal(n, random_monomial_gens(rng, n, rng.randint(1, 4), 6))
            den = rng.randint(1, 12)
            t = Fraction(rng.randint(1, 3 * den), den)
            lane = _LatticeLane(Triple(PolyRing(p, ["x", "y", "z"][:n]), a=a, t=t), SigmaOptions())
            seen = exponent_antichain(random_monomial_gens(rng, n, rng.randint(1, 3), 8))
            lane.level(seen, rng.randint(1, 3))
            state = exponent_antichain([*seen, *random_monomial_gens(rng, n, rng.randint(1, 3), 8)])
            fresh += any(g not in lane._rows for g in state)
            facets = newton_hull(a).facets
            tn, td = t.numerator, t.denominator
            rows = (tn * c + td * (c + sum(v) + sum(map(mul, v, g))) for g in state for v, c in facets)
            bound = max(chain(*state, rows))
            e = max(lane.v, 1)
            while p**e <= bound:
                e += 1
            assert lane.levels(state) == range(1, e + lane.order), (p, a, t, state)
            assert all(lane._rows[g][0] == (*g, *(sum(map(mul, v, g)) for v, _ in facets)) for g in state)
        assert fresh >= 100


class TestDigitProducts:
    """Each digit product prod f_i^{d_i} is formed once per triple: counted
    by ``Polynomial.__pow__`` calls, which the chains re-made at every level
    and state before products were kept per call (10 for the cusp sigma
    below, 18 for the restriction check).  The cusp plus x^2*y^2 keeps the
    polynomial lane; the binomial lane forms no power at all."""

    @staticmethod
    def count_powers(monkeypatch) -> list:
        calls = []
        power = Polynomial.__pow__

        def counting(f, n):
            calls.append(n)
            return power(f, n)

        monkeypatch.setattr(Polynomial, "__pow__", counting)
        return calls

    def test_cusp_chains_form_one_power(self, monkeypatch):
        # t = 1 has every digit p - 1 and no outside factor
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        T = Triple(R, QDivisor([(1, x**3 - y**2 + x**2 * y**2)]))
        cusp, cusp7 = cusp_triple(5), cusp_triple(7, Fraction(5, 6))
        calls = self.count_powers(monkeypatch)
        result = sigma(T, SigmaOptions(e_max=4, probe=2))
        assert calls == [4]
        assert result.ideal == maximal_ideal(T.ring) and result.probe_stable
        calls.clear()
        tau_b(T)
        assert len(calls) == 1
        # the cusp's sigma and its in-scope tau_b (ceil(5/6 * 7) < 7) step on
        # exponent antichains
        calls.clear()
        assert sigma(cusp, SigmaOptions(e_max=4, probe=2)).ideal == maximal_ideal(cusp.ring)
        assert tau_b(cusp7) == maximal_ideal(cusp7.ring)
        assert calls == []

    def test_restriction_forms_one_power_per_factor(self, monkeypatch):
        R = PolyRing(7, ["x", "y", "z"])
        x, y = R.variable(0), R.variable(1)
        B = QDivisor([(Fraction(5, 6), y**2 - x**3 + x**2 * y**2)])
        ambient = QDivisor([(1, R.variable(2)), *B.entries])
        calls = self.count_powers(monkeypatch)
        sigma(Triple(R, ambient))
        assert sorted(calls) == [5, 6]
        calls.clear()
        report = check_restriction(RestrictionProblem(R, 2, B))
        # two ambient factors, one restricted factor
        assert len(calls) == 3 and report.equal


class TestDriverSemantics:
    """Stopping, iteration and message semantics shared by the chains."""

    @staticmethod
    def fields(result):
        return str(result.ideal), result.iterations, result.e_max_used, result.probe_stable

    def test_cartier_chain_starts_at_member_one(self):
        # the period is 1: the chain compares member 1, level 1 of R, against
        # R itself; member 1 is already R, so the chain stops at n = 1 with
        # no probe
        assert self.fields(sigma(cusp_triple(5, Fraction(1, 2)))) == ("(1)", 0, 1, True)

    def test_window_one_without_probe(self):
        # the chain stops at its first repeat (a window of one); the Cartier
        # step of period 2 evaluates level 2 alone, while the level sums of
        # the full-sum chain run to e_max
        T = cusp_triple(5, Fraction(5, 6))
        opts = SigmaOptions(probe=0)
        assert self.fields(sigma(T, opts)) == ("(x, y)", 1, 2, True)
        assert TestChainStep.reference(T, opts) == ("(x, y)", 1, True, 4)

    def test_first_repeat_within_n_max(self):
        # the chain is R, (x, y), (x, y): fixed at n = 1 and seen at n = 2;
        # each step is level 1, the Cartier period, which also skips the probe
        assert self.fields(sigma(cusp_triple(5), SigmaOptions(n_max=2))) == ("(x, y)", 1, 1, True)

    def test_nonconvergence_messages(self):
        # the tau window is widened to 3 by the denominator 100 = 4 * 25; the
        # order 10 of 2 mod 11 passes n_max = 2, so that window is n_max + 1
        cases = [
            (tau_b, cusp_triple(5, Fraction(79, 100)), SigmaOptions(n_max=2),
             "test-ideal sum did not stabilize within 2 levels (window 3)"),
            (tau_b, cusp_triple(2, Fraction(7, 11)), SigmaOptions(n_max=2),
             "test-ideal sum did not stabilize within 2 levels (window 3)"),
            (sigma, cusp_triple(5), SigmaOptions(n_max=1),
             "chain did not stabilize within 1 iterations"),
            # p = 5 divides den = 5: level sums, the same message
            (sigma, cusp_triple(5, Fraction(4, 5)), SigmaOptions(n_max=1),
             "chain did not stabilize within 1 iterations"),
        ]
        for chain, T, opts, message in cases:
            with pytest.raises(NonconvergenceError) as exc:
                chain(T, opts)
            assert str(exc.value) == message


class TestChainStep:
    """The chain's step ends at the first level that contains the state, and
    the probe is skipped where its answer is proven."""

    @staticmethod
    def draw(rng: random.Random) -> tuple[Triple, SigmaOptions]:
        kind = rng.choice(("divisor", "monomial", "mixed"))
        R = PolyRing(rng.choice((2, 3, 5, 7)), ["x", "y"][: rng.randint(1, 2)])
        D = random_divisor(rng, R) if kind != "monomial" else None
        a, t = None, 1
        if kind != "divisor":
            a = MonomialIdeal(R.nvars, random_monomial_gens(rng, R.nvars, rng.randint(1, 2), 3))
            t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        return Triple(R, D, a, t), SigmaOptions(e_max=rng.randint(1, 4), probe=rng.randint(0, 3))

    # levels past any lattice step of the draws below: keys there repeat
    LATTICE_DEPTH = 16

    @staticmethod
    def probe(lane, state, opts: SigmaOptions) -> bool:
        """Whether levels e_max + 1..e_max + probe add nothing to ``state``."""
        levels = range(opts.e_max + 1, opts.e_max + 1 + opts.probe)
        return all(lane.contains(state, lane.level(state, e)) for e in levels)

    @classmethod
    def reference(cls, T: Triple, opts: SigmaOptions) -> tuple[str, int, bool, int]:
        """The chain from full sums of levels 1..e_max, with the probe always run."""
        lane = _lane(T, opts)
        state = lane.unit
        for n in range(opts.n_max):
            new = lane.tail(state, 1, opts.e_max)
            if new == state:
                return str(lane.to_ideal(state)), n, cls.probe(lane, state, opts), lane.max_e_used
            state = new
        raise NonconvergenceError("reference chain did not stabilize")

    def test_matches_full_sum_chain(self):
        # ideal, iterations and probe_stable are those of the full-sum chain
        # with its probe; only the levels evaluated may fall.  A Cartier
        # period e0 steps by level e0 alone, the exact value: it matches the
        # full sums at e_max >= e0 in no more iterations, proven, at level e0.
        # A lattice period sums every level that can change the step: it
        # matches the full sums at the fixed depth LATTICE_DEPTH, proven
        rng = random.Random(99)
        decided = fewer = 0
        for _ in range(120):
            T, opts = self.draw(rng)
            lane = _lane(T, opts)
            e0 = lane.cartier
            if isinstance(lane, _LatticeLane):
                ref_opts = replace(opts, e_max=self.LATTICE_DEPTH)
            else:
                ref_opts = opts if e0 is None else replace(opts, e_max=max(opts.e_max, e0))
            try:
                ideal, n, stable, e_max = self.reference(T, ref_opts)
            except (NonconvergenceError, DegreeGuardError):
                continue
            result = sigma(T, opts)
            if not lane.exact:
                assert (str(result.ideal), result.iterations, result.probe_stable) == (ideal, n, stable), (T, opts)
                assert result.e_max_used <= e_max, (T, opts)
            elif isinstance(lane, _LatticeLane):
                assert (str(result.ideal), result.iterations, result.probe_stable) == (ideal, n, True), (T, opts)
                assert stable and result.e_max_used <= self.LATTICE_DEPTH, (T, opts)
            else:
                assert (str(result.ideal), result.probe_stable, result.e_max_used) == (ideal, True, e0), (T, opts)
                assert result.iterations <= n and stable, (T, opts)
            decided += 1
            fewer += result.e_max_used < e_max
        assert decided >= 100 and fewer

    def test_skipped_probe_would_pass(self):
        # divisor-only with a Cartier period e0, whatever e_max is: level
        # e + e0 of the fixed point is level e0 of level e, so every probe
        # level lies inside
        rng = random.Random(5103)
        checked = 0
        for _ in range(200):
            R = PolyRing(rng.choice((2, 3, 5, 7)), ["x", "y"][: rng.randint(1, 2)])
            T = Triple(R, random_divisor(rng, R))
            e0 = _lane(T, SigmaOptions()).cartier
            e_max = rng.randint(1, 4)
            if e0 is None:
                continue
            opts = SigmaOptions(e_max=e_max, probe=3)
            result = sigma(T, opts)
            assert result.probe_stable and result.e_max_used == e0
            lane = _lane(T, opts)
            assert self.probe(lane, lane.from_ideal(result.ideal), opts), T
            checked += 1
        assert checked >= 100

    def test_probe_still_fails_without_a_proof(self):
        # p = 2 divides den = 4, so there is no period and the probe runs; its
        # first level, 2, already adds to the truncated value
        R = PolyRing(2, ["x"])
        x = R.variable(0)
        T = Triple(R, QDivisor([(1, x), (Fraction(1, 4), x**3)]))
        result = sigma(T, SigmaOptions(e_max=1))
        assert (str(result.ideal), result.iterations, result.e_max_used, result.probe_stable) == ("(x^3)", 2, 2, False)

    @pytest.mark.parametrize("monomial", [False, True])
    def test_sigma_step_sums_every_level(self, monomial):
        # (x^2) is no chain member for x^(1/2) at p = 2: level 1 is (x), which
        # contains it, yet level 3 is R, so only the chain may stop at a cover
        R = PolyRing(2, ["x"])
        x = R.variable(0)
        if monomial:
            T = Triple(R, a=MonomialIdeal(1, [(1,)]), t=Fraction(1, 2))
        else:
            T = Triple(R, QDivisor([(Fraction(1, 2), x)]))
        J = Ideal(R, [x**2])
        lane = _lane(T, SigmaOptions())
        state = ((2,),) if monomial else J
        assert lane.covers(lane.level(state, 1), state)
        assert lane.chain_step(state) == state
        assert sigma_step(J, T).is_unit()

    def test_lattice_cover_matches_walk(self, rng):
        # the key test g >= lb, <v, g> >= r_v agrees with the walked level
        seen = set()
        for _ in range(40):
            n, p = rng.randint(1, 3), rng.choice((2, 3, 5))
            T = Triple(PolyRing(p, ["x", "y", "z"][:n]), a=MonomialIdeal(n, random_monomial_gens(rng, n, 2, 4)),
                       t=Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            lane = _LatticeLane(T, SigmaOptions())
            state = exponent_antichain(random_monomial_gens(rng, n, 3, 6))
            for e in (1, 2):
                level = lane.level(state, e)
                walked = lane.join([level])
                assert lane.covers(level, state) == (exponent_antichain([*walked, *state]) == walked)
                seen.add(lane.covers(level, state))
        assert seen == {True, False}


class TestTails:
    def test_cusp_tails_constant(self):
        T = cusp_triple(2)
        m = maximal_ideal(T.ring)
        wide = SigmaOptions(e_max=9)
        values = [sigma_prime_n(T, n, wide) for n in (1, 2, 3)]
        assert all(v == m for v in values)

    def test_tail_zero_starts_at_unit(self):
        T = cusp_triple(3)
        assert sigma_prime_n(T, 0).is_unit()

    def test_chain_value_inside_tails(self):
        # the stabilized chain lies in every truncated tail when the tail
        # window covers the composite levels (here 3 * chain e_max)
        for p in (2, 3, 5):
            T = cusp_triple(p, Fraction(4, 5) if p == 5 else 1)
            value = sigma(T, SigmaOptions(e_max=3)).ideal
            for n in (1, 2, 3):
                tail = sigma_prime_n(T, n, SigmaOptions(e_max=9))
                assert tail.contains_ideal(value)


class TestCartier:
    def test_period_values(self, monkeypatch):
        R5 = PolyRing(5, ["x", "y"])
        f5 = R5.variable(0) ** 3 - R5.variable(1) ** 2
        opts = SigmaOptions()
        assert _lane(Triple(R5, QDivisor([(Fraction(5, 6), f5)])), opts).cartier == 2
        assert _lane(cusp_triple(3), opts).cartier == 1  # integer coefficients
        # p divides a denominator: no period
        assert _lane(Triple(R5, QDivisor([(Fraction(4, 5), f5)])), opts).cartier is None
        # order exceeds the bound: 2 has order 20 mod 25
        R2 = PolyRing(2, ["x", "y"])
        f2 = R2.variable(0) ** 3 - R2.variable(1) ** 2
        assert _lane(Triple(R2, QDivisor([(Fraction(2, 25), f2)])), opts).cartier is None
        # the lane keeps that order from its one search, which a lattice lane
        # reads too: 12 = 2^2 * 3, and 2 has order 2 mod 3
        lane = _lane(Triple(R2, QDivisor([(Fraction(2, 25), f2)])), opts)
        assert (lane.v, lane.order, lane.cartier) == (0, 20, None)
        lane = _lane(Triple(R2, a=MonomialIdeal(2, [(2, 0), (0, 3)]), t=Fraction(5, 12)), opts)
        assert (type(lane), lane.v, lane.order, lane.cartier) == (_LatticeLane, 2, 2, None)
        monkeypatch.setattr(fsing.nonfpure, "MAX_CARTIER_PERIOD", 25)
        assert _lane(Triple(R2, QDivisor([(Fraction(2, 25), f2)])), opts).cartier == 20

    def test_truncation_past_the_cap_is_a_lower_bound(self, monkeypatch):
        # 2 has order 1018 mod 1019, past MAX_CARTIER_PERIOD: the level sums
        # give m*(f), flagged by the probe, inside the exact value (f) that
        # the Cartier step by level 1018 reaches once the cap allows it
        R = PolyRing(2, ["x", "y"])
        T = Triple(R, QDivisor([(Fraction(1500, 1019), R.variable(0) ** 3 - R.variable(1) ** 2)]))
        truncated = sigma(T)
        assert (str(truncated.ideal), truncated.probe_stable) == ("(x^4 + x*y^2, x^3*y + y^3)", False)
        monkeypatch.setattr(fsing.nonfpure, "MAX_CARTIER_PERIOD", 1018)
        start = time.perf_counter()
        exact = sigma(T)
        assert time.perf_counter() - start < 5.0
        assert (str(exact.ideal), exact.iterations, exact.e_max_used, exact.probe_stable) == ("(x^3 + y^2)", 1, 1018, True)
        assert exact.ideal.contains_ideal(truncated.ideal)

    def test_fast_chain_matches_sigma_on_cusp(self):
        # integer coefficients: period 1, so the chain steps by level 1
        for p in (2, 3, 5):
            T = cusp_triple(p)
            result = sigma(T, SigmaOptions(e_max=3))
            assert result.ideal == maximal_ideal(T.ring)
            assert (result.e_max_used, result.probe_stable) == (1, True)

    def test_fast_chain_matches_sigma_seeded(self):
        # divisor-only triples with a period e0: the full-sum chain with
        # e_max = max(4, 2 e0) reaches the value of the Cartier step, which
        # gets there in no more iterations
        rng = random.Random(5101)
        checked = 0
        for _ in range(180):
            p = rng.choice([2, 3, 5, 7])
            R = PolyRing(p, ["x", "y"][: rng.randint(1, 2)])
            T = Triple(R, random_divisor(rng, R))
            e0 = _lane(T, SigmaOptions()).cartier
            if e0 is None:
                continue
            ideal, n, stable, _ = TestChainStep.reference(T, SigmaOptions(e_max=max(4, 2 * e0), probe=max(2, e0)))
            result = sigma(T)
            assert (str(result.ideal), result.probe_stable, stable) == (ideal, True, True), T
            assert result.iterations <= n, T
            checked += 1
        assert checked >= 100

    def test_cartier_recursion_seeded(self):
        # member l + 1 is the level-e0 summand of member l, since
        # (I^[q] K)^[1/q] = I K^[1/q]: so the chain's first repeat is final
        rng = random.Random(5102)
        checked = 0
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7])
            R = PolyRing(p, ["x", "y"][: rng.randint(1, 2)])
            T = Triple(R, random_divisor(rng, R))
            lane = _lane(T, SigmaOptions())
            e0 = lane.cartier
            if e0 is None:
                continue
            member = lane.level(lane.unit, e0)
            for l in (1, 2):
                after = lane.level(lane.unit, (l + 1) * e0)
                assert after == lane.level(member, e0), (T, l)
                # sigma_step applies the same Cartier step on any ideal
                assert sigma_step(lane.to_ideal(member), T) == lane.to_ideal(lane.level(member, e0)), (T, l)
                member = after
            checked += 1
        assert checked >= 100

    def test_fast_chain_principal_variable(self):
        R = PolyRing(5, ["y"])
        T = Triple(R, QDivisor([(2, R.variable(0))]))
        result = sigma(T)
        assert str(result.ideal) == "(y)"


class TestBinomialLane:
    """The binomial lane against the polynomial lane, on draws as in ROADMAP
    item 14: p in {2, 3, 5, 7}, 1-3 variables, f = c1*x^A + c2*x^B with A, B
    in [0, 4]^n and some A_j - B_j prime to p, and c = min(a/b, 1) with
    a, b <= 6."""

    @staticmethod
    def draw(rng: random.Random) -> Triple:
        while True:
            p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            A, B = (tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(2))
            if any((a - b) % p for a, b in zip(A, B)):
                break
        R = PolyRing(p, ["x", "y", "z"][:n])
        f = R.from_terms({A: rng.randint(1, p - 1), B: rng.randint(1, p - 1)})
        return Triple(R, QDivisor([(min(Fraction(rng.randint(1, 6), rng.randint(1, 6)), Fraction(1)), f)]))

    def test_lucas_floor_matches_brute_force(self):
        # seed 2801: for each p and 40 drawn N < p^4, every h <= N against
        # the largest i <= h whose digits are each at most N's
        rng = random.Random(2801)
        for p in (2, 3, 5, 7):
            for N in [p**4 - 1, 0, *(rng.randrange(p**4) for _ in range(40))]:
                digits = [N // p**k % p for k in range(4)]
                best = 0
                for h in range(N + 1):
                    if all(h // p**k % p <= d for k, d in enumerate(digits)):
                        best = h
                    assert _lucas_floor(h, digits, p) == best, (p, N, h)

    def test_summands_match_polynomial_lane(self):
        # seed 2802: levels 1 and 2 from a random monomial state, and the
        # ascending summands where ceil(c p) < p, whether or not the triple
        # has a Cartier level
        rng = random.Random(2802)
        ascended = 0
        for _ in range(150):
            T = self.draw(rng)
            n = T.ring.nvars
            binomial, poly = _BinomialLane(T, SigmaOptions()), _PolynomialLane(T, SigmaOptions())
            state = exponent_antichain(random_monomial_gens(rng, n, rng.randint(1, 3), 6))
            for e in (1, 2):
                want = poly.level(binomial.to_ideal(state), e)
                assert binomial.to_ideal(binomial.level(state, e)) == want, (T, state, e)
                (c, _), p = T.divisor.entries[0], T.ring.p
                if _ceil_mul(c, p) < p:
                    assert binomial.to_ideal(binomial.ascend(e)) == poly.ascend(e), (T, e)
                    ascended += 1
        assert ascended >= 100

    def test_chains_match_polynomial_lane(self, monkeypatch):
        # seed 2803: every chain of an in-scope draw, against the same driver
        # with the binomial lane taken out of the lane table
        rng = random.Random(2803)
        results = []
        for _ in range(250):
            T = self.draw(rng)
            if not isinstance(_lane(T, SigmaOptions()), _BinomialLane):
                continue
            ascending = isinstance(_lane(T, SigmaOptions(), ascending=True), _BinomialLane)
            opts = SigmaOptions(e_max=rng.randint(1, 4), probe=rng.randint(0, 2))
            results.append((T, opts, ascending, sigma(T, opts), tau_b(T) if ascending else None))
        monkeypatch.setattr(fsing.nonfpure, "_LANES", fsing.nonfpure._LANES[1:])
        fields = lambda r: (r.ideal, r.iterations, r.e_max_used, r.probe_stable)
        for T, opts, ascending, got, got_tau in results:
            assert isinstance(_lane(T, opts), _PolynomialLane)
            assert fields(got) == fields(sigma(T, opts)), (T, opts)
            assert not ascending or got_tau == tau_b(T), T
        assert len(results) >= 200 and sum(r[2] for r in results) >= 50


class TestOneVariableOracle:
    """F_p[x] and D = sum c_i div(x^{k_i}) with p prime to every den(c_i):
    with c = sum c_i k_i and q = p^e0, the Cartier step sends (x^m) to
    (x^{floor((c(q - 1) + m)/q)}), whose first fixed point from m = 0 is
    ceil(c) - 1."""

    @staticmethod
    def oracle(p: int, entries: list[tuple[Fraction, int]]) -> tuple[int, int]:
        """(m, n): the exponent of the fixed point and the steps to reach it."""
        c = sum(coef * k for coef, k in entries)
        q = p
        while any((coef * (q - 1)).denominator != 1 for coef, _ in entries):
            q *= p
        m, n = 0, 0
        while (new := (c * (q - 1) + m) // q) != m:
            m, n = new, n + 1
        assert m == -(-c.numerator // c.denominator) - 1
        return m, n

    @staticmethod
    def triple(p: int, entries: list[tuple[Fraction, int]]) -> Triple:
        R = PolyRing(p, ["x"])
        return Triple(R, QDivisor([(coef, R.variable(0) ** k) for coef, k in entries]))

    def test_seeded(self):
        rng = random.Random(1717)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            entries = []
            for _ in range(rng.randint(1, 3)):
                den = rng.choice([d for d in range(1, 10) if d % p])
                entries.append((Fraction(rng.randint(1, 2 * den), den), rng.randint(1, 3)))
            m, n = self.oracle(p, entries)
            T = self.triple(p, entries)
            result = sigma(T)
            assert result.ideal == Ideal(T.ring, [T.ring.variable(0) ** m]), (p, entries)
            assert (result.iterations, result.probe_stable) == (n, True), (p, entries)

    @pytest.mark.parametrize(
        "entries, opts, m, full_sums",
        [
            # at the default e_max = 4 the level sums stop short, probe-stable
            ([(Fraction(8, 7), 1), (Fraction(6, 7), 1)], SigmaOptions(), 1, ("(x^2)", 2, True, 6)),
            # at e_max = 1 the level sums stop short, and their probe fails
            ([(Fraction(3, 2), 1), (Fraction(8, 5), 3)], SigmaOptions(e_max=1), 6, ("(x^7)", 3, False, 2)),
        ],
    )
    def test_pins_at_p3(self, entries, opts, m, full_sums):
        T = self.triple(3, entries)
        result = sigma(T, opts)
        assert (result.ideal, result.probe_stable) == (Ideal(T.ring, [T.ring.variable(0) ** m]), True)
        # the one step sigma iterates leaves its exact value fixed
        assert sigma_step(result.ideal, T, opts) == result.ideal
        assert self.oracle(3, entries)[0] == m
        assert TestChainStep.reference(T, opts) == full_sums


class TestTau:
    def test_monomial_values(self):
        R = PolyRing(5, ["x"])
        a = MonomialIdeal(1, [(1,)])
        assert tau_b(Triple(R, a=a, t=Fraction(1, 2))).is_unit()
        assert str(tau_b(Triple(R, a=a, t=1))) == "(x)"
        assert str(tau_b(Triple(R, a=a, t=Fraction(3, 2)))) == "(x)"
        assert str(tau_b(Triple(R, a=a, t=2))) == "(x^2)"

    def test_ascending_partial_sums(self):
        # every level's summand stays inside the final value
        T = cusp_triple(3, Fraction(1, 2))
        total = tau_b(T)
        ring = T.ring
        f = T.divisor.entries[0][1]
        for e in (1, 2, 3, 4):
            term = frobenius_root(Ideal(ring, [f ** _ceil_mul(Fraction(1, 2), 3**e)]), e)
            assert total.contains_ideal(term)

    def test_polynomial_summands_ascend(self):
        # the e-th summand lies in the (e+1)-th, so tau_b advances summand
        # by summand instead of summing
        rng = random.Random(6203)
        mixed = 0
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            R = PolyRing(p, ["x", "y"][: rng.randint(1, 2)])
            a = None
            if rng.random() < 0.5:
                a = MonomialIdeal(R.nvars, random_monomial_gens(rng, R.nvars, rng.randint(1, 2), 3))
                mixed += 1
            T = Triple(R, random_divisor(rng, R), a, Fraction(rng.randint(1, 6), rng.randint(1, 4)))
            lane = _PolynomialLane(T, SigmaOptions())
            terms = [lane.ascend(e) for e in range(1, 5)]
            for lower, upper in zip(terms, terms[1:]):
                assert upper.contains_ideal(lower), T
        assert 0 < mixed < 60

    def test_lattice_summands_ascend(self, monkeypatch):
        # on divisor-free pairs too, and tau_b returns the last summand taken
        ascend, ascended = _LatticeLane.ascend, []

        def recorded(lane, e):
            ascended.append(ascend(lane, e))
            return ascended[-1]

        monkeypatch.setattr(_LatticeLane, "ascend", recorded)
        rng = random.Random(6211)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            nvars = rng.randint(1, 3)
            R = PolyRing(p, ["x", "y", "z"][:nvars])
            a = MonomialIdeal(nvars, random_monomial_gens(rng, nvars, rng.randint(1, 3), 4))
            T = Triple(R, a=a, t=Fraction(rng.randint(1, 8), rng.randint(1, 4)))
            lane = _LatticeLane(T, SigmaOptions())
            terms = [MonomialIdeal(nvars, ascend(lane, e)) for e in range(1, 5)]
            for lower, upper in zip(terms, terms[1:]):
                assert all(any(monomial_divides(h, w) for h in upper.generators) for w in lower.generators), T
            ascended.clear()
            assert tau_b(T) == lane.to_ideal(ascended[-1]), T

    def test_window_is_a_proof_without_p_in_den(self):
        # divisor-only, p not dividing den: ceil(t p^(e+e0)) is
        # t p^e (p^e0 - 1) + ceil(t p^e), so by (I^[q] K)^[1/q] = I K^[1/q]
        # summand e + e0 is the level-e0 summand of summand e, and e0 levels
        # without growth repeat forever.  Denominators divide p^e0 - 1 for a
        # drawn e0 <= 3; the polynomials have no constant term.
        rng = random.Random(6307)
        grew = 0
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            R = PolyRing(p, ["x", "y"][: rng.randint(1, 2)])
            q0 = p ** rng.randint(1, 3)
            dens = [d for d in range(1, q0) if (q0 - 1) % d == 0]
            entries = []
            count = rng.randint(1, 2)
            while len(entries) < count:
                f = R.from_terms({e: c for e, c in random_poly_terms(rng, R.nvars, p, 3, 4).items() if any(e)})
                if not f.is_constant():
                    d = rng.choice(dens)
                    entries.append((Fraction(rng.randint(1, 2 * d), d), f))
            T = Triple(R, QDivisor(entries))
            lane, poly = _lane(T, SigmaOptions(), ascending=True), _PolynomialLane(T, SigmaOptions())
            e0 = lane.cartier

            def ascend(e, then=0):
                # summand 0 is prod f_i^ceil(t_i), no monomial ideal, so the
                # polynomial lane takes it and its level-e0 summand
                lane_e = lane if e else poly
                summand = lane_e.ascend(e)
                return lane_e.to_ideal(lane_e.level(summand, then) if then else summand)

            for e in (0, 1, 2):
                summand = ascend(e + e0)
                assert summand == ascend(e, e0), (T, e)
                grew += summand != ascend(e + e0 - 1)
        assert grew >= 30

    def test_lattice_tau_builds_no_hull(self, monkeypatch):
        # divisor-free tau_b takes plain-power roots only; the Newton hull is
        # built on first use by the descending chain, never here
        pairs = [
            (PolyRing(5, ["x", "y", "z"]), MonomialIdeal(3, [(1, 2, 0), (4, 0, 4), (0, 4, 1)]), Fraction(7, 4)),
            (PolyRing(3, ["x", "y"]), MonomialIdeal(2, [(2, 0), (0, 3)]), Fraction(5, 6)),
        ]
        wants = [newton_ideal(a, t, "interior").to_ideal(R) for R, a, t in pairs]

        def refuse(a):
            raise AssertionError("divisor-free tau_b built a Newton hull")

        monkeypatch.setattr(fsing.nonfpure, "newton_hull", refuse)
        for (R, a, t), want in zip(pairs, wants):
            assert tau_b(Triple(R, a=a, t=t)) == want

    def test_fregular_iff_tau_unit(self):
        assert is_strongly_fregular(cusp_triple(5, Fraction(1, 2)))
        assert not is_strongly_fregular(cusp_triple(5, 1))

    def test_nonconvergence_budget(self):
        T = cusp_triple(5)
        with pytest.raises(NonconvergenceError):
            tau_b(T, SigmaOptions(n_max=1))

    def test_hara_yoshida_battery(self):
        # tau_b of a monomial pair is its interior Newton ideal (Hara-Yoshida),
        # p-divisible denominators included
        rng = random.Random(4003)
        p_divides = 0
        for _ in range(120):
            p = rng.choice([2, 3, 5, 7])
            nvars = rng.randint(1, 3)
            a = MonomialIdeal(nvars, random_monomial_gens(rng, nvars, rng.randint(1, 3), 5))
            den = rng.randint(1, 9)
            t = Fraction(rng.randint(1, 3 * den), den)
            p_divides += t.denominator % p == 0
            R = PolyRing(p, ["x", "y", "z"][:nvars])
            assert tau_b(Triple(R, a=a, t=t)) == newton_ideal(a, t, "interior").to_ideal(R), (p, a, t)
        assert p_divides >= 10

    def test_three_variable_pins(self):
        R = PolyRing(7, ["x", "y", "z"])
        got = tau_b(Triple(R, a=MonomialIdeal(3, [(3, 5, 0), (4, 1, 6)]), t=2))
        want = [(6, 6, 4), (6, 7, 3), (6, 8, 1), (6, 9, 0), (7, 2, 10), (7, 3, 9), (7, 4, 7), (7, 5, 6)]
        assert got == MonomialIdeal(3, want).to_ideal(R)
        # the plain power a^{ceil(t p^e)} is never expanded, so this stays fast
        R = PolyRing(5, ["x", "y", "z"])
        a = MonomialIdeal(3, [(1, 2, 0), (4, 0, 4), (0, 4, 1)])
        start = time.perf_counter()
        got = tau_b(Triple(R, a=a, t=Fraction(7, 4)))
        assert time.perf_counter() - start < 1.0
        assert got == newton_ideal(a, Fraction(7, 4), "interior").to_ideal(R)


class TestProperties:
    def test_monotone_in_t(self):
        R = PolyRing(5, ["x", "y"])
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        small = sigma(Triple(R, a=a, t=Fraction(5, 6))).ideal
        large = sigma(Triple(R, a=a, t=Fraction(7, 6))).ideal
        assert small.contains_ideal(large)

    def test_monotone_in_divisor(self):
        T1 = cusp_triple(5, Fraction(4, 5))
        T2 = cusp_triple(5, 1)
        assert sigma(T1).ideal.contains_ideal(sigma(T2).ideal)

    def test_closure_insensitive(self):
        R = PolyRing(5, ["x", "y"])
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        b = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])  # adds a closure element
        for t in (Fraction(5, 6), 1, Fraction(11, 6)):
            assert sigma(Triple(R, a=a, t=t)).ideal == sigma(Triple(R, a=b, t=t)).ideal

    def test_step_monotone_in_input(self):
        T = cusp_triple(5)
        R = T.ring
        opts = SigmaOptions(e_max=3)
        big = sigma_step(Ideal.unit(R), T, opts)
        small = sigma_step(maximal_ideal(R), T, opts)
        assert big.contains_ideal(small)

    def test_fpure_iff_sigma_unit(self):
        cases = [
            cusp_triple(2),
            cusp_triple(5, Fraction(4, 5)),
            Triple(PolyRing(5, ["x"]), a=MonomialIdeal(1, [(1,)]), t=1),
            Triple(PolyRing(5, ["x"]), a=MonomialIdeal(1, [(5,)]), t=Fraction(1, 5)),
            Triple(PolyRing(3, ["x", "y"]), a=MonomialIdeal(2, [(1, 0), (0, 1)]), t=Fraction(3, 2)),
        ]
        for T in cases:
            assert is_sharply_fpure(T) == sigma(T).ideal.is_unit()

    def test_sigma_inside_closed_newton(self, rng):
        # containment holds even when p divides the exponent denominator
        for p, den in ((2, 2), (2, 6), (3, 6), (5, 5), (5, 6)):
            R = PolyRing(p, ["x", "y"])
            for _ in range(3):
                gens = random_monomial_gens(rng, 2, 3, 4)
                t = Fraction(rng.randint(1, 2 * den), den)
                a = MonomialIdeal(2, gens)
                T = Triple(R, a=a, t=t)
                value = sigma(T, SigmaOptions(e_max=4)).ideal
                closed = newton_ideal(a, t, "closed").to_ideal(R)
                assert closed.contains_ideal(value), (p, gens, t)


class TestMonomialTheorem:
    def test_cusp_exponents(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        report = verify_monomial_theorem(a, Fraction(5, 6), 5)
        assert report.equal
        assert report.ideal.is_unit()
        report2 = verify_monomial_theorem(a, Fraction(7, 6), 5)
        assert report2.equal
        assert str(report2.ideal) == "(x, y)"

    def test_rejects_p_dividing_denominator(self):
        a = MonomialIdeal(2, [(2, 0), (0, 3)])
        with pytest.raises(ValueError):
            verify_monomial_theorem(a, Fraction(5, 6), 2)

    def test_custom_variables(self):
        a = MonomialIdeal(1, [(2,)])
        report = verify_monomial_theorem(a, Fraction(1, 3), 2, variables=["u"])
        assert report.equal
        assert report.ideal.ring.variables == ("u",)

    def test_nontrivial_three_vars(self):
        a = MonomialIdeal(3, [(1, 1, 0), (0, 0, 2)])
        report = verify_monomial_theorem(a, Fraction(3, 2), 3)
        assert report.equal

    def test_equal_matches_groebner_comparison(self):
        # ``equal`` compares exponent antichains; the reduced Groebner bases
        # of both ideals must say the same.  A denominator 1000003, whose
        # order of 2 passes MAX_PERIOD, truncates the level sums at
        # a small e_max, so some draws are unequal.
        rng = random.Random(2020)
        verdicts = {True: 0, False: 0}
        for _ in range(240):
            p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
            a = MonomialIdeal(n, random_monomial_gens(rng, n, rng.randint(1, 4), 6))
            den = rng.choice((1000003, *(d for d in range(1, 10) if d % p)))
            t = Fraction(rng.randint(1, 2 * den), den)
            opts = SigmaOptions(e_max=rng.randint(1, 3), probe=0)
            report = verify_monomial_theorem(a, t, p, opts=opts)
            assert report.equal == (report.ideal == report.newton.to_ideal(report.ideal.ring)), (p, a, t, opts)
            verdicts[report.equal] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 5, verdicts

    def test_truncated_pair_is_unequal(self):
        # the order of 2 modulo 1000003 passes MAX_PERIOD, so one
        # level is summed: sigma = (x^5) against the Newton ideal (x^3)
        a = MonomialIdeal(1, [(3,)])
        report = verify_monomial_theorem(a, Fraction(1134505, 1000003), 2, opts=SigmaOptions(e_max=1, probe=0))
        assert not report.equal
        assert (str(report.ideal), report.newton.generators) == ("(x^5)", ((3,),))
