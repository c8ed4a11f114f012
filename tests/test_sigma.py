"""The stabilizing chains: sigma, its tails, the Cartier shortcut, tau."""

from __future__ import annotations

import random
import time
from fractions import Fraction

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
    cartier_period,
    check_restriction,
    frobenius_root,
    is_sharply_fpure,
    is_strongly_fregular,
    newton_ideal,
    sigma,
    sigma_fast_cartier,
    sigma_prime_n,
    sigma_step,
    tau_b,
    verify_monomial_theorem,
)
from fsing.errors import DegreeGuardError, NonconvergenceError
from fsing.nonfpure import _LatticeLane, _PolynomialLane, _ceil_mul
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
    def test_step_cross_check(self, rng):
        for p in (2, 3, 5):
            R = PolyRing(p, ["x", "y"])
            for _ in range(6):
                gens = random_monomial_gens(rng, 2, 3, 4)
                t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                T = Triple(R, a=MonomialIdeal(2, gens), t=t)
                opts = SigmaOptions(e_max=3)
                J = maximal_ideal(R) if rng.random() < 0.5 else Ideal.unit(R)
                fast = sigma_step(J, T, opts)
                forced = _PolynomialLane(T, opts)
                assert forced.step(J) == fast
        # three variables walk a two-dimensional prefix in both lanes
        for p in (2, 3):
            R = PolyRing(p, ["x", "y", "z"])
            for _ in range(4):
                gens = random_monomial_gens(rng, 3, 3, 3)
                t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                T = Triple(R, a=MonomialIdeal(3, gens), t=t)
                opts = SigmaOptions(e_max=2)
                J = maximal_ideal(R) if rng.random() < 0.5 else Ideal.unit(R)
                fast = sigma_step(J, T, opts)
                forced = _PolynomialLane(T, opts)
                assert forced.step(J) == fast, (p, gens, t)

    def test_step_cross_check_repeated_regions(self, rng):
        # three variables at p = 2 with e_max >= 4: region keys recur across
        # levels, so (generator, level) pairs share walks
        R = PolyRing(2, ["x", "y", "z"])
        repeats = 0
        for _ in range(8):
            gens = random_monomial_gens(rng, 3, rng.randint(1, 3), 4)
            t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            T = Triple(R, a=MonomialIdeal(3, gens), t=t)
            opts = SigmaOptions(e_max=4)
            # generators past p^e give regions with a lower corner lb > 0
            J = MonomialIdeal(3, random_monomial_gens(rng, 3, 2, 6)).to_ideal(R)
            lattice = _LatticeLane(T, opts)
            state = exponent_antichain(g.leading_exponent() for g in J.generators)
            keys = [set(lattice.level(state, e)) for e in range(1, opts.e_max + 1)]
            repeats += sum(len(k & later) for i, k in enumerate(keys) for later in keys[i + 1 :])
            fast = lattice.to_ideal(lattice.step(state))
            forced = _PolynomialLane(T, opts)
            assert forced.step(J) == fast, (gens, t, opts.e_max)
            # and the whole chain from R, which walks the regions of every state
            chain = Ideal.unit(R)
            while (new := forced.step(chain)) != chain:
                chain = new
            assert sigma(T, opts).ideal == chain, (gens, t, opts.e_max)
        assert repeats

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


class TestDigitProducts:
    """Each digit product prod f_i^{d_i} is formed once per triple: counted
    by ``Polynomial.__pow__`` calls, which the chains re-made at every level
    and state before products were kept per call (10 for the cusp sigma
    below, 18 for the restriction check)."""

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
        T = cusp_triple(5)
        calls = self.count_powers(monkeypatch)
        result = sigma(T, SigmaOptions(e_max=4, probe=2))
        assert calls == [4]
        assert result.ideal == maximal_ideal(T.ring) and result.probe_stable
        for chain in (tau_b, sigma_fast_cartier):
            calls.clear()
            chain(T)
            assert len(calls) == 1

    def test_restriction_forms_one_power_per_factor(self, monkeypatch):
        R = PolyRing(7, ["x", "y", "z"])
        x, y = R.variable(0), R.variable(1)
        B = QDivisor([(Fraction(5, 6), y**2 - x**3)])
        ambient = QDivisor([(1, R.variable(2)), *B.entries])
        calls = self.count_powers(monkeypatch)
        sigma(Triple(R, ambient))
        assert sorted(calls) == [5, 6]
        calls.clear()
        report = check_restriction(RestrictionProblem(R, 2, B))
        # two ambient factors, one restricted factor
        assert len(calls) == 3 and report.equal


class TestDriverSemantics:
    """Window, iteration and message semantics shared by the three chains."""

    @staticmethod
    def fields(result):
        return str(result.ideal), result.iterations, result.e_max_used, result.probe_stable

    def test_cartier_chain_starts_at_member_one(self):
        # member 1 is already R, but only member 1 against member 2 counts as
        # a repeat; the descending chain compares step(R) against R itself
        T = cusp_triple(5, Fraction(1, 2))
        assert self.fields(sigma_fast_cartier(T)) == ("(1)", 1, 5, True)
        assert self.fields(sigma(T)) == ("(1)", 0, 6, True)

    def test_window_one_without_probe(self):
        T = cusp_triple(5, Fraction(5, 6))
        opts = SigmaOptions(window=1, probe=0)
        assert self.fields(sigma(T, opts)) == ("(x, y)", 1, 4, True)
        assert self.fields(sigma_fast_cartier(T, opts)) == ("(x, y)", 1, 4, True)

    def test_nonconvergence_messages(self):
        # the tau window is widened to 3 by the denominator 100 = 4 * 25
        cases = [
            (tau_b, cusp_triple(5, Fraction(79, 100)), SigmaOptions(n_max=2),
             "test-ideal sum did not stabilize within 2 levels (window 3)"),
            (sigma, cusp_triple(5), SigmaOptions(n_max=1),
             "chain did not stabilize within 1 iterations (window 2)"),
            (sigma_fast_cartier, cusp_triple(5), SigmaOptions(n_max=1),
             "Cartier chain did not stabilize within 1 members (window 2)"),
        ]
        for chain, T, opts, message in cases:
            with pytest.raises(NonconvergenceError) as exc:
                chain(T, opts)
            assert str(exc.value) == message


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
        assert cartier_period(Triple(R5, QDivisor([(Fraction(5, 6), f5)]))) == 2
        assert cartier_period(cusp_triple(3)) == 1  # integer coefficients
        # p divides a denominator: no period
        assert cartier_period(Triple(R5, QDivisor([(Fraction(4, 5), f5)]))) is None
        # order exceeds the bound: 2 has order 20 mod 25
        R2 = PolyRing(2, ["x", "y"])
        f2 = R2.variable(0) ** 3 - R2.variable(1) ** 2
        assert cartier_period(Triple(R2, QDivisor([(Fraction(2, 25), f2)]))) is None
        monkeypatch.setattr(fsing.nonfpure, "MAX_CARTIER_PERIOD", 25)
        assert cartier_period(Triple(R2, QDivisor([(Fraction(2, 25), f2)]))) == 20

    def test_fast_chain_matches_sigma_on_cusp(self):
        for p in (2, 3, 5):
            T = cusp_triple(p)
            fast = sigma_fast_cartier(T)
            assert fast.ideal == maximal_ideal(T.ring)
            assert fast.probe_stable

    def test_fast_chain_matches_sigma_seeded(self):
        # divisor-only triples with a period e0: the descending chain with
        # e_max = max(4, 2 e0) reaches the Cartier chain's value
        rng = random.Random(5101)
        checked = 0
        for _ in range(180):
            p = rng.choice([2, 3, 5, 7])
            R = PolyRing(p, ["x", "y"][: rng.randint(1, 2)])
            T = Triple(R, random_divisor(rng, R))
            e0 = cartier_period(T)
            if e0 is None:
                continue
            opts = SigmaOptions(e_max=max(4, 2 * e0), probe=max(2, e0))
            assert sigma(T, opts).ideal == sigma_fast_cartier(T).ideal, T
            checked += 1
        assert checked >= 100

    def test_fast_chain_principal_variable(self):
        R = PolyRing(5, ["y"])
        T = Triple(R, QDivisor([(2, R.variable(0))]))
        result = sigma_fast_cartier(T)
        assert str(result.ideal) == "(y)"

    def test_fast_chain_requires_divisor_only(self):
        R = PolyRing(5, ["x"])
        T = Triple(R, a=MonomialIdeal(1, [(1,)]), t=1)
        with pytest.raises(ValueError):
            sigma_fast_cartier(T)

    def test_fast_chain_requires_period(self):
        T = cusp_triple(5, Fraction(4, 5))
        with pytest.raises(ValueError):
            sigma_fast_cartier(T)


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
