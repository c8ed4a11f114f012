"""Ring construction, polynomial arithmetic, and monomial orders."""

from __future__ import annotations

import random

import pytest

from fsing import Ideal, MonomialOrder, PolyRing, normal_form
from fsing.errors import RingMismatchError
from fsing.ring import _is_prime

from conftest import poly_from_dict, poly_to_dict
from oracles import naive_add, naive_mul, naive_pow, random_poly_terms


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 2**31 - 1):
            assert PolyRing(p, ["x"]).p == p

    def test_rejects_nonprimes(self):
        for p in (0, 1, 4, 6, 9, 100, -5):
            with pytest.raises(ValueError):
                PolyRing(p, ["x"])

    def test_primality_memoised(self):
        # the CLI builds a ring over 2^31 - 1 for every monomial ideal it parses
        PolyRing(2**31 - 1, ["x"])
        before = _is_prime.cache_info()
        PolyRing(2**31 - 1, ["x", "y"])
        after = _is_prime.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            PolyRing(2**31 + 11, ["x"])

    def test_inverse(self):
        R = PolyRing(101, ["x"])
        x = R.variable(0)
        for a in range(1, 101):
            assert (a * x + 1).monic().leading_coefficient() == 1


class TestRingConstruction:
    def test_variable_names_validated(self):
        with pytest.raises(ValueError):
            PolyRing(5, ["X"])
        with pytest.raises(ValueError):
            PolyRing(5, ["x", "x"])
        with pytest.raises(ValueError):
            PolyRing(5, [])
        PolyRing(5, ["x_1", "a9"])

    def test_order_permutation_checked(self):
        with pytest.raises(ValueError):
            PolyRing(5, ["x", "y"], MonomialOrder("badkind"))

    def test_drop_variable(self):
        R = PolyRing(5, ["x", "y", "z"])
        S = R.drop_variable(1)
        assert S.variables == ("x", "z")
        assert S.p == 5

    def test_cross_ring_arithmetic_rejected(self):
        R = PolyRing(5, ["x"])
        S = PolyRing(7, ["x"])
        with pytest.raises(RingMismatchError):
            R.variable(0) + S.variable(0)


class TestArithmetic:
    def _random_pair(self, rng, ring, p):
        a = random_poly_terms(rng, ring.nvars, p)
        b = random_poly_terms(rng, ring.nvars, p)
        return a, b

    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_add_mul_match_naive(self, p):
        rng = random.Random(2000 + p)
        R = PolyRing(p, ["x", "y", "z"])
        for _ in range(40):
            a, b = self._random_pair(rng, R, p)
            fa, fb = poly_from_dict(R, a), poly_from_dict(R, b)
            assert poly_to_dict(fa + fb) == naive_add(a, b, p)
            assert poly_to_dict(fa * fb) == naive_mul(a, b, p)
            assert poly_to_dict(fa - fa) == {}

    def test_ring_axioms_spot(self):
        rng = random.Random(7)
        R = PolyRing(7, ["x", "y"])
        for _ in range(25):
            f = poly_from_dict(R, random_poly_terms(rng, 2, 7))
            g = poly_from_dict(R, random_poly_terms(rng, 2, 7))
            h = poly_from_dict(R, random_poly_terms(rng, 2, 7))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    @pytest.mark.parametrize("p,n", [(2, 9), (3, 10), (5, 17), (7, 30)])
    def test_pow_matches_naive(self, p, n):
        rng = random.Random(100 * p + n)
        R = PolyRing(p, ["x", "y"])
        terms = random_poly_terms(rng, 2, p, max_terms=3, max_exp=2)
        f = poly_from_dict(R, terms)
        assert poly_to_dict(f**n) == naive_pow(terms, n, p, 2)

    def test_pow_freshman_dream(self):
        # (x + y)^(p^e) has exactly two terms in characteristic p
        R = PolyRing(5, ["x", "y"])
        f = R.variable(0) + R.variable(1)
        g = f**125
        assert poly_to_dict(g) == {(125, 0): 1, (0, 125): 1}

    def test_pow_large_exponent_fast(self):
        # base-p route must handle exponents far beyond naive reach
        R = PolyRing(5, ["x", "y"])
        f = R.variable(0) ** 2 + R.variable(1) ** 3
        g = f**3124  # 5^5 - 1
        assert g.total_degree() == 3 * 3124
        assert g.leading_coefficient() == 1

    def test_pow_edge_cases(self):
        R = PolyRing(5, ["x"])
        x = R.variable(0)
        assert (x**0) == R.one()
        assert R.zero() ** 0 == R.one()
        assert R.zero() ** 3 == R.zero()
        with pytest.raises(ValueError):
            x ** (-1)

    def test_frobenius_power(self):
        R = PolyRing(3, ["x", "y"])
        f = R.variable(0) + 2 * R.variable(1)
        assert f.frobenius_power(2) == f**9

    def test_substitute_zero(self):
        R = PolyRing(5, ["x", "y"])
        f = R.variable(0) ** 2 + R.variable(0) * R.variable(1) + R.variable(1) ** 3
        g = f.substitute_zero(0)
        assert g.ring.variables == ("y",)
        assert poly_to_dict(g) == {(3,): 1}
        # x_k -> 0 is a ring map: it commutes with + and *, including sums
        # whose image cancels and products with a multiple of x_k
        rng = random.Random(4111)
        for _ in range(120):
            p = rng.choice([2, 3, 5, 101])
            n = rng.randint(2, 3)
            R = PolyRing(p, ["x", "y", "z"][:n])
            k = rng.randrange(n)
            xk = R.variable(k)
            f, g = (poly_from_dict(R, random_poly_terms(rng, n, p, max_exp=3)) for _ in range(2))
            for h in (g, xk * g, xk * f - f, xk * f - g):
                assert (f + h).substitute_zero(k) == f.substitute_zero(k) + h.substitute_zero(k)
                assert (f * h).substitute_zero(k) == f.substitute_zero(k) * h.substitute_zero(k)
            S = R.drop_variable(k)
            gens = [f, xk * g, g, f - g + xk]
            images = [poly_from_dict(S, {e[:k] + e[k + 1 :]: c for e, c in poly_to_dict(u).items() if not e[k]}) for u in gens]
            quotient = Ideal(R, gens).image_in_quotient(k)
            assert quotient == Ideal(S, images)
            assert not any(u.is_zero() for u in quotient.generators)

    def test_total_degree(self):
        R = PolyRing(5, ["x", "y"])
        assert R.zero().total_degree() == -1
        assert R.one().total_degree() == 0
        assert (R.variable(0) ** 2 * R.variable(1)).total_degree() == 3


class TestOrders:
    def test_grevlex_classic_comparison(self):
        R = PolyRing(7, ["x", "y", "z"])
        key = R.order.key
        # degree dominates
        assert key((0, 2, 0)) > key((1, 0, 0))
        # same degree: grevlex prefers smaller last exponent
        assert key((1, 1, 0)) > key((1, 0, 1))
        assert key((0, 2, 0)) > key((1, 0, 1))

    def test_lex_comparison(self):
        R = PolyRing(7, ["x", "y"], MonomialOrder("lex"))
        key = R.order.key
        assert key((1, 0)) > key((0, 5))

    def test_leading_term_respects_order(self):
        R = PolyRing(7, ["x", "y"])
        f = R.variable(0) + R.variable(1) ** 3
        assert f.leading_exponent() == (0, 3)
        Rlex = PolyRing(7, ["x", "y"], MonomialOrder("lex"))
        g = Rlex.variable(0) + Rlex.variable(1) ** 3
        assert g.leading_exponent() == (1, 0)

    @pytest.mark.parametrize("kind", MonomialOrder.KINDS)
    def test_cached_leading_exponent(self, kind):
        # the lead is cached on first use and handed on by monic() and
        # normal_form; it must match a fresh max over the terms
        rng = random.Random(41)
        R = PolyRing(7, ["x", "y", "z"], kind)
        key = R.order.key
        for _ in range(40):
            f, g = (poly_from_dict(R, random_poly_terms(rng, 3, 7)) for _ in range(2))
            for h in (f, g):
                if h.terms:
                    h.leading_exponent()
            results = [f * g, f + g, f - g, f.frobenius_power(rng.randint(0, 2)), f * rng.randint(2, 6)]
            results += [h.monic() for h in (f, g) if h.terms]
            if g.terms:
                results.append(normal_form(f, Ideal(R, [g]).groebner_basis()))
            for h in results:
                if h.terms:
                    assert h.leading_exponent() == max(h.terms, key=key)
                    assert h.leading_exponent() == max(h.terms, key=key)  # cached
            exps = list(f.terms) + list(g.terms)
            assert sorted(exps, key=R.order.descending_key) == sorted(exps, key=key, reverse=True)


class TestFormatting:
    def test_canonical_string(self):
        R = PolyRing(5, ["x", "y"])
        f = R.variable(0) ** 3 + 4 * R.variable(1) + R.constant(2)
        assert str(f) == "x^3 - y + 2"
        assert str(R.zero()) == "0"
        assert str(R.one()) == "1"

    def test_string_deterministic(self):
        rng = random.Random(3)
        R = PolyRing(7, ["x", "y", "z"])
        for _ in range(20):
            terms = random_poly_terms(rng, 3, 7)
            shuffled = dict(sorted(terms.items(), key=lambda kv: rng.random()))
            assert str(poly_from_dict(R, terms)) == str(poly_from_dict(R, shuffled))
