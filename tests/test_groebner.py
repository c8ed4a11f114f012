"""Groebner bases, normal forms, and ideal arithmetic over F_p."""

from __future__ import annotations

import random

import pytest

import fsing.groebner
from fsing import Ideal, MonomialOrder, PolyRing, normal_form
from fsing.errors import DegreeGuardError

from conftest import poly_from_dict
from oracles import random_poly_terms


def ring_xy(p=5, order=None):
    return PolyRing(p, ["x", "y"], order or MonomialOrder())


class TestKnownBases:
    def test_unit_from_consecutive(self):
        R = ring_xy()
        x = R.variable(0)
        I = Ideal(R, [x, x + 1])
        assert I.is_unit()
        assert str(I) == "(1)"

    def test_monomial_ideal_fast_path(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**2 * y, x**3, x**2 * y**4, y**5])
        basis = [str(g) for g in I.groebner_basis()]
        assert basis == ["y^5", "x^3", "x^2*y"]

    def test_monomial_basis_needs_no_reduction(self, monkeypatch):
        import fsing.groebner

        calls = []
        original = fsing.groebner.normal_form
        monkeypatch.setattr(fsing.groebner, "normal_form", lambda *args: calls.append(args) or original(*args))
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**2 * y, x**3, x**2 * y**4, y**5, 2 * x**3 * y])
        assert [str(g) for g in I.groebner_basis()] == ["y^5", "x^3", "x^2*y"]
        assert calls == []
        # monomial only once reduced: Buchberger and tail reduction still run
        assert str(Ideal(R, [x + y, x - y])) == "(x, y)"
        assert calls

    def test_lex_elimination(self):
        # lex basis of (x - y^2, y^3 - 1) contains the eliminant x*y - 1? no:
        # substitute: x = y^2, y^3 = 1; the pure-y part of the basis is y^3 - 1
        R = PolyRing(7, ["x", "y"], MonomialOrder("lex"))
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x - y**2, y**3 - 1])
        basis = I.groebner_basis().elements
        pure_y = [g for g in basis if g.leading_exponent()[0] == 0]
        assert [str(g) for g in pure_y] == ["y^3 - 1"]
        assert I.contains(x * y - 1)  # x*y = y^3 = 1 mod I

    def test_principal_ideal_basis_is_monic_generator(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        f = 3 * (x**2 + y) * (x + y**2)
        I = Ideal(R, [f])
        basis = I.groebner_basis().elements
        assert len(basis) == 1
        assert basis[0] == f.monic()

    def test_zero_ideal(self):
        R = ring_xy()
        I = Ideal.zero(R)
        assert I.is_zero()
        assert not I.is_unit()
        assert str(I) == "(0)"
        assert I.contains(R.zero())
        assert not I.contains(R.one())


class TestNormalForm:
    def test_remainder_not_divisible(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**2 - y, x * y - 1])
        basis = I.groebner_basis()
        rng = random.Random(11)
        for _ in range(25):
            f = poly_from_dict(R, random_poly_terms(rng, 2, 5))
            r = normal_form(f, basis)
            leads = [g.leading_exponent() for g in basis]
            for e in r.terms:
                assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)
            # f - r lies in the ideal
            assert I.contains(f - r)

    def test_idempotent_and_compatible(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**3 - y, y**2 - x])
        basis = I.groebner_basis()
        rng = random.Random(12)
        for _ in range(25):
            f = poly_from_dict(R, random_poly_terms(rng, 2, 5))
            g = poly_from_dict(R, random_poly_terms(rng, 2, 5))
            rf, rg = normal_form(f, basis), normal_form(g, basis)
            assert normal_form(rf, basis) == rf
            assert normal_form(f + g, basis) == normal_form(rf + rg, basis)


class TestMembership:
    def test_random_combinations_are_members(self, rng):
        R = ring_xy(7)
        gens = [poly_from_dict(R, random_poly_terms(rng, 2, 7, max_terms=3, max_exp=3)) for _ in range(3)]
        I = Ideal(R, gens)
        for _ in range(15):
            combo = R.zero()
            for g in gens:
                combo = combo + poly_from_dict(R, random_poly_terms(rng, 2, 7, max_terms=2, max_exp=2)) * g
            assert I.contains(combo)

    def test_nonmembers(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        assert not Ideal(R, [x, y]).contains(R.one())
        assert not Ideal(R, [x**2, x * y]).contains(x)
        assert not Ideal(R, [x**2 - y]).contains(x**2)


class TestCanonicality:
    def test_reduced_basis_invariant_under_presentation(self, rng):
        R = ring_xy(7)
        gens = [poly_from_dict(R, random_poly_terms(rng, 2, 7, max_terms=3, max_exp=3)) for _ in range(3)]
        I = Ideal(R, gens)
        base = I.groebner_basis().elements
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g * rng.randint(1, 6) for g in shuffled]
            # throw in a redundant combination
            scaled.append(gens[0] * R.variable(0) + gens[1])
            J = Ideal(R, scaled)
            assert J.groebner_basis().elements == base
            assert I == J

    def test_basis_is_reduced_and_monic(self, rng):
        R = ring_xy(5)
        gens = [poly_from_dict(R, random_poly_terms(rng, 2, 5, max_terms=3, max_exp=3)) for _ in range(2)]
        basis = Ideal(R, gens).groebner_basis().elements
        leads = [g.leading_exponent() for g in basis]
        assert len(set(leads)) == len(leads)
        for i, g in enumerate(basis):
            assert g.leading_coefficient() == 1
            others = [h for j, h in enumerate(basis) if j != i]
            other_leads = [h.leading_exponent() for h in others]
            for e in g.terms:
                assert not any(all(a <= b for a, b in zip(le, e)) for le in other_leads)

    def test_sorted_descending(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        basis = Ideal(R, [y**3, x]).groebner_basis().elements
        keys = [R.order.key(g.leading_exponent()) for g in basis]
        assert keys == sorted(keys, reverse=True)


class TestIdealArithmetic:
    def test_sum_and_product(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I, J = Ideal(R, [x]), Ideal(R, [y])
        assert (I + J) == Ideal(R, [x, y])
        assert (I * J) == Ideal(R, [x * y])
        assert (I + J).contains_ideal(I * J)
        assert not (I * J).contains_ideal(I + J)

    def test_bracket_power(self):
        R = PolyRing(3, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x + y])
        assert I.bracket_power(1) == Ideal(R, [x**3 + y**3])
        assert I.bracket_power(0) == I

    def test_bracket_power_strictness(self):
        # (x+y)^[3] does not contain x^3 alone
        R = PolyRing(3, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        assert not Ideal(R, [x + y]).bracket_power(1).contains(x**3)

    def test_image_in_quotient(self):
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**2 + y**2, x * y])
        J = I.image_in_quotient(0)
        assert J.ring.variables == ("y",)
        assert str(J) == "(y^2)"

    def test_equality_and_key(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        assert Ideal(R, [x, y]) == Ideal(R, [x + y, y])
        assert Ideal(R, [x, y]).canonical_key() == Ideal(R, [y, x]).canonical_key()
        assert Ideal(R, [x]) != Ideal(R, [y])


def _random_ideal(rng: random.Random, p: int, order: str) -> tuple[PolyRing, list]:
    """2-3 generators of mixed degree 2-4 with no constant term, in 2 or 3 variables."""
    nvars = rng.randint(2, 3)
    R = PolyRing(p, ["x", "y", "z"][:nvars], MonomialOrder(order))
    gens = []
    for _ in range(rng.randint(2, 3)):
        degree = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(2, 4)):
            e = [0] * nvars
            for _ in range(rng.randint(1, degree)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = rng.randint(1, p - 1)
        gens.append(R.from_terms(terms))
    return R, gens


class TestSympyOracle:
    """Reduced bases against sympy's, both as sets of monic term dicts with
    residues in [0, p).  sympy is a local test oracle only."""

    @pytest.mark.parametrize("order", MonomialOrder.KINDS)
    @pytest.mark.parametrize("p", [2, 3, 7, 32003])
    def test_reduced_basis_matches_sympy(self, p, order):
        sympy = pytest.importorskip("sympy")

        def monic(terms, key):
            inv = pow(terms[max(terms, key=key)], p - 2, p)
            return frozenset((e, c * inv % p) for e, c in terms.items())

        rng = random.Random(7919 * p + len(order))
        new_leads = 0
        for _ in range(16):
            R, gens = _random_ideal(rng, p, order)
            ours = {frozenset(g.terms.items()) for g in Ideal(R, gens).groebner_basis()}
            syms = sympy.symbols(R.variables)
            exprs = [sum(c * sympy.prod([s**k for s, k in zip(syms, e)]) for e, c in g.terms.items()) for g in gens]
            theirs = set()
            for poly in sympy.groebner(exprs, *syms, modulus=p, order=order).polys:
                terms = {e: r for e, c in poly.terms() if (r := int(c) % p)}
                theirs.add(monic(terms, R.order.key))
            assert ours == theirs, [str(g) for g in gens]
            basis_leads = {g.leading_exponent() for g in Ideal(R, gens).groebner_basis()}
            new_leads += not basis_leads <= {g.leading_exponent() for g in gens}
        assert new_leads >= 8  # leading terms that only S-pairs produce


class TestPairPruning:
    def test_cyclic4_normal_form_calls(self, monkeypatch):
        # S-pair reductions after Gebauer-Moeller pruning plus one
        # tail-reduction pass: 11 + 7 calls under grevlex, 20 + 6 under lex
        # (35 + 7 and 73 + 12 when every non-coprime pair is reduced and tail
        # reduction runs to a fixed point)
        import fsing.groebner

        calls = []
        original = fsing.groebner.normal_form
        monkeypatch.setattr(fsing.groebner, "normal_form", lambda *args: calls.append(args) or original(*args))
        for order, expected in (("grevlex", 18), ("lex", 26)):
            R = PolyRing(7, ["x", "y", "z", "w"], MonomialOrder(order))
            x, y, z, w = (R.variable(i) for i in range(4))
            cyclic4 = [x + y + z + w, x * y + y * z + z * w + w * x, x * y * z + y * z * w + z * w * x + w * x * y, x * y * z * w - 1]
            calls.clear()
            basis = Ideal(R, cyclic4).groebner_basis()
            assert len(calls) == expected, order
            assert len(basis) == {"grevlex": 7, "lex": 6}[order]


class TestGuards:
    def test_degree_guard_raises(self, monkeypatch):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**3 - y, x * y**2 - 1])
        monkeypatch.setattr(fsing.groebner, "MAX_DEGREE", 2)
        with pytest.raises(DegreeGuardError, match=r"groebner\.MAX_DEGREE = 2"):
            I.groebner_basis()

    def test_basis_guard_raises(self, monkeypatch):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x**3 - y, x * y**2 - 1])
        monkeypatch.setattr(fsing.groebner, "MAX_BASIS", 2)
        with pytest.raises(DegreeGuardError, match=r"groebner\.MAX_BASIS = 2"):
            I.groebner_basis()
