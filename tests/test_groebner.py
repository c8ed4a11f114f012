"""Groebner bases, normal forms, and ideal arithmetic over F_p."""

from __future__ import annotations

import random
from operator import add, le

import pytest

import fsing.groebner
from fsing import Ideal, MonomialOrder, PolyRing, normal_form
from fsing.errors import DegreeGuardError, RingMismatchError

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
        # non-unit coefficients and repeats: the basis is the antichain,
        # monic and descending, with no Buchberger run and no normal form
        calls = []
        original = fsing.groebner.normal_form
        monkeypatch.setattr(fsing.groebner, "normal_form", lambda *args: calls.append(args) or original(*args))
        buchberger = fsing.groebner._buchberger
        monkeypatch.setattr(fsing.groebner, "_buchberger", lambda *args: calls.append(args) or buchberger(*args))
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [3 * x**2 * y, x**3, x**2 * y**4, 4 * y**5, 2 * x**3 * y, 3 * x**2 * y])
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
        basis = I.groebner_basis()
        pure_y = [g for g in basis if g.leading_exponent()[0] == 0]
        assert [str(g) for g in pure_y] == ["y^3 - 1"]
        assert I.contains(x * y - 1)  # x*y = y^3 = 1 mod I

    def test_principal_ideal_basis_is_monic_generator(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        f = 3 * (x**2 + y) * (x + y**2)
        I = Ideal(R, [f])
        basis = I.groebner_basis()
        assert len(basis) == 1
        assert basis[0] == f.monic()

    def test_zero_ideal(self):
        R = ring_xy()
        I = Ideal.zero(R)
        assert I.is_zero()
        assert not I.is_unit()
        assert str(I) == "(0)"
        assert I.groebner_basis() == Ideal(R, [R.zero()]).groebner_basis() == ()
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

    def test_ring_check_reads_the_first_reducer(self):
        R, S = ring_xy(), ring_xy(p=7)
        with pytest.raises(RingMismatchError):
            normal_form(R.variable(0) + 1, [S.variable(0)])
        with pytest.raises(RingMismatchError):
            normal_form(R.zero(), (S.variable(1),))

    def test_no_reducers_leave_f(self):
        R = ring_xy()
        f = R.variable(0) ** 2 + 3 * R.variable(1)
        assert normal_form(f, ()) is f

    def test_basis_is_a_cached_tuple(self):
        R = ring_xy()
        x, y = R.variable(0), R.variable(1)
        for gens in ([x**2 - y, x * y - 1], [x**2, y**3]):
            I = Ideal(R, gens)
            basis = I.groebner_basis()
            assert type(basis) is tuple
            assert I.groebner_basis() is basis
            assert normal_form(x**3, list(basis)) == normal_form(x**3, basis)


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
        base = I.groebner_basis()
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g * rng.randint(1, 6) for g in shuffled]
            # throw in a redundant combination
            scaled.append(gens[0] * R.variable(0) + gens[1])
            J = Ideal(R, scaled)
            assert J.groebner_basis() == base
            assert I == J

    def test_basis_is_reduced_and_monic(self, rng):
        R = ring_xy(5)
        gens = [poly_from_dict(R, random_poly_terms(rng, 2, 5, max_terms=3, max_exp=3)) for _ in range(2)]
        basis = Ideal(R, gens).groebner_basis()
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
        basis = Ideal(R, [y**3, x]).groebner_basis()
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


def _mixed_generators(rng: random.Random, p: int, order: str) -> tuple[PolyRing, list]:
    """1-4 monomials with any nonzero coefficient and 1-3 polynomials of 1-4
    terms, shuffled, in 1-3 variables.  Over half of the polynomial terms
    lie in the monomial ideal, most as multiples of a drawn monomial, so the
    monomial strip of ``Ideal.groebner_basis`` removes terms, drops some
    polynomials and leaves one term of others."""
    nvars = rng.randint(1, 3)
    R = PolyRing(p, ["x", "y", "z"][:nvars], MonomialOrder(order))

    def exponent(top):
        return tuple(rng.randint(0, top) for _ in range(nvars))

    monomials = [e for e in (exponent(4) for _ in range(rng.randint(1, 4))) if any(e)] or [(1,) * nvars]
    gens = [R.monomial(e, rng.randint(1, p - 1)) for e in monomials]
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(map(add, rng.choice(monomials), exponent(2))) if rng.random() < 0.4 else exponent(3)
            terms[e] = rng.randint(1, p - 1)
        gens.append(R.from_terms(terms))
    rng.shuffle(gens)
    return R, gens


def _terms_left(gens) -> list[int]:
    """For each generator with two terms or more, how many of its terms no monomial generator divides."""
    monomials = [e for g in gens if g.is_monomial() for e in g.terms]
    return [sum(not any(all(map(le, m, e)) for m in monomials) for e in g.terms) for g in gens if not g.is_monomial()]


class TestSympyOracle:
    """Reduced bases against sympy's, both as sets of monic term dicts with
    residues in [0, p).  sympy is a local test oracle only."""

    @staticmethod
    def _agrees(sympy, R, gens) -> None:
        p = R.p

        def monic(terms):
            inv = pow(terms[max(terms, key=R.order.key)], p - 2, p)
            return frozenset((e, c * inv % p) for e, c in terms.items())

        ours = {frozenset(g.terms.items()) for g in Ideal(R, gens).groebner_basis()}
        syms = sympy.symbols(R.variables)
        exprs = [sum(c * sympy.prod([s**k for s, k in zip(syms, e)]) for e, c in g.terms.items()) for g in gens]
        theirs = set()
        for poly in sympy.groebner(exprs, *syms, modulus=p, order=R.order.kind).polys:
            terms = {e: r for e, c in poly.terms() if (r := int(c) % p)}
            theirs.add(monic(terms))
        assert ours == theirs, [str(g) for g in gens]

    @pytest.mark.parametrize("order", MonomialOrder.KINDS)
    @pytest.mark.parametrize("p", [2, 3, 7, 32003])
    def test_reduced_basis_matches_sympy(self, p, order):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7919 * p + len(order))
        new_leads = 0
        for _ in range(16):
            R, gens = _random_ideal(rng, p, order)
            self._agrees(sympy, R, gens)
            basis_leads = {g.leading_exponent() for g in Ideal(R, gens).groebner_basis()}
            new_leads += not basis_leads <= {g.leading_exponent() for g in gens}
        assert new_leads >= 8  # leading terms that only S-pairs produce

    @pytest.mark.parametrize("order", MonomialOrder.KINDS)
    @pytest.mark.parametrize("p", [2, 3, 7, 32003])
    def test_mixed_monomial_sets_match_sympy(self, p, order):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7927 * p + len(order))
        survivors = 0
        for _ in range(16):
            R, gens = _mixed_generators(rng, p, order)
            self._agrees(sympy, R, gens)
            survivors += any(n > 1 for n in _terms_left(gens))
        assert 0 < survivors < 16  # both with and without a Buchberger run


class TestMonomialFirst:
    """The monomial strip of ``Ideal.groebner_basis`` against Buchberger and
    reduction on the generators as given."""

    @pytest.mark.parametrize("order", MonomialOrder.KINDS)
    @pytest.mark.parametrize("p", [2, 3, 7, 32003])
    def test_matches_buchberger_on_unstripped_generators(self, p, order):
        # seeded per (p, order), 40 sets each; every outcome of the strip
        # occurs in each parametrization
        rng = random.Random(4099 * p + len(order))
        seen = {"dropped": 0, "joined": 0, "survived": 0, "nvars": set()}
        for _ in range(40):
            R, gens = _mixed_generators(rng, p, order)
            want = fsing.groebner._reduce_basis(R, fsing.groebner._buchberger(R, gens))
            assert Ideal(R, gens).groebner_basis() == want, [str(g) for g in gens]
            left = _terms_left(gens)
            seen["dropped"] += 0 in left
            seen["joined"] += 1 in left
            seen["survived"] += any(n > 1 for n in left)
            seen["nvars"].add(R.nvars)
        assert all(seen.values()) and seen["nvars"] == {1, 2, 3}, seen

    @pytest.mark.parametrize("gens, want", [
        # every term of the polynomial lies in (x^2, y^3): it drops out
        (lambda R, x, y: [x**2, 2 * x**3 + 3 * x**2 * y**4 - y**3, y**3], "(y^3, x^2)"),
        # x^3 lies in (x^2) and 3*x*y is left: it joins as x*y
        (lambda R, x, y: [x**2, x**3 + 3 * x * y], "(x^2, x*y)"),
        # a constant divides every term
        (lambda R, x, y: [x + y, R.constant(3), x**2 - y], "(1)"),
    ])
    def test_strip_alone_decides(self, monkeypatch, gens, want):
        def refuse(*args):
            raise AssertionError("Buchberger ran on a monomial ideal")

        monkeypatch.setattr(fsing.groebner, "_buchberger", refuse)
        monkeypatch.setattr(fsing.groebner, "_reduce_basis", refuse)
        R = ring_xy()
        I = Ideal(R, gens(R, R.variable(0), R.variable(1)))
        assert str(I) == want
        assert all(g.leading_coefficient() == 1 for g in I.groebner_basis())


class TestPairPruning:
    def test_cyclic4_normal_form_calls(self, monkeypatch):
        # one membership test per seed after the first, S-pair reductions
        # after Gebauer-Moeller pruning, and one tail-reduction pass: 3 + 11
        # + 7 calls under grevlex, 3 + 20 + 6 under lex (no cyclic-4 seed
        # lies in the ideal of those before it; 35 + 7 and 73 + 12 S-pair
        # and tail calls when every non-coprime pair is reduced and tail
        # reduction runs to a fixed point)
        import fsing.groebner

        calls = []
        original = fsing.groebner.normal_form
        monkeypatch.setattr(fsing.groebner, "normal_form", lambda *args: calls.append(args) or original(*args))
        for order, expected in (("grevlex", 21), ("lex", 29)):
            R = PolyRing(7, ["x", "y", "z", "w"], MonomialOrder(order))
            x, y, z, w = (R.variable(i) for i in range(4))
            cyclic4 = [x + y + z + w, x * y + y * z + z * w + w * x, x * y * z + y * z * w + z * w * x + w * x * y, x * y * z * w - 1]
            calls.clear()
            basis = Ideal(R, cyclic4).groebner_basis()
            assert len(calls) == expected, order
            assert len(basis) == {"grevlex": 7, "lex": 6}[order]

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_redundant_seeds_make_no_pairs(self, monkeypatch, order):
        # f and g have coprime leads in both orders, so they are a Groebner
        # basis and every member of their ideal reduces to zero by them: a
        # repeat, a scalar multiple and a combination enter no pair heap, and
        # the run does the same Gebauer-Moeller updates as for (f, g)
        R = PolyRing(7, ["x", "y"], MonomialOrder(order))
        x, y = R.variable(0), R.variable(1)
        f, g = x**2 + y, y**3 + 1
        entered = []
        original = fsing.groebner._gebauer_moller
        monkeypatch.setattr(fsing.groebner, "_gebauer_moller", lambda *args: entered.append(args[-1]) or original(*args))
        plain = Ideal(R, [f, g]).groebner_basis()
        plain_entered, entered[:] = list(entered), []
        assert Ideal(R, [f * (x + y**3) + x * g, 3 * f, g, f, f]).groebner_basis() == plain
        assert entered == plain_entered


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
