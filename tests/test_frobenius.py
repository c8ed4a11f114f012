"""p^e-adic decompositions and Frobenius roots."""

from __future__ import annotations

import random
from itertools import product

import pytest

from fsing import (
    DegreeGuardError,
    Ideal,
    MonomialIdeal,
    PolyRing,
    frobenius_root,
    integral_closure_power,
    monomial_frobenius_root,
    monomial_power_root,
    pe_decompose,
    root_of_product,
)

from conftest import monomial_ideal_of, poly_from_dict
from oracles import (
    monomial_root_oracle,
    naive_mul,
    naive_pow,
    random_monomial_gens,
    random_poly_terms,
    root_minimality_certificate,
)


class TestDecomposition:
    def test_known_split(self):
        # x^3 + y^2 = (x)^2 * x + (y)^2 * 1 over F_2 at e = 1
        R = PolyRing(2, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        d = pe_decompose(x**3 + y**2, 1)
        assert d.parts == {(1, 0): x, (0, 0): y}

    def test_reconstruct_random(self):
        rng = random.Random(41)
        for p, e in [(2, 1), (2, 3), (3, 2), (5, 1), (7, 1)]:
            R = PolyRing(p, ["x", "y"])
            for _ in range(10):
                f = poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=6, max_exp=9))
                d = pe_decompose(f, e)
                assert d.reconstruct() == f
                q = p**e
                assert len(d.parts) <= q**2
                for mu in d.parts:
                    assert all(0 <= c < q for c in mu)

    def test_zero_and_constants(self):
        R = PolyRing(3, ["x"])
        assert pe_decompose(R.zero(), 2).parts == {}
        d = pe_decompose(R.constant(2), 2)
        assert d.reconstruct() == R.constant(2)


class TestFrobeniusRoot:
    def test_pth_power_returns_radical_like_value(self):
        # (x^4)^[1/5] = R since x^4 = 1^5 * x^4 and 1 generates
        R = PolyRing(5, ["x"])
        x = R.variable(0)
        assert frobenius_root(Ideal(R, [x**4]), 1).is_unit()
        # (x^5)^[1/5] = (x)
        assert str(frobenius_root(Ideal(R, [x**5]), 1)) == "(x)"

    def test_cusp_cube_root(self):
        R = PolyRing(2, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        f = (x**3 + y**2) ** 3
        assert str(frobenius_root(Ideal(R, [f]), 2)) == "(x, y)"

    def test_e_zero_identity(self):
        R = PolyRing(5, ["x", "y"])
        I = Ideal(R, [R.variable(0) ** 2 + R.variable(1)])
        assert frobenius_root(I, 0) == I

    def test_composition(self):
        rng = random.Random(42)
        R = PolyRing(2, ["x", "y"])
        for _ in range(8):
            I = Ideal(R, [poly_from_dict(R, random_poly_terms(rng, 2, 2, max_terms=4, max_exp=12)) for _ in range(2)])
            both = frobenius_root(frobenius_root(I, 1), 2)
            assert both == frobenius_root(I, 3)

    def test_additive(self):
        rng = random.Random(43)
        R = PolyRing(3, ["x", "y"])
        for _ in range(8):
            f = poly_from_dict(R, random_poly_terms(rng, 2, 3, max_terms=3, max_exp=8))
            g = poly_from_dict(R, random_poly_terms(rng, 2, 3, max_terms=3, max_exp=8))
            lhs = frobenius_root(Ideal(R, [f, g]), 1)
            rhs = frobenius_root(Ideal(R, [f]), 1) + frobenius_root(Ideal(R, [g]), 1)
            assert lhs == rhs

    def test_contained_in_bracket_root(self):
        # I is inside (I^[1/q])^[q]
        rng = random.Random(44)
        for p, e in [(2, 2), (3, 1), (5, 1)]:
            R = PolyRing(p, ["x", "y"])
            for _ in range(6):
                I = Ideal(R, [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=3, max_exp=10))])
                root = frobenius_root(I, e)
                assert root.bracket_power(e).contains_ideal(I)

    def test_minimality_among_roots(self):
        # smallest J with I inside J^[q]: certified generator by generator
        rng = random.Random(45)
        for p, e in [(2, 1), (3, 1), (5, 1), (2, 2)]:
            for _ in range(10):
                gens = random_monomial_gens(rng, 2, 3, 12)
                root = monomial_root_oracle(gens, p**e)
                assert root_minimality_certificate(gens, list(root), p**e)

    def test_monomial_floor_formula_matches_generic(self):
        rng = random.Random(46)
        for p, e in [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)]:
            R = PolyRing(p, ["x", "y", "z"])
            for _ in range(8):
                gens = random_monomial_gens(rng, 3, 4, 14)
                a = MonomialIdeal(3, gens)
                fast = monomial_frobenius_root(a, e, p)
                generic = frobenius_root(a.to_ideal(R), e)
                assert monomial_ideal_of(generic) == fast
                assert set(fast.generators) == set(monomial_root_oracle(gens, p**e))

    def test_rejects_negative_e(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ValueError):
            frobenius_root(Ideal(R, [R.variable(0)]), -1)


class TestRootOfProduct:
    """Digit-by-digit roots against the root of the fully expanded product,
    expanded with the oracle's naive arithmetic rather than base-p powers."""

    @staticmethod
    def expanded_root(R, gens, factors, e):
        product = {(0,) * R.nvars: 1}
        for f, n in factors:
            product = naive_mul(product, naive_pow(f.terms, n, R.p, R.nvars), R.p)
        return frobenius_root(Ideal(R, [g * poly_from_dict(R, product) for g in gens]), e)

    def test_matches_expanded_product(self):
        rng = random.Random(47)
        shapes = {"two-entry": 0, "outside": 0, "all digits p - 1": 0, "closure": 0}
        for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
            R = PolyRing(p, ["x", "y"])
            q = p**e
            for trial in range(6):
                gens = [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=3, max_exp=4))]
                if trial % 3 == 0:
                    a = MonomialIdeal(2, random_monomial_gens(rng, 2, 2, 3))
                    monos = integral_closure_power(a, rng.randint(1, 3)).generators
                    gens = [g * R.monomial(m) for g in gens for m in monos]
                    shapes["closure"] += 1
                factors = []
                for _ in range(1 + trial % 2):
                    f = poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=3, max_exp=2))
                    factors.append((f, rng.choice([rng.randint(0, q - 1), q - 1, q + rng.randint(0, q)])))
                shapes["two-entry"] += len(factors) == 2
                shapes["outside"] += any(n >= q for _, n in factors)
                shapes["all digits p - 1"] += any(n == q - 1 for _, n in factors)
                got = root_of_product(R, gens, factors, e)
                assert got == self.expanded_root(R, gens, factors, e), (p, e, gens, factors)
        assert all(shapes.values()), shapes

    def test_shared_memo_across_levels(self):
        # N = p^e - 1 has every digit p - 1, so level e is one root above
        # level e - 1 through the memo
        rng = random.Random(48)
        for p, e_top, entries in [(2, 3, 2), (3, 2, 2), (5, 2, 1)]:
            R = PolyRing(p, ["x", "y"])
            for _ in range(3):
                gens = [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=2, max_exp=3))]
                fs = [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=3, max_exp=2)) for _ in range(entries)]
                memo: dict = {}
                for e in range(1, e_top + 1):
                    factors = [(f, p**e - 1) for f in fs]
                    assert len(memo) == e - 1
                    got = root_of_product(R, gens, factors, e, memo)
                    assert got == self.expanded_root(R, gens, factors, e)
                # other digits in the same memo must not hit the all-(p - 1) prefixes
                factors = [(f, rng.randint(0, p**e_top - 2)) for f in fs]
                got = root_of_product(R, gens, factors, e_top, memo)
                assert got == self.expanded_root(R, gens, factors, e_top)

    def test_shared_powers_across_calls(self):
        # one ``powers`` dict for fixed factors, across many gens, N and e;
        # two factors with digit vectors of equal sum must not share a product
        rng = random.Random(50)
        shapes = {"equal digit sums": 0, "outside": 0, "all N < q": 0}
        for p in (2, 3, 5):
            R = PolyRing(p, ["x", "y"])
            fs = [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=3, max_exp=2)) for _ in range(2)]
            powers: dict = {}
            for _ in range(10):
                e = rng.randint(1, 3 if p < 5 else 2)
                q = p**e
                gens = [poly_from_dict(R, random_poly_terms(rng, 2, p, max_terms=2, max_exp=3))]
                factors = [(f, rng.choice([rng.randint(0, q - 1), rng.randint(0, 2 * q)])) for f in fs]
                memo: dict = {}
                got = root_of_product(R, gens, factors, e, memo, powers)
                assert got == self.expanded_root(R, gens, factors, e), (p, e, gens, factors)
                if all(n < q for _, n in factors):
                    assert any(got is root for root in memo.values())
                    shapes["all N < q"] += 1
                shapes["outside"] += any(n >= q for _, n in factors)
            sums: dict = {}
            for exps in powers:
                sums.setdefault(sum(exps), set()).add(exps)
            shapes["equal digit sums"] += any(len(v) > 1 for v in sums.values())
        assert all(shapes.values()), shapes

    def test_e_zero_is_the_product(self):
        R = PolyRing(3, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        got = root_of_product(R, [x], [(x + y, 2), (y, 1)], 0)
        assert got == Ideal(R, [x * (x + y) ** 2 * y])


class TestMonomialPowerRoot:
    """Digit-by-digit roots of plain powers a^n against the floor root of a^n
    expanded over every composition of n."""

    @staticmethod
    def expanded_root(gens, n, q):
        k = len(gens)
        points = [
            tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(len(gens[0])))
            for cs in product(range(n + 1), repeat=k)
            if sum(cs) == n
        ]
        return monomial_root_oracle(points, q)

    def test_matches_expanded_power(self):
        rng = random.Random(49)
        shapes = {"n = 0": 0, "0 < n < q": 0, "n = q - 1": 0, "n >= q": 0, "e = 0": 0}
        gens_seen = set()
        for p, e in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
            q = p**e
            for trial in range(16):
                nvars = rng.randint(1, 3)
                a = MonomialIdeal(nvars, random_monomial_gens(rng, nvars, 1 + trial % 4, 5))
                k = len(a.generators)
                n = [0, rng.randint(1, max(1, q - 1)), q - 1, q + rng.randint(0, 2 * q)][trial // 4]
                n = min(n, 12 if k == 4 else 40)
                shapes["n = 0"] += n == 0
                shapes["0 < n < q"] += 0 < n < q
                shapes["n = q - 1"] += n == q - 1
                shapes["n >= q"] += n >= q
                shapes["e = 0"] += e == 0
                gens_seen.add(k)
                got = monomial_power_root(a, n, e, p)
                assert got.generators == self.expanded_root(a.generators, n, q), (p, e, n, a)
        assert all(shapes.values()), shapes
        assert gens_seen == {1, 2, 3, 4}

    def test_digit_vector_cap(self):
        # every d with d_1 + d_2 = p is a digit vector of a^p at level 1
        a = MonomialIdeal(2, [(1, 1), (2, 0)])
        with pytest.raises(DegreeGuardError, match=r"frobenius\.MAX_DIGIT_VECTORS = 50000\Z"):
            monomial_power_root(a, 2147483647, 1, 2147483647)

    def test_rejects_bad_input(self):
        a = MonomialIdeal(1, [(1,)])
        for n, e in [(-1, 1), (1, -1)]:
            with pytest.raises(ValueError):
                monomial_power_root(a, n, e, 5)
        with pytest.raises(ValueError):
            monomial_power_root(MonomialIdeal.zero(1), 1, 1, 5)
