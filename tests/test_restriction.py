"""Restriction of chain values to coordinate hyperplanes."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fsing import (
    Ideal,
    PolyRing,
    QDivisor,
    RestrictionHypothesisError,
    RestrictionProblem,
    SigmaOptions,
    Triple,
    check_restriction,
    different_on_hyperplane,
    sigma,
)


def cusp_problem(p: int) -> RestrictionProblem:
    R = PolyRing(p, ["x", "y"])
    f = R.variable(0) ** 3 - R.variable(1) ** 2
    return RestrictionProblem(R, 0, QDivisor([(1, f)]))


class TestKnownExample:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_cusp_against_hyperplane(self, p):
        report = check_restriction(cusp_problem(p))
        R = report.ambient.ring
        x, y = R.variable(0), R.variable(1)
        assert report.ambient == Ideal(R, [x**2, y])
        assert str(report.lhs) == "(y)"
        assert str(report.rhs) == "(y)"
        assert report.equal

    @pytest.mark.parametrize("p", [5, 7])
    def test_direct_side_matches(self, p):
        # the right side alone: the chain value of (F_p[y], 1*(y^2))
        S = PolyRing(p, ["y"])
        direct = sigma(Triple(S, QDivisor([(1, S.variable(0) ** 2)])))
        assert str(direct.ideal) == "(y)"


class TestDifferent:
    def test_drops_variable_and_monics(self):
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        B = QDivisor([(Fraction(1, 2), 3 * y**2 + x * y)])
        restricted = different_on_hyperplane(B, 0)
        assert len(restricted.entries) == 1
        coef, g = restricted.entries[0]
        assert coef == Fraction(1, 2)
        assert g.ring.variables == ("y",)
        assert str(g) == "y^2"  # monic: 3y^2 -> y^2

    def test_vanishing_entry_rejected(self):
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(RestrictionHypothesisError):
            different_on_hyperplane(QDivisor([(1, x * y + x**2)]), 0)

    def test_unit_restriction_rejected(self):
        R = PolyRing(5, ["x", "y"])
        x = R.variable(0)
        with pytest.raises(RestrictionHypothesisError):
            different_on_hyperplane(QDivisor([(1, x + 1)]), 0)


class TestHypotheses:
    def test_problem_validates_entries(self):
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(RestrictionHypothesisError):
            RestrictionProblem(R, 0, QDivisor([(1, x**2 + x * y)]))
        with pytest.raises(RestrictionHypothesisError):
            RestrictionProblem(R, 1, QDivisor([(1, y + 2)]))

    def test_index_prime_to_p(self):
        R = PolyRing(5, ["x", "y"])
        y = R.variable(1)
        problem = RestrictionProblem(R, 0, QDivisor([(Fraction(2, 5), y**2 + R.variable(0))]))
        with pytest.raises(RestrictionHypothesisError):
            check_restriction(problem)

    def test_one_variable_rejected(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ValueError):
            RestrictionProblem(R, 0, QDivisor())

    def test_bad_index_rejected(self):
        R = PolyRing(5, ["x", "y"])
        with pytest.raises(ValueError):
            RestrictionProblem(R, 2, QDivisor())


class TestMoreInstances:
    def test_empty_divisor(self):
        # B = 0: both sides are the chain value of a smooth pair, R itself
        R = PolyRing(3, ["x", "y"])
        report = check_restriction(RestrictionProblem(R, 0, QDivisor()))
        assert report.ambient.is_unit()
        assert report.lhs.is_unit()
        assert report.rhs.is_unit()
        assert report.equal

    def test_middle_variable(self):
        # restrict to y = 0 in three variables with B = 1*(x^3 - z^2)
        R = PolyRing(5, ["x", "y", "z"])
        x, z = R.variable(0), R.variable(2)
        report = check_restriction(RestrictionProblem(R, 1, QDivisor([(1, x**3 - z**2)])))
        assert report.rhs.ring.variables == ("x", "z")
        assert report.equal
        assert str(report.rhs) == "(x, z)"

    def test_fractional_coefficient(self):
        R = PolyRing(7, ["x", "y"])
        y = R.variable(1)
        B = QDivisor([(Fraction(1, 2), y**2 - R.variable(0))])
        report = check_restriction(RestrictionProblem(R, 0, B, SigmaOptions(e_max=4)))
        assert report.equal

    @pytest.mark.parametrize("p", [3, 5])
    def test_two_entries(self, p):
        R = PolyRing(p, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        B = QDivisor([(Fraction(1, 2), y**2 + x), (Fraction(1, 2), y**2 - x)])
        report = check_restriction(RestrictionProblem(R, 0, B))
        assert report.equal
