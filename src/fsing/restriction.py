"""Restriction of the chain value to a coordinate hyperplane.

For D = div(x_k) and a divisor B whose support avoids D, the chain value
of (R, D + B) maps onto the chain value of (R/(x_k), B|_D) under the
quotient R -> R/(x_k); both sides are computed independently and compared.
The comparison requires the coefficient denominators to be prime to p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FsingError
from .groebner import Ideal
from .nonfpure import QDivisor, SigmaOptions, SigmaResult, Triple, denominator_lcm, sigma
from .ring import PolyRing


class RestrictionHypothesisError(FsingError):
    """The input violates a hypothesis of the restriction identity."""


@dataclass(eq=False)
class RestrictionProblem:
    """A ring, the index k of the hyperplane x_k = 0, and the divisor B.

    Every B entry must restrict to a nonzero nonconstant polynomial on the
    hyperplane (support sharing no component with it and not dropping to a
    unit), and the ring needs at least two variables so the quotient is
    still a polynomial ring.
    """

    ring: PolyRing
    k: int
    B: QDivisor
    opts: SigmaOptions | None = None

    def __post_init__(self):
        if not 0 <= self.k < self.ring.nvars:
            raise ValueError(f"hyperplane index {self.k} out of range")
        if self.ring.nvars < 2:
            raise ValueError("restriction needs at least two variables")
        for _, f in self.B.entries:
            if f.ring != self.ring:
                raise ValueError("divisor entry from a different ring")
        different_on_hyperplane(self.B, self.k)


@dataclass(eq=False)
class RestrictionReport:
    """Both sides of the identity and their comparison."""

    lhs: Ideal
    rhs: Ideal
    equal: bool
    ambient: Ideal
    lhs_result: SigmaResult
    rhs_result: SigmaResult


def different_on_hyperplane(B: QDivisor, k: int) -> QDivisor:
    """B|_D: restrict each entry to x_k = 0, keeping its coefficient.

    Constant or zero restrictions are rejected: the former would be a unit
    (an empty divisor contribution is not what a shared component means),
    the latter indicates a shared component.
    """
    entries = []
    for coef, f in B.entries:
        image = f.substitute_zero(k)
        if image.is_zero():
            raise RestrictionHypothesisError(
                f"divisor entry {f} vanishes on the hyperplane; supports must not share a component"
            )
        if image.is_constant():
            raise RestrictionHypothesisError(f"divisor entry {f} restricts to a unit on the hyperplane")
        entries.append((coef, image.monic()))
    return QDivisor(entries)


def check_restriction(problem: RestrictionProblem) -> RestrictionReport:
    """Compute both sides of the restriction identity and compare.

    Left side: the chain value of (R, div(x_k) + B), imaged in R/(x_k).
    Right side: the chain value of (R/(x_k), B|_D).
    Raises RestrictionHypothesisError when p divides a coefficient
    denominator (the identity needs the index prime to p).
    """
    ring = problem.ring
    p = ring.p
    index = denominator_lcm(Triple(ring, problem.B))
    if index % p == 0:
        raise RestrictionHypothesisError(
            f"coefficient denominators must be prime to p = {p} (index {index})"
        )
    opts = problem.opts or SigmaOptions()
    ambient_divisor = QDivisor(
        ((1, ring.variable(problem.k)),) + problem.B.entries
    )
    ambient_run = sigma(Triple(ring, ambient_divisor), opts)
    lhs = ambient_run.ideal.image_in_quotient(problem.k)

    quotient_ring = ring.drop_variable(problem.k)
    restricted = different_on_hyperplane(problem.B, problem.k)
    rhs_run = sigma(Triple(quotient_ring, restricted), opts)
    rhs = rhs_run.ideal

    return RestrictionReport(
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        ambient=ambient_run.ideal,
        lhs_result=ambient_run,
        rhs_result=rhs_run,
    )
