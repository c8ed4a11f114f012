"""Exact positive-characteristic commutative algebra: non-F-pure ideals,
generalized test ideals, Frobenius roots, and Newton-polyhedron formulas."""

from .errors import (
    DegreeGuardError,
    FsingError,
    NonconvergenceError,
    ParseError,
    RingMismatchError,
)
from .frobenius import (
    PeDecomposition,
    frobenius_root,
    monomial_frobenius_root,
    monomial_power_root,
    pe_decompose,
    root_of_product,
)
from .groebner import Ideal, normal_form
from .newton import (
    MonomialIdeal,
    NewtonPolyhedron,
    integral_closure_power,
    jumping_candidates,
    lct_monomial,
    member,
    newton_hull,
    newton_ideal,
)
from .nonfpure import (
    MonomialTheoremReport,
    QDivisor,
    SigmaOptions,
    SigmaResult,
    Triple,
    is_sharply_fpure,
    is_strongly_fregular,
    sigma,
    sigma_prime_n,
    sigma_step,
    tau_b,
    verify_monomial_theorem,
)
from .restriction import (
    RestrictionHypothesisError,
    RestrictionProblem,
    RestrictionReport,
    check_restriction,
    different_on_hyperplane,
)
from .ring import MonomialOrder, Polynomial, PolyRing

__version__ = "0.1.0"

__all__ = [
    "DegreeGuardError",
    "FsingError",
    "Ideal",
    "MonomialIdeal",
    "MonomialOrder",
    "MonomialTheoremReport",
    "NewtonPolyhedron",
    "NonconvergenceError",
    "ParseError",
    "PeDecomposition",
    "Polynomial",
    "PolyRing",
    "QDivisor",
    "RestrictionHypothesisError",
    "RestrictionProblem",
    "RestrictionReport",
    "RingMismatchError",
    "SigmaOptions",
    "SigmaResult",
    "Triple",
    "check_restriction",
    "different_on_hyperplane",
    "frobenius_root",
    "integral_closure_power",
    "is_sharply_fpure",
    "is_strongly_fregular",
    "jumping_candidates",
    "lct_monomial",
    "member",
    "monomial_frobenius_root",
    "monomial_power_root",
    "newton_hull",
    "newton_ideal",
    "normal_form",
    "pe_decompose",
    "root_of_product",
    "sigma",
    "sigma_prime_n",
    "sigma_step",
    "tau_b",
    "verify_monomial_theorem",
]
