"""Ideals in F_p[x_1..x_n] with decidable membership and equality.

Buchberger's algorithm with the normal selection strategy (lowest lcm first,
ties broken by generator index) and the coprime-leading-term criterion.  The
reduced monic Groebner basis is the canonical form: two ideals are equal iff
their reduced bases coincide, so every result in this package is
reproducible run to run.

Monomial input is recognized and short-circuited: the reduced basis of a
monomial ideal is the divisibility antichain of its generators, with no
S-pairs and no tail reduction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DegreeGuardError, RingMismatchError
from .ring import Exponent, Polynomial, PolyRing, exponent_antichain, monomial_divides

DEFAULT_MAX_BASIS = 500
DEFAULT_MAX_DEGREE = 50_000


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: Polynomial, basis: "GroebnerBasis | Sequence[Polynomial]") -> Polynomial:
    """Remainder of f under division by a monic basis; zero iff f lies in the ideal.

    Every term of the remainder is divisible by no basis leading term, so the
    result is the canonical representative of f modulo the ideal when the
    basis is a Groebner basis.
    """
    elements = basis.elements if isinstance(basis, GroebnerBasis) else tuple(basis)
    if not elements:
        return f
    ring = f.ring
    for g in elements:
        if g.ring != ring:
            raise RingMismatchError("normal_form across different rings")
    if not f.terms:
        return f
    p = ring.p
    keyfn = ring.order.key
    leads = [(g.leading_exponent(), g.terms) for g in elements]
    work = dict(f.terms)
    remainder: dict[Exponent, int] = {}
    while work:
        exp = max(work, key=keyfn)
        c = work.pop(exp)
        for lead, gterms in leads:
            if monomial_divides(lead, exp):
                shift = _exp_sub(exp, lead)
                for ge, gc in gterms.items():
                    if ge == lead:
                        continue
                    target = _exp_add(ge, shift)
                    nc = (work.get(target, 0) - c * gc) % p
                    if nc:
                        work[target] = nc
                    elif target in work:
                        del work[target]
                break
        else:
            remainder[exp] = c
    return Polynomial(ring, remainder)


class GroebnerBasis:
    """A reduced monic Groebner basis, sorted descending by leading monomial.

    Construct through :meth:`Ideal.groebner_basis`; instances are immutable.
    """

    __slots__ = ("ring", "elements")

    def __init__(self, ring: PolyRing, elements: tuple[Polynomial, ...]):
        self.ring = ring
        self.elements = elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.ring == other.ring and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.ring, self.elements))

    def __repr__(self) -> str:
        return f"GroebnerBasis[{', '.join(str(g) for g in self.elements)}]"


def _spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    # both monic
    lf, lg = f.leading_exponent(), g.leading_exponent()
    lcm = _exp_lcm(lf, lg)
    ring = f.ring
    mf = Polynomial(ring, {_exp_sub(lcm, lf): 1})
    mg = Polynomial(ring, {_exp_sub(lcm, lg): 1})
    return mf * f - mg * g


def _buchberger(
    ring: PolyRing,
    generators: Sequence[Polynomial],
    max_basis: int,
    max_degree: int,
) -> list[Polynomial]:
    keyfn = ring.order.key
    seeds = sorted(
        {g.monic() for g in generators if not g.is_zero()},
        key=lambda g: (keyfn(g.leading_exponent()), g.canonical_key()),
    )
    if not seeds:
        return []
    if all(g.is_monomial() for g in seeds):
        lead = exponent_antichain(g.leading_exponent() for g in seeds)
        return [Polynomial(ring, {e: 1}) for e in lead]

    basis: list[Polynomial] = []
    pairs: list[tuple[int, int]] = []
    for g in seeds:
        pairs.extend((i, len(basis)) for i in range(len(basis)))
        basis.append(g)

    while pairs:
        best = min(
            range(len(pairs)),
            key=lambda k: (keyfn(_exp_lcm(basis[pairs[k][0]].leading_exponent(), basis[pairs[k][1]].leading_exponent())), pairs[k]),
        )
        i, j = pairs.pop(best)
        li, lj = basis[i].leading_exponent(), basis[j].leading_exponent()
        if _exp_lcm(li, lj) == _exp_add(li, lj):
            continue  # coprime leading terms: S-polynomial reduces to zero
        remainder = normal_form(_spolynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        if remainder.total_degree() > max_degree:
            raise DegreeGuardError(
                f"basis element degree {remainder.total_degree()} exceeds cap {max_degree}"
            )
        remainder = remainder.monic()
        pairs.extend((i, len(basis)) for i in range(len(basis)))
        basis.append(remainder)
        if len(basis) > max_basis:
            raise DegreeGuardError(f"basis size exceeds cap {max_basis}")
    return basis


def _reduce_basis(ring: PolyRing, basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    if not basis:
        return ()
    keyfn = ring.order.key
    # minimal: keep an antichain of leading terms (ascending scan, so any
    # divisor is already present when its multiples arrive)
    ordered = sorted(basis, key=lambda g: (keyfn(g.leading_exponent()), g.canonical_key()))
    minimal: list[Polynomial] = []
    for g in ordered:
        le = g.leading_exponent()
        if not any(monomial_divides(m.leading_exponent(), le) for m in minimal):
            minimal.append(g)
    # tail-reduce to a fixed point; leading terms are untouched (antichain),
    # and each replacement strictly shrinks the tail in the term order.  A
    # monomial has no tail, so a monomial basis is already reduced.
    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            if minimal[idx].is_monomial():
                continue
            others = minimal[:idx] + minimal[idx + 1 :]
            reduced = normal_form(minimal[idx], others)
            if reduced != minimal[idx]:
                minimal[idx] = reduced.monic()
                changed = True
    minimal.sort(key=lambda g: keyfn(g.leading_exponent()), reverse=True)
    return tuple(minimal)


class Ideal:
    """An ideal of F_p[x_1..x_n] given by generators.

    The reduced Groebner basis is computed lazily, at most once; equality,
    membership, and printing all go through it.
    """

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._basis: GroebnerBasis | None = None

    @classmethod
    def unit(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, [ring.one()])

    @classmethod
    def zero(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, [])

    def groebner_basis(
        self,
        max_basis: int = DEFAULT_MAX_BASIS,
        max_degree: int = DEFAULT_MAX_DEGREE,
    ) -> GroebnerBasis:
        if self._basis is None:
            raw = _buchberger(self.ring, self.generators, max_basis, max_degree)
            self._basis = GroebnerBasis(self.ring, _reduce_basis(self.ring, raw))
        return self._basis

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        basis = self.groebner_basis().elements
        return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        return normal_form(f, self.groebner_basis()).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideal sum across different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideal product across different rings")
        return Ideal(self.ring, [f * g for f in self.generators for g in other.generators])

    def bracket_power(self, e: int) -> "Ideal":
        """The ideal generated by g^{p^e} for g in the generators."""
        if e < 0:
            raise ValueError("negative bracket exponent")
        return Ideal(self.ring, [g.frobenius_power(e) for g in self.generators])

    def image_in_quotient(self, k: int) -> "Ideal":
        """The image ideal in F_p[remaining variables] under x_k -> 0."""
        target = self.ring.drop_variable(k)
        return Ideal(target, [h for g in self.generators if not (h := g.substitute_zero(k)).is_zero()])

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis().elements == other.groebner_basis().elements

    __hash__ = None  # mutable cache; use canonical_key for dict keys

    def canonical_key(self) -> tuple:
        return tuple(g.canonical_key() for g in self.groebner_basis())

    def __str__(self) -> str:
        basis = self.groebner_basis().elements
        if not basis:
            return "(0)"
        return f"({', '.join(str(g) for g in basis)})"

    def __repr__(self) -> str:
        return f"Ideal{self}"
