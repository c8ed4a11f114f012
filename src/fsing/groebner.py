"""Ideals in F_p[x_1..x_n] with decidable membership and equality.

Buchberger's algorithm with the normal selection strategy: open S-pairs wait
in a heap keyed by the order key of their lcm, so the lowest lcm comes first,
ties broken by basis index.  Each element entering the basis goes through the
Gebauer-Moeller update (Gebauer-Moeller 1988; UPDATE in Becker-Weispfenning),
which applies the product criterion and the B_k, M and F eliminations, so
most pairs whose S-polynomial would reduce to zero are never formed.
``normal_form`` keeps the pending terms in a heap ordered by the monomial
order and pops the largest one per step.  The reduced monic Groebner basis
is the canonical form: two ideals are equal iff their reduced bases
coincide, so every result in this package is reproducible run to run.

Monomial input is recognized and short-circuited: the reduced basis of a
monomial ideal is the divisibility antichain of its generators, with no
S-pairs and no tail reduction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Iterable, Sequence

from .errors import DegreeGuardError, RingMismatchError
from .ring import Exponent, Polynomial, PolyRing, exponent_antichain, monomial_divides

MAX_BASIS = 500
MAX_DEGREE = 50_000


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def normal_form(f: Polynomial, basis: "GroebnerBasis") -> Polynomial:
    """Remainder of f under division by a monic basis; zero iff f lies in the ideal.

    Every term of the remainder is divisible by no basis leading term, so the
    result is the canonical representative of f modulo the ideal when the
    basis is a Groebner basis.
    """
    ring = f.ring
    if basis.ring != ring:
        raise RingMismatchError("normal_form across different rings")
    if not basis.elements or not f.terms:
        return f
    p = ring.p
    heap_key = ring.order.descending_key
    reducers = [(lead, [t for t in g.terms.items() if t[0] != lead]) for g in basis for lead in (g.leading_exponent(),)]
    work = dict(f.terms)
    pending = [(heap_key(e), e) for e in work]
    heapify(pending)
    remainder: dict[Exponent, int] = {}  # filled in descending order
    while pending:
        exp = heappop(pending)[1]
        c = work.pop(exp, 0)
        if not c:
            continue  # cancelled after it was queued
        for lead, tail in reducers:
            if monomial_divides(lead, exp):
                shift = _exp_sub(exp, lead)
                for ge, gc in tail:
                    target = tuple(map(add, ge, shift))
                    old = work.get(target)
                    nc = ((old or 0) - c * gc) % p
                    if nc:
                        work[target] = nc
                        if old is None:
                            heappush(pending, (heap_key(target), target))
                    elif old is not None:
                        del work[target]
                break
        else:
            remainder[exp] = c
    return Polynomial(ring, remainder, next(iter(remainder), None))


class GroebnerBasis:
    """Monic polynomials of one ring, the divisors of ``normal_form``; immutable.

    :meth:`Ideal.groebner_basis` returns the reduced Groebner basis, sorted
    descending by leading monomial.
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


def _spolynomial(f: Polynomial, g: Polynomial, lcm: Exponent) -> Polynomial:
    # both monic, lcm of their leading exponents
    ring = f.ring
    mf = Polynomial(ring, {_exp_sub(lcm, f.leading_exponent()): 1})
    mg = Polynomial(ring, {_exp_sub(lcm, g.leading_exponent()): 1})
    return mf * f - mg * g


def _gebauer_moller(leads: list[Exponent], active: list[int], pairs: list, keyfn, h: Exponent) -> list[int]:
    """Enter lead h as element k = len(leads) into the pair heap; return the new active set.

    New pairs (i, k) go when another's lcm divides theirs (M, F; of equal lcms
    the last stays), then coprime ones (product criterion; they witness the
    first test).  Old pairs (i, j) go when h divides lcm(i, j) and lcm(i, k),
    lcm(j, k) both differ from it (B_k).
    """
    k = len(leads)
    leads.append(h)
    candidates = [(i, _exp_lcm(leads[i], h)) for i in active]
    kept: list[tuple[int, Exponent]] = []
    for n, (i, lcm) in enumerate(candidates):
        coprime = not any(map(min, leads[i], h))
        if coprime or not any(monomial_divides(m, lcm) for _, m in candidates[n + 1 :] + kept):
            kept.append((i, lcm))
    pairs[:] = [
        (key, i, j, lcm) for key, i, j, lcm in pairs
        if not monomial_divides(h, lcm) or lcm in (_exp_lcm(leads[i], h), _exp_lcm(leads[j], h))
    ]
    pairs.extend((keyfn(lcm), i, k, lcm) for i, lcm in kept if any(map(min, leads[i], h)))
    heapify(pairs)
    return [i for i in active if not monomial_divides(h, leads[i])] + [k]


def _buchberger(ring: PolyRing, generators: Sequence[Polynomial]) -> list[Polynomial]:
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
    leads: list[Exponent] = []
    active: list[int] = []
    pairs: list[tuple] = []  # heap of (order key of lcm, i, j, lcm), i < j
    for g in seeds:
        basis.append(g)
        active = _gebauer_moller(leads, active, pairs, keyfn, g.leading_exponent())
    while pairs:
        _, i, j, lcm = heappop(pairs)
        reducers = GroebnerBasis(ring, tuple(basis[k] for k in active))
        remainder = normal_form(_spolynomial(basis[i], basis[j], lcm), reducers)
        if remainder.is_zero():
            continue
        if remainder.total_degree() > MAX_DEGREE:
            raise DegreeGuardError(
                f"basis element degree {remainder.total_degree()} exceeds cap groebner.MAX_DEGREE = {MAX_DEGREE}"
            )
        basis.append(remainder.monic())
        active = _gebauer_moller(leads, active, pairs, keyfn, basis[-1].leading_exponent())
        if len(active) > MAX_BASIS:
            raise DegreeGuardError(f"basis size exceeds cap groebner.MAX_BASIS = {MAX_BASIS}")
    return [basis[k] for k in active]


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
    # tail-reduce; leading terms are untouched (antichain), so one pass is
    # enough: a tail reduced against the other leads stays reduced.  A
    # monomial has no tail, so a monomial basis is already reduced.
    for idx, g in enumerate(minimal):
        if not g.is_monomial():
            minimal[idx] = normal_form(g, GroebnerBasis(ring, tuple(minimal[:idx] + minimal[idx + 1 :])))
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

    def groebner_basis(self) -> GroebnerBasis:
        if self._basis is None:
            raw = _buchberger(self.ring, self.generators)
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
        return Ideal(target, [g.substitute_zero(k) for g in self.generators])

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
