"""p^e-adic decomposition of polynomials and Frobenius roots of ideals.

Over R = F_p[x_1..x_n], the monomials x^mu with mu in [0, p^e)^n form a free
basis of R over its subring of p^e-th powers: every f decomposes uniquely as

    f = sum_mu (g_mu)^{p^e} * x^mu.

The Frobenius root I^{[1/p^e]} of an ideal I is the smallest ideal J with
I contained in J^{[p^e]}; it is generated by all basis coefficients g_mu of
all generators of I, because the coefficients of any member of J^{[p^e]}
lie in J and conversely the decomposition above rebuilds each generator
from p^e-th powers of its coefficients.

Roots of products J * prod f_i^{N_i} are taken one base-p digit of the N_i
at a time through (I^[p] K)^[1/p] = I * K^[1/p] (Blickle-Mustata-Smith), so
the large powers f_i^{N_i} are never expanded; each digit product
prod f_i^{d_i} is formed once per caller-owned ``powers`` dict, and a root
with every N_i < p^e is the memoised digit root itself.  Roots of plain
powers a^n of monomial ideals are taken the same way on exponent antichains.
"""

from __future__ import annotations

from itertools import chain
from math import comb, prod
from typing import Iterable

from .errors import DegreeGuardError
from .groebner import Ideal
from .newton import MonomialIdeal
from .ring import Exponent, Polynomial, PolyRing, exponent_antichain

__all__ = [
    "PeDecomposition",
    "pe_decompose",
    "frobenius_root",
    "monomial_frobenius_root",
    "monomial_power_root",
    "root_of_product",
]

MAX_DIGIT_VECTORS = 50_000


class PeDecomposition:
    """The coefficients g_mu of f = sum_mu (g_mu)^{p^e} x^mu, keyed by mu."""

    __slots__ = ("ring", "e", "parts")

    def __init__(self, ring, e: int, parts: dict[Exponent, Polynomial]):
        self.ring = ring
        self.e = e
        self.parts = parts

    def reconstruct(self) -> Polynomial:
        """sum_mu (g_mu)^{p^e} * x^mu; equals the decomposed polynomial."""
        total = self.ring.zero()
        for mu, g in self.parts.items():
            total = total + g.frobenius_power(self.e) * Polynomial(self.ring, {mu: 1})
        return total

    def __repr__(self) -> str:
        inner = ", ".join(f"{mu}: {g}" for mu, g in sorted(self.parts.items()))
        return f"PeDecomposition(e={self.e}, {{{inner}}})"


def _split_terms(f: Polynomial, q: int) -> dict[Exponent, dict[Exponent, int]]:
    # residue class mu -> term dict of g_mu; exact since residues of F_p are
    # their own p^e-th roots
    parts: dict[Exponent, dict[Exponent, int]] = {}
    for exp, c in f.terms.items():
        quotients = []
        remainders = []
        for a in exp:
            s, r = divmod(a, q)
            quotients.append(s)
            remainders.append(r)
        parts.setdefault(tuple(remainders), {})[tuple(quotients)] = c
    return parts


def pe_decompose(f: Polynomial, e: int) -> PeDecomposition:
    """Decompose f over the p^e-th powers with monomial basis x^mu, mu < p^e."""
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    q = f.ring.p**e
    parts = {
        mu: Polynomial(f.ring, terms) for mu, terms in _split_terms(f, q).items()
    }
    return PeDecomposition(f.ring, e, parts)


def frobenius_root(I: Ideal, e: int) -> Ideal:
    """I^{[1/p^e]}: the smallest ideal J with I inside J^{[p^e]}.

    Streams the decomposition of each generator and deduplicates the
    coefficient polynomials before building the result.
    """
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    if e == 0:
        return I
    ring = I.ring
    if e > 1:
        # once p^e passes every exponent the root is the same ideal of constants,
        # so a huge e never forms p^e; the digit steps (e = 1) skip this scan
        e = min(e, max((a for g in I.generators for exp in g.terms for a in exp), default=0).bit_length())
    q = ring.p**e
    seen: set[tuple] = set()
    gens: list[Polynomial] = []
    for g in I.generators:
        for terms in _split_terms(g, q).values():
            key = tuple(sorted(terms.items()))
            if key not in seen:
                seen.add(key)
                gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens)


def root_of_product(
    ring: PolyRing, gens: Iterable[Polynomial], factors: list[tuple[Polynomial, int]], e: int,
    memo: dict | None = None, powers: dict | None = None,
) -> Ideal:
    """(gens * prod f_i^{N_i})^{[1/p^e]} for ``factors`` = [(f_i, N_i)].

    Writing N_i = sum_k d_{i,k} p^k + p^e M_i, step k multiplies the current
    ideal by prod f_i^{d_{i,k}} and takes one p-th root; prod f_i^{M_i}
    multiplies the result from outside the root.  ``memo`` maps a prefix of
    low digits to the ideal after those steps; it is valid for one fixed
    ``gens`` and ``factors`` polynomials, whatever the N_i.  ``powers`` maps
    (k_i) to prod f_i^{k_i}, valid for one fixed ``factors`` polynomial list
    whatever the N_i, ``gens`` or e.  When every N_i < p^e the result is the
    ideal in ``memo`` itself, so later callers share its Groebner basis.
    """
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    p, q = ring.p, ring.p**e
    memo = {} if memo is None else memo
    powers = {} if powers is None else powers

    def product(exps: tuple[int, ...]) -> Polynomial:
        if exps not in powers:
            powers[exps] = prod((f**k for (f, _), k in zip(factors, exps) if k), start=ring.one())
        return powers[exps]

    current = Ideal(ring, gens)
    prefix: tuple = ()
    for k in range(e):
        digits = tuple(n // p**k % p for _, n in factors)
        prefix += (digits,)
        if prefix not in memo:
            base = current.generators
            if any(digits):
                # a reduced basis keeps the product small; ``gens`` come as given
                base = [g * product(digits) for g in (current.groebner_basis() if k else base)]
            memo[prefix] = frobenius_root(Ideal(ring, base), 1)
        current = memo[prefix]
    if all(n < q for _, n in factors):
        return current
    outside = product(tuple(n // q for _, n in factors))
    return Ideal(ring, [g * outside for g in current.generators])


def monomial_frobenius_root(a: MonomialIdeal, e: int, p: int) -> MonomialIdeal:
    """The Frobenius root of a monomial ideal: floor of each exponent by p^e."""
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    q = p**e
    return MonomialIdeal(a.nvars, [tuple(x // q for x in g) for g in a.generators])


def _digit_vector_count(k: int, p: int, s: int) -> int:
    """The number of d in [0, p)^k with |d| = s, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * comb(s - j * p + k - 1, k - 1) for j in range(k + 1) if s >= j * p)


def _digit_products(gens: tuple[Exponent, ...], p: int, s: int) -> tuple[Exponent, ...]:
    """The distinct d.g = sum_i d_i g_i over d in [0, p)^k with |d| = s < k*p."""
    out: set[Exponent] = set()
    last = len(gens) - 1

    def walk(i: int, left: int, acc: Exponent):
        if i == last:
            out.add(tuple(x + left * y for x, y in zip(acc, gens[i])))
            return
        # the bounds leave every later digit in [0, p)
        for d in range(max(0, left - (last - i) * (p - 1)), min(p - 1, left) + 1):
            walk(i + 1, left - d, tuple(x + d * y for x, y in zip(acc, gens[i])))

    walk(0, s, (0,) * len(gens[0]))
    return tuple(out)


def monomial_power_root(a: MonomialIdeal, n: int, e: int, p: int) -> MonomialIdeal:
    """(a^n)^{[1/p^e]} for a nonzero monomial ideal a = (x^g_1, .., x^g_k),
    one base-p digit of n at a time; a^n is never expanded.

    Splitting each composition of m into its low digits d in [0, p)^k and
    the rest gives a^m = sum_d x^{d.g} (a^{(m - |d|)/p})^{[p]} over d with
    |d| = m mod p and |d| <= m, so one p-th root of S * a^m is
    sum_d (S * x^{d.g})^{[1/p]} * a^{(m - |d|)/p}.  The state maps each
    exponent m of a to a monomial ideal S_m, held as its antichain; after e
    digits the root is sum_m S_m * a^m with m about n / p^e, and only those
    small powers are taken.  Raises DegreeGuardError when one exponent needs
    more than MAX_DIGIT_VECTORS digit vectors.
    """
    if e < 0:
        raise ValueError("negative Frobenius exponent")
    if n < 0:
        raise ValueError("negative ideal power")
    if a.is_zero():
        raise ValueError("the root of a plain power needs a nonzero monomial ideal")
    gens = a.generators
    k = len(gens)
    state = {n: ((0,) * a.nvars,)}
    for _ in range(e):
        grown: dict[int, set[Exponent]] = {}
        for m, S in state.items():
            sums = range(m % p, min(m, k * (p - 1)) + 1, p)
            count = sum(_digit_vector_count(k, p, s) for s in sums)
            if count > MAX_DIGIT_VECTORS:
                raise DegreeGuardError(
                    f"root of a plain power needs {count} digit vectors, "
                    f"more than MAX_DIGIT_VECTORS = {MAX_DIGIT_VECTORS}"
                )
            for s in sums:
                products = _digit_products(gens, p, s)
                grown.setdefault((m - s) // p, set()).update(
                    tuple((x + y) // p for x, y in zip(h, w)) for h in S for w in products
                )
        state = {m: exponent_antichain(points) for m, points in grown.items()}
    products = (MonomialIdeal(a.nvars, S) * a.power(m) for m, S in state.items())
    return MonomialIdeal(a.nvars, chain.from_iterable(b.generators for b in products))
