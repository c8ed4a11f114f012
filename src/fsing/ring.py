"""Sparse multivariate polynomials over a prime field F_p.

Coefficients are plain integer residues in [0, p); products of residues fit
in Python ints, so all arithmetic is exact.  Polynomials are immutable once
constructed and safe to share between threads; every operation returns a new
object.
"""

from __future__ import annotations

import re
from functools import cache
from math import isqrt
from operator import le
from typing import Iterable, Iterator, Mapping

from .errors import RingMismatchError

MAX_CHARACTERISTIC = 2**31 - 1

_VARIABLE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

Exponent = tuple[int, ...]


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, any sign of a."""
    return -((-a) // b)


def monomial_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def square_multiply(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, under ``*`` with unit ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def exponent_antichain(points: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Minimal elements of the up-set generated by ``points``, sorted."""
    ordered = sorted(set(points), key=lambda e: (sum(e), e))
    kept: list[Exponent] = []
    for e in ordered:
        if not any(monomial_divides(k, e) for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


@cache
def _is_prime(n: int) -> bool:
    # deterministic trial division; n <= 2^31 - 1 keeps the bound at 46341,
    # memoised because the CLI builds a ring over 2^31 - 1 for every monomial ideal
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    r = isqrt(n)
    while d <= r:
        if n % d == 0:
            return False
        d += 2
    return True


class MonomialOrder:
    """A monomial order on exponent vectors: 'grevlex' (default) or 'lex'.

    ``key`` maps an exponent vector to a sort key; larger key means larger
    monomial.
    """

    KINDS = ("grevlex", "lex")

    __slots__ = ("kind",)

    def __init__(self, kind: str = "grevlex"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}; expected one of {self.KINDS}")
        self.kind = kind

    def key(self, exponent: Exponent):
        if self.kind == "lex":
            return exponent
        # grevlex: compare total degree, then reversed exponents negated
        return (sum(exponent), tuple(-e for e in reversed(exponent)))

    def descending_key(self, exponent: Exponent):
        """``key`` with every entry negated: a min-heap on it pops the largest monomial first."""
        if self.kind == "lex":
            return tuple(-e for e in exponent)
        return (-sum(exponent), exponent[::-1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"


class PolyRing:
    """F_p[x_1, ..., x_n] for a prime 2 <= p <= 2^31 - 1, with a fixed monomial order."""

    __slots__ = ("p", "variables", "order", "_struct")

    def __init__(
        self,
        p: int,
        variables: Iterable[str],
        order: MonomialOrder | str | None = None,
    ):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"characteristic must be an int, got {type(p).__name__}")
        if not 2 <= p <= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic must lie in [2, 2^31 - 1], got {p}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        for name in names:
            if not _VARIABLE_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables = names
        if order is None:
            order = MonomialOrder()
        elif isinstance(order, str):
            order = MonomialOrder(order)
        self.order = order
        self._struct = (p, names, order.kind)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}; ring has {self.variables}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, which: int | str) -> "Polynomial":
        i = self.var_index(which) if isinstance(which, str) else which
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: 1})

    def monomial(self, exponent: Iterable[int], coefficient: int = 1) -> "Polynomial":
        exp = tuple(exponent)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent vector {exp} for {self.nvars} variables")
        c = coefficient % self.p
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {exp: c})

    def from_terms(self, terms: Mapping[Exponent, int]) -> "Polynomial":
        """Build a polynomial from an exponent->coefficient mapping (reduced mod p)."""
        n = self.nvars
        out: dict[Exponent, int] = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {n} variables")
            c %= self.p
            if c:
                out[exp] = c
            elif exp in out:
                del out[exp]
        return Polynomial(self, out)

    def drop_variable(self, k: int) -> "PolyRing":
        """The ring on the same data with variable k removed (for R/(x_k) work)."""
        if not 0 <= k < self.nvars:
            raise ValueError(f"variable index {k} out of range")
        names = self.variables[:k] + self.variables[k + 1 :]
        return PolyRing(self.p, names, self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and other._struct == self._struct

    def __hash__(self) -> int:
        return hash(self._struct)

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, vars={','.join(self.variables) or '-'}, order={self.order.kind})"


class Polynomial:
    """A sparse polynomial: dict from exponent tuples to residues in [1, p).

    The term dict is owned by the instance and never mutated after
    construction.  ``Polynomial`` objects are hashable and usable as dict
    keys; equality compares the ring and the terms.
    """

    __slots__ = ("ring", "terms", "_key", "_lead")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, int], lead: Exponent | None = None):
        # trusted constructor: normalized terms, and their leading exponent or None
        # (computed on first use); use ring.from_terms otherwise
        self.ring = ring
        self.terms = terms
        self._key = None
        self._lead = lead

    # -- structure ---------------------------------------------------------

    def canonical_key(self) -> tuple:
        key = self._key
        if key is None:
            key = tuple(sorted(self.terms.items()))
            self._key = key
        return key

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return len(self.terms) <= 1 and all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_exponent(self) -> Exponent:
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            lead = self._lead = max(self.terms, key=self.ring.order.key)
        return lead

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_exponent()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        p = self.ring.p
        inv = pow(lc, p - 2, p)
        return Polynomial(self.ring, {e: (c * inv) % p for e, c in self.terms.items()}, self._lead)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in descending monomial order."""
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"mixed rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        p = self.ring.p
        big, small = (self.terms, other.terms) if len(self.terms) >= len(other.terms) else (other.terms, self.terms)
        out = dict(big)
        for e, c in small.items():
            nc = (out.get(e, 0) + c) % p
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
        return Polynomial(self.ring, out)

    def __radd__(self, other: int) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return self.ring.constant(other).__sub__(self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            if c == 1:
                return self
            p = self.ring.p
            return Polynomial(self.ring, {e: (cc * c) % p for e, cc in self.terms.items()})
        self._check_ring(other)
        p = self.ring.p
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero()
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ea, ca), = a.items()
            if not any(ea) and ca == 1:
                return Polynomial(self.ring, dict(b))
            return Polynomial(
                self.ring,
                {tuple(x + y for x, y in zip(ea, eb)): (ca * cb) % p for eb, cb in b.items()},
            )
        acc: dict[Exponent, int] = {}
        get = acc.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = get(e, 0) + ca * cb
        return Polynomial(self.ring, {e: r for e, c in acc.items() if (r := c % p)})

    def __rmul__(self, other: int) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        """f^n by base-p digits: f^n = prod_i (f^{d_i})^{p^i} for n = sum d_i p^i.

        Valid because x -> x^p is a ring endomorphism fixing F_p, so the p^i-th
        power is just an exponent scaling.  Keeps huge powers of few-term
        polynomials cheap.
        """
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return self.ring.one()
        if not self.terms:
            return self.ring.zero()
        p = self.ring.p
        result = None
        i = 0
        while n:
            n, d = divmod(n, p)
            if d:
                piece = square_multiply(self, d, self.ring.one()).frobenius_power(i)
                result = piece if result is None else result * piece
            i += 1
        return result if result is not None else self.ring.one()

    def frobenius_power(self, e: int) -> "Polynomial":
        """f^{p^e}, computed by scaling every exponent by p^e."""
        if e < 0:
            raise ValueError("negative Frobenius exponent")
        if e == 0:
            return self
        q = self.ring.p**e
        return Polynomial(self.ring, {tuple(a * q for a in exp): c for exp, c in self.terms.items()})

    def substitute_zero(self, k: int) -> "Polynomial":
        """The image of f in F_p[remaining variables] under x_k -> 0."""
        target = self.ring.drop_variable(k)
        # terms with x_k absent differ off coordinate k, so none merge
        return Polynomial(target, {exp[:k] + exp[k + 1 :]: c for exp, c in self.terms.items() if not exp[k]})

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, self.canonical_key()))

    def __iter__(self) -> Iterator[tuple[Exponent, int]]:
        return iter(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        p = self.ring.p
        names = self.ring.variables
        pieces: list[str] = []
        for exp, c in self.sorted_terms():
            negative = 2 * c > p
            magnitude = p - c if negative else c
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
