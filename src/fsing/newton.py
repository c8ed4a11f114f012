"""Monomial ideals and their Newton polyhedra, in exact arithmetic.

The Newton polyhedron of a monomial ideal a is the convex hull of the
exponents of a plus the nonnegative orthant.  Facets are found with
integer determinants over all candidate support sets, once per ideal
object, and stored as primitive integer inequalities <w, u> >= c with
w >= 0, c > 0; with the coordinate half-spaces u_i >= 0 they cut out P.

Membership tests, monomial-ideal extraction, integral-closure powers,
log-canonical thresholds, and jumping-number candidates all reduce to
integer comparisons against those facets.  Newton ideals, closure powers
and the lattice lane of ``nonfpure`` come from one walker, ``_lattice_walk``,
on integer rows <w, u> >= r; it closes each fiber over the first n - 1
coordinates in closed form and refuses boxes past MAX_BOX_POINTS points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul
from typing import Iterable, Literal, Sequence

from .errors import DegreeGuardError
from .ring import Exponent, Polynomial, PolyRing, ceil_div, exponent_antichain, monomial_divides, square_multiply

MembershipMode = Literal["closed", "interior"]

MAX_BOX_POINTS = 5_000_000


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "interior"):
        raise ValueError(f"mode must be 'closed' or 'interior', got {mode!r}")


class MonomialIdeal:
    """A monomial ideal, stored as the sorted antichain of minimal exponents.

    Immutable and hashable; the antichain is the canonical form, so equality
    is tuple equality.  The unit ideal is ((0,..,0),); the zero ideal has no
    generators.  ``newton_hull`` keeps the hull in ``_hull``, per object.
    """

    __slots__ = ("nvars", "generators", "_hull")

    def __init__(self, nvars: int, exponents: Iterable[Exponent] = ()):
        pts = []
        for e in exponents:
            e = tuple(e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {nvars} variables")
            pts.append(e)
        self.nvars = nvars
        self.generators = exponent_antichain(pts)
        self._hull: NewtonPolyhedron | None = None

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, [(0,) * nvars])

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, [])

    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def is_zero(self) -> bool:
        return not self.generators

    def is_proper(self) -> bool:
        return bool(self.generators) and not self.is_unit()

    def contains(self, exponent: Exponent) -> bool:
        return any(monomial_divides(g, exponent) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.nvars, self.generators + other.generators)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(
            self.nvars,
            [tuple(x + y for x, y in zip(a, b)) for a in self.generators for b in other.generators],
        )

    def power(self, n: int) -> "MonomialIdeal":
        """The plain ideal power a^n (not a closure)."""
        if n < 0:
            raise ValueError("negative ideal power")
        return square_multiply(self, n, MonomialIdeal.unit(self.nvars))

    def to_ideal(self, ring: PolyRing) -> "object":
        from .groebner import Ideal

        if ring.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return Ideal(ring, [Polynomial(ring, {g: 1}) for g in self.generators])

    def _check(self, other: "MonomialIdeal") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.nvars, self.generators))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.nvars}, generators={list(self.generators)})"


# -- exact hull -----------------------------------------------------------------


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; a zero pivot swaps in a lower row."""
    m = [row[:] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class NewtonPolyhedron:
    """P(a) = conv(exponents of a) + R^n_{>=0} for a proper monomial ideal a.

    ``facets`` holds the non-coordinate facets as primitive integer pairs
    (w, c) meaning <w, u> >= c; coordinate half-spaces u_i >= 0 are implicit.
    """

    __slots__ = ("nvars", "generators", "facets")

    def __init__(self, nvars: int, generators: tuple[Exponent, ...], facets: tuple[tuple[Exponent, int], ...]):
        self.nvars = nvars
        self.generators = generators
        self.facets = facets

    def coordinate_maximum(self, i: int) -> int:
        return max(g[i] for g in self.generators)

    def __repr__(self) -> str:
        ineqs = ", ".join(f"<{list(w)},u> >= {c}" for w, c in self.facets)
        return f"NewtonPolyhedron(n={self.nvars}, {ineqs})"


def newton_hull(a: MonomialIdeal) -> NewtonPolyhedron:
    """Exact facet description of P(a), kept on ``a``; requires a proper.

    Every non-coordinate facet has a supporting hyperplane <w, u> = c with
    w >= 0, c > 0 whose affine span is fixed by some k generators it passes
    through together with n-k coordinate directions it contains; enumerating
    those supports, solving <w, s> = 1 over them by Cramer's rule in integer
    determinants, and keeping the valid inequalities yields all facets
    (duplicates collapse in the final set).
    """
    if a._hull is not None:
        return a._hull
    if not a.is_proper():
        raise ValueError("Newton polyhedron requires a proper nonzero monomial ideal")
    n = a.nvars
    pts = a.generators
    found: set[tuple[Exponent, int]] = set()
    coords = range(n)
    for k in range(1, n + 1):
        for support in combinations(pts, k):
            for unknown in combinations(coords, k):
                rows = [[s[i] for i in unknown] for s in support]
                c = _det(rows)
                if not c:
                    continue
                # Cramer: w_i = det(rows with column i set to 1) / c
                w = [0] * n
                for col, i in enumerate(unknown):
                    w[i] = _det([row[:col] + [1] + row[col + 1 :] for row in rows])
                if c < 0:
                    c, w = -c, [-v for v in w]
                if min(w) >= 0 and all(sum(map(mul, w, q)) >= c for q in pts):
                    g = gcd(c, *w)
                    found.add((tuple(v // g for v in w), c // g))
    a._hull = NewtonPolyhedron(n, pts, tuple(sorted(found)))
    return a._hull


def member(P: NewtonPolyhedron, v: Exponent, t: Fraction | int = 1, mode: MembershipMode = "closed") -> bool:
    """Whether v + (1,..,1) lies in t * P(a); 'interior' asks for the strict cone.

    'interior' requires strict inequality on the scaled non-coordinate
    facets; the coordinate half-spaces are automatically strict since
    v + 1 >= 1 in every coordinate.
    """
    _check_mode(mode)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scaling factor t must be positive")
    if len(v) != P.nvars or any(x < 0 for x in v):
        raise ValueError(f"bad exponent vector {v}")
    tn, td = t.numerator, t.denominator
    for w, c in P.facets:
        lhs = td * sum(wi * (vi + 1) for wi, vi in zip(w, v))
        rhs = tn * c
        if mode == "closed":
            if lhs < rhs:
                return False
        elif lhs <= rhs:
            return False
    return True


def _box_guard(bounds: Sequence[int]) -> None:
    volume = 1
    for b in bounds:
        volume *= b + 1
        if volume > MAX_BOX_POINTS:
            raise DegreeGuardError(
                f"lattice box larger than MAX_BOX_POINTS = {MAX_BOX_POINTS} points; refusing to enumerate"
            )


def _lattice_walk(rows: Iterable[tuple[Exponent, int]], lb: Sequence[int], ub: Sequence[int]) -> list[Exponent]:
    """Members covering every minimal point of {u >= lb : <w, u> >= r for all
    rows (w, r)}.

    The walk scans the prefix box [lb, ub] over the first n - 1 coordinates
    (``ub`` has n - 1 entries and must hold every minimal point's prefix)
    and closes each fiber with the least feasible last coordinate.  The
    output is not reduced to an antichain; walks of one row set over one box
    list equal sets exactly when they list equal sequences.
    """
    last = len(lb) - 1
    _box_guard([hi - lo for lo, hi in zip(lb, ub)])
    split = [(w[:last], r, w[last]) for w, r in rows]
    out: list[Exponent] = []
    for prefix in product(*(range(lo, hi + 1) for lo, hi in zip(lb, ub))):
        least = lb[last]
        for coeffs, need, wl in split:
            gap = need - sum(map(mul, coeffs, prefix))
            if wl:
                least = max(least, -(-gap // wl))
            elif gap > 0:
                break
        else:
            out.append(prefix + (least,))
    return out


def _newton_walk(P: NewtonPolyhedron, t: Fraction, mode: MembershipMode) -> list[Exponent]:
    n = P.nvars
    tn, td = t.numerator, t.denominator
    # every member dominates a member whose i-th coordinate is at most
    # ceil(t * max_i) + 1 (cap against a dominated point of t*conv), so the
    # minimal generators live inside this box; td*<w, v + 1> > tn*c is
    # td*<w, v + 1> >= tn*c + 1 in integers, that is
    # <w, v> >= ceil((tn*c + extra)/td) - |w|
    ub = [ceil_div(tn * m, td) + 1 if m else 0 for m in map(P.coordinate_maximum, range(n - 1))]
    extra = 1 if mode == "interior" else 0
    rows = [(w, ceil_div(tn * c + extra, td) - sum(w)) for w, c in P.facets]
    return _lattice_walk(rows, [0] * n, ub)


def newton_ideal(a: MonomialIdeal, t: Fraction | int, mode: MembershipMode = "closed") -> MonomialIdeal:
    """The monomial ideal of all x^v with v + 1 in t*P(a) (closed or interior).

    For 'interior' this is the multiplier-ideal-style membership; for
    'closed' it is the limit of the interior ideals as the exponent
    increases to t.
    """
    _check_mode(mode)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("exponent t must be positive")
    if not a.is_proper():
        return a  # P is the whole orthant (every v + 1 is interior) or empty
    return MonomialIdeal(a.nvars, _newton_walk(newton_hull(a), t, mode))


def integral_closure_power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    """The integral closure of a^n: lattice points of n * P(a).

    Defined for every monomial ideal: the unit ideal and n = 0 give R, the
    zero ideal stays zero.
    """
    if n < 0:
        raise ValueError("negative power")
    if n == 0 or a.is_unit():
        return MonomialIdeal.unit(a.nvars)
    if a.is_zero():
        return a
    P = newton_hull(a)
    k = a.nvars
    ub = [n * P.coordinate_maximum(i) for i in range(k - 1)]
    return MonomialIdeal(k, _lattice_walk([(w, n * c) for w, c in P.facets], [0] * k, ub))


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """sup{t : interior membership of 0 holds} = min over facets of <w,1>/c."""
    P = newton_hull(a)
    return min(Fraction(sum(w), c) for w, c in P.facets)


def jumping_candidates(a: MonomialIdeal, t_max: Fraction | int) -> tuple[Fraction, ...]:
    """All jumping numbers of a in (0, t_max]: facet-critical values that
    actually change the interior ideal.

    A value t is critical when some v + 1 lies on a scaled facet; it is a
    jump exactly when the closed and interior ideals at t differ, that is,
    when some minimal generator of the closed ideal lies on a scaled facet;
    the closed walk lists every minimal generator, so one walk decides it.
    """
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not a.is_proper():
        raise ValueError("jumping numbers require a proper nonzero monomial ideal")
    P = newton_hull(a)
    candidates: set[Fraction] = set()
    # per-facet witness boxes: <w, v+1> = t*c <= t_max*c forces
    # w_i*(v_i+1) <= t_max*c when w_i > 0, and coordinates with w_i = 0 do
    # not change the value, so v_i = 0 witnesses exist; hence every critical
    # value at or below t_max is seen inside the box
    for w, c in P.facets:
        bounds = [
            ceil_div(t_max.numerator * c, t_max.denominator * wi) if wi else 0
            for wi in w
        ]
        _box_guard(bounds)
        sums = {sum(wi * (x + 1) for wi, x in zip(w, v)) for v in product(*(range(b + 1) for b in bounds))}
        candidates.update(t for t in (Fraction(k, c) for k in sums) if 0 < t <= t_max)
    return tuple(t for t in sorted(candidates) if any(
        t.denominator * sum(wi * (x + 1) for wi, x in zip(w, v)) == t.numerator * c
        for v in _newton_walk(P, t, "closed") for w, c in P.facets))
