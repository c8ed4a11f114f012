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
on integer rows <w, u> >= r with w >= 0; it closes each prefix over the
first n - 1 coordinates in closed form, emits one staircase per fiber over
the first n - 2 (a point only where the last coordinate strictly falls,
stopping at its floor), in 3 variables ends at the first fiber that starts
on the floor (every later one lies above it), and refuses boxes past
MAX_BOX_POINTS points.  The hull keeps each Newton ideal it has walked, so
a second ``newton_ideal`` call on one ideal object walks nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from operator import mul
from typing import Iterable, Literal, Sequence

from .errors import DegreeGuardError
from .ring import Exponent, Polynomial, PolyRing, ceil_div, exponent_antichain, exponent_vector, exponents_outside
from .ring import monomial_divides, square_multiply

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
    The constructor checks every exponent of its input with
    ``ring.exponent_vector`` (``nvars`` nonnegative ints); fsing's own walks,
    lane states, sums, products and roots, already sorted antichains, come
    in through ``_of`` with no check.  ``contains_ideal`` is one staircase
    sweep, ``ring.exponents_outside``, of the other ideal's generators.
    """

    __slots__ = ("nvars", "generators", "_hull")

    def __init__(self, nvars: int, exponents: Iterable[Exponent] = ()):
        self.nvars = nvars
        self.generators = exponent_antichain([exponent_vector(e, nvars) for e in exponents])
        self._hull: NewtonPolyhedron | None = None

    @classmethod
    def _of(cls, nvars: int, antichain: tuple[Exponent, ...]) -> "MonomialIdeal":
        """The ideal of ``antichain``, a sorted antichain of nonnegative
        ``nvars``-tuples that fsing computed itself, taken as given with no
        check; user input goes through the validating constructor."""
        ideal = cls.__new__(cls)
        ideal.nvars, ideal.generators, ideal._hull = nvars, antichain, None
        return ideal

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls._of(nvars, ((0,) * nvars,))

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls._of(nvars, ())

    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def is_zero(self) -> bool:
        return not self.generators

    def is_proper(self) -> bool:
        return bool(self.generators) and not self.is_unit()

    def contains(self, exponent: Exponent) -> bool:
        return any(monomial_divides(g, exponent) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return not exponents_outside(self.generators, other.generators)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal._of(self.nvars, exponent_antichain(self.generators + other.generators))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal._of(
            self.nvars,
            exponent_antichain(tuple(x + y for x, y in zip(a, b)) for a in self.generators for b in other.generators),
        )

    def power(self, n: int) -> "MonomialIdeal":
        """The plain ideal power a^n (not a closure).

        The last squaring, of a^h with h > n/4, forms |a^h|^2 pairs; when a
        lower bound for them at h = n//4 passes MAX_BOX_POINTS the power is
        refused up front.  With k >= 2 generators a^i has at least i + 1 (a
        bounded edge of i*P(a)).  A facet (w, c) with every w_i > 0 is bounded
        and holds nvars affinely independent generators, so a^i then has at
        least C(i + nvars - 1, nvars - 1), all minimal on that facet of i*P(a);
        the hull is built only when this count refuses and the edge's does not.
        """
        if n < 0:
            raise ValueError("negative ideal power")
        h, d = n // 4, self.nvars
        if len(self.generators) > 1 and (
            (h + 1) ** 2 > MAX_BOX_POINTS
            or (comb(h + d - 1, d - 1) ** 2 > MAX_BOX_POINTS and any(min(w) > 0 for w, _ in newton_hull(self).facets))
        ):
            raise DegreeGuardError(
                f"a^{n} forms more than newton.MAX_BOX_POINTS = {MAX_BOX_POINTS} generator pairs; refusing the power"
            )
        return square_multiply(self, n, MonomialIdeal.unit(self.nvars))

    def to_ideal(self, ring: PolyRing) -> "Ideal":
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
    """Determinant of a square integer matrix: the cofactor expansion up to
    3x3, the sizes of hulls in at most 3 variables, else ``_bareiss``."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _bareiss(rows)


def _bareiss(rows: list[list[int]]) -> int:
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
    ``newton_ideal`` keeps each Newton ideal it walks in ``_ideals``, keyed by
    (t, mode), so it lives as long as the hull, which lives on its ideal.
    """

    __slots__ = ("nvars", "generators", "facets", "_ideals")

    def __init__(self, nvars: int, generators: tuple[Exponent, ...], facets: tuple[tuple[Exponent, int], ...]):
        self.nvars = nvars
        self.generators = generators
        self.facets = facets
        self._ideals: dict[tuple[Fraction, MembershipMode], MonomialIdeal] = {}

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
    determinants, and keeping the valid inequalities yields all facets.  Many
    supports give one hyperplane, so each primitive (w, c) is checked against
    the generators once.
    """
    if a._hull is not None:
        return a._hull
    if not a.is_proper():
        raise ValueError("Newton polyhedron requires a proper nonzero monomial ideal")
    n = a.nvars
    pts = a.generators
    seen: set[tuple[Exponent, int]] = set()
    found: list[tuple[Exponent, int]] = []
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
                if min(w) < 0:
                    continue
                g = gcd(c, *w)
                w, c = tuple(v // g for v in w), c // g
                if (w, c) not in seen:
                    seen.add((w, c))
                    if all(sum(map(mul, w, q)) >= c for q in pts):
                        found.append((w, c))
    a._hull = NewtonPolyhedron(n, pts, tuple(sorted(found)))
    return a._hull


def member(P: NewtonPolyhedron, v: Exponent, t: Fraction | int = 1, mode: MembershipMode = "closed") -> bool:
    """Whether v + (1,..,1) lies in t * P(a); 'interior' asks for the strict cone.

    'interior' requires strict inequality on the scaled non-coordinate
    facets; the coordinate half-spaces are automatically strict since
    v + 1 >= 1 in every coordinate.  ``v`` must hold ``P.nvars`` nonnegative
    ints, and is tested against the rows ``_newton_walk`` walks.
    """
    _check_mode(mode)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scaling factor t must be positive")
    v = exponent_vector(v, P.nvars)
    return all(sum(map(mul, w, v)) >= r for w, r in _rows(P, t, mode))


def _box_guard(bounds: Sequence[int]) -> None:
    volume = 1
    for b in bounds:
        volume *= b + 1
        if volume > MAX_BOX_POINTS:
            raise DegreeGuardError(
                f"lattice box larger than newton.MAX_BOX_POINTS = {MAX_BOX_POINTS} points; refusing to enumerate"
            )


def _lattice_walk(rows: Iterable[tuple[Exponent, int]], lb: Sequence[int], ub: Sequence[int]) -> list[Exponent]:
    """Members covering every minimal point of {u >= lb : <w, u> >= r for all
    rows (w, r)}, as one staircase per fiber.

    ``ub`` has n - 1 entries and must hold every minimal point's prefix.  The
    walk scans the box [lb, ub] over the first n - 2 coordinates (the outer
    fibers) and, in each, the next coordinate y upwards, closing each prefix
    with the least feasible last coordinate.  Every w is >= 0, so that least
    only falls as y grows, and a row with w_last = 0 stays feasible once it
    is; a point is emitted only where the least strictly falls, and the fiber
    stops once it reaches lb[last].  So within one fiber the emitted last
    coordinates strictly fall.  In 3 variables every later fiber lies above a
    fiber's first point (x, lb_y, lb_z), so the walk ends at such a point.
    The output is not reduced to an antichain.
    """
    last = len(lb) - 1
    _box_guard([hi - lo for lo, hi in zip(lb, ub)])
    floor = lb[last]
    if not last:  # one fiber: walk it as the lone prefix 0 of two coordinates
        return [u[1:] for u in _lattice_walk([((0, *w), r) for w, r in rows], [0, floor], [0])]
    mid = last - 1
    split = [(w[:mid], r, w[mid], w[last]) for w, r in rows]
    out: list[Exponent] = []
    for outer in product(*(range(lo, hi + 1) for lo, hi in zip(lb[:mid], ub[:mid]))):
        partial = [(r - sum(map(mul, coeffs, outer)), wy, wl) for coeffs, r, wy, wl in split]
        prev = None
        for y in range(lb[mid], ub[mid] + 1):
            least = floor
            for need, wy, wl in partial:
                gap = need - wy * y
                if wl:
                    if gap > wl * least:
                        least = -(-gap // wl)
                elif gap > 0:
                    break
            else:
                if prev is None or least < prev:
                    out.append((*outer, y, least))
                    prev = least
                    if least == floor:
                        if last == 2 and y == lb[mid]:
                            return out
                        break
    return out


def _rows(P: NewtonPolyhedron, t: Fraction, mode: MembershipMode) -> list[tuple[Exponent, int]]:
    """Integer rows (w, r), one per facet (w, c): v + 1 lies in t*P(a), closed or
    interior, exactly when <w, v> >= r for every row.  With t = tn/td the facet
    asks td*<w, v + 1> >= tn*c + extra, extra = 1 for the strict (interior)
    inequality in integers, that is <w, v> >= ceil((tn*c + extra)/td) - |w|."""
    extra = 1 if mode == "interior" else 0
    return [(w, ceil_div(t.numerator * c + extra, t.denominator) - sum(w)) for w, c in P.facets]


def _newton_walk(P: NewtonPolyhedron, t: Fraction, mode: MembershipMode) -> list[Exponent]:
    """The walk of ``_rows(P, t, mode)`` from 0: members of the Newton ideal,
    every minimal one among them.  Every member dominates a member whose i-th
    coordinate is at most ceil(t * max_i) + 1 (cap against a dominated point of
    t*conv), so the minimal generators live inside that box."""
    ub = [ceil_div(t.numerator * m, t.denominator) + 1 if m else 0 for m in map(P.coordinate_maximum, range(P.nvars - 1))]
    return _lattice_walk(_rows(P, t, mode), [0] * P.nvars, ub)


def newton_ideal(a: MonomialIdeal, t: Fraction | int, mode: MembershipMode = "closed") -> MonomialIdeal:
    """The monomial ideal of all x^v with v + 1 in t*P(a) (closed or interior).

    For 'interior' this is the multiplier-ideal-style membership; for
    'closed' it is the limit of the interior ideals as the exponent
    increases to t.  The hull of ``a`` keeps the ideal per (t, mode), so a
    repeat call returns the same object.
    """
    _check_mode(mode)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("exponent t must be positive")
    if not a.is_proper():
        return a  # P is the whole orthant (every v + 1 is interior) or empty
    P = newton_hull(a)
    if (t, mode) not in P._ideals:
        P._ideals[t, mode] = MonomialIdeal._of(a.nvars, exponent_antichain(_newton_walk(P, t, mode)))
    return P._ideals[t, mode]


def integral_closure_power(a: MonomialIdeal, n: int) -> MonomialIdeal:
    """The integral closure of a^n: lattice points of n * P(a).

    Defined for every monomial ideal: the unit ideal and n = 0 give R, the
    zero ideal stays zero, and a principal ideal's power is already closed.
    """
    if n < 0:
        raise ValueError("negative power")
    if n == 0 or a.is_unit():
        return MonomialIdeal.unit(a.nvars)
    if len(a.generators) <= 1:
        return MonomialIdeal._of(a.nvars, tuple(tuple(n * g for g in gen) for gen in a.generators))
    P = newton_hull(a)
    k = a.nvars
    ub = [n * P.coordinate_maximum(i) for i in range(k - 1)]
    return MonomialIdeal._of(k, exponent_antichain(_lattice_walk([(w, n * c) for w, c in P.facets], [0] * k, ub)))


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

    A facet (w, c) has the critical values k/c, k = <w, v + 1> an integer
    sum whose partial sums only grow (w >= 0, v + 1 >= 1); one past t_max*c
    is dropped at once, so a Fraction is built only for a k/c <= t_max.
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
        cap = t_max.numerator * c // t_max.denominator
        sums = {0}
        for wi in filter(None, w):
            sums = {s + wi * k for s in sums for k in range(1, (cap - s) // wi + 1)}
        candidates.update(Fraction(k, c) for k in sums)
    return tuple(t for t in sorted(candidates) if any(
        t.denominator * sum(wi * (x + 1) for wi, x in zip(w, v)) == t.numerator * c
        for v in _newton_walk(P, t, "closed") for w, c in P.facets))
