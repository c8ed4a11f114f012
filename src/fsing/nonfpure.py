"""Non-F-pure ideals, big generalized test ideals, and F-purity tests.

The data is a triple: a polynomial ring R = F_p[x_1..x_n], a formal
Q-divisor sum t_i * div(f_i) with positive rational coefficients, and an
optional monomial ideal a with a positive rational exponent t.

The descending chain starts at R and applies a fixed step until it
stabilizes; the step is the sum over levels e = 1..e_max of the Frobenius
roots

    ( J * prod_i f_i^{ceil(t_i (p^e - 1))} * cl(a^{ceil(t (p^e - 1))}) )^{[1/p^e]}

where cl is the integral closure.  Summing over all R-linear maps
F^e_* R -> R collapses to this single root because Hom_R(F^e_* R, R) is
free of rank one over F^e_* R, generated by the projection onto the top
basis monomial; the divisor twist is absorbed by the f_i powers.  The
ascending chain for the test ideal is the same picture with exponents
ceil(t_i p^e) and plain powers of a.

A triple with a period has an exact step, with no truncation and no
probe: a divisor-only triple with a Cartier level e0 (the lane's ``cartier``)
steps by level e0 alone, whose iterates from R are the levels n*e0 of R,
as (I^{[q]} K)^{[1/q]} = I K^{[1/q]} (Blickle-Mustata-Smith), descending
to Blickle's stable image; a divisor-free triple sums the levels up to a
bound past which they repeat (``_LatticeLane``).  Otherwise the step sums
levels 1..e_max, which only shrinks each step of the monotone chain, so
the truncated limit sits inside the true ideal; the probe (the final step
at a few larger e) checks that nothing visible was lost.  A chain member
J has step(J) inside J, so the first level containing J ends the final step.

Each level is evaluated by one of three lanes, the first of ``_LANES``
that serves the triple, chosen once per triple; a lane owns its caches, the
levels of its step, the step and the tail sums:

* the binomial lane serves a divisor c*div(f) alone, with f = c1*x^A +
  c2*x^B, c <= 1, some A_j - B_j prime to p and a Cartier level.  By Lucas'
  theorem the terms of f^N are x^{BN + (A - B)i} for the i whose base-p
  digits are each at most N's, all with nonzero coefficients, and for
  N < p^e they lie in distinct classes mod p^e; so the root of x^g f^N is
  the monomial ideal of their floors, and the chain stays on exponent
  antichains with no product, root or Groebner basis.  Its ascending
  summands need ceil(c p) < p, so that every ceil(c p^e) < p^e;
* the lattice lane serves triples whose divisor list is empty: they never
  leave the lattice of monomial ideals, held as exponent antichains, and a
  monomial x^w enters the e-th root iff p^e*w + (p^e - 1)*1 - g lies in
  N*P(a) for some current generator g (the usual top-corner argument on
  up-closed exponent sets).  That is a region cut out by integer rows
  against the facets of P(a); a level is a set of region keys, which recur
  across generators and levels, and each minimal key is walked once per
  triple by ``newton._lattice_walk``, so no closure power is materialized;
* the polynomial lane serves every other triple: it holds ideals of R and
  takes every root one base-p digit of the f_i exponents at a time
  (``root_of_product``, called from ``_PolynomialLane.root`` only), so
  f_i^N is never expanded.

A lane also supplies the ascending test-ideal summands (``ascend``); the
lattice lane keeps them on exponent antichains, with no Newton hull: level
e is the root (a^n)^{[1/p^e]} of a plain power, n = ceil(t p^e), taken one
base-p digit of n at a time through a^m = sum_d x^{d.g} (a^{(m - |d|)/p})^{[p]}
over digit vectors d (``monomial_power_root``), so a^n is never expanded.

The descending chain and the ascending test-ideal sum both run on one
driver, ``_stabilize``, over the lane ``_lane`` picks, and each caller keeps
its own failure message.  The descending chain applies a function of the
state, so its first repeat is a fixed point and ends it; the test-ideal
summands move with the level, so their sum waits for a window of repeats
derived from the denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import ge, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import NonconvergenceError
from .frobenius import monomial_power_root, root_of_product
from .groebner import Ideal
from .newton import MonomialIdeal, _lattice_walk, integral_closure_power, newton_hull, newton_ideal
from .ring import Exponent, Polynomial, PolyRing, ceil_div, exponent_antichain, exponents_outside

_State = TypeVar("_State")
_Regions = dict[tuple[int, ...], list[int]]  # lattice-lane region key (lb + r) -> prefix box
_Period = tuple[int, int | None, int | None]  # (v, order, cartier), see ``_period``

MAX_CARTIER_PERIOD = 12
MAX_PERIOD = 1024


def _ceil_mul(t: Fraction, m: int) -> int:
    """ceil(t * m) for t >= 0, m >= 0."""
    return ceil_div(t.numerator * m, t.denominator)


@dataclass(frozen=True)
class SigmaOptions:
    """Budgets for the stabilizing iterations.

    e_max: largest Frobenius level in each step's sum, unless the triple has a period.
    probe: extra levels checked after stabilization, unless ``sigma`` has a proof.
    n_max: bound on iterations before giving up.
    """

    e_max: int = 4
    probe: int = 2
    n_max: int = 20

    def __post_init__(self):
        if self.e_max < 1:
            raise ValueError("e_max must be at least 1")
        if self.probe < 0:
            raise ValueError("probe must be nonnegative")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


class QDivisor:
    """A formal sum of pairs (t_i, f_i): positive rational coefficients on
    nonzero nonconstant polynomials.  May be empty."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[Fraction | int, Polynomial]] = ()):
        normalized = []
        ring = None
        for coef, poly in entries:
            coef = Fraction(coef)
            if coef <= 0:
                raise ValueError(f"divisor coefficient must be positive, got {coef}")
            if poly.is_zero() or poly.is_constant():
                raise ValueError("divisor entry must be a nonzero nonconstant polynomial")
            if ring is None:
                ring = poly.ring
            elif poly.ring != ring:
                raise ValueError("divisor entries from different rings")
            normalized.append((coef, poly))
        self.entries = tuple(normalized)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        if not self.entries:
            return "QDivisor()"
        body = " + ".join(f"{c}*({f})" for c, f in self.entries)
        return f"QDivisor({body})"


class Triple:
    """(R, divisor, a^t): the input datum for the chains below.

    ``a`` may be None (or the unit ideal, normalized to None) when no
    monomial part is present; otherwise it must be a proper nonzero
    monomial ideal in the same number of variables.  ``t`` is its positive
    rational exponent.
    """

    __slots__ = ("ring", "divisor", "a", "t")

    def __init__(
        self,
        ring: PolyRing,
        divisor: QDivisor | None = None,
        a: MonomialIdeal | None = None,
        t: Fraction | int = 1,
    ):
        self.ring = ring
        divisor = divisor if divisor is not None else QDivisor()
        for _, poly in divisor.entries:
            if poly.ring != ring:
                raise ValueError("divisor entry from a different ring")
        self.divisor = divisor
        if a is not None:
            if a.nvars != ring.nvars:
                raise ValueError("monomial ideal variable count mismatch")
            if a.is_zero():
                raise ValueError("the monomial part must be nonzero")
            if a.is_unit():
                a = None
        self.a = a
        t = Fraction(t)
        if t <= 0:
            raise ValueError(f"exponent t must be positive, got {t}")
        self.t = t

    def __repr__(self) -> str:
        parts = [repr(self.ring)]
        if self.divisor:
            parts.append(repr(self.divisor))
        if self.a is not None:
            parts.append(f"a={self.a!r}^{self.t}")
        return f"Triple({', '.join(parts)})"


@dataclass(eq=False)
class SigmaResult:
    """Outcome of a stabilizing chain.

    iterations: first n with chain_n = chain_{n+1}.
    e_max_used: largest level evaluated; the Cartier period e0 on a chain
    that steps by it, else kept low by a covering level or a skipped probe.
    probe_stable: the probe levels added nothing to the final ideal; True
    by proof where ``sigma`` skips the probe, at R and on a period.
    """

    ideal: Ideal
    iterations: int
    e_max_used: int
    probe_stable: bool


def _stabilize(
    advance: Callable[[_State, int], _State],
    x: _State,
    window: int,
    n_max: int,
    failure: str,
    stop: Callable[[_State], bool] | None = None,
) -> tuple[_State, int]:
    """Iterate x_n = advance(x_{n-1}, n) from x_0 = ``x`` for n up to
    ``n_max``, until ``window`` consecutive x_n equal x_{n-1} or ``stop(x_n)``
    holds.

    Returns (x_n, n); at window 1, n is the first index with x_n = x_{n-1}.
    Raises NonconvergenceError(failure) when n_max comes first.
    """
    stable = 0
    for n in range(1, n_max + 1):
        new = advance(x, n)
        stable = stable + 1 if new == x else 0
        x = new
        if stable >= window or (stop is not None and stop(x)):
            return x, n
    raise NonconvergenceError(failure)


def _period(T: Triple) -> _Period:
    """The triple's one period search, (v, order, cartier): p^v exactly
    divides ``denominator_lcm``, ``order`` is the least e <= ``MAX_PERIOD``
    with p^e = 1 modulo the rest, or None, and k*p^e/den mod 1 has period
    ``order`` from e = v.  A divisor-only triple with v = 0 and an order at
    most ``MAX_CARTIER_PERIOD`` keeps it as ``cartier``, its Cartier level."""
    p, den, v = T.ring.p, denominator_lcm(T), 0
    while den % p == 0:
        den //= p
        v += 1
    order = next((e for e in range(1, MAX_PERIOD + 1) if pow(p, e, den) == 1 % den), None)
    short = order is not None and order <= MAX_CARTIER_PERIOD
    return v, order, order if short and T.a is None and v == 0 else None


class _Lane:
    """One chain lane for one triple: the step of the descending chain, the
    ``levels`` it sums, whether they make it ``exact``, and the largest level
    evaluated, ``max_e_used``.

    The lane keeps the triple's ``_period``, given or searched once: ``v``,
    ``order`` and ``cartier``.  A triple with a Cartier level steps by that
    level alone; the lattice lane and ``tau_b``'s window read (v, order) too.

    A lane supplies ``unit``, ``_summand`` (the level-e summand of a state),
    ``ascend`` (the level-e test-ideal summand), ``join`` (the sum of
    summands), ``contains``, ``covers`` (a level holds the state),
    ``from_ideal`` and ``to_ideal``; every lane gives the same ideals.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions, period: _Period | None = None):
        self.triple = triple
        self.ring = triple.ring
        self.opts = opts
        self.max_e_used = 0
        self.v, self.order, self.cartier = period or _period(triple)
        self.exact = self.cartier is not None

    def level(self, state, e: int):
        self.max_e_used = max(self.max_e_used, e)
        return self._summand(state, e)

    def tail(self, state, e_lo: int, e_hi: int):
        """The sum of level-e summands for e in [e_lo, e_hi], from ``state``."""
        return self.join(self.level(state, e) for e in range(e_lo, e_hi + 1))

    def levels(self, state) -> Sequence[int]:
        """The levels of the step's sum from ``state``."""
        return (self.cartier,) if self.cartier is not None else range(1, self.opts.e_max + 1)

    def step(self, state):
        return self.join(self.level(state, e) for e in self.levels(state))

    def chain_step(self, state):
        """``step`` of a chain member, which the monotone step maps inside
        itself: a level that already contains it proves the fixed point, so
        the first such level ends the sum and the state is returned.  The
        Cartier step is its one memoised level, with no cover check."""
        if self.cartier is not None:
            return self.level(state, self.cartier)
        levels = []
        for e in self.levels(state):
            levels.append(self.level(state, e))
            if self.covers(levels[-1], state):
                return state
        return self.join(levels)


class _PolynomialLane(_Lane):
    """States are ideals of R; every level is a digit-by-digit Frobenius root,
    on digit prefixes and products prod f_i^{k_i} that the lane owns."""

    def __init__(self, triple: Triple, opts: SigmaOptions, period=None):
        super().__init__(triple, opts, period)
        self.unit = Ideal.unit(self.ring)
        self._roots: dict = {}
        self._powers: dict = {}
        self._closure: dict[int, MonomialIdeal] = {}

    def root(self, J: Ideal, extra: MonomialIdeal | None, exps: list[int], e: int) -> Ideal:
        """(J * extra * prod_i f_i^{exps_i})^{[1/p^e]}, one base-p digit of each
        exps_i at a time; f_i^{exps_i} is never expanded.

        The monomial factor ``extra`` is no Frobenius power, so it joins J
        before the first digit.  Digit prefixes are memoised per (J, extra):
        at t_i = 1 every digit is p - 1 and level e is one root above e - 1.
        """
        gens = J.groebner_basis()
        if extra is not None:
            gens = [h * Polynomial(self.ring, {m: 1}) for h in gens for m in extra.generators]
        memo = self._roots.setdefault((J.canonical_key(), extra), {})
        factors = [(f, n) for (_, f), n in zip(self.triple.divisor, exps)]
        return root_of_product(self.ring, gens, factors, e, memo, self._powers)

    def _summand(self, J: Ideal, e: int) -> Ideal:
        """``root`` of J * prod_i f_i^{ceil(t_i (p^e - 1))} * cl(a^{ceil(t (p^e - 1))})."""
        a, q1 = self.triple.a, self.ring.p**e - 1
        if a is not None and e not in self._closure:
            self._closure[e] = integral_closure_power(a, _ceil_mul(self.triple.t, q1))
        return self.root(J, self._closure.get(e), [_ceil_mul(c, q1) for c, _ in self.triple.divisor], e)

    def ascend(self, e: int) -> Ideal:
        """``root`` of prod_i f_i^{ceil(t_i p^e)} * a^{ceil(t p^e)}, the power of a
        folded in before the first digit."""
        a, q = self.triple.a, self.ring.p**e
        extra = a.power(_ceil_mul(self.triple.t, q)) if a is not None else None
        return self.root(self.unit, extra, [_ceil_mul(c, q) for c, _ in self.triple.divisor], e)

    def join(self, levels: Iterable[Ideal]) -> Ideal:
        return Ideal(self.ring, [g for term in levels for g in term.generators])

    @staticmethod
    def contains(J: Ideal, term: Ideal) -> bool:
        return J.contains_ideal(term)

    @staticmethod
    def covers(term: Ideal, J: Ideal) -> bool:
        return all(map(term.contains, J.groebner_basis()))

    @staticmethod
    def to_ideal(J: Ideal) -> Ideal:
        return J

    from_ideal = to_ideal


class _AntichainLane(_Lane):
    """States are the exponent antichains of monomial ideals; levels are
    antichains too, unless a lane keeps them in another form."""

    def __init__(self, triple: Triple, opts: SigmaOptions, period=None):
        super().__init__(triple, opts, period)
        self.unit = ((0,) * self.ring.nvars,)

    @staticmethod
    def from_ideal(J: Ideal) -> tuple[Exponent, ...]:
        """The state of J, an ideal with monomial generators."""
        return exponent_antichain(g.leading_exponent() for g in J.generators)

    def to_ideal(self, state: tuple[Exponent, ...]) -> Ideal:
        return MonomialIdeal._of(self.ring.nvars, state).to_ideal(self.ring)

    @staticmethod
    def join(levels: Iterable[tuple[Exponent, ...]]) -> tuple[Exponent, ...]:
        return exponent_antichain(chain.from_iterable(levels))

    @staticmethod
    def contains(state: tuple[Exponent, ...], level: tuple[Exponent, ...]) -> bool:
        return not exponents_outside(state, level)

    @staticmethod
    def covers(level: tuple[Exponent, ...], state: tuple[Exponent, ...]) -> bool:
        return not exponents_outside(level, state)


class _LatticeLane(_AntichainLane):
    """States are exponent antichains of monomial ideals, for divisor-free
    triples; a level is a set of regions, each walked once per lane.

    x^u is in the e-th root summand of (x^g) iff q*u + (q-1)*1 - g lies in
    N*P(a) (q = p^e, N = ceil(t(q-1))), iff u >= lb and <v, u> >= r_v for
    every facet (v, c), with lb_i = max(0, ceil((g_i - q + 1)/q)) and
    r_v = ceil((N*c - <v, (q-1)*1 - g>)/q).  The key (lb, r) fixes the
    region whatever e is; a key that dominates another has a region inside
    the other's, so only minimal keys are walked, each over the prefix box
    of the first g that produced it: u_i <= max(lb_i, ceil((N*m_i - q + 1 + g_i)/q)),
    m_i the largest i-th exponent in a.  The lane takes the same integers in
    floor form, lb_i = g_i // q, r_v = (N*c - (q-1)(|v| - 1) + <v, g>) // q and
    (N*m_i + g_i) // q, from rows (*g, *<v, g>) kept per generator and
    offsets and caps kept per level.

    With an ``order`` e0, the order of p modulo d where den(t) = p^v*d and p
    does not divide d (None past ``MAX_PERIOD``), the step sums levels
    1..E + e0 - 1 and is exact.  E is the least e >= max(v, 1) with
    q > g_i and q > den(t)*(t*c + c + |v| + <v, g>) for every g and facet.
    Then lb = 0 and r_v = ceil(A + B/q), with A = t*c - |v| in (1/den(t))Z
    and B = d_e*c - A + <v, g>, d_e = N - t(q-1) in [0, 1), so |B| is below
    q/den(t) and r_v is ceil(A), or A + [B > 0] for integral A: it moves
    with e only through d_e, of period e0 from e = v on.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions, period=None):
        super().__init__(triple, opts, period)
        self.exact = self.order is not None
        self._walks: dict[tuple[int, ...], list[Exponent]] = {}
        self._rows: dict[Exponent, tuple[tuple[int, ...], int]] = {}
        self._level_rows: dict[int, tuple[int, tuple[int, ...], list[int]]] = {}

    @cached_property
    def _hull(self) -> tuple[tuple[tuple[Exponent, int], ...], list[int]]:
        """The facets of P(a) and the prefix maxima of its generators, built on first use."""
        hull = newton_hull(self.triple.a)
        return hull.facets, [hull.coordinate_maximum(i) for i in range(self.ring.nvars - 1)]

    def _row(self, g: Exponent) -> tuple[tuple[int, ...], int]:
        """g's row (*g, *<v, g>) over the facets (v, c) of P(a), kept per
        generator, and its bound for E: the largest g_i and den(t)*(t*c + c +
        |v| + <v, g>)."""
        if g not in self._rows:
            facets, num, den = self._hull[0], self.triple.t.numerator, self.triple.t.denominator
            dots = [sum(map(mul, v, g)) for v, _ in facets]
            bounds = (num * c + den * (c + sum(v) + d) for (v, c), d in zip(facets, dots))
            self._rows[g] = (*g, *dots), max(chain(g, bounds))
        return self._rows[g]

    def levels(self, state: tuple[Exponent, ...]) -> Sequence[int]:
        """1..E + order - 1, the exact step's levels, where an order exists;
        E reads the kept bound of each generator of ``state``."""
        if not self.exact:
            return super().levels(state)
        bound = max(self._row(g)[1] for g in state)
        e = max(self.v, 1)
        while self.ring.p**e <= bound:
            e += 1
        return range(1, e + self.order)

    def _summand(self, state: tuple[Exponent, ...], e: int) -> _Regions:
        """The region keys of level e from ``state``, each with its prefix box,
        from the level's (q, offsets, caps), kept per level: a key is
        (row + offset) // q and a box (cap + g_i) // q."""
        if e not in self._level_rows:
            q = self.ring.p**e
            N = _ceil_mul(self.triple.t, q - 1)
            facets, prefix_max = self._hull
            tops = (N * c - (q - 1) * (sum(v) - 1) for v, c in facets)
            self._level_rows[e] = q, ((0,) * self.ring.nvars + tuple(tops)), [N * m for m in prefix_max]
        q, offsets, caps = self._level_rows[e]
        regions: _Regions = {}
        for g in state:
            key = tuple([(x + off) // q for x, off in zip(self._row(g)[0], offsets)])
            if key not in regions:
                regions[key] = [(cap + gi) // q for cap, gi in zip(caps, g)]
        return regions

    def ascend(self, e: int) -> tuple[Exponent, ...]:
        """(a^{ceil(t p^e)})^{[1/p^e]} by ``monomial_power_root``, one base-p digit
        of the exponent at a time, so the plain power is never expanded."""
        p = self.ring.p
        return monomial_power_root(self.triple.a, _ceil_mul(self.triple.t, p**e), e, p).generators

    def _points(self, levels: Iterable[_Regions]) -> Iterator[list[Exponent]]:
        """Walks of the minimal region keys over ``levels``, lazily, each memoised."""
        boxes: _Regions = {}
        for regions in levels:
            for key, box in regions.items():
                boxes.setdefault(key, box)
        n = self.ring.nvars
        for key in exponent_antichain(boxes):
            if key not in self._walks:
                self._walks[key] = _lattice_walk(zip((v for v, _ in self._hull[0]), key[n:]), key[:n], boxes[key])
            yield self._walks[key]

    def join(self, levels: Iterable[_Regions]) -> tuple[Exponent, ...]:
        return exponent_antichain(chain.from_iterable(self._points(levels)))

    def contains(self, state: tuple[Exponent, ...], level: _Regions) -> bool:
        return not exponents_outside(state, chain.from_iterable(self._points([level])))

    def covers(self, level: _Regions, state: tuple[Exponent, ...]) -> bool:
        """Whether each g of ``state`` lies in a region of ``level``, a level of
        ``state`` (so its row is kept): g >= lb and <v, g> >= r_v, with no walk."""
        return all(any(all(map(ge, self._rows[g][0], key)) for key in level) for g in state)


def _lucas_floor(h: int, digits: Sequence[int], p: int) -> int:
    """The largest i <= h whose base-p digits are each at most those of N
    (``digits``, lowest first; 0 <= h <= N): by Lucas, the largest i <= h
    with C(N, i) nonzero mod p.  That is h's digits down to the first one
    above N's, then N's; read from the lowest digit up, each digit of h above
    N's resets every digit so far to N's."""
    i = low = 0
    unit = 1
    for d in digits:
        low += d * unit
        h_digit = h // unit % p
        i = low if h_digit > d else i + h_digit * unit
        unit *= p
    return i


class _BinomialLane(_AntichainLane):
    """States are exponent antichains, for a triple c*div(f) alone, with
    f = c1*x^A + c2*x^B, c <= 1, some delta_j = A_j - B_j prime to p and a
    Cartier level (``_binomial``).

    By Lucas, f^N is a sum of nonzero multiples of x^{BN + delta*i} over the
    i whose base-p digits are each at most N's.  For N < q = p^e those
    exponents lie in distinct classes mod q, so (x^g f^N)^{[1/q]} is the
    monomial ideal of the floors (g + BN + delta*i) // q.  Between
    consecutive breakpoints of the floors with delta_j > 0, those floors stay
    put and the floors with delta_j < 0 only fall as i grows, so below each
    breakpoint the largest such i (``_lucas_floor``) gives the minimal floors.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions, period=None):
        super().__init__(triple, opts, period)
        ((self.c, f),) = triple.divisor
        (A, _), (self.B, _) = f
        self.delta = tuple(map(sub, A, self.B))
        self._level_rows: dict[tuple[int, bool], tuple[int, int, list[int]]] = {}

    def _summand(self, state: tuple[Exponent, ...], e: int, ascending: bool = False) -> tuple[Exponent, ...]:
        """The antichain of the roots (x^g f^N)^{[1/q]}, g in ``state``, with
        N = ceil(c(q - 1)) for the chain and ceil(c q) for ``ascend``, from
        the level's (q, N, digits of N), kept per level; N < q either way."""
        p = self.ring.p
        if (e, ascending) not in self._level_rows:
            q = p**e
            N = _ceil_mul(self.c, q - 1 + ascending)
            self._level_rows[e, ascending] = q, N, [N // p**k % p for k in range(e)]
        q, N, digits = self._level_rows[e, ascending]
        floors = []
        for g in state:
            s = [gj + bj * N for gj, bj in zip(g, self.B)]
            ends = {N}
            for sj, dj in zip(s, self.delta):
                if dj > 0:
                    ends.update((m * q - sj - 1) // dj for m in range(sj // q + 1, (sj + dj * N) // q + 1))
            for h in ends:
                i = _lucas_floor(h, digits, p)
                floors.append(tuple((sj + dj * i) // q for sj, dj in zip(s, self.delta)))
        return exponent_antichain(floors)

    def ascend(self, e: int) -> tuple[Exponent, ...]:
        """(f^{ceil(c p^e)})^{[1/p^e]}, for e >= 1 and ceil(c p) < p."""
        return self._summand(self.unit, e, True)


def _binomial(T: Triple, period: _Period, ascending: bool) -> bool:
    """Whether ``_BinomialLane`` serves the triple: a Cartier level (so no a)
    and one entry c*div(f), f with two terms, c <= 1 and some delta_j prime
    to p; for the ascending summands also ceil(c p) < p, so ceil(c p^e) < p^e."""
    _, _, cartier = period
    if cartier is None or len(T.divisor.entries) != 1:
        return False
    ((c, f),) = T.divisor
    p = T.ring.p
    if len(f.terms) != 2 or c > 1 or (ascending and _ceil_mul(c, p) >= p):
        return False
    A, B = f.terms
    return any((a - b) % p for a, b in zip(A, B))


# first match: (test of the triple, its period and the direction, lane)
_LANES = (
    (_binomial, _BinomialLane),
    (lambda T, period, ascending: not T.divisor and T.a is not None, _LatticeLane),
    (lambda T, period, ascending: True, _PolynomialLane),
)


def _lane(T: Triple, opts: SigmaOptions, ascending: bool = False) -> _Lane:
    """The first lane of ``_LANES`` whose test holds, for the descending chain
    or for ``ascend``'s test-ideal summands; the one period search runs
    before the tests, so no lane is built that is not used."""
    period = _period(T)
    return next(lane for test, lane in _LANES if test(T, period, ascending))(T, opts, period)


def sigma(T: Triple, opts: SigmaOptions | None = None) -> SigmaResult:
    """The limit of the descending chain from R under the lane's step.

    The step is a function of the state, so the chain stops at its first
    repeat, a fixed point, which is the exact value, whatever e_max is,
    where the lane has a period (see the module docstring).  Otherwise the
    step sums levels 1..e_max, and the probe recomputes the final step at
    levels e_max + 1..e_max + probe and reports whether they added anything.
    The probe reports True unrun at R, which holds every level, and on a period.
    """
    opts = opts or SigmaOptions()
    lane = _lane(T, opts)
    state, n = _stabilize(
        lambda s, _: lane.chain_step(s),
        lane.unit,
        1,
        opts.n_max,
        f"chain did not stabilize within {opts.n_max} iterations",
    )
    proven = state == lane.unit or lane.exact
    # before max_e_used is read: the probe levels count
    probes = range(opts.e_max + 1, opts.e_max + 1 + opts.probe)
    probe_ok = proven or all(lane.contains(state, lane.level(state, e)) for e in probes)
    return SigmaResult(lane.to_ideal(state), n - 1, lane.max_e_used, probe_ok)


def sigma_step(J: Ideal, T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """One application of the step ``sigma`` iterates to an arbitrary nonzero
    ideal J: level e0 alone on a Cartier level e0, the lattice lane's exact
    levels on a monomial J, else the sum of levels 1..e_max."""
    if J.is_zero():
        raise ValueError("the step is defined for nonzero ideals")
    if J.ring != T.ring:
        raise ValueError("ideal and triple live in different rings")
    opts = opts or SigmaOptions()
    lane = _lane(T, opts) if all(g.is_monomial() for g in J.generators) else _PolynomialLane(T, opts)
    return lane.to_ideal(lane.step(lane.from_ideal(J)))


def sigma_prime_n(T: Triple, n: int, opts: SigmaOptions | None = None) -> Ideal:
    """The n-th tail sum from R, truncated over levels e in [n, n + e_max].

    A descending-in-n family of ideals whose n-th member contains the
    stabilized chain value; exposed for diagnostics and cross-checks, with
    no equality claim against the chain limit.
    """
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    opts = opts or SigmaOptions()
    lane = _lane(T, opts)
    return lane.to_ideal(lane.tail(lane.unit, n, n + opts.e_max))


def denominator_lcm(T: Triple) -> int:
    """lcm of the divisor coefficient denominators and, when a is present, of den(t)."""
    dens = [coef.denominator for coef, _ in T.divisor]
    if T.a is not None:
        dens.append(T.t.denominator)
    return lcm(*dens)


def tau_b(T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """The stabilized ascending sum of test-ideal summands.

    The e-th summand is the p^e-th root of prod f_i^{ceil(t_i p^e)} times
    the plain power a^{ceil(t p^e)}.  The summands themselves ascend
    (ceil(t p^{e+1}) <= p * ceil(t p^e) pushes each term into the next), so
    the sum over levels 1..e is the e-th summand and no sum is formed; the
    loop short-circuits on reaching the unit ideal, and exhausting n_max
    first raises instead of returning a too-small ideal.  Each summand is
    ``ascend`` of the lane ``_lane`` picks for this direction.  Divisor-free
    triples stay on exponent antichains: the lattice lane takes the root one
    base-p digit of the exponent at a time (``monomial_power_root``), so
    a^{ceil(t p^e)} is never expanded, and the value becomes an Ideal once
    at the end.  So do binomial triples of the binomial lane's scope with
    ceil(c p) < p, through the floors of the terms of f^{ceil(c p^e)}.
    Otherwise the polynomial lane goes digit by digit in the f_i exponents,
    with the power of a folded in before the first digit.

    Stabilization is declared after a window of max(2, v + e0) no-growth
    levels, (v, e0) the lane's ``v`` and ``order``: the exponents
    ceil(t p^e) settle into a cycle of period e0 once e >= v, and plateaus
    inside that transient are routine (an exponent just under a threshold
    stays flat for ~log_p(den) levels before jumping).  For a divisor-only
    triple with p not dividing den the window is a proof: ceil(t p^(e+e0))
    = t p^e (p^e0 - 1) + ceil(t p^e), so by (I^[q] K)^[1/q] = I K^[1/q]
    summand e + e0 is the level-e0 summand of summand e, and e0 levels
    without growth repeat forever.  Elsewhere it is evidence.  An order past
    n_max gives a window no run of n_max levels meets, and one past
    ``MAX_PERIOD`` is not found, so either way the window is n_max + 1 and
    only the unit ideal ends the sum.
    """
    opts = opts or SigmaOptions()
    lane = _lane(T, opts, ascending=True)
    order = lane.order or opts.n_max + 1
    window = max(2, lane.v + order) if order <= opts.n_max else opts.n_max + 1
    # no summand is the zero ideal, so the first one counts as growth from None
    total, _ = _stabilize(
        lambda _, e: lane.ascend(e),
        None,
        window,
        opts.n_max,
        f"test-ideal sum did not stabilize within {opts.n_max} levels (window {window})",
        stop=lambda total: total == lane.unit,
    )
    return lane.to_ideal(total)


def is_sharply_fpure(T: Triple, opts: SigmaOptions | None = None) -> bool:
    """Whether the chain value is all of R.

    One step suffices both ways: the chain starts at R, so step(R) = R
    means the chain is constant, while step(R) proper traps the whole
    chain inside a proper ideal.  On a Cartier period e0 the step is level
    e0; otherwise the first level that is R ends the step.
    """
    lane = _lane(T, opts or SigmaOptions())
    return lane.chain_step(lane.unit) == lane.unit


def is_strongly_fregular(T: Triple, opts: SigmaOptions | None = None) -> bool:
    """Whether the stabilized test ideal is all of R."""
    return tau_b(T, opts).is_unit()


@dataclass(eq=False)
class MonomialTheoremReport:
    """Outcome of comparing the chain value against the Newton-polyhedron formula."""

    equal: bool
    ideal: Ideal
    newton: MonomialIdeal
    sigma_result: SigmaResult


def verify_monomial_theorem(
    a: MonomialIdeal,
    t: Fraction | int,
    p: int,
    variables: Iterable[str] | None = None,
    opts: SigmaOptions | None = None,
) -> MonomialTheoremReport:
    """Compare the divisor-free chain value of (a, t) against the closed
    Newton membership ideal {x^v : v + 1 in t*P(a)}.

    Requires gcd(p, den(t)) = 1.  The chain runs on the lattice lane, whose
    step is exact where the lane's order of p modulo den(t) is at most
    ``MAX_PERIOD``; a longer order is not searched for, and the level sums
    of ``opts`` are taken instead.

    Monomial ideals are equal iff their minimal antichains are, and the lane's
    ``to_ideal`` gives one monic monomial per antichain element, so ``equal``
    compares the antichain of those exponents with the Newton ideal's, with
    no Groebner basis.  ``newton_ideal`` keeps that ideal on the hull of
    ``a``, which the chain's lane built, so asking for it again costs no walk.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("exponent t must be positive")
    if not a.is_proper():
        raise ValueError("requires a proper nonzero monomial ideal")
    if t.denominator % p == 0:
        raise ValueError("the exponent denominator must be prime to p")
    if variables is None:
        variables = ("x", "y", "z", "w")[: a.nvars] if a.nvars <= 4 else tuple(
            f"x{i+1}" for i in range(a.nvars)
        )
    ring = PolyRing(p, variables)
    result = sigma(Triple(ring, a=a, t=t), opts)
    expected = newton_ideal(a, t, "closed")
    equal = exponent_antichain(g.leading_exponent() for g in result.ideal.generators) == expected.generators
    return MonomialTheoremReport(equal=equal, ideal=result.ideal, newton=expected, sigma_result=result)
