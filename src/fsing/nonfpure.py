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

Truncating the sum at e_max only shrinks the result, and the step is
monotone in J, so the truncated limit always sits inside the true ideal;
the probe (recomputing the final step at a few larger e) is a stability
check that the truncation did not lose anything visible.

Each level is evaluated by one of two lanes, chosen once per triple; a
lane owns its caches, the cached step, the tail sums and the probe:

* the polynomial lane holds ideals of R and takes every root one base-p
  digit of the f_i exponents at a time (``root_of_product``, called from
  ``_PolynomialLane.root`` only), so f_i^N is never expanded; the Cartier
  chain and the test-ideal sum of a triple with a divisor take their
  levels from it too;
* the lattice lane serves triples whose divisor list is empty: they never
  leave the lattice of monomial ideals, held as exponent antichains, and a
  monomial x^w enters the e-th root iff p^e*w + (p^e - 1)*1 - g lies in
  N*P(a) for some current generator g (the usual top-corner argument on
  up-closed exponent sets).  That is a region cut out by integer rows
  against the facets of P(a); a level is a set of region keys, which recur
  across generators and levels, and each minimal key is walked once per
  triple by ``newton._lattice_walk``, so no closure power is materialized.

A lane also supplies the ascending test-ideal summands (``ascend``); the
lattice lane keeps them on exponent antichains, with no Newton hull: level
e is the root (a^n)^{[1/p^e]} of a plain power, n = ceil(t p^e), taken one
base-p digit of n at a time through a^m = sum_d x^{d.g} (a^{(m - |d|)/p})^{[p]}
over digit vectors d (``monomial_power_root``), so a^n is never expanded.

The descending chain, the Cartier chain and the ascending test-ideal sum
all run on one driver, ``_stabilize``, over the lane ``_lane`` picks; it
iterates until a window of consecutive repeats, and each caller keeps its
own failure message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import NonconvergenceError
from .frobenius import monomial_power_root, root_of_product
from .groebner import Ideal
from .newton import MonomialIdeal, _lattice_walk, integral_closure_power, newton_hull, newton_ideal
from .ring import Exponent, Polynomial, PolyRing, ceil_div, exponent_antichain, monomial_divides

_State = TypeVar("_State")
_Regions = dict[tuple[int, ...], list[int]]  # lattice-lane region key (lb + r) -> prefix box

MAX_CARTIER_PERIOD = 12


def _ceil_mul(t: Fraction, m: int) -> int:
    """ceil(t * m) for t >= 0, m >= 0."""
    return ceil_div(t.numerator * m, t.denominator)


def _order_mod(p: int, m: int, bound: int) -> int | None:
    """Least e in [1, bound] with p^e = 1 mod m (1 when m = 1); None if none."""
    power = 1
    for e in range(1, bound + 1):
        power = power * p % m
        if power == 1 % m:
            return e
    return None


@dataclass(frozen=True)
class SigmaOptions:
    """Budgets for the stabilizing iterations.

    e_max: largest Frobenius level in each step's sum.
    probe: extra levels checked after stabilization (stability evidence).
    n_max: bound on iterations before giving up.
    window: consecutive equal steps required to declare stabilization.
    """

    e_max: int = 4
    probe: int = 2
    n_max: int = 20
    window: int = 2

    def __post_init__(self):
        if self.e_max < 1:
            raise ValueError("e_max must be at least 1")
        if self.probe < 0:
            raise ValueError("probe must be nonnegative")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")


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
    e_max_used: largest Frobenius level evaluated (probe included).
    probe_stable: the probe levels added nothing to the final ideal.
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
) -> tuple[_State, int, int]:
    """Iterate x_n = advance(x_{n-1}, n) from x_0 = ``x`` for n up to
    ``n_max``, until ``window`` consecutive x_n equal x_{n-1} or ``stop(x_n)``
    holds.

    Returns (x_n, n, first), where x_first is the first member of the final
    run of equal values.  Raises NonconvergenceError(failure) when n_max
    comes first.
    """
    stable, first = 0, 0
    for n in range(1, n_max + 1):
        new = advance(x, n)
        if new == x:
            stable += 1
        else:
            stable, first = 0, n
        x = new
        if stable >= window or (stop is not None and stop(x)):
            return x, n, first
    raise NonconvergenceError(failure)


class _Lane:
    """One chain lane for one triple: the step of the descending chain,
    cached per state, and the largest level evaluated, ``max_e_used``.

    A lane supplies ``unit``, ``key``, ``_summand`` (the level-e summand of a
    state), ``ascend`` (the level-e test-ideal summand), ``join`` (the sum of
    summands), ``contains`` and ``to_ideal``; both lanes give the same ideals.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions):
        self.triple = triple
        self.ring = triple.ring
        self.opts = opts
        self.max_e_used = 0
        self._steps: dict = {}

    def level(self, state, e: int):
        self.max_e_used = max(self.max_e_used, e)
        return self._summand(state, e)

    def tail(self, state, e_lo: int, e_hi: int):
        """The sum of level-e summands for e in [e_lo, e_hi], from ``state``."""
        return self.join(self.level(state, e) for e in range(e_lo, e_hi + 1))

    def step(self, state):
        key = self.key(state)
        if key not in self._steps:
            self._steps[key] = self.tail(state, 1, self.opts.e_max)
        return self._steps[key]

    def probe(self, state) -> bool:
        """True when levels (e_max, e_max + probe] add nothing to ``state``."""
        lo = self.opts.e_max + 1
        return all(self.contains(state, self.level(state, e)) for e in range(lo, lo + self.opts.probe))


class _PolynomialLane(_Lane):
    """States are ideals of R; every level is a digit-by-digit Frobenius root,
    on digit prefixes and products prod f_i^{k_i} that the lane owns."""

    def __init__(self, triple: Triple, opts: SigmaOptions):
        super().__init__(triple, opts)
        self.unit = Ideal.unit(self.ring)
        self._roots: dict = {}
        self._powers: dict = {}
        self._closure: dict[int, MonomialIdeal] = {}

    @staticmethod
    def key(J: Ideal):
        return J.canonical_key()

    def root(self, J: Ideal, extra: MonomialIdeal | None, exps: list[int], e: int) -> Ideal:
        """(J * extra * prod_i f_i^{exps_i})^{[1/p^e]}, one base-p digit of each
        exps_i at a time; f_i^{exps_i} is never expanded.

        The monomial factor ``extra`` is no Frobenius power, so it joins J
        before the first digit.  Digit prefixes are memoised per (J, extra):
        at t_i = 1 every digit is p - 1 and level e is one root above e - 1.
        """
        gens = J.groebner_basis().elements
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
    def to_ideal(J: Ideal) -> Ideal:
        return J


class _LatticeLane(_Lane):
    """States are exponent antichains of monomial ideals, for divisor-free
    triples; a level is a set of regions, each walked once per lane.

    x^u is in the e-th root summand of (x^g) iff q*u + (q-1)*1 - g lies in
    N*P(a) (q = p^e, N = ceil(t(q-1))), iff u >= lb and <v, u> >= r_v for
    every facet (v, c), with lb_i = max(0, ceil((g_i - q + 1)/q)) and
    r_v = ceil((N*c - <v, (q-1)*1 - g>)/q).  The key (lb, r) fixes the
    region whatever e is; a key that dominates another has a region inside
    the other's, so only minimal keys are walked, each over the prefix box
    of the first g that produced it.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions):
        super().__init__(triple, opts)
        self.unit = ((0,) * self.ring.nvars,)
        self._walks: dict[tuple[int, ...], list[Exponent]] = {}

    @cached_property
    def _hull(self) -> tuple[tuple[tuple[Exponent, int], ...], list[int]]:
        """The facets of P(a) and the prefix maxima of its generators, built on first use."""
        hull = newton_hull(self.triple.a)
        return hull.facets, [hull.coordinate_maximum(i) for i in range(self.ring.nvars - 1)]

    @staticmethod
    def key(state: tuple[Exponent, ...]):
        return state

    def _summand(self, state: tuple[Exponent, ...], e: int) -> _Regions:
        """The region keys of level e from ``state``, each with its prefix box."""
        q = self.ring.p**e
        N = _ceil_mul(self.triple.t, q - 1)
        facets, prefix_max = self._hull
        regions: _Regions = {}
        for g in state:
            base = [q - 1 - gi for gi in g]
            lb = [max(0, ceil_div(-b, q)) for b in base]
            key = (*lb, *(ceil_div(N * c - sum(map(mul, v, base)), q) for v, c in facets))
            if key not in regions:
                regions[key] = [max(lo, ceil_div(N * m - b, q)) for lo, m, b in zip(lb, prefix_max, base)]
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
        return all(any(monomial_divides(h, w) for h in state) for points in self._points([level]) for w in points)

    def to_ideal(self, state: tuple[Exponent, ...]) -> Ideal:
        return MonomialIdeal(self.ring.nvars, state).to_ideal(self.ring)


def _lane(T: Triple, opts: SigmaOptions) -> _Lane:
    return (_LatticeLane if not T.divisor and T.a is not None else _PolynomialLane)(T, opts)


def sigma(T: Triple, opts: SigmaOptions | None = None) -> SigmaResult:
    """The limit of the descending chain from R under the step above.

    Stabilization is declared after ``window`` consecutive equal steps
    (cached, so the window re-checks are free); then the probe recomputes
    the final step at levels up to e_max + probe and reports whether they
    added anything.
    """
    opts = opts or SigmaOptions()
    lane = _lane(T, opts)
    state, _, first = _stabilize(
        lambda s, _: lane.step(s),
        lane.unit,
        opts.window,
        opts.n_max,
        f"chain did not stabilize within {opts.n_max} iterations (window {opts.window})",
    )
    probe_ok = lane.probe(state)
    return SigmaResult(lane.to_ideal(state), first, lane.max_e_used, probe_ok)


def sigma_step(J: Ideal, T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """One application of the step to an arbitrary nonzero ideal J."""
    if J.is_zero():
        raise ValueError("the step is defined for nonzero ideals")
    if J.ring != T.ring:
        raise ValueError("ideal and triple live in different rings")
    opts = opts or SigmaOptions()
    lane = _lane(T, opts) if all(g.is_monomial() for g in J.generators) else _PolynomialLane(T, opts)
    if isinstance(lane, _LatticeLane):
        J = exponent_antichain(g.leading_exponent() for g in J.generators)
    return lane.to_ideal(lane.step(J))


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


def cartier_period(T: Triple) -> int | None:
    """Least e with (p^e - 1) clearing every coefficient denominator.

    None when p divides one of the reduced denominators (no such e exists)
    or when the least e exceeds ``MAX_CARTIER_PERIOD``.
    """
    L = denominator_lcm(T)
    if L % T.ring.p == 0:
        return None
    return _order_mod(T.ring.p, L, MAX_CARTIER_PERIOD)


def sigma_fast_cartier(T: Triple, opts: SigmaOptions | None = None) -> SigmaResult:
    """Direct chain for divisor-only triples with a Cartier period e0:
    the n-th member is the p^{n*e0}-th root of prod f_i^{t_i (p^{n*e0} - 1)}
    (integral exponents by the choice of e0), so no inner sum over e is
    needed.  Stabilization and probe follow the same window semantics; the
    chain starts at its first member, not at R.
    """
    opts = opts or SigmaOptions()
    if T.a is not None:
        raise ValueError("the fast Cartier chain requires a divisor-only triple")
    e0 = cartier_period(T)
    if e0 is None:
        raise ValueError(
            "no Cartier period: p divides a coefficient denominator "
            f"or the period exceeds nonfpure.MAX_CARTIER_PERIOD = {MAX_CARTIER_PERIOD}"
        )
    lane = _lane(T, opts)
    # no member equals None, so the first one counts as growth from None
    current, l, first = _stabilize(
        lambda _, l: lane.level(lane.unit, l * e0),
        None,
        opts.window,
        opts.n_max,
        f"Cartier chain did not stabilize within {opts.n_max} members (window {opts.window})",
    )
    probe_ok = all(lane.level(lane.unit, k * e0) == current for k in range(l + 1, l + 1 + opts.probe))
    return SigmaResult(current, first, lane.max_e_used, probe_ok)


def tau_b(T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """The stabilized ascending sum of test-ideal summands.

    The e-th summand is the p^e-th root of prod f_i^{ceil(t_i p^e)} times
    the plain power a^{ceil(t p^e)}.  The summands themselves ascend
    (ceil(t p^{e+1}) <= p * ceil(t p^e) pushes each term into the next), so
    the sum over levels 1..e is the e-th summand and no sum is formed; the
    loop short-circuits on reaching the unit ideal, and exhausting n_max
    first raises instead of returning a too-small ideal.  Each summand is
    ``ascend`` of the lane ``_lane`` picks.  Divisor-free triples stay on
    exponent antichains: the lattice lane takes the root one base-p digit of
    the exponent at a time (``monomial_power_root``), so a^{ceil(t p^e)} is
    never expanded, and the value becomes an Ideal once at the end.
    Otherwise the polynomial lane goes digit by digit in the f_i exponents,
    with the power of a folded in before the first digit.

    Stabilization is declared after a window of no-growth levels, widened
    to outlast the ceiling transients: the exponents ceil(t p^e) settle
    into a cycle once p^e clears the p-part p^v of every denominator and e
    has advanced one full period of p modulo the p-free part; plateaus
    inside that transient are routine (an exponent just under a threshold
    stays flat for ~log_p(den) levels before jumping), so the window is at
    least v plus that period.
    """
    opts = opts or SigmaOptions()
    p = T.ring.p
    L, v = denominator_lcm(T), 0
    while L % p == 0:
        L //= p
        v += 1
    window = max(opts.window, v + _order_mod(p, L, L))
    lane = _lane(T, opts)
    # no summand is the zero ideal, so the first one counts as growth from None
    total, _, _ = _stabilize(
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
    chain inside a proper ideal.
    """
    lane = _lane(T, opts or SigmaOptions())
    return lane.step(lane.unit) == lane.unit


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

    Requires gcd(p, den(t)) = 1.  The level budget defaults to a multiple
    of the order e0 of p modulo den(t) (the levels where t(p^e - 1) is
    integral, which drive the containment from the Newton side), and
    doubles while the probe reports instability.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("exponent t must be positive")
    if not a.is_proper():
        raise ValueError("requires a proper nonzero monomial ideal")
    if t.denominator % p == 0:
        raise ValueError("the exponent denominator must be prime to p")
    e0 = _order_mod(p, t.denominator, t.denominator)
    if variables is None:
        variables = ("x", "y", "z", "w")[: a.nvars] if a.nvars <= 4 else tuple(
            f"x{i+1}" for i in range(a.nvars)
        )
    ring = PolyRing(p, variables)
    triple = Triple(ring, a=a, t=t)
    if opts is None:
        opts = SigmaOptions(e_max=max(4, 2 * e0), probe=max(2, e0), n_max=30, window=2)
    result = sigma(triple, opts)
    while not result.probe_stable and 2 * opts.e_max <= 64:
        opts = replace(opts, e_max=2 * opts.e_max)
        result = sigma(triple, opts)
    expected = newton_ideal(a, t, "closed")
    equal = result.ideal == expected.to_ideal(ring)
    return MonomialTheoremReport(equal=equal, ideal=result.ideal, newton=expected, sigma_result=result)
