"""Non-F-pure ideals, big generalized test ideals, and F-purity tests.

The data is a triple: a polynomial ring R = F_p[x_1..x_n], a formal
Q-divisor sum t_i * div(f_i) with positive rational coefficients, and an
optional monomial ideal a with a positive rational exponent t.

The descending chain starts at R and applies a fixed step until it
stabilizes; the e-th summand of the step sends an ideal J to the Frobenius
root

    ( J * prod_i f_i^{ceil(t_i (p^e - 1))} * cl(a^{ceil(t (p^e - 1))}) )^{[1/p^e]}

where cl is the integral closure.  Summing over all R-linear maps
F^e_* R -> R collapses to this single root because Hom_R(F^e_* R, R) is
free of rank one over F^e_* R, generated by the projection onto the top
basis monomial; the divisor twist is absorbed by the f_i powers.  The
ascending chain for the test ideal is the same picture with exponents
ceil(t_i p^e) and plain powers of a.  Every such root is taken one base-p
digit of the f_i exponents at a time (``root_of_product``), so f_i^N is
never expanded.

Truncating the sum at e_max only shrinks the result, and the step is
monotone in J, so the truncated limit always sits inside the true ideal;
the probe (recomputing the final step at a few larger e) is a stability
check that the truncation did not lose anything visible.

Triples whose divisor list is empty and whose a is monomial never leave
the lattice of monomial ideals: the step is evaluated there by exact
integer programming against the Newton polyhedron of a (a monomial x^w
enters the e-th root iff p^e*w + (p^e - 1)*1 - g lies in N*P(a) for some
current generator g, by the usual top-corner argument on up-closed
exponent sets), avoiding any expansion of closure powers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from typing import Iterable

from .errors import DegreeGuardError, NonconvergenceError
from .frobenius import root_of_product
from .groebner import Ideal
from .newton import (
    MonomialIdeal,
    exponent_antichain,
    integral_closure_power,
    monomial_divides,
    newton_hull,
    newton_ideal,
)
from .ring import Exponent, Polynomial, PolyRing

MAX_PREFIX_POINTS = 2_000_000


def _ceil_mul(t: Fraction, m: int) -> int:
    """ceil(t * m) for t >= 0, m >= 0."""
    return -((-t.numerator * m) // t.denominator)


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, any sign of a."""
    return -((-a) // b)


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
    converged: bool
    probe_stable: bool


class _SigmaEngine:
    """Evaluates the step ideal for one triple, caching per-level data.

    Two lanes produce identical ideals: a generic lane through polynomial
    Frobenius roots, and an integer lattice lane for divisor-free monomial
    triples that never materializes closure powers.
    """

    def __init__(self, triple: Triple, opts: SigmaOptions):
        self.triple = triple
        self.opts = opts
        self.ring = triple.ring
        self.p = self.ring.p
        self.a = triple.a
        self.monomial_lane = not triple.divisor.entries and self.a is not None
        self.max_e_used = 0
        self._step_cache: dict = {}
        self._roots: dict = {}
        self._closure_cache: dict[int, MonomialIdeal] = {}
        if self.monomial_lane:
            self._hull = newton_hull(self.a)
            self._amax = tuple(self._hull.coordinate_maximum(i) for i in range(self.ring.nvars))

    # -- shared interface ---------------------------------------------------

    def initial_state(self):
        if self.monomial_lane:
            return ((0,) * self.ring.nvars,)
        return Ideal.unit(self.ring)

    def state_key(self, state):
        return state if self.monomial_lane else state.canonical_key()

    @staticmethod
    def states_equal(s1, s2) -> bool:
        # tuple equality in the lattice lane, reduced-basis equality otherwise
        return s1 == s2

    def step(self, state):
        key = self.state_key(state)
        cached = self._step_cache.get(key)
        if cached is None:
            es = range(1, self.opts.e_max + 1)
            cached = self._step_monomial(state, es) if self.monomial_lane else self._step_generic(state, es)
            self._step_cache[key] = cached
        return cached

    def tail(self, state, e_lo: int, e_hi: int):
        """The sum of level-e summands for e in [e_lo, e_hi], from ``state``."""
        es = range(e_lo, e_hi + 1)
        if self.monomial_lane:
            return self._step_monomial(state, es)
        return self._step_generic(state, es)

    def probe(self, state) -> bool:
        """True when levels (e_max, e_max + probe] add nothing to ``state``."""
        if self.opts.probe == 0:
            return True
        lo, hi = self.opts.e_max + 1, self.opts.e_max + self.opts.probe
        if self.monomial_lane:
            for e in range(lo, hi + 1):
                self.max_e_used = max(self.max_e_used, e)
                for g in state:
                    for w in self._lattice_candidates(g, e):
                        if not any(monomial_divides(h, w) for h in state):
                            return False
            return True
        for e in range(lo, hi + 1):
            term = self._term_generic(state, e)
            if not state.contains_ideal(term):
                return False
        return True

    def to_ideal(self, state) -> Ideal:
        if self.monomial_lane:
            return MonomialIdeal(self.ring.nvars, state).to_ideal(self.ring)
        return state

    def state_is_unit(self, state) -> bool:
        if self.monomial_lane:
            return state == ((0,) * self.ring.nvars,)
        return state.is_unit()

    # -- generic lane ---------------------------------------------------------

    def _term_generic(self, J: Ideal, e: int) -> Ideal:
        """(J * prod_i f_i^{ceil(t_i (p^e - 1))} * cl(a^M))^{[1/p^e]}, one base-p
        digit of each divisor exponent at a time; f^N is never expanded.

        The closure factor is no Frobenius power, so it joins J before the
        first digit.  Digit prefixes are memoised per (J, closure level): at
        t = 1 every digit is p - 1 and level e is one root above level e - 1.
        """
        self.max_e_used = max(self.max_e_used, e)
        q1 = self.p**e - 1
        gens = J.groebner_basis().elements
        if self.a is not None:
            if e not in self._closure_cache:
                self._closure_cache[e] = integral_closure_power(self.a, _ceil_mul(self.triple.t, q1))
            gens = [h * Polynomial(self.ring, {m: 1}) for h in gens for m in self._closure_cache[e].generators]
        memo = self._roots.setdefault((J.canonical_key(), e if self.a is not None else None), {})
        factors = [(f, _ceil_mul(coef, q1)) for coef, f in self.triple.divisor.entries]
        return root_of_product(self.ring, gens, factors, e, memo)

    def _step_generic(self, J: Ideal, es) -> Ideal:
        gens: list[Polynomial] = []
        for e in es:
            gens.extend(self._term_generic(J, e).generators)
        return Ideal(self.ring, gens)

    # -- lattice lane -----------------------------------------------------------

    def _lattice_candidates(self, g: Exponent, e: int) -> list[Exponent]:
        """Members covering the minimal generators of the e-th root summand of (x^g).

        A monomial x^w belongs iff q*w + (q-1)*1 - g lies in N*P(a), with
        q = p^e and N = ceil(t(q-1)); the walk scans the first n-1
        coordinates over a box that provably contains all minimal
        generators and closes each fiber with the least feasible last
        coordinate.
        """
        q = self.p**e
        n = self.ring.nvars
        N = _ceil_mul(self.triple.t, q - 1)
        base = [q - 1 - gi for gi in g]
        lb = [max(0, _ceil_div(-b, q)) for b in base]
        ub = [max(lb[i], _ceil_div(N * self._amax[i] - base[i], q)) for i in range(n)]
        if prod(ub[i] - lb[i] + 1 for i in range(n - 1)) > MAX_PREFIX_POINTS:
            raise DegreeGuardError("lattice step walk exceeds the configured box cap")
        facets = self._hull.facets
        last = n - 1
        out: list[Exponent] = []
        point = [0] * n

        def close_fiber():
            wn = lb[last]
            for wf, c in facets:
                partial = wf[last] * base[last]
                for j in range(last):
                    partial += wf[j] * (q * point[j] + base[j])
                need_total = N * c - partial
                wl = wf[last]
                if wl == 0:
                    if need_total > 0:
                        return
                else:
                    need = _ceil_div(need_total, wl * q)
                    if need > wn:
                        wn = need
            point[last] = wn
            out.append(tuple(point))

        def walk(i: int):
            if i == last:
                close_fiber()
                return
            for v in range(lb[i], ub[i] + 1):
                point[i] = v
                walk(i + 1)

        walk(0)
        return out

    def _step_monomial(self, state: tuple[Exponent, ...], es) -> tuple[Exponent, ...]:
        candidates: list[Exponent] = []
        for e in es:
            self.max_e_used = max(self.max_e_used, e)
            for g in state:
                candidates.extend(self._lattice_candidates(g, e))
        return exponent_antichain(candidates)


def sigma(T: Triple, opts: SigmaOptions | None = None) -> SigmaResult:
    """The limit of the descending chain from R under the step above.

    Stabilization is declared after ``window`` consecutive equal steps
    (cached, so the window re-checks are free); then the probe recomputes
    the final step at levels up to e_max + probe and reports whether they
    added anything.
    """
    opts = opts or SigmaOptions()
    engine = _SigmaEngine(T, opts)
    state = engine.initial_state()
    stable = 0
    iterations = None
    for n in range(1, opts.n_max + 1):
        new = engine.step(state)
        if engine.states_equal(new, state):
            if iterations is None:
                iterations = n - 1
            stable += 1
        else:
            iterations = None
            stable = 0
        state = new
        if stable >= opts.window:
            probe_ok = engine.probe(state)
            return SigmaResult(
                ideal=engine.to_ideal(state),
                iterations=iterations,
                e_max_used=engine.max_e_used,
                converged=True,
                probe_stable=probe_ok,
            )
    raise NonconvergenceError(
        f"chain did not stabilize within {opts.n_max} iterations (window {opts.window})"
    )


def sigma_step(J: Ideal, T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """One application of the step to an arbitrary nonzero ideal J."""
    if J.is_zero():
        raise ValueError("the step is defined for nonzero ideals")
    if J.ring != T.ring:
        raise ValueError("ideal and triple live in different rings")
    opts = opts or SigmaOptions()
    engine = _SigmaEngine(T, opts)
    if engine.monomial_lane and all(g.is_monomial() for g in J.generators):
        state = exponent_antichain(g.leading_exponent() for g in J.generators)
        return engine.to_ideal(engine.step(state))
    engine.monomial_lane = False
    return engine.step(J)


def sigma_prime_n(T: Triple, n: int, opts: SigmaOptions | None = None) -> Ideal:
    """The n-th tail sum from R, truncated over levels e in [n, n + e_max].

    A descending-in-n family of ideals whose n-th member contains the
    stabilized chain value; exposed for diagnostics and cross-checks, with
    no equality claim against the chain limit.
    """
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    opts = opts or SigmaOptions()
    engine = _SigmaEngine(T, opts)
    state = engine.initial_state()
    result = engine.tail(state, n, n + opts.e_max)
    return engine.to_ideal(result) if engine.monomial_lane else result


def cartier_period(T: Triple, bound: int = 12) -> int | None:
    """Least e with (p^e - 1) clearing every coefficient denominator.

    None when p divides one of the reduced denominators (no such e exists)
    or when the least e exceeds ``bound``.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    dens = [coef.denominator for coef, _ in T.divisor.entries]
    if T.a is not None:
        dens.append(T.t.denominator)
    L = lcm(*dens) if dens else 1
    if L == 1:
        return 1
    if L % T.ring.p == 0:
        return None
    power = 1
    for e in range(1, bound + 1):
        power = (power * T.ring.p) % L
        if power == 1:
            return e
    return None


def sigma_fast_cartier(T: Triple, opts: SigmaOptions | None = None) -> SigmaResult:
    """Direct chain for divisor-only triples with a Cartier period e0:
    the n-th member is the p^{n*e0}-th root of prod f_i^{t_i (p^{n*e0} - 1)}
    (integral exponents by the choice of e0), so no inner sum over e is
    needed.  Stabilization and probe follow the same window semantics.
    """
    opts = opts or SigmaOptions()
    if T.a is not None:
        raise ValueError("the fast Cartier chain requires a divisor-only triple")
    e0 = cartier_period(T)
    if e0 is None:
        raise ValueError("no Cartier period: p divides a coefficient denominator or the bound is exceeded")
    ring = T.ring
    memo: dict = {}

    def member(l: int) -> Ideal:
        e = l * e0
        factors = [(f, int(coef * (ring.p**e - 1))) for coef, f in T.divisor.entries]
        return root_of_product(ring, [ring.one()], factors, e, memo)

    previous = None
    stable = 0
    iterations = None
    max_e = 0
    for l in range(1, opts.n_max + 1):
        current = member(l)
        max_e = l * e0
        if previous is not None and current == previous:
            if iterations is None:
                iterations = l - 1
            stable += 1
        elif previous is not None:
            iterations = None
            stable = 0
        previous = current
        if stable >= opts.window:
            probe_ok = True
            for lp in range(l + 1, l + 1 + opts.probe):
                max_e = lp * e0
                if member(lp) != current:
                    probe_ok = False
                    break
            return SigmaResult(
                ideal=current,
                iterations=iterations,
                e_max_used=max_e,
                converged=True,
                probe_stable=probe_ok,
            )
    raise NonconvergenceError(
        f"Cartier chain did not stabilize within {opts.n_max} members (window {opts.window})"
    )


def _tau_window(T: Triple, window: int) -> int:
    """Stabilization window wide enough to outlast ceiling transients.

    The summand exponents ceil(t p^e) settle into a cycle once p^e clears
    the p-part of every denominator and e has advanced one full period of
    p modulo the p-free part; plateaus inside that transient are routine
    (an exponent just under a threshold stays flat for ~log_p(den) levels
    before jumping), so the no-growth window must cover it.
    """
    p = T.ring.p
    L = T.t.denominator if T.a is not None else 1
    for coef, _ in T.divisor.entries:
        L = lcm(L, coef.denominator)
    v = 0
    while L % p == 0:
        L //= p
        v += 1
    period = 1
    if L > 1:
        residue = p % L
        while residue != 1 and period <= L:
            residue = (residue * p) % L
            period += 1
    return max(window, v + period)


def tau_b(T: Triple, opts: SigmaOptions | None = None) -> Ideal:
    """The stabilized ascending sum of test-ideal summands.

    The e-th summand is the p^e-th root of prod f_i^{ceil(t_i p^e)} times
    the plain power a^{ceil(t p^e)}, taken digit by digit with the power of
    a folded in before the first digit; the summands themselves ascend
    (ceil(t p^{e+1}) <= p * ceil(t p^e) pushes each term into the next),
    so the sum is capped at R and the loop short-circuits on reaching the
    unit ideal.  Stabilization is declared after a window of no-growth
    levels; the window is widened automatically to cover the ceiling
    transient of the exponent denominators (see the helper above), and
    exhausting n_max first raises instead of returning a too-small ideal.
    """
    opts = opts or SigmaOptions()
    ring = T.ring
    p = ring.p
    window = _tau_window(T, opts.window)
    total = Ideal.zero(ring)
    stable = 0
    memos: dict = {}
    for e in range(1, opts.n_max + 1):
        q = p**e
        factors = [(f, _ceil_mul(coef, q)) for coef, f in T.divisor.entries]
        n = _ceil_mul(T.t, q) if T.a is not None else None
        gens = [Polynomial(ring, {m: 1}) for m in T.a.power(n).generators] if n is not None else [ring.one()]
        term = root_of_product(ring, gens, factors, e, memos.setdefault(n, {}))
        grown = total + term
        if grown == total:
            stable += 1
        else:
            stable = 0
        total = grown
        if total.is_unit():
            return total
        if stable >= window:
            return total
    raise NonconvergenceError(
        f"test-ideal sum did not stabilize within {opts.n_max} levels (window {window})"
    )


def is_sharply_fpure(T: Triple, opts: SigmaOptions | None = None) -> bool:
    """Whether the chain value is all of R.

    One step suffices both ways: the chain starts at R, so step(R) = R
    means the chain is constant, while step(R) proper traps the whole
    chain inside a proper ideal.
    """
    opts = opts or SigmaOptions()
    engine = _SigmaEngine(T, opts)
    return engine.state_is_unit(engine.step(engine.initial_state()))


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
    e_max_final: int


def _multiplicative_order(p: int, m: int) -> int:
    if m == 1:
        return 1
    value = p % m
    power = value
    for e in range(1, m + 1):
        if power == 1:
            return e
        power = (power * value) % m
    raise ValueError(f"{p} is not invertible modulo {m}")


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
    e0 = _multiplicative_order(p, t.denominator)
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
    return MonomialTheoremReport(
        equal=equal,
        ideal=result.ideal,
        newton=expected,
        sigma_result=result,
        e_max_final=opts.e_max,
    )
