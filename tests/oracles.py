"""Independent oracles for the test suite.

Everything here is written against the definitions directly, avoiding the
package's own algorithms: naive dict arithmetic instead of the base-p power
route, Fourier-Motzkin elimination over the V-representation instead of the
facet description, and brute-force certificates instead of floor formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct


# -- naive polynomial arithmetic (dict of exponent tuple -> int mod p) ----------


def naive_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        nc = (out.get(e, 0) + c) % p
        if nc:
            out[e] = nc
        elif e in out:
            del out[e]
    return out


def naive_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def naive_pow(a: dict, n: int, p: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = naive_mul(out, a, p)
    return out


# -- Fourier-Motzkin feasibility -------------------------------------------------

# An inequality is (coeffs, rhs) meaning sum(coeffs[i] * x_i) <= rhs.


def fm_feasible(ineqs: list[tuple[list[Fraction], Fraction]], nvars: int) -> bool:
    system = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]
    for var in range(nvars):
        positive, negative, rest = [], [], []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                positive.append((coeffs, rhs))
            elif c < 0:
                negative.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new_system = rest
        for pc, pr in positive:
            for nc, nr in negative:
                # scale so the var cancels: (1/pc_var)*pos + (-1/nc_var)*neg
                alpha = 1 / pc[var]
                beta = -1 / nc[var]
                coeffs = [alpha * a + beta * b for a, b in zip(pc, nc)]
                rhs = alpha * pr + beta * nr
                new_system.append((coeffs, rhs))
        system = new_system
    return all(rhs >= 0 for _, rhs in system)


def closed_member_oracle(gens: list[tuple], v: tuple, t: Fraction) -> bool:
    """v + 1 in t * (conv(gens) + orthant), decided by eliminating the convex
    weights: exists lambda >= 0 with sum(lambda) = 1 and
    sum_j lambda_j g_j <= (v + 1)/t coordinatewise."""
    k = len(gens)
    n = len(v)
    t = Fraction(t)
    z = [Fraction(vi + 1) / t for vi in v]
    ineqs: list[tuple[list[Fraction], Fraction]] = []
    for j in range(k):
        row = [Fraction(0)] * k
        row[j] = Fraction(-1)
        ineqs.append((row, Fraction(0)))  # -lambda_j <= 0
    ones = [Fraction(1)] * k
    ineqs.append((ones, Fraction(1)))  # sum <= 1
    ineqs.append(([-c for c in ones], Fraction(-1)))  # -sum <= -1
    for i in range(n):
        row = [Fraction(g[i]) for g in gens]
        ineqs.append((row, z[i]))  # sum lambda_j g_ji <= z_i
    return fm_feasible(ineqs, k)


# distinct facet-critical values of the small instances used in tests have
# denominators far below 1e6, so bumping t by 1/1e12 crosses no critical value
_INTERIOR_EPS = Fraction(1, 10**12)


def interior_member_oracle(gens: list[tuple], v: tuple, t: Fraction) -> bool:
    return closed_member_oracle(gens, v, Fraction(t) + _INTERIOR_EPS)


def newton_ideal_oracle(gens: list[tuple], t: Fraction, mode: str, box: int = 40) -> tuple:
    """Minimal generators of the membership set, by box scan + domination."""
    n = len(gens[0])
    t = Fraction(t)
    oracle = closed_member_oracle if mode == "closed" else interior_member_oracle
    members = [v for v in iproduct(range(box + 1), repeat=n) if oracle(gens, v, t)]
    minimal = []
    for v in sorted(members, key=lambda e: (sum(e), e)):
        if not any(all(x <= y for x, y in zip(m, v)) for m in minimal):
            minimal.append(v)
    return tuple(sorted(minimal))


# -- minimal elements ---------------------------------------------------------------


def minimal_elements_oracle(points: list[tuple]) -> tuple:
    """The distinct points that no other distinct point divides, sorted."""
    distinct = set(points)
    return tuple(sorted(
        v for v in distinct if not any(u != v and all(x <= y for x, y in zip(u, v)) for u in distinct)
    ))


def lattice_region_oracle(rows: list[tuple], lb: list[int], ub: list[int], top: int) -> tuple:
    """Minimal members of {u >= lb : <w, u> >= r for all rows (w, r)} with the
    prefix in the box [lb, ub] (``ub`` has len(lb) - 1 entries), by brute
    force over last coordinates up to ``top``; ``top`` must be at least every
    least feasible last coordinate in the box."""
    box = [range(lo, hi + 1) for lo, hi in zip(lb, [*ub, top])]
    members = [u for u in iproduct(*box) if all(sum(wi * ui for wi, ui in zip(w, u)) >= r for w, r in rows)]
    return minimal_elements_oracle(members)


# -- Frobenius root certificates ---------------------------------------------------


def monomial_root_oracle(gens: list[tuple], q: int) -> tuple:
    """Floors, computed inline, with the up-set minimalized."""
    floored = [tuple(x // q for x in g) for g in gens]
    minimal = []
    for v in sorted(set(floored), key=lambda e: (sum(e), e)):
        if not any(all(x <= y for x, y in zip(m, v)) for m in minimal):
            minimal.append(v)
    return tuple(sorted(minimal))


def bracket_contains(root_gens: list[tuple], q: int, target: tuple) -> bool:
    """Whether x^target lies in the q-th bracket power of the monomial ideal."""
    return any(all(q * r <= t for r, t in zip(g, target)) for g in root_gens)


def root_minimality_certificate(ideal_gens: list[tuple], root_gens: list[tuple], q: int) -> bool:
    """The root covers the ideal, and dropping any root generator (keeping
    only its strict multiples) loses some ideal generator."""
    if not all(bracket_contains(root_gens, q, g) for g in ideal_gens):
        return False
    n = len(ideal_gens[0]) if ideal_gens else 0
    for idx, m in enumerate(root_gens):
        weakened = [g for j, g in enumerate(root_gens) if j != idx]
        weakened.extend(tuple(m[i] + (1 if i == j else 0) for i in range(n)) for j in range(n))
        if all(bracket_contains(weakened, q, g) for g in ideal_gens):
            return False
    return True


# -- random data ---------------------------------------------------------------------


def random_poly_terms(rng: random.Random, nvars: int, p: int, max_terms: int = 5, max_exp: int = 5) -> dict:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.randint(1, p - 1)
        terms[e] = c
    return terms


def random_monomial_gens(rng: random.Random, nvars: int, count: int, max_exp: int) -> list[tuple]:
    gens = []
    for _ in range(count):
        g = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(g):
            gens.append(g)
    return gens or [tuple(1 for _ in range(nvars))]
