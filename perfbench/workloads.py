"""The benchmark workloads: seeded instance lists and their references.

Every instance builds its fsing objects from plain data inside ``call``, so
no cached Groebner basis or parsed input survives from one call to the
next, and calls fsing functions through their module, so that the tracing
wrappers in spans.py see them.  ``check`` compares the encoded answer against a reference that does
not come from the code under test: a theorem, the Fourier-Motzkin oracle
in ``tests/oracles.py``, or Fedder's criterion evaluated with the oracle's
naive arithmetic.  A reference that
only pins today's output is named a regression pin where it is defined.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path
from typing import Callable

import fsing
import fsing.cli
from fsing import MonomialIdeal, PolyRing, QDivisor, SigmaOptions, Triple
from oracles import (
    _INTERIOR_EPS,
    closed_member_oracle,
    monomial_root_oracle,
    naive_pow,
    random_monomial_gens,
)

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass
class Instance:
    """One unit of work: ``call`` runs fsing, ``encode`` turns its result into
    JSON data, and ``check`` returns None when that data is right."""

    name: str
    call: Callable[[], object]
    encode: Callable[[object], dict]
    check: Callable[[dict], str | None]
    inputs: object = None  # the generated input data, for the instance-list digest


# -- encodings ------------------------------------------------------------------------


def load_references() -> dict:
    """References pinned by pin.py: certified monomial-pair ideals."""
    return json.loads(REFERENCES.read_text())


def basis_terms(elements) -> list:
    """Basis elements as sorted lists of (exponent, coefficient) terms."""
    return sorted(sorted([list(e), c] for e, c in g.terms.items()) for g in elements)


def as_basis(rows) -> set:
    return {tuple((tuple(e), c) for e, c in sorted(row)) for row in rows}


def monomial_basis(*exps) -> set:
    return as_basis([[[list(e), 1]] for e in exps])


def parse_monomials(strings: list[str], names: tuple[str, ...]) -> set:
    """Exponent tuples of CLI monomial strings such as ``x^2*y`` or ``1``."""
    out = set()
    for text in strings:
        exp = [0] * len(names)
        if text != "1":
            for factor in text.split("*"):
                name, _, power = factor.partition("^")
                exp[names.index(name)] += int(power or 1)
        out.add(tuple(exp))
    return out


# -- independent references -------------------------------------------------------------


def certify_minimal_generators(gens, member, bounds) -> str | None:
    """None when ``gens`` are exactly the minimal points of the up-closed set
    {v : member(v)}, given that those minimal points lie in the box
    [0, bounds].  Checks each generator is a minimal member, and every
    maximal box point outside the ideal of ``gens`` is a non-member (which
    clears every box point below it, since the set is up-closed)."""
    n = len(bounds)
    gens = {tuple(g) for g in gens}

    def covered(v):
        return any(all(a <= b for a, b in zip(g, v)) for g in gens)

    for g in gens:
        if any(x > b for x, b in zip(g, bounds)):
            return f"generator {g} lies outside the box {tuple(bounds)}"
        if not member(g):
            return f"generator {g} is not a member"
        for j in range(n):
            if g[j] and member(g[:j] + (g[j] - 1,) + g[j + 1 :]):
                return f"generator {g} is not minimal"
    for v in product(*(range(b + 1) for b in bounds)):
        if covered(v):
            continue
        if all(v[j] == bounds[j] or covered(v[:j] + (v[j] + 1,) + v[j + 1 :]) for j in range(n)):
            if member(v):
                return f"member {v} is missing from the ideal"
    return None


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def newton_member(gens, z, t: Fraction) -> bool:
    """z in t * (conv(gens) + orthant), for z = v + 1.  Two cheap cases
    settle most points: z dominating a scaled generator is inside, and a
    coordinate or all-ones weight separating z from every scaled generator
    puts it outside.  The Fourier-Motzkin oracle decides the rest."""
    if any(all(zi >= t * gi for zi, gi in zip(z, g)) for g in gens):
        return True
    n = len(z)
    weights = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(1,) * n]
    if any(sum(w * zi for w, zi in zip(ws, z)) < t * min(sum(w * gi for w, gi in zip(ws, g)) for g in gens)
           for ws in weights):
        return False
    return closed_member_oracle(gens, tuple(zi - 1 for zi in z), t)


def newton_reference(gens, t: Fraction, mode: str, got) -> str | None:
    """Closed or interior Newton ideal of (gens)^t, certified point by point.
    The interior ideal is the closed one at t + 1/10^12, as in the oracle."""
    t_eff = t if mode == "closed" else t + _INTERIOR_EPS
    n = len(gens[0])
    bounds = [_ceil(t * max(g[i] for g in gens)) + 1 if any(g[i] for g in gens) else 0 for i in range(n)]
    return certify_minimal_generators(got, lambda v: newton_member(gens, [x + 1 for x in v], t_eff), bounds)


def closure_reference(gens, got) -> str | None:
    """Integral closure of (gens): the lattice points of conv(gens) + orthant."""
    n = len(gens[0])
    bounds = [max(g[i] for g in gens) for i in range(n)]
    return certify_minimal_generators(got, lambda u: newton_member(gens, u, Fraction(1)), bounds)


def cusp_fpt(p: int) -> Fraction:
    """F-pure threshold of x^3 - y^2 for p >= 5: 5/6 when p = 1 mod 6,
    (5p - 1)/(6p) when p = 5 mod 6."""
    return Fraction(5, 6) if p % 6 == 1 else Fraction(5 * p - 1, 6 * p)


def cusp_sigma_is_unit(p: int, t: Fraction) -> bool:
    """sigma(f^t) = R exactly when (R, f^t) is sharply F-pure: below the
    threshold, and at it when (p - 1) * fpt is an integer (p = 1 mod 6).
    Above it, sigma is (x, y) up to t = 1 (acceptance criteria 1 and 3)."""
    fpt = cusp_fpt(p)
    return t < fpt or (t == fpt and p % 6 == 1)


def fedder_fpure(terms: dict, p: int, nvars: int) -> bool:
    """Fedder's criterion: (R, f) is F-pure iff f^(p-1) has a term with all
    exponents below p.  Evaluated with the oracle's naive arithmetic."""
    power = naive_pow(terms, p - 1, p, nvars)
    return any(all(e < p for e in exp) for exp in power)


def expect(name: str, got, want) -> str | None:
    return None if got == want else f"{name}: got {sorted(got)}, want {sorted(want)}"


# -- sigma-divisor ----------------------------------------------------------------------

CUSP = {(3, 0): 1, (0, 2): -1}
# xyz + x^3 + y^3 + z^3 and the Fermat cubic: the ROADMAP baseline cubics.
HESSE_CUBIC = {(1, 1, 1): 1, (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
FERMAT_CUBIC = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
# Regression pins: fsing's value today, where Fedder's criterion only says
# the ideal is proper.  Any change needs a proof, not a re-pin.
CUBIC_PINS = {("hesse", 5): monomial_basis((1, 0, 0), (0, 1, 0), (0, 0, 1))}


def _sigma_instance(name, p, names, terms, coef, opts, want, scale) -> Instance:
    def call():
        ring = PolyRing(p, names)
        f = ring.from_terms({e: scale * c for e, c in terms.items()})
        return fsing.sigma(Triple(ring, QDivisor([(coef, f)])), SigmaOptions(**opts))

    def encode(result):
        return {"ideal": basis_terms(result.ideal.groebner_basis()), "stable": [result.probe_stable]}

    inputs = {"p": p, "terms": sorted(terms.items()), "coef": str(coef), "opts": opts, "scale": scale}
    return Instance(name, call, encode, lambda ans: expect(name, as_basis(ans["ideal"]), want), inputs)


def sigma_divisor(rng: random.Random) -> list[Instance]:
    """The generic e-sum chain on divisor triples.  Each defining polynomial
    gets a seeded unit multiple, which leaves every ideal and its cost alone."""
    out = []
    xy = ("x", "y")
    unit, maximal = monomial_basis((0, 0)), monomial_basis((1, 0), (0, 1))
    # ROADMAP baseline ladder; p = 13 at e_max = 4 is the item-2 target
    # and sits past the per-instance limit today.
    for p, e_max in ((5, 3), (7, 3), (11, 3), (7, 4), (13, 4)):
        out.append(_sigma_instance(f"cusp-p{p}-e{e_max}", p, xy, CUSP, 1, {"e_max": e_max},
                                   maximal, rng.randrange(1, p)))
    for p in (5, 7, 11):
        for label, t in (("5_6", Fraction(5, 6)), ("1_2", Fraction(1, 2)), ("5p-1_6p", Fraction(5 * p - 1, 6 * p))):
            want = unit if cusp_sigma_is_unit(p, t) else maximal
            out.append(_sigma_instance(f"cusp-p{p}-t{label}", p, xy, CUSP, t, {"e_max": 3, "probe": 1},
                                       want, rng.randrange(1, p)))
    xyz = ("x", "y", "z")
    for label, terms, p in (("hesse", HESSE_CUBIC, 5), ("fermat", FERMAT_CUBIC, 7)):
        if fedder_fpure(terms, p, 3):
            want = monomial_basis((0, 0, 0))
        else:
            want = CUBIC_PINS[(label, p)]
        out.append(_sigma_instance(f"cubic-{label}-p{p}-e2", p, xyz, terms, 1, {"e_max": 2}, want,
                                   rng.randrange(1, p)))
    return out


# -- sigma-monomial ---------------------------------------------------------------------


def certify_pair(gens, t: Fraction, ans: dict) -> str | None:
    """Fourier-Motzkin certificate of a pair's closed Newton ideal, integral
    closure and lct, as encoded by the sigma-monomial instances."""
    problem = newton_reference(gens, t, "closed", ans["closed"])
    if problem:
        return f"closed Newton ideal: {problem}"
    problem = closure_reference(gens, ans["closure"])
    if problem:
        return f"integral closure: {problem}"
    lct = Fraction(*ans["lct"])
    origin = (0,) * len(gens[0])
    if not closed_member_oracle(gens, origin, lct) or closed_member_oracle(gens, origin, lct + Fraction(1, 10**9)):
        return f"lct {lct} is not where the origin leaves t*P"
    return None


def _monomial_pair_instance(name, a_gens, t, p, pin) -> Instance:
    n = len(a_gens[0])

    def call():
        a = MonomialIdeal(n, a_gens)
        report = fsing.verify_monomial_theorem(a, t, p)
        lct = fsing.lct_monomial(a)
        closed = fsing.newton_ideal(a, t, "closed")
        # Jumps only up to the lct: higher up, the witness boxes of 3-variable
        # pairs make jumping_candidates three quarters of the workload.
        return report, closed, lct, fsing.jumping_candidates(a, lct), fsing.integral_closure_power(a, 1)

    def encode(result):
        report, closed, lct, jumps, closure = result
        sigma_gens = [g.leading_exponent() for g in report.ideal.groebner_basis()]
        return {
            "equal": report.equal,
            "sigma": sorted(sigma_gens),
            "closed": sorted(closed.generators),
            "lct": [lct.numerator, lct.denominator],
            "jumps": [[j.numerator, j.denominator] for j in jumps],
            "closure": sorted(closure.generators),
            "stable": [report.sigma_result.probe_stable],
        }

    def check(ans):
        if not ans["equal"]:
            return f"{name}: verify_monomial_theorem reports a mismatch"
        for key, want in (("sigma", pin["closed"]), ("closed", pin["closed"]), ("closure", pin["closure"])):
            got = {tuple(g) for g in ans[key]}
            if got != want:
                return f"{name}: {key} is {sorted(got)}, the certified ideal is {sorted(want)}"
        lct = Fraction(*ans["lct"])
        if lct != pin["lct"] or [Fraction(*j) for j in ans["jumps"]] != [lct]:
            return f"{name}: lct {lct} and jumps {ans['jumps']}; the certified lct is {pin['lct']}"
        return None

    return Instance(name, call, encode, check, {"gens": a_gens, "t": str(t), "p": p})


# The pairs are acceptance criterion 5's own draw, with references certified
# once by pin.py.  The run seed permutes the variables of each pair and the
# order of the list, which changes every input fsing sees but not the mix of
# easy and hard pairs: a fresh draw per seed moves solve_s by a third.
BATTERY_SEED = 52000
BATTERY_SIZE = 100


def monomial_battery() -> list[tuple[int, list, Fraction]]:
    """(p, generators, t): generators with exponents up to 6 in 1 to 3
    variables, t = k/den with den <= 9 prime to p and t <= 2."""
    draw = random.Random(BATTERY_SEED)
    out = []
    while len(out) < BATTERY_SIZE:
        p = draw.choice((2, 3, 5, 7))
        n = draw.randint(1, 3)
        gens = random_monomial_gens(draw, n, draw.randint(1, 4), 6)
        den = draw.randint(1, 9)
        if gcd(den, p) != 1:
            continue
        out.append((p, gens, Fraction(draw.randint(1, 2 * den), den)))
    return out


def sigma_monomial(rng: random.Random) -> list[Instance]:
    """Divisor-free monomial pairs through the lattice lane and the Newton
    formulas, checked against certified closed Newton ideals."""
    pins = load_references()["monomial"]
    out = []
    for index, (p, gens, t) in enumerate(monomial_battery()):
        pin = pins[index]
        if (pin["p"], pin["gens"], pin["t"]) != (p, [list(g) for g in gens], str(t)):
            raise ValueError(f"references.json does not match battery pair {index}; rerun pin.py")
        order = rng.sample(range(len(gens[0])), len(gens[0]))

        def permuted(points):
            return {tuple(g[i] for i in order) for g in points}

        want = {"closed": permuted(pin["closed"]), "closure": permuted(pin["closure"]), "lct": Fraction(*pin["lct"])}
        out.append(_monomial_pair_instance(f"pair-{index:03d}-p{p}-n{len(order)}", sorted(permuted(gens)), t, p, want))
    return out


# -- cli-tau-restrict -------------------------------------------------------------------


def _cli_instance(name, argv, check_payload, stable_key=None) -> Instance:
    """Runs ``fsing.cli.run(argv + ['--json'])`` with stdout captured; the
    captured JSON document is the answer."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fsing.cli.run(argv + ["--json"])
        return code, buf.getvalue()

    def encode(result):
        code, text = result
        return {"exit": code, "payload": json.loads(text) if code == 0 else None,
                "stable": [] if code or not stable_key else [bool(json.loads(text)["diagnostics"][stable_key])]}

    def check(ans):
        if ans["exit"] != 0:
            return f"{name}: exit code {ans['exit']}"
        return check_payload(ans["payload"])

    return Instance(name, call, encode, check, argv)


def _monomial_text(exp, names) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    return "*".join(factors) or "1"


def _tau_monomial_instance(name, p, gens, t) -> Instance:
    n = len(gens[0])
    names = ("x", "y", "z")[:n]
    ideal = "[" + ", ".join(_monomial_text(g, names) for g in gens) + "]"
    argv = ["tau", "--prime", str(p), "--vars", ",".join(names), "--ideal", ideal, "--t", str(t)]

    def check(payload):
        got = parse_monomials(payload["result"]["generators"], names)
        # Hara-Yoshida: tau_b of a monomial pair is its interior Newton ideal
        problem = newton_reference([tuple(g) for g in gens], t, "interior", got)
        return f"{name}: {problem}" if problem else None

    return _cli_instance(name, argv, check)


def permuted(rng: random.Random, gens) -> list[tuple]:
    """``gens`` with their variables in a seeded order."""
    order = rng.sample(range(len(gens[0])), len(gens[0]))
    return [tuple(g[i] for i in order) for g in gens]


def _generators_check(name, key, want, names):
    def check(payload):
        return expect(name, parse_monomials(payload["result"][key], names), want)

    return check


def cli_tau_restrict(rng: random.Random) -> list[Instance]:
    """User-facing commands through in-process ``fsing.cli.run``."""
    out = []
    xy = ("x", "y")
    unit, maximal = {(0, 0)}, {(1, 0), (0, 1)}
    for p in (5, 7, 11, 13):
        for label, t in (("5p-1_6p", Fraction(5 * p - 1, 6 * p)), ("5_6", Fraction(5, 6))):
            # tau_b(f^t) = R below the threshold and (x, y) from it up to 1
            want = unit if t < cusp_fpt(p) else maximal
            argv = ["tau", "--prime", str(p), "--vars", "x,y", "--divisor", f"{t}*(x^3 - y^2)"]
            out.append(_cli_instance(f"tau-cusp-p{p}-t{label}", argv,
                                     _generators_check(f"tau-cusp-p{p}-t{label}", "generators", want, xy)))
    # Pairs from a family whose tau_b stays far below the limit: up to 2
    # variables, t <= 1 and den(t) dividing p - 1, so the sum settles within
    # a few levels.  Other denominators (3/5 at p = 3) ran past 12 s.  The
    # pairs are one fixed draw and the seed orders their variables: fresh
    # draws per seed moved the instances that set latency_p50_s and
    # latency_tail_s.  The slow family is the fixed instance below.
    draw = random.Random(TAU_DRAW_SEED)
    for k in range(TAU_RANDOM_PAIRS):
        p, n = TAU_CELLS[k % len(TAU_CELLS)]
        gens = random_monomial_gens(draw, n, draw.randint(1, 3), 4)
        den = draw.choice([d for d in range(1, p) if (p - 1) % d == 0] or [1])
        t = Fraction(draw.randint(1, den), den)
        out.append(_tau_monomial_instance(f"tau-rand-{k:02d}", p, permuted(rng, gens), t))
    # 3-variable pair at t = 2, p = 7: about 40 s and 0.7 GB today.
    out.append(_tau_monomial_instance("tau-slow-p7-xyz-t2", 7, [(3, 5, 0), (4, 1, 6)], Fraction(2)))
    for p in (5, 7, 11):
        argv = ["restrict-check", "--prime", str(p), "--vars", "x,y", "--hyperplane", "x",
                "--divisor", "1*(x^3 - y^2)"]

        def check(payload, name=f"restrict-cusp-p{p}"):
            lhs = parse_monomials(payload["result"]["lhs_generators"], ("y",))
            rhs = parse_monomials(payload["result"]["rhs_generators"], ("y",))
            if not payload["result"]["equal"] or lhs != rhs or lhs != {(1,)}:
                return f"{name}: lhs {sorted(lhs)} and rhs {sorted(rhs)} should both be (y)"
            return None

        out.append(_cli_instance(f"restrict-cusp-p{p}", argv, check, "probe_stable"))
    for command, p, t, want in (
        ("fpure", 2, Fraction(1), False),
        ("fpure", 5, Fraction(1, 2), True),
        ("fregular", 5, Fraction(1, 2), True),
        ("fregular", 7, Fraction(5, 6), False),
    ):
        # below the threshold both hold; at t = 1 the cusp is not F-pure, and
        # at the threshold it is not strongly F-regular
        key = "fpure" if command == "fpure" else "fregular"
        name = f"{command}-cusp-p{p}-t{t.numerator}_{t.denominator}"
        argv = [command, "--prime", str(p), "--vars", "x,y", "--divisor", f"{t}*(x^3 - y^2)"]
        out.append(_cli_instance(name, argv, lambda payload, key=key, want=want, name=name: None
                                 if payload["result"][key] is want else f"{name}: got {payload['result'][key]}"))
    # (x^3 + y^3, x^6) at p = 3: x^3 + y^3 = (x + y)^3, so the root is (x + y, x^2)
    froot = ["froot", "--prime", "3", "--vars", "x,y", "--ideal", "[x^3 + y^3, x^6]", "--e", "1"]
    out.append(_cli_instance("froot-p3-readme", froot, lambda payload: None
                             if payload["result"]["generators"] == ["y^2", "x + y"]
                             else f"froot-p3-readme: got {payload['result']['generators']}"))
    for k in range(FROOT_RANDOM):
        p, e = FROOT_CELLS[k % len(FROOT_CELLS)]
        gens = permuted(rng, random_monomial_gens(draw, 2, draw.randint(1, 4), 3 * p**e))
        ideal = "[" + ", ".join(_monomial_text(g, xy) for g in gens) + "]"
        want = set(monomial_root_oracle(gens, p**e))
        name = f"froot-rand-{k:02d}"
        argv = ["froot", "--prime", str(p), "--vars", "x,y", "--ideal", ideal, "--e", str(e)]
        out.append(_cli_instance(name, argv, _generators_check(name, "generators", want, xy)))
    return out


# The fixed draws cycle through (prime, variables) and (prime, level) cells.
TAU_DRAW_SEED = 54000
TAU_CELLS = [(p, n) for p in (2, 3) for n in (1, 2)]
TAU_RANDOM_PAIRS = 8
FROOT_CELLS = [(p, e) for p in (2, 3) for e in (1, 2)]
FROOT_RANDOM = 4

WORKLOADS = {
    "sigma-divisor": sigma_divisor,
    "sigma-monomial": sigma_monomial,
    "cli-tau-restrict": cli_tau_restrict,
}


def build(workload: str, seed: int) -> list[Instance]:
    """The instance list of ``workload`` for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    instances = WORKLOADS[workload](rng)
    rng.shuffle(instances)
    return instances
