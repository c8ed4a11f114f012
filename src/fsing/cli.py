"""Command-line interface.

Input grammar (whitespace between tokens is free; juxtaposition is not
multiplication, write the '*'):

    variable   [a-z][a-z0-9_]*
    polynomial expr   := sterm (('+'|'-') sterm)*
               sterm  := ('+'|'-')* term
               term   := factor ('*' factor)*
               factor := atom ['^' integer]
               atom   := integer | variable | '(' expr ')'
    rational   ['-'] integer ['/' integer]
    divisor    entry ('+' entry)*        entry := rational '*' '(' expr ')'
    ideal list '[' expr (',' expr)* ']'

Exit codes: 0 on success (a MISMATCH verdict is still a success), 1 on
malformed input, 2 on nonconvergence or a resource-guard abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import DegreeGuardError, NonconvergenceError, ParseError, RingMismatchError
from .frobenius import frobenius_root
from .groebner import Ideal
from .newton import (
    MonomialIdeal,
    jumping_candidates,
    lct_monomial,
    newton_ideal,
)
from .nonfpure import (
    QDivisor,
    SigmaOptions,
    Triple,
    is_sharply_fpure,
    is_strongly_fregular,
    sigma,
    tau_b,
    verify_monomial_theorem,
)
from .restriction import (
    RestrictionHypothesisError,
    RestrictionProblem,
    check_restriction,
)
from .ring import MonomialOrder, PolyRing, Polynomial

MAX_PARSED_EXPONENT = 1_000_000

# prime of the characteristic-free commands' ring, used to parse and print
# monomials; large so small integer coefficients pass through unreduced
_CHAR_FREE_PRIME = 2_147_483_647

_TOKEN_RE = re.compile(r"(?P<ident>[a-z][a-z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*^()\[\],/])|(?P<ws>\s+)|(?P<bad>.)")


class _Parser:
    """Recursive-descent parser over a shared token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            value = match.group()
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", line, col)
            if kind != "ws":
                self.tokens.append((kind, value, line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
        self.end = (line, col)
        self.i = 0

    def peek(self) -> tuple[str, str, int, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "op" and token[1] in ops

    def take(self) -> tuple[str, str, int, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", *self.end)
        self.i += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token is None:
            raise ParseError(f"expected {op!r} before end of input", *self.end)
        if token[0] != "op" or token[1] != op:
            raise ParseError(f"expected {op!r}, found {token[1]!r}", token[2], token[3])
        self.i += 1

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected trailing input {token[1]!r}", token[2], token[3])

    def expect_int(self) -> int:
        token = self.peek()
        if token is None:
            raise ParseError("expected an integer before end of input", *self.end)
        if token[0] != "int":
            raise ParseError(f"expected an integer, found {token[1]!r}", token[2], token[3])
        self.i += 1
        return int(token[1])

    # -- polynomial grammar -------------------------------------------------

    def _signed_term(self, ring: PolyRing) -> Polynomial:
        if self.at_op("-"):
            self.take()
            return -self._signed_term(ring)
        if self.at_op("+"):
            self.take()
            return self._signed_term(ring)
        return self.parse_term(ring)

    def parse_expr(self, ring: PolyRing) -> Polynomial:
        result = self._signed_term(ring)
        while self.at_op("+", "-"):
            op = self.take()[1]
            term = self._signed_term(ring)
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self, ring: PolyRing) -> Polynomial:
        result = self.parse_factor(ring)
        while self.at_op("*"):
            self.take()
            result = result * self.parse_factor(ring)
        return result

    def parse_factor(self, ring: PolyRing) -> Polynomial:
        base = self.parse_atom(ring)
        if self.at_op("^"):
            self.take()
            exponent = self.expect_int()
            if exponent > MAX_PARSED_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the cap {MAX_PARSED_EXPONENT}", *self.tokens[self.i - 1][2:])
            return base**exponent
        return base

    def parse_atom(self, ring: PolyRing) -> Polynomial:
        token = self.peek()
        if token is None:
            raise ParseError("expected a polynomial atom before end of input", *self.end)
        kind, value, line, col = token
        if kind == "int":
            self.i += 1
            return ring.constant(int(value))
        if kind == "ident":
            self.i += 1
            try:
                return ring.variable(value)
            except ValueError:
                raise ParseError(
                    f"unknown variable {value!r}; ring has {', '.join(ring.variables)}", line, col
                ) from None
        if kind == "op" and value == "(":
            self.i += 1
            inner = self.parse_expr(ring)
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a polynomial atom, found {value!r}", line, col)

    # -- rationals ------------------------------------------------------------

    def parse_rational(self) -> Fraction:
        negative = False
        if self.at_op("-"):
            self.take()
            negative = True
        numerator = self.expect_int()
        denominator = 1
        if self.at_op("/"):
            token = self.take()
            denominator = self.expect_int()
            if denominator == 0:
                raise ParseError("zero denominator", token[2], token[3])
        value = Fraction(numerator, denominator)
        return -value if negative else value


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    parser = _Parser(text)
    poly = parser.parse_expr(ring)
    parser.expect_end()
    return poly


def parse_rational(text: str) -> Fraction:
    parser = _Parser(text)
    value = parser.parse_rational()
    parser.expect_end()
    return value


def parse_divisor(text: str, ring: PolyRing) -> QDivisor:
    """'t1*(f1) + t2*(f2) + ...' with positive rational coefficients."""
    parser = _Parser(text)
    entries = []
    while True:
        token = parser.peek()
        coef = parser.parse_rational()
        if coef <= 0:
            line, col = (token[2], token[3]) if token else parser.end
            raise ParseError(f"divisor coefficient must be positive, got {coef}", line, col)
        parser.expect_op("*")
        parser.expect_op("(")
        poly = parser.parse_expr(ring)
        parser.expect_op(")")
        if poly.is_zero() or poly.is_constant():
            line, col = (token[2], token[3]) if token else parser.end
            raise ParseError("divisor entry must be a nonzero nonconstant polynomial", line, col)
        entries.append((coef, poly))
        if parser.at_op("+"):
            parser.take()
            continue
        parser.expect_end()
        return QDivisor(entries)


def _list_entries(text: str, ring: PolyRing) -> list[tuple[Polynomial, int, int]]:
    """'[f1, f2, ...]' as (f_i, line, column of its first token); '[]' is empty."""
    parser = _Parser(text)
    parser.expect_op("[")
    entries: list[tuple[Polynomial, int, int]] = []
    if parser.at_op("]"):
        parser.take()
        parser.expect_end()
        return entries
    while True:
        token = parser.peek()
        line, col = (token[2], token[3]) if token else parser.end
        entries.append((parser.parse_expr(ring), line, col))
        if parser.at_op(","):
            parser.take()
            continue
        parser.expect_op("]")
        parser.expect_end()
        return entries


def parse_polynomial_list(text: str, ring: PolyRing) -> list[Polynomial]:
    """'[f1, f2, ...]'; '[]' is the empty list."""
    return [poly for poly, _, _ in _list_entries(text, ring)]


def parse_monomial_ideal(text: str, names: tuple[str, ...], p: int = _CHAR_FREE_PRIME) -> MonomialIdeal:
    """A bracket list of monomials over F_p; the default p is large enough
    that small coefficients stay nonzero.  A bad entry is reported at its
    own position."""
    exponents = []
    for poly, line, col in _list_entries(text, PolyRing(p, names)):
        if poly.is_zero() or not poly.is_monomial():
            raise ParseError(f"monomial ideal generators must be single nonzero monomials: {text}", line, col)
        exponents.append(poly.leading_exponent())
    return MonomialIdeal(len(names), exponents)


# -- canonical output ---------------------------------------------------------


def ideal_generator_strings(I: Ideal) -> list[str]:
    return [str(g) for g in I.groebner_basis()]


# -- argument plumbing ---------------------------------------------------------


class _ArgumentError(Exception):
    """argparse-level usage error, mapped to exit code 1."""


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _split_vars(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(","))
    if not names or any(not name for name in names):
        raise ParseError(f"bad variable list {text!r}")
    return names


def _build_ring(args) -> PolyRing:
    return PolyRing(args.prime, _split_vars(args.vars), MonomialOrder(args.order))


# budget flag -> (SigmaOptions field, help)
_BUDGET = {
    "emax": ("e_max", "largest Frobenius level per step, unless the triple has a period"),
    "probe": ("probe", "extra stability-probe levels, unless the chain ends at R or has a period"),
    "nmax": ("n_max", "iteration bound"),
}


def _budget_opts(args) -> SigmaOptions:
    """SigmaOptions from the budget flags the command reads."""
    return SigmaOptions(**{field: getattr(args, flag) for flag, (field, _) in _BUDGET.items() if hasattr(args, flag)})


def _add_ring_flags(sub, prime: bool = True, order: bool = True):
    if prime:
        sub.add_argument("--prime", type=int, required=True, help="characteristic p (prime)")
    sub.add_argument("--vars", required=True, help="comma-separated variable names, e.g. x,y")
    if order:
        sub.add_argument("--order", choices=("grevlex", "lex"), default="grevlex", help="monomial order")


def _add_budget_flags(sub, flags: tuple[str, ...]):
    """The budget flags a command reads, each defaulting to ``SigmaOptions()``."""
    for flag in flags:
        field, text = _BUDGET[flag]
        sub.add_argument(f"--{flag}", type=int, default=getattr(SigmaOptions(), field), help=text)


def _add_triple_command(subs, name: str, summary: str, budget: tuple[str, ...]):
    sub = subs.add_parser(name, help=summary)
    _add_ring_flags(sub)
    sub.add_argument("--divisor", help="formal divisor, e.g. \"1*(x^3 - y^2)\"")
    sub.add_argument("--ideal", help="monomial ideal, e.g. \"[x^2, y^3]\"")
    sub.add_argument("--t", help="exponent for the monomial ideal (positive rational)")
    _add_budget_flags(sub, budget)


def _add_monomial_command(subs, name: str, summary: str, prime: bool = False):
    sub = subs.add_parser(name, help=summary)
    _add_ring_flags(sub, prime, order=False)
    sub.add_argument("--ideal", required=True, help="bracket list of monomials")
    return sub


@functools.cache  # built on the first run, not at import, and reused; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(prog="fsing", description="Frobenius-splitting computations over F_p")
    subs = parser.add_subparsers(dest="command", required=True)
    every_budget = tuple(_BUDGET)

    _add_triple_command(subs, "sigma", "stabilized descending chain value", every_budget)
    _add_triple_command(subs, "tau", "stabilized big test ideal", ("nmax",))

    sub = subs.add_parser("froot", help="Frobenius root of an ideal")
    _add_ring_flags(sub)
    sub.add_argument("--ideal", required=True, help="bracket list of polynomials")
    sub.add_argument("--e", type=int, required=True, help="Frobenius level")

    sub = _add_monomial_command(subs, "newton", "Newton-membership monomial ideal")
    sub.add_argument("--t", required=True, help="positive rational exponent")
    sub.add_argument("--mode", choices=("closed", "interior"), default="closed")

    _add_monomial_command(subs, "lct", "log-canonical threshold of a monomial ideal")

    sub = _add_monomial_command(subs, "jumps", "jumping numbers of a monomial ideal")
    sub.add_argument("--tmax", required=True, help="upper bound for the jumps")

    sub = subs.add_parser("restrict-check", help="compare both sides of the restriction identity")
    _add_ring_flags(sub)
    sub.add_argument("--hyperplane", required=True, help="coordinate variable cut out, e.g. x")
    sub.add_argument("--divisor", help="the divisor B away from the hyperplane")
    _add_budget_flags(sub, every_budget)

    _add_triple_command(subs, "fpure", "sharp F-purity of a triple", ("emax",))
    _add_triple_command(subs, "fregular", "strong F-regularity of a triple", ("nmax",))

    sub = _add_monomial_command(subs, "compare-monomial", "chain value vs Newton formula for a monomial ideal", prime=True)
    sub.add_argument("--t", required=True, help="positive rational exponent")
    _add_budget_flags(sub, ("nmax",))
    for sub in subs.choices.values():  # --json is the last flag of every subcommand
        sub.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    return parser


def _inputs_dict(args) -> dict:
    """Every parsed flag but the command and --json; unset ones are left out."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "json") and value is not None}


def _triple_from_args(args, ring: PolyRing) -> Triple:
    divisor = parse_divisor(args.divisor, ring) if args.divisor else QDivisor()
    a = None
    t = Fraction(1)
    if args.ideal:
        a = parse_monomial_ideal(args.ideal, ring.variables, ring.p)
        if a.is_zero():
            raise ParseError("the monomial ideal must be nonzero")
        t = parse_rational(args.t) if args.t else Fraction(1)
    elif args.t:
        raise ParseError("--t requires --ideal")
    return Triple(ring, divisor, a, t)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _diagnostics(n=None, e_max=None, probe_stable=None) -> dict:
    return {"n": n, "e_max": e_max, "probe_stable": probe_stable}


# Each handler returns (text lines, JSON result, JSON diagnostics).


def _cmd_sigma(args):
    ring = _build_ring(args)
    result = sigma(_triple_from_args(args, ring), _budget_opts(args))
    lines = [
        f"sigma = {result.ideal}",
        f"n = {result.iterations}  e_max = {result.e_max_used}  probe_stable = {_yes(result.probe_stable)}",
    ]
    return (
        lines,
        {"generators": ideal_generator_strings(result.ideal)},
        _diagnostics(result.iterations, result.e_max_used, result.probe_stable),
    )


def _cmd_tau(args):
    ring = _build_ring(args)
    ideal = tau_b(_triple_from_args(args, ring), _budget_opts(args))
    return [f"tau_b = {ideal}"], {"generators": ideal_generator_strings(ideal)}, _diagnostics()


def _cmd_froot(args):
    ring = _build_ring(args)
    if args.e < 0:
        raise ParseError("--e must be nonnegative")
    root = frobenius_root(Ideal(ring, parse_polynomial_list(args.ideal, ring)), args.e)
    return [f"root = {root}"], {"generators": ideal_generator_strings(root)}, _diagnostics(e_max=args.e)


def _cmd_newton(args):
    names = _split_vars(args.vars)
    a = parse_monomial_ideal(args.ideal, names)
    result = newton_ideal(a, parse_rational(args.t), args.mode).to_ideal(PolyRing(_CHAR_FREE_PRIME, names))
    return [f"newton_ideal = {result}"], {"generators": ideal_generator_strings(result)}, _diagnostics()


def _cmd_lct(args):
    value = str(lct_monomial(parse_monomial_ideal(args.ideal, _split_vars(args.vars))))
    return [value], {"value": value}, _diagnostics()


def _cmd_jumps(args):
    a = parse_monomial_ideal(args.ideal, _split_vars(args.vars))
    values = [str(v) for v in jumping_candidates(a, parse_rational(args.tmax))]
    return [f"jumps = {', '.join(values) or '(none)'}"], {"values": values}, _diagnostics()


def _cmd_restrict_check(args):
    ring = _build_ring(args)
    k = ring.var_index(args.hyperplane)
    B = parse_divisor(args.divisor, ring) if args.divisor else QDivisor()
    report = check_restriction(RestrictionProblem(ring, k, B, _budget_opts(args)))
    verdict = "EQUAL" if report.equal else "MISMATCH"
    lines = [
        f"sigma_ambient = {report.ambient}",
        f"lhs = {report.lhs}, rhs = {report.rhs}, {verdict}",
    ]
    if not report.equal:
        lines.append("MISMATCH: the two sides differ; the identity fails here")
    result = {
        "lhs_generators": ideal_generator_strings(report.lhs),
        "rhs_generators": ideal_generator_strings(report.rhs),
        "equal": report.equal,
    }
    lhs = report.lhs_result
    return lines, result, _diagnostics(lhs.iterations, lhs.e_max_used, lhs.probe_stable and report.rhs_result.probe_stable)


def _cmd_fpure(args):
    ring = _build_ring(args)
    flag = is_sharply_fpure(_triple_from_args(args, ring), _budget_opts(args))
    return [f"sharply F-pure: {_yes(flag)}"], {"fpure": flag}, _diagnostics()


def _cmd_fregular(args):
    ring = _build_ring(args)
    flag = is_strongly_fregular(_triple_from_args(args, ring), _budget_opts(args))
    return [f"strongly F-regular: {_yes(flag)}"], {"fregular": flag}, _diagnostics()


def _cmd_compare_monomial(args):
    names = _split_vars(args.vars)
    a = parse_monomial_ideal(args.ideal, names, args.prime)
    report = verify_monomial_theorem(a, parse_rational(args.t), args.prime, variables=names, opts=_budget_opts(args))
    newton = report.newton.to_ideal(report.ideal.ring)
    lines = [f"sigma = {report.ideal}", f"newton = {newton}", f"equal = {_yes(report.equal)}"]
    result = {
        "generators": ideal_generator_strings(report.ideal),
        "newton_generators": ideal_generator_strings(newton),
        "equal": report.equal,
    }
    chain = report.sigma_result
    return lines, result, _diagnostics(chain.iterations, chain.e_max_used, chain.probe_stable)


_COMMANDS = {
    "sigma": _cmd_sigma,
    "tau": _cmd_tau,
    "froot": _cmd_froot,
    "newton": _cmd_newton,
    "lct": _cmd_lct,
    "jumps": _cmd_jumps,
    "restrict-check": _cmd_restrict_check,
    "fpure": _cmd_fpure,
    "fregular": _cmd_fregular,
    "compare-monomial": _cmd_compare_monomial,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help
        return 0 if exc.code in (0, None) else 1
    try:
        lines, result, diagnostics = _COMMANDS[args.command](args)
    except (ParseError, _ArgumentError, ValueError, RingMismatchError, RestrictionHypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonconvergenceError, DegreeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {"command": args.command, "inputs": _inputs_dict(args), "result": result, "diagnostics": diagnostics}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
