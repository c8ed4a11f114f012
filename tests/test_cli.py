"""Command line surface: parsing, formatting, outputs, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsing import MonomialIdeal, MonomialOrder, PolyRing, newton_ideal
from fsing.cli import (
    ideal_generator_strings,
    parse_divisor,
    parse_monomial_ideal,
    parse_polynomial,
    parse_polynomial_list,
    parse_rational,
    run,
)
from fsing.errors import NonconvergenceError, ParseError
from fsing.nonfpure import SigmaOptions

from conftest import poly_from_dict
from oracles import random_poly_terms


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolynomialParsing:
    def test_basic_forms(self):
        R = PolyRing(5, ["x", "y"])
        x, y = R.variable(0), R.variable(1)
        assert parse_polynomial("x^3 - y^2", R) == x**3 - y**2
        assert parse_polynomial("x*y + 2", R) == x * y + 2
        assert parse_polynomial("-x + -2*y", R) == -x + (-2) * y
        assert parse_polynomial("+x - -y", R) == x + y
        assert parse_polynomial("(x + y)^2", R) == (x + y) ** 2
        assert parse_polynomial("2*(x + y) - x", R) == x + 2 * y
        assert parse_polynomial("7", R) == R.constant(2)

    def test_round_trip_random(self):
        rng = random.Random(99)
        for p in (2, 5, 13):
            R = PolyRing(p, ["x", "y", "z"])
            for _ in range(25):
                f = poly_from_dict(R, random_poly_terms(rng, 3, p))
                assert parse_polynomial(str(f), R) == f

    def test_juxtaposition_rejected(self):
        R = PolyRing(5, ["x", "y"])
        with pytest.raises(ParseError):
            parse_polynomial("3x", R)
        with pytest.raises(ParseError):
            parse_polynomial("x y", R)

    def test_unknown_variable_position(self):
        R = PolyRing(5, ["x", "y"])
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x + z^2", R)
        assert "z" in str(exc.value)
        assert "column 5" in str(exc.value)

    def test_unbalanced_parens(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ParseError):
            parse_polynomial("(x + 1", R)
        with pytest.raises(ParseError):
            parse_polynomial("x + 1)", R)

    def test_exponent_cap(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ParseError):
            parse_polynomial("x^1000001", R)
        # the error points at the exponent, not at the end of the input
        with pytest.raises(ParseError) as info:
            parse_polynomial("(x^2000000 + 1) * x", R)
        assert (info.value.line, info.value.column) == (1, 4)
        assert str(info.value) == "exponent 2000000 exceeds the cap 1000000 (line 1, column 4)"

    def test_empty_rejected(self):
        R = PolyRing(5, ["x"])
        with pytest.raises(ParseError):
            parse_polynomial("", R)
        with pytest.raises(ParseError):
            parse_polynomial("   ", R)


class TestOtherParsers:
    def test_rational(self):
        assert parse_rational("5/6") == Fraction(5, 6)
        assert parse_rational("3") == Fraction(3)
        with pytest.raises(ParseError):
            parse_rational("5/0")
        with pytest.raises(ParseError):
            parse_rational("-1/2x")

    def test_divisor(self):
        R = PolyRing(5, ["x", "y"])
        D = parse_divisor("1*(x^3 - y^2) + 1/2*(y)", R)
        assert len(D.entries) == 2
        assert D.entries[0][0] == 1
        assert D.entries[1][0] == Fraction(1, 2)
        with pytest.raises(ParseError):
            parse_divisor("0*(x)", R)
        with pytest.raises(ParseError):
            parse_divisor("1*(2)", R)

    def test_polynomial_list(self):
        R = PolyRing(5, ["x", "y"])
        fs = parse_polynomial_list("[x^2, y - 1]", R)
        assert len(fs) == 2
        assert parse_polynomial_list("[]", R) == []
        with pytest.raises(ParseError):
            parse_polynomial_list("x^2, y", R)

    def test_monomial_ideal(self):
        a = parse_monomial_ideal("[x^2, y^3]", ("x", "y"))
        assert set(a.generators) == {(2, 0), (0, 3)}
        # a unit coefficient generates the same ideal
        assert parse_monomial_ideal("[2*x]", ("x", "y")).generators == ((1, 0),)
        with pytest.raises(ParseError):
            parse_monomial_ideal("[x + y]", ("x", "y"))


class TestFormatting:
    def test_ideal_string(self):
        R = PolyRing(5, ["x", "y"])
        from fsing import Ideal

        assert str(Ideal(R, [R.variable(0), R.variable(1)])) == "(x, y)"
        assert str(Ideal.unit(R)) == "(1)"
        assert str(Ideal.zero(R)) == "(0)"


class TestCommands:
    def test_sigma_cusp(self, capsys):
        code, out, err = invoke(
            capsys, "sigma", "--prime", "5", "--vars", "x,y",
            "--divisor", "1*(x^3 - y^2)", "--emax", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma = (x, y)"
        assert lines[1].startswith("n = 1  e_max = ")
        assert "probe_stable = yes" in lines[1]

    def test_sigma_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "sigma", "--prime", "5", "--vars", "x,y",
            "--divisor", "1*(x^3 - y^2)", "--emax", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "inputs", "result", "diagnostics"}
        assert payload["command"] == "sigma"
        assert payload["result"]["generators"] == ["x", "y"]
        assert set(payload["diagnostics"]) == {"n", "e_max", "probe_stable"}
        assert payload["inputs"]["prime"] == 5

    def test_tau(self, capsys):
        code, out, _ = invoke(
            capsys, "tau", "--prime", "5", "--vars", "x,y",
            "--divisor", "79/100*(x^3 - y^2)",
        )
        assert code == 0
        assert out.splitlines()[0] == "tau_b = (1)"

    def test_froot(self, capsys):
        code, out, _ = invoke(
            capsys, "froot", "--prime", "2", "--vars", "x,y",
            "--ideal", "[(x^3 + y^2)^3]", "--e", "2",
        )
        assert code == 0
        assert out.splitlines()[0] == "root = (x, y)"

    def test_newton_and_lct(self, capsys):
        code, out, _ = invoke(
            capsys, "newton", "--vars", "x,y", "--ideal", "[x^2, y^3]",
            "--t", "5/6", "--mode", "interior",
        )
        assert code == 0
        assert out.splitlines()[0] == "newton_ideal = (x, y)"
        code, out, _ = invoke(capsys, "lct", "--vars", "x,y", "--ideal", "[x^2, y^3]")
        assert code == 0
        assert out.strip() == "5/6"

    def test_jumps(self, capsys):
        code, out, _ = invoke(capsys, "jumps", "--vars", "x,y", "--ideal", "[x, y]", "--tmax", "2")
        assert code == 0
        assert out.strip() == "jumps = 2"
        code, out, _ = invoke(capsys, "jumps", "--vars", "x,y", "--ideal", "[x, y]", "--tmax", "1/2")
        assert code == 0
        assert out.strip() == "jumps = (none)"

    def test_restrict_check(self, capsys):
        code, out, _ = invoke(
            capsys, "restrict-check", "--prime", "5", "--vars", "x,y",
            "--hyperplane", "x", "--divisor", "1*(x^3 - y^2)",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma_ambient = (x^2, y)"
        assert lines[1] == "lhs = (y), rhs = (y), EQUAL"

    def test_fpure_fregular(self, capsys):
        code, out, _ = invoke(
            capsys, "fpure", "--prime", "2", "--vars", "x,y",
            "--divisor", "1*(x^3 - y^2)",
        )
        assert code == 0
        assert out.strip() == "sharply F-pure: no"
        code, out, _ = invoke(
            capsys, "fregular", "--prime", "5", "--vars", "x,y",
            "--divisor", "1/2*(x^3 - y^2)",
        )
        assert code == 0
        assert out.strip() == "strongly F-regular: yes"

    def test_compare_monomial(self, capsys):
        code, out, _ = invoke(
            capsys, "compare-monomial", "--prime", "5", "--vars", "x,y",
            "--ideal", "[x^2, y^3]", "--t", "5/6",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma = (1)"
        assert lines[1] == "newton = (1)"
        assert lines[2] == "equal = yes"

    def test_sigma_lattice_step_is_exact(self, capsys):
        # den = 11 and p = 2: the level sums of e_max = 4 stopped at x^4*y^7,
        # probe-unstable, where the closed Newton ideal has x^3*y^7; with the
        # lattice period 10 the step sums every level that can change it
        code, out, _ = invoke(capsys, "sigma", "--prime", "2", "--vars", "x,y", "--ideal", "[x^4*y^3, y^6]", "--t", "20/11")
        lines = out.splitlines()
        assert (code, lines[0]) == (0, "sigma = (x^6*y^5, x^5*y^6, x^3*y^7, x^2*y^8, x*y^9, y^10)")
        assert lines[1].endswith("probe_stable = yes")

    def test_monomial_t_requires_ideal(self, capsys):
        code, _, err = invoke(
            capsys, "sigma", "--prime", "5", "--vars", "x", "--t", "1/2",
        )
        assert code == 1
        assert "error" in err

    def test_empty_ideal_list_rejected(self, capsys):
        code, out, err = invoke(capsys, "sigma", "--prime", "5", "--vars", "x", "--ideal", "[]")
        assert (code, out) == (1, "")
        assert "the monomial ideal must be nonzero (line 1, column 1)" in err


class TestExitCodes:
    def test_bad_prime(self, capsys):
        code, _, err = invoke(capsys, "sigma", "--prime", "4", "--vars", "x", "--divisor", "1*(x)")
        assert code == 1
        assert "error" in err

    def test_parse_error_position(self, capsys):
        code, _, err = invoke(capsys, "froot", "--prime", "5", "--vars", "x", "--ideal", "[3x]", "--e", "1")
        assert code == 1
        assert "column" in err

    @pytest.mark.parametrize(
        "command, ideal, extra",
        [
            ("sigma", "[x^2, 5*y]", ["--prime", "5", "--t", "1"]),
            ("sigma", "[x^2, x + y]", ["--prime", "5", "--t", "1"]),
            ("tau", "[x^2, x + y]", ["--prime", "5", "--t", "1"]),
            ("fpure", "[x^2, x + y]", ["--prime", "5", "--t", "1"]),
            ("fregular", "[x^2, x + y]", ["--prime", "5", "--t", "1"]),
            ("compare-monomial", "[x^2, x + y]", ["--prime", "5", "--t", "1"]),
            ("newton", "[x^2, x + y]", ["--t", "1"]),
            ("lct", "[x^2, x + y]", []),
            ("jumps", "[x^2, x + y]", ["--tmax", "2"]),
        ],
        ids=["sigma-zero-mod-p", "sigma", "tau", "fpure", "fregular", "compare-monomial", "newton", "lct", "jumps"],
    )
    def test_monomial_entry_position(self, capsys, command, ideal, extra):
        # a bad monomial-list entry is reported at its own first token
        code, out, err = invoke(capsys, command, "--vars", "x,y", "--ideal", ideal, *extra)
        assert (code, out) == (1, "")
        assert err.endswith("must be single nonzero monomials: " + ideal + " (line 1, column 7)\n")

    def test_nonconvergence_is_two(self, capsys):
        code, _, err = invoke(
            capsys, "sigma", "--prime", "5", "--vars", "x,y",
            "--divisor", "1*(x^3 - y^2)", "--nmax", "1",
        )
        assert code == 2
        assert "error" in err

    def test_box_guard_is_two(self, capsys):
        code, _, err = invoke(
            capsys, "newton", "--vars", "x,y,z,w", "--ideal", "[x^200, y^200, z^200, w^200]", "--t", "1",
        )
        assert code == 2
        assert "newton.MAX_BOX_POINTS = 5000000 " in err

    def test_power_guard_is_two(self, capsys):
        # tau at t = 10^9 needs a^m with m near t: refused before expanding
        start = time.perf_counter()
        code, _, err = invoke(capsys, "tau", "--prime", "2", "--vars", "x,y", "--ideal", "[x, y]", "--t", "1000000000")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert "newton.MAX_BOX_POINTS = 5000000 generator pairs; refusing the power" in err

    def test_power_guard_three_variables_is_two(self, capsys):
        # a^1000 after one root digit has about 500^2 / 2 generators in three
        # variables, though the two-variable edge count lets it pass
        start = time.perf_counter()
        code, _, err = invoke(capsys, "tau", "--prime", "2", "--vars", "x,y,z", "--ideal", "[x, y, z]", "--t", "1000")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert "a^1000 forms more than newton.MAX_BOX_POINTS = 5000000 generator pairs; refusing the power" in err

    def test_help_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "fsing" in out

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "blah")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, _ = invoke(capsys, "froot", "--prime", "5", "--vars", "x")
        assert code == 1

    def test_plain_power_digit_cap_is_two(self, capsys):
        # level 1 of (x*y, x^2)^1 at p = 2^31 - 1 has p - 1 digit vectors
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "tau", "--prime", "2147483647", "--vars", "x,y", "--ideal", "[x*y, x^2]", "--t", "1",
        )
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert "frobenius.MAX_DIGIT_VECTORS = 50000" in err

    def test_monomial_long_period_ends(self, capsys):
        # ord(2 mod 1000003) = 1000002 passes nonfpure.MAX_PERIOD, so
        # the lattice lane has no period and sums levels 1..e_max; a level
        # budget of twice that order once ran forever, and then exited 2
        start = time.perf_counter()
        for t, ideal in (("1/1000003", "(1)"), ("1000004/1000003", "(x)")):
            code, out, _ = invoke(capsys, "compare-monomial", "--prime", "2", "--vars", "x", "--ideal", "[x]", "--t", t)
            assert (code, out) == (0, f"sigma = {ideal}\nnewton = {ideal}\nequal = yes\n"), t
        code, out, _ = invoke(capsys, "sigma", "--prime", "2", "--vars", "x", "--ideal", "[x]", "--t", "1/1000003")
        assert time.perf_counter() - start < 10.0
        assert (code, out.splitlines()[0]) == (0, "sigma = (1)")

    def test_fregular_long_period_ends(self, capsys):
        # ord(2 mod 1000000007) is searched up to nonfpure.MAX_PERIOD only,
        # once per triple, whatever --nmax is; the search up to the modulus,
        # and later up to --nmax, used to run before the first level.  Level 1
        # is the unit ideal, which ends the sum.
        argv = ("fregular", "--prime", "2", "--vars", "x", "--divisor", "1/1000000007*(x)")
        for nmax in ((), ("--nmax", "10000000")):
            start = time.perf_counter()
            code, out, _ = invoke(capsys, *argv, *nmax)
            assert time.perf_counter() - start < 5.0, nmax
            assert (code, out) == (0, "strongly F-regular: yes\n"), nmax

    def test_binomial_cusp_at_a_huge_prime_ends(self, capsys):
        # the Cartier level 1 of the cusp at p = 2^31 - 1 steps on exponent
        # antichains; the polynomial lane's f^(p - 1) never finished
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "sigma", "--prime", "2147483647", "--vars", "x,y",
                              "--divisor", "1*(x^3 - y^2)", "--emax", "1")
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, "sigma = (x, y)\nn = 1  e_max = 1  probe_stable = yes\n")

    def test_unit_mixed_row_skips_the_probe(self, capsys):
        # level 1 of the p = 11 mixed row is already R, which ends the step;
        # R holds every level, so the probe at levels 4 and 5 (about 8 s) is
        # not run
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "sigma", "--prime", "11", "--vars", "x,y", "--divisor", "1/2*(x^3 - y^2)",
                              "--ideal", "[x^2, y^3]", "--t", "1/2", "--emax", "3")
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, "sigma = (1)\nn = 0  e_max = 1  probe_stable = yes\n")

    def test_monomial_heavy_probe_row_ends(self, capsys):
        # the probe levels of this mixed row root ideals whose generators are
        # nearly all monomials; before those stripped the other generators
        # ahead of Buchberger, --probe 2 took about 20 s and --probe 3 ran
        # past 60 s
        argv = ["sigma", "--prime", "3", "--vars", "x,y", "--divisor", "1/3*(x^2*y^3) + 2*(-x*y^2 - y^3)",
                "--ideal", "[y^2, x^2]", "--t", "6", "--emax", "2"]
        code, fixed, _ = invoke(capsys, *argv, "--probe", "0")
        assert code == 0
        start = time.perf_counter()
        code, out, _ = invoke(capsys, *argv, "--probe", "2")
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert out.splitlines()[0] == fixed.splitlines()[0]
        assert out.splitlines()[1].endswith("probe_stable = yes")

    @pytest.mark.parametrize("ideal, root", [("[x]", "(1)"), ("[]", "(0)")])
    def test_froot_huge_level(self, capsys, ideal, root):
        # p^e is never formed past the largest exponent: the root of (x) at
        # e = 10^12 used to compute 2^(10^12) first and never return
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "froot", "--prime", "2", "--vars", "x,y", "--ideal", ideal, "--e", "1000000000000")
        assert time.perf_counter() - start < 5.0
        assert (code, out.splitlines()[0]) == (0, f"root = {root}")


class TestFlagContract:
    """Each subcommand takes exactly the flags its handler reads."""

    BASE = {
        "sigma": ["--prime", "5", "--vars", "x,y", "--divisor", "1*(x^3 - y^2)"],
        "tau": ["--prime", "5", "--vars", "x,y", "--divisor", "1*(x^3 - y^2)"],
        "fpure": ["--prime", "5", "--vars", "x,y", "--divisor", "1*(x^3 - y^2)"],
        "fregular": ["--prime", "5", "--vars", "x,y", "--divisor", "1*(x^3 - y^2)"],
        "restrict-check": ["--prime", "5", "--vars", "x,y", "--hyperplane", "x", "--divisor", "1*(x^3 - y^2)"],
        "compare-monomial": ["--prime", "5", "--vars", "x,y", "--ideal", "[x^2, y^3]", "--t", "5/6"],
        "newton": ["--vars", "x,y", "--ideal", "[x^2, y^3]", "--t", "5/6"],
        "lct": ["--vars", "x,y", "--ideal", "[x^2, y^3]"],
        "jumps": ["--vars", "x,y", "--ideal", "[x^2, y^3]", "--tmax", "2"],
    }
    REMOVED = [
        ("newton", "--order", "lex"), ("lct", "--order", "lex"), ("jumps", "--order", "lex"),
        ("compare-monomial", "--order", "lex"),
        ("tau", "--emax", "3"), ("tau", "--probe", "1"),
        ("fregular", "--emax", "3"), ("fregular", "--probe", "1"),
        ("fpure", "--probe", "1"), ("fpure", "--nmax", "5"), ("fpure", "--window", "1"),
        ("sigma", "--window", "1"), ("tau", "--window", "1"), ("fregular", "--window", "1"),
        ("restrict-check", "--window", "1"), ("compare-monomial", "--window", "1"),
        ("compare-monomial", "--emax", "3"), ("compare-monomial", "--probe", "1"),
    ]
    # command -> (library function patched in fsing.cli, how the handler
    # passes its SigmaOptions, budget flags the command reads)
    EVERY = ("emax", "probe", "nmax")
    CALLS = {
        "sigma": ("sigma", lambda args, kwargs: args[1], EVERY),
        "tau": ("tau_b", lambda args, kwargs: args[1], ("nmax",)),
        "fpure": ("is_sharply_fpure", lambda args, kwargs: args[1], ("emax",)),
        "fregular": ("is_strongly_fregular", lambda args, kwargs: args[1], ("nmax",)),
        "restrict-check": ("check_restriction", lambda args, kwargs: args[0].opts, EVERY),
        "compare-monomial": ("verify_monomial_theorem", lambda args, kwargs: kwargs["opts"], ("nmax",)),
    }
    FIELDS = {"emax": ("e_max", 7), "probe": ("probe", 3), "nmax": ("n_max", 9)}

    @pytest.mark.parametrize("command, flag, value", REMOVED, ids=[f"{c}{f}" for c, f, _ in REMOVED])
    def test_removed_flags_are_refused(self, capsys, command, flag, value):
        code, out, err = invoke(capsys, command, *self.BASE[command], flag, value)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag} {value}" in err

    def _captured_opts(self, capsys, monkeypatch, command, *extra):
        from fsing import cli

        name, opts_of, _ = self.CALLS[command]
        seen = []

        def capture(*args, **kwargs):
            seen.append(opts_of(args, kwargs))
            raise NonconvergenceError("captured")

        monkeypatch.setattr(cli, name, capture)
        assert invoke(capsys, command, *self.BASE[command], *extra)[0] == 2
        return seen[0]

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, (_, _, flags) in CALLS.items() for flag in flags],
    )
    def test_budget_flag_reaches_options(self, capsys, monkeypatch, command, flag):
        field, value = self.FIELDS[flag]
        opts = self._captured_opts(capsys, monkeypatch, command, f"--{flag}", str(value))
        assert getattr(opts, field) == value
        # every other field keeps the library default
        assert replace(opts, **{field: getattr(SigmaOptions(), field)}) == SigmaOptions()

    def test_unset_budget(self, capsys, monkeypatch):
        # every command passes the library defaults
        assert self._captured_opts(capsys, monkeypatch, "sigma") == SigmaOptions()
        assert self._captured_opts(capsys, monkeypatch, "compare-monomial") == SigmaOptions()

    def test_inputs_echo_parsed_flags(self, capsys):
        argv = ["compare-monomial", *self.BASE["compare-monomial"], "--json"]
        inputs = json.loads(invoke(capsys, *argv)[1])["inputs"]
        assert inputs == {"prime": 5, "vars": "x,y", "ideal": "[x^2, y^3]", "t": "5/6", "nmax": 20}
        inputs = json.loads(invoke(capsys, *argv, "--nmax", "3")[1])["inputs"]
        assert inputs["nmax"] == 3


class TestMonomialCoefficients:
    """``--ideal`` is read over the command's ring: F_p where the command
    takes ``--prime``, characteristic-free on newton, lct and jumps."""

    @pytest.mark.parametrize("command", ["sigma", "tau", "fpure", "fregular", "compare-monomial"])
    def test_zero_generator_mod_p_is_refused(self, capsys, command):
        # 5*y is zero over F_5, so [x^2, 5*y] is no list of nonzero monomials
        code, out, err = invoke(capsys, command, "--prime", "5", "--vars", "x,y", "--ideal", "[x^2, 5*y]", "--t", "1")
        assert (code, out) == (1, "")
        assert "must be single nonzero monomials" in err

    def test_unit_coefficient_mod_p(self, capsys):
        # over F_7, 5*y is a unit times y
        argv = ["sigma", "--prime", "7", "--vars", "x,y", "--t", "1"]
        assert invoke(capsys, *argv, "--ideal", "[x^2, 5*y]") == invoke(capsys, *argv, "--ideal", "[x^2, y]")

    @pytest.mark.parametrize(
        "argv",
        [["newton", "--t", "1"], ["lct"], ["jumps", "--tmax", "2"]],
        ids=["newton", "lct", "jumps"],
    )
    def test_characteristic_free_commands_keep_the_coefficient(self, capsys, argv):
        command = [argv[0], "--vars", "x,y", *argv[1:], "--ideal"]
        assert invoke(capsys, *command, "[x^2, 5*y]") == invoke(capsys, *command, "[x^2, y]")


@st.composite
def _monomial_pairs(draw):
    nvars = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 4)] * nvars).filter(any)
    gens = draw(st.lists(exponent, min_size=1, max_size=3))
    den = draw(st.integers(1, 12))
    t = Fraction(draw(st.integers(1, 3 * den)), den)
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 2147483647]))
    return p, gens, t


class TestMonomialProperty:
    """tau and fregular on monomial pairs either answer with the interior
    Newton ideal (Hara-Yoshida) or stop at a guard with exit code 2."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_monomial_pairs(), st.sampled_from(["tau", "fregular"]))
    def test_exit_code_and_value(self, pair, command):
        p, gens, t = pair
        names = ("x", "y", "z")[: len(gens[0])]
        ideal = "[" + ", ".join("*".join(f"{v}^{e}" for v, e in zip(names, g) if e) for g in gens) + "]"
        argv = [command, "--prime", str(p), "--vars", ",".join(names), "--ideal", ideal, "--t", str(t), "--json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2), err.getvalue()
        if code == 0:
            result = json.loads(out.getvalue())["result"]
            expected = newton_ideal(MonomialIdeal(len(names), gens), t, "interior").to_ideal(PolyRing(p, names))
            if command == "tau":
                assert result["generators"] == ideal_generator_strings(expected)
            else:
                assert result["fregular"] == expected.is_unit()


class TestDeterminism:
    CASES = [
        ("sigma", "--prime", "3", "--vars", "x,y", "--divisor", "1*(x^3 - y^2)", "--emax", "3"),
        ("tau", "--prime", "5", "--vars", "x,y", "--divisor", "79/100*(x^3 - y^2)"),
        ("newton", "--vars", "x,y", "--ideal", "[y^3, x^2]", "--t", "7/6"),
        ("jumps", "--vars", "x,y", "--ideal", "[x^2, y^3]", "--tmax", "2"),
        ("restrict-check", "--prime", "5", "--vars", "x,y", "--hyperplane", "x",
         "--divisor", "1*(x^3 - y^2)", "--json"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_reruns(self, argv, capsys):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        assert first[0] == 0


def _readme_examples() -> list[tuple[list[str], str]]:
    """Every ``$ fsing ...`` line of the README's CLI block with the output
    printed under it, up to the next blank line."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ fsing "):
            out = []
            for follow in lines[i + 1 :]:
                if not follow.strip() or follow.startswith("```"):
                    break
                out.append(follow + "\n")
            examples.append((shlex.split(line)[2:], "".join(out)))
    return examples


def _readme_quick_start() -> tuple[str, str]:
    """The README's ``python`` block and the ``# ...`` comments of its print
    lines, one line each: the output the block should print."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.rsplit("# ", 1)[1] + "\n" for line in code.splitlines() if line.startswith("print(")]
    return code, "".join(comments)


# --json output of every subcommand and the stderr of exit-1 and exit-2
# cases; a difference here is a change to the CLI's output contract
_GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())


class TestGoldens:
    def test_readme_examples(self, capsys):
        examples = _readme_examples()
        assert len(examples) == 11
        assert {argv[0] for argv, _ in examples} == {
            "sigma", "tau", "froot", "newton", "lct", "jumps",
            "restrict-check", "fpure", "fregular", "compare-monomial",
        }
        for argv, expected in examples:
            assert invoke(capsys, *argv) == (0, expected, ""), argv

    def test_readme_quick_start(self):
        code, expected = _readme_quick_start()
        assert expected.count("\n") == 4
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})
        assert out.getvalue() == expected

    @pytest.mark.parametrize("case", _GOLDENS, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(_GOLDENS)])
    def test_recorded(self, case, capsys):
        assert invoke(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])

    def test_parser_built_once(self, capsys, monkeypatch):
        # the parser (1 + 10 subcommand parsers) is built on the first run and
        # reused: a usage error, --help and a valid run all print the same bytes
        from fsing import cli

        built = []
        original = cli._ArgParser.__init__
        monkeypatch.setattr(cli._ArgParser, "__init__", lambda self, *a, **k: built.append(self) or original(self, *a, **k))
        cli.build_parser.cache_clear()
        bad = next(c for c in _GOLDENS if c["argv"][-2:] == ["--emax", "two"])
        good = next(c for c in _GOLDENS if c["argv"][0] == "tau" and c["code"] == 0)
        assert invoke(capsys, *bad["argv"]) == (bad["code"], bad["stdout"], bad["stderr"])
        help_out = invoke(capsys, "--help")
        assert invoke(capsys, *good["argv"]) == (good["code"], good["stdout"], good["stderr"])
        assert len(built) == 11
        assert help_out == (0, cli.build_parser.__wrapped__().format_help(), "")
