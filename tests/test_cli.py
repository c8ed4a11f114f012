"""Command line surface: parsing, formatting, outputs, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
import time
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
from fsing.errors import ParseError

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

    def test_monomial_t_requires_ideal(self, capsys):
        code, _, err = invoke(
            capsys, "sigma", "--prime", "5", "--vars", "x", "--t", "1/2",
        )
        assert code == 1
        assert "error" in err


class TestExitCodes:
    def test_bad_prime(self, capsys):
        code, _, err = invoke(capsys, "sigma", "--prime", "4", "--vars", "x", "--divisor", "1*(x)")
        assert code == 1
        assert "error" in err

    def test_parse_error_position(self, capsys):
        code, _, err = invoke(capsys, "froot", "--prime", "5", "--vars", "x", "--ideal", "[3x]", "--e", "1")
        assert code == 1
        assert "column" in err

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
        assert "MAX_BOX_POINTS" in err

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
        assert "MAX_DIGIT_VECTORS" in err

    @pytest.mark.parametrize("ideal, root", [("[x]", "(1)"), ("[]", "(0)")])
    def test_froot_huge_level(self, capsys, ideal, root):
        # p^e is never formed past the largest exponent: the root of (x) at
        # e = 10^12 used to compute 2^(10^12) first and never return
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "froot", "--prime", "2", "--vars", "x,y", "--ideal", ideal, "--e", "1000000000000")
        assert time.perf_counter() - start < 5.0
        assert (code, out.splitlines()[0]) == (0, f"root = {root}")


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
