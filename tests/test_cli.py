import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import heiscurve
from heiscurve import cli, covers, elliptic, heisenberg, quadfield
from heiscurve.cli import main
from heiscurve.errors import HeiscurveError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestGroup:
    def test_mul(self, capsys):
        code, payload = run_json(
            capsys, "group", "--n", "2", "--op", "mul",
            "--element", "1,0,0", "--other", "0,1,0")
        assert code == 0
        assert payload["result"] == [1, 1, 1]

    def test_pow(self, capsys):
        code, payload = run_json(
            capsys, "group", "--n", "4", "--op", "pow",
            "--element", "1,1,0", "--exp", "4")
        assert code == 0
        assert payload["result"] == [0, 0, 2]

    def test_order(self, capsys):
        code, out, _ = run(capsys, "group", "--n", "4", "--op", "order",
                           "--element", "1,1,0")
        assert code == 0
        assert out.strip() == "8"

    def test_enumerate_count(self, capsys):
        code, payload = run_json(capsys, "group", "--n", "3", "--op", "enumerate")
        assert code == 0
        assert payload["count"] == 27

    def test_enumerate_has_no_cap(self, capsys):
        code, out, err = run(capsys, "group", "--n", "17", "--op", "enumerate")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 17**3

    @pytest.mark.parametrize("n", ("0", "-2"))
    def test_enumerate_bad_modulus_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "group", "--n", n, "--op", "enumerate")
        assert code == 1
        assert out == ""
        assert err == "error: n must be >= 1, got %s\n" % n

    def test_missing_element_is_usage_error(self, capsys):
        code, _, err = run(capsys, "group", "--n", "3", "--op", "order")
        assert code == 1
        assert "element" in err

    @pytest.mark.parametrize("flag, value", [
        ("--element", "a,b,c"), ("--element", "1,2"), ("--other", "1,x,3"),
        ("--other", "1,2,3,4"),
    ])
    def test_bad_triple_names_flag(self, capsys, flag, value):
        given = {"--element": "1,0,0", "--other": "0,1,0", flag: value}
        code, out, err = run(capsys, "group", "--n", "3", "--op", "mul",
                             "--element", given["--element"],
                             "--other", given["--other"])
        assert code == 1
        assert out == ""
        assert flag in err and "x,y,z" in err and repr(value) in err
        assert "invalid literal" not in err

    def test_bad_element_for_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "group", "--n", "3", "--op", "order",
                           "--element", "a,b,c")
        assert code == 1
        assert "--element" in err and "invalid literal" not in err

    def test_enumerate_output_pinned(self, capsys):
        code, out, _ = run(capsys, "group", "--n", "3", "--op", "enumerate")
        assert code == 0
        assert out == "".join("(%d, %d, %d) mod 3\n" % t
                              for t in itertools.product(range(3), repeat=3))
        code, out, _ = run(capsys, "group", "--n", "3", "--op", "enumerate",
                           "--format", "json")
        assert code == 0
        assert out == ('{"count": 27, "elements": [%s], "n": 3}\n' % ", ".join(
            "[%d, %d, %d]" % t for t in itertools.product(range(3), repeat=3)))

    def test_enumerate_json_formats_no_text(self, capsys, monkeypatch):
        def no_str(self):
            raise AssertionError("text rendering built for --format json")

        monkeypatch.setattr(heisenberg.HeisenbergElement, "__str__", no_str)
        code, payload = run_json(capsys, "group", "--n", "3", "--op", "enumerate")
        assert code == 0
        assert payload["count"] == 27


class TestWord:
    def test_eval(self, capsys):
        code, payload = run_json(capsys, "word", "--n", "5", "--eval", "abAB")
        assert code == 0
        assert payload["heisenberg"] == [0, 0, 1]
        assert payload["abelianization"] == [0, 0]

    def test_kernel(self, capsys):
        code, payload = run_json(capsys, "word", "--n", "5", "--kernel", "abAB")
        assert code == 0
        assert payload["in_abelianized_kernel"] is True
        assert payload["in_heisenberg_kernel"] is False

    def test_lift_even_n(self, capsys):
        code, out, _ = run(capsys, "word", "--n", "6", "--lift", "i2")
        assert code == 0
        assert out.strip() == "does not lift"

    def test_lift_odd_n(self, capsys):
        code, out, _ = run(capsys, "word", "--n", "7", "--lift", "i2")
        assert code == 0
        assert out.strip() == "lifts"

    def test_nielsen(self, capsys):
        code, payload = run_json(capsys, "word", "--n", "3", "--nielsen", "i1")
        assert code == 0
        assert payload["conjugate"] is True
        assert payload["sign"] == -1

    def test_no_action_is_usage_error(self, capsys):
        code, _, err = run(capsys, "word", "--n", "3")
        assert code == 1

    @pytest.mark.parametrize("modes", (
        ("--eval", "ab", "--lift", "i2"),
        ("--kernel", "ab", "--nielsen", "i1"),
        ("--lift", "i1", "--nielsen", "i2"),
    ))
    def test_two_modes_are_usage_error(self, capsys, modes):
        code, out, err = run(capsys, "word", "--n", "3", *modes)
        assert code == 1
        assert out == ""
        assert "not allowed with" in err

    def test_bad_word_syntax(self, capsys):
        code, _, err = run(capsys, "word", "--n", "3", "--eval", "xyz")
        assert code == 1

    def test_bad_modulus_is_usage_error(self, capsys):
        code, out, err = run(capsys, "word", "--n", "0", "--eval", "ab")
        assert code == 1
        assert out == ""
        assert err == "error: n must be >= 1, got 0\n"

    def test_eval_output_pinned(self, capsys):
        code, out, _ = run(capsys, "word", "--n", "5", "--eval", "abAB")
        assert code == 0
        assert out == "in H_n: (0, 0, 1) mod 5; abelianized: (0, 0)\n"
        code, out, _ = run(capsys, "word", "--n", "5", "--eval", "abAB",
                           "--format", "json")
        assert code == 0
        assert out == ('{"abelianization": [0, 0], "heisenberg": [0, 0, 1], '
                       '"n": 5, "word": "abAB"}\n')


class TestGenus:
    def test_heisenberg(self, capsys):
        code, out, _ = run(capsys, "genus", "--heisenberg", "4")
        assert code == 0
        assert out.strip() == "13"

    def test_fermat(self, capsys):
        code, out, _ = run(capsys, "genus", "--fermat", "7")
        assert code == 0
        assert out.strip() == "15"

    def test_rh(self, capsys):
        code, payload = run_json(
            capsys, "genus", "--rh", "--order", "750", "--indices", "2,3,10")
        assert code == 0
        assert payload["genus"] == 26

    def test_rh_bad_indices_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "genus", "--rh", "--order", "6", "--indices", "2,x")
        assert code == 1
        assert out == ""
        assert "--indices" in err and "comma-separated integers" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("modes", (
        ("--fermat", "5", "--heisenberg", "3"),
        ("--heisenberg", "3", "--rh", "--order", "6"),
    ))
    def test_two_modes_are_usage_error(self, capsys, modes):
        code, out, err = run(capsys, "genus", *modes)
        assert code == 1
        assert out == ""
        assert "not allowed with" in err

    def test_rh_non_integer_is_math_error(self, capsys):
        code, _, err = run(
            capsys, "genus", "--rh", "--order", "150", "--indices", "10,3,3")
        assert code == 2
        assert "math error" in err


class TestUnreadFlags:
    """A flag that the chosen mode does not read is a usage error that
    names it, not silently dropped."""

    @pytest.mark.parametrize("argv, flags", [
        ("group --n 5 --op order --element 1,2,3 --exp 4 --other 1,1,1",
         ("--exp", "--other")),
        ("group --n 5 --op enumerate --element 1,2,3", ("--element",)),
        ("group --n 5 --op enumerate --exp 2", ("--exp",)),
        ("group --n 5 --op mul --element 1,2,3 --other 1,1,1 --exp 2", ("--exp",)),
        ("group --n 5 --op pow --element 1,2,3 --exp 2 --other 1,1,1", ("--other",)),
        ("group --n 5 --op abelianize --element 1,2,3 --other 1,1,1", ("--other",)),
        ("genus --fermat 5 --order 6 --indices 2,3", ("--order", "--indices")),
        ("genus --heisenberg 5 --base-genus 3", ("--base-genus",)),
        ("genus --heisenberg 5 --base-genus 0", ("--base-genus",)),
    ])
    def test_unread_flag_is_usage_error(self, argv, flags):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv.split())
        assert code == 1
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().startswith("error: ")
        assert all(flag in err.getvalue() for flag in flags)

    def test_rh_reads_base_genus_as_0_by_default(self, capsys):
        argv = ("genus", "--rh", "--order", "750", "--indices", "2,3,10")
        assert run_json(capsys, *argv) == run_json(
            capsys, *argv, "--base-genus", "0")
        code, payload = run_json(capsys, *argv, "--base-genus", "1")
        assert (code, payload["base_genus"], payload["genus"]) == (0, 1, 776)


class TestAudit:
    def test_exit_code_flags_known_inconsistencies(self, capsys):
        code, out, _ = run(capsys, "audit")
        assert code == 3
        assert "INCONSISTENT" in out

    def test_json_is_deterministic(self, capsys):
        _, first = run_json(capsys, "audit")
        _, second = run_json(capsys, "audit")
        assert first == second
        assert any(not row["consistent"] for row in first)
        assert any(row["consistent"] for row in first)

    @pytest.mark.parametrize("n_max", ["2", "0", "-5"])
    def test_n_max_without_claims_is_usage_error(self, capsys, n_max):
        # regression: used to print an empty line and exit 0
        code, out, err = run(capsys, "audit", "--n-max", n_max)
        assert code == 1
        assert out == ""
        assert "n_max" in err and n_max in err

    def test_small_n_max_all_consistent_rows_present(self, capsys):
        code, payload = run_json(capsys, "audit", "--n-max", "4")
        assert code == 3
        assert all(isinstance(row["signature"], list) for row in payload)


class TestC3:
    def test_json_table(self, capsys):
        code, payload = run_json(capsys, "c3")
        assert code == 0
        rows = payload["rows"]
        assert len(rows) == 4
        js = [(r["j"]["p_num"], r["j"]["q_num"]) for r in rows]
        assert js == [(0, 0)] + [(-12288000, 0)] * 3
        assert payload["selected"]["B"]["p_num"] == 11664

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "c3")
        assert code == 0
        assert "11664" in out and "-109296" in out

    # sha256 of stdout, unchanged since the pair classification lines were
    # added to the text report
    PINNED = {
        "text": "524494fb8f9aeb0682feb0365d48f033da82013e8e58129909286788ce6d0edf",
        "json": "4a5bc677400df07647f79292e739c9c65da63cc372be7a2a14ce2c2a4de5cbc6",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "c3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[fmt]

    def test_json_builds_no_text_report(self, capsys, monkeypatch):
        def no_text(self):
            raise AssertionError("text report built for --format json")

        monkeypatch.setattr(elliptic.DerivationReport, "to_text", no_text)
        code, payload = run_json(capsys, "c3")
        assert code == 0
        assert len(payload["rows"]) == 4

    def test_text_lists_pair_classifications(self, capsys):
        code, out, _ = run(capsys, "c3")
        assert code == 0
        lines = [ln.strip() for ln in out.splitlines()
                 if ln.strip().startswith("rows ")]
        expected = []
        for (i, j), cls in elliptic.derive_isogenous_curves().pair_classifications:
            scale = "" if cls.scale is None else " (scale %s)" % cls.scale
            expected.append("rows %d,%d: %s%s" % (i + 1, j + 1, cls.kind, scale))
        assert len(lines) == 6
        assert lines == expected
        assert "rows 2,3: isomorphic (scale 1/2 - 1/2√-3)" in lines

    def test_non_squarefree_d_writes_the_table_in_its_sqrt(self, capsys):
        code, out, err = run(capsys, "c3", "--d", "-12")
        assert code == 0 and err == ""
        assert "(-6 - 3√-12 : ±36 : 1)" in out and "(2160 - 1080√-12)x" in out
        assert "y^2 = x^3 + (11664)" in out

    @pytest.mark.parametrize("d", ("-1", "-7"))
    def test_field_without_j_zero_row_is_math_error(self, capsys, d):
        code, out, err = run(capsys, "c3", "--d", d)
        assert code == 2
        assert out == ""
        assert err.startswith("math error: ") and "Q(sqrt(%s))" % d in err


class TestCurveCommands:
    def test_j(self, capsys):
        code, out, _ = run(capsys, "j", "--A", "0", "--B", "11664")
        assert code == 0
        assert out.strip() == "0"

    def test_j_quadnum_syntax(self, capsys):
        code, payload = run_json(
            capsys, "j", "--A", "2160-2160r", "--B", "-109296")
        assert code == 0
        assert payload["j"]["p_num"] == -12288000
        assert payload["j"]["q_num"] == 0

    def test_j_json_pinned_with_denominators_and_sqrt_parts(self, capsys):
        code, out, _ = run(capsys, "j", "--A", "1/3+2/5r", "--B", "7/2-1/9r",
                           "--format", "json")
        assert code == 0
        assert out == (
            '{"curve": {"A": {"d": -3, "p_den": 3, "p_num": 1, "q_den": 5, '
            '"q_num": 2}, "B": {"d": -3, "p_den": 2, "p_num": 7, "q_den": 9, '
            '"q_num": -1}}, "j": {"d": -3, "p_den": 19851107193697, '
            '"p_num": -178305772483584, "q_den": 19851107193697, '
            '"q_num": -36087669504000}}\n')

    def test_singular_curve_is_math_error(self, capsys):
        code, _, err = run(capsys, "j", "--A", "0", "--B", "0")
        assert code == 2
        assert "math error" in err

    def test_torsion_count(self, capsys):
        code, payload = run_json(capsys, "torsion", "--A", "0", "--B", "-432")
        assert code == 0
        assert len(payload["points"]) == 8
        assert payload["count_with_identity"] == 9

    def test_torsion_of_a_j_1728_curve(self, capsys):
        code, out, err = run(capsys, "torsion", "--A", "1", "--B", "0")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "(no field-rational points)"

    def test_isogeny_golden_row(self, capsys):
        code, payload = run_json(
            capsys, "isogeny", "--A", "0", "--B", "-432",
            "--x", "12", "--y", "36")
        assert code == 0
        assert payload["codomain"]["A"]["p_num"] == -4320
        assert payload["codomain"]["B"]["p_num"] == -109296

    def test_isogeny_bad_kernel_is_math_error(self, capsys):
        code, _, err = run(
            capsys, "isogeny", "--A", "1", "--B", "0", "--x", "0", "--y", "0")
        assert code == 2

    def test_point_off_curve_is_math_error(self, capsys):
        code, _, err = run(
            capsys, "isogeny", "--A", "0", "--B", "-432", "--x", "1", "--y", "1")
        assert code == 2

    def test_nonnegative_d_is_usage_error(self, capsys):
        code, out, err = run(capsys, "torsion", "--A", "0", "--B", "1",
                             "--d", "4")
        assert code == 1 and out == ""
        assert "negative integer, got 4" in err and "Traceback" not in err

    def test_bad_field_element_is_usage_error(self, capsys):
        code, _, err = run(capsys, "j", "--A", "nonsense", "--B", "1")
        assert code == 1

    @pytest.mark.parametrize("text, p, q", (
        ("12r", 0, 12), ("-12r", 0, -12), ("1/2r", 0, "1/2"),
        ("r", 0, 1), ("-r", 0, -1), ("+r", 0, 1),
        ("12+r", 12, 1), ("3/2+1/2r", "3/2", "1/2"),
        ("2160-2160r", 2160, -2160), ("-432", -432, 0),
    ))
    def test_field_element_syntax(self, text, p, q):
        value = cli._parse_quadnum(text, -7)
        assert (value.p, value.q, value.d) == (Fraction(p), Fraction(q), -7)

    @pytest.mark.parametrize("text", ("12rr", "r12", "+-3r", "1/0r", ""))
    def test_malformed_field_element_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "j", "--A=" + text, "--B", "1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    def test_bare_sqrt_term_is_a_multiple_of_sqrt_d(self, capsys):
        # (0, 12 sqrt(-3)) is on y^2 = x^3 - 432
        bare = run(capsys, "isogeny", "--A", "0", "--B", "-432",
                   "--x", "0", "--y", "12r")
        assert bare == run(capsys, "isogeny", "--A", "0", "--B", "-432",
                           "--x", "0", "--y", "0+12r")
        assert bare == (0, "y^2 = x^3 + (11664)\n", "")


# The benchmark's worker counts a HeiscurveError as a failed job and lets
# any other exception crash the worker, so a class moving in or out of the
# base changes what the benchmark reports.
MATH_ERROR_NAMES = {
    "NonIntegerGenus", "SingularCurve", "PointNotOnCurve",
    "BadKernelPoint", "NoUniqueJZeroCodomain", "ZeroHessian",
    "NotASquare", "UnsupportedFactorization", "ModulusMismatch",
    "GroupAxiomFailure",
}


def _library_exceptions():
    """Every exception class defined in a module of the package."""
    modules = [importlib.import_module("heiscurve." + info.name)
               for info in pkgutil.iter_modules(heiscurve.__path__)]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == module.__name__
    }


def test_every_library_exception_has_an_exit_code():
    """No exception class of the library can escape main as a traceback:
    each is a HeiscurveError (exit 2) or a ValueError (exit 1), apart from
    the CLI's own CliError, which carries its exit code.  The
    HeiscurveError subclasses are exactly the ten math errors."""
    defined = _library_exceptions()
    assert HeiscurveError in defined
    for exc in defined - {cli.CliError}:
        assert issubclass(exc, (HeiscurveError, ValueError)), exc
    assert {exc.__name__ for exc in defined
            if issubclass(exc, HeiscurveError)} == MATH_ERROR_NAMES | {"HeiscurveError"}
    assert cli._MATH_ERRORS == (HeiscurveError,)


# constructor arguments where a message string is not one
PLANTED_ARGS = {
    "NotASquare": (quadfield.QuadNum(2, 0, -3),),
    "NoUniqueJZeroCodomain": (-1, 0),
    "GroupAxiomFailure": (3, "identity", "planted"),
}


@pytest.mark.parametrize("name", sorted(MATH_ERROR_NAMES))
def test_each_math_error_exits_2(capsys, monkeypatch, name):
    """A HeiscurveError raised inside main is reported as a math error."""
    (exc_class,) = [exc for exc in _library_exceptions() if exc.__name__ == name]

    def handler(args):
        raise exc_class(*PLANTED_ARGS.get(name, ("planted",)))

    monkeypatch.setitem(cli._DISPATCH, "audit", handler)
    code, out, err = run(capsys, "audit")
    assert (code, out) == (cli.MATH_ERROR, "")
    assert err.startswith("math error:")
    code, out, err = run(capsys, "audit", "--format", "json")
    assert (code, err) == (cli.MATH_ERROR, "")
    assert json.loads(out)["error"] == name


class TestJsonErrors:
    """Under --format json a failure is one JSON line on stdout, with the
    exit code of text mode."""

    @pytest.mark.parametrize("argv, code, error, message", [
        (("audit", "--n-max", "2"), 1, "ValueError",
         "n_max must be at least 3, the smallest n with a recorded claim; got 2"),
        (("group", "--n", "0", "--op", "enumerate"), 1, "ValueError",
         "n must be >= 1, got 0"),
        (("torsion", "--A", "1", "--B", "1", "--d", "-1000003"), 2,
         "UnsupportedFactorization", "resolvent cubic has no rational root"),
        (("c3", "--d", "-1"), 2, "NoUniqueJZeroCodomain",
         "over Q(sqrt(-1)) the isogeny table has 0 rows with j = 0, "
         "expected exactly one"),
        (("genus", "--heisenberg", "1"), 1, "ValueError",
         "n must be >= 2, got 1"),
        (("word", "--n", "0", "--nielsen", "i2"), 1, "ValueError",
         "n must be >= 1, got 0"),
        (("word", "--n", "-5", "--nielsen", "id"), 1, "ValueError",
         "n must be >= 1, got -5"),
    ])
    def test_error_payload(self, capsys, argv, code, error, message):
        got, out, err = run(capsys, *argv, "--format", "json")
        assert got == code
        assert err == ""
        assert out == json.dumps({"error": error, "message": message}) + "\n"
        # text mode keeps its stderr line and exit code
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        prefix = "math error" if code == cli.MATH_ERROR else "error"
        assert err == "%s: %s\n" % (prefix, message)

    def test_usage_errors_of_the_parser_stay_text(self, capsys):
        code, out, err = run(capsys, "audit", "--bogus", "--format", "json")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --bogus\n"


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "genus")
        assert code == 1


# near-miss values for any flag: below the least modulus, a float, a
# non-number; None leaves the flag out
NEAR_MISS = ("0", "-1", "2.0", "x", None)


def _flag(name, *valid):
    """[name, value] for a valid or near-miss value, or [] for no flag."""
    return st.sampled_from(valid + NEAR_MISS).map(
        lambda v: [] if v is None else [name, v])


def _argv(command, *flags):
    return st.tuples(*flags).map(
        lambda parts: [command] + [arg for part in parts for arg in part])


# n stays small so `group --op enumerate` writes few lines
_MODULI = ("5", "6", "1", "2", "7", "12")
_WORDS = ("abAB", "a^3bA^2", "A^-2", "b")
_ENDOS = ("i2", "id", "i1", "i1i2i1")
_TRIPLES = ("1,2,3", "0,0,0", "-1,4,2", "5,5,5", "1,1")
WORD_ARGV = _argv(
    "word",
    _flag("--n", *_MODULI),
    st.one_of(_flag("--eval", *_WORDS), _flag("--kernel", *_WORDS),
              _flag("--lift", *_ENDOS), _flag("--nielsen", *_ENDOS)),
    _flag("--format", "text", "json", "text", "json"),
)
GROUP_ARGV = _argv(
    "group",
    _flag("--n", *_MODULI),
    _flag("--op", "mul", "pow", "order", "abelianize", "enumerate"),
    _flag("--element", *_TRIPLES),
    _flag("--other", *_TRIPLES),
    _flag("--exp", "3", "-2", "0", "1"),
    _flag("--format", "text", "json", "text", "json"),
)
_FORMAT = _flag("--format", "text", "json", "text", "json")
# d = 5 is not negative; d = -1000003 makes the c3 table lose its j = 0 row
_DISCRIMINANTS = ("-3", "-3", "5", "-1000003", "-7")
# the kernel point (12, 36) of y^2 = x^3 - 432 and its neighbours
_ELEMENTS = ("0", "-432", "12", "36", "-36", "16", "2160-2160r",
             "3/2+1/2r", "r", "1/0")
GENUS_ARGV = _argv(
    "genus",
    st.one_of(_flag("--fermat", "3", "5", "40"),
              _flag("--heisenberg", "2", "6", "40"),
              st.sampled_from([["--rh"], []])),
    _flag("--base-genus", "0", "1"),
    _flag("--order", "6", "168", "24"),
    _flag("--indices", "2,3,7", "2,2", "3,3,3", "1,2", ",,"),
    _FORMAT,
)
AUDIT_ARGV = _argv("audit", _flag("--n-max", "3", "12", "25", "40"), _FORMAT)
C3_ARGV = _argv("c3", _flag("--d", *_DISCRIMINANTS), _FORMAT)
TORSION_ARGV = _argv(
    "torsion",
    _flag("--A", *_ELEMENTS),
    _flag("--B", *_ELEMENTS),
    _flag("--d", *_DISCRIMINANTS),
    _FORMAT,
)
# six flags rarely all draw a valid value, so the kernel points come too
ISOGENY_ARGV = st.one_of(_argv(
    "isogeny",
    _flag("--A", "0", "0", "1"),
    _flag("--B", "-432", "-432", "16"),
    _flag("--x", *_ELEMENTS),
    _flag("--y", *_ELEMENTS),
    _flag("--d", *_DISCRIMINANTS),
    _FORMAT,
), _argv(
    "isogeny",
    st.just(["--A", "0", "--B", "-432", "--x", "12"]),
    _flag("--y", "36", "-36"),
    _FORMAT,
))
J_ARGV = _argv(
    "j",
    _flag("--A", *_ELEMENTS),
    _flag("--B", *_ELEMENTS),
    _flag("--d", *_DISCRIMINANTS),
    _FORMAT,
)


class TestArgvSweep:
    """Any argv of a subcommand returns an exit code from main, without
    raising or printing a traceback: 0, 1 or 2, or 3 for a failed audit."""

    @staticmethod
    def exit_code(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue()
        return code

    @settings(max_examples=60, deadline=None)
    @given(WORD_ARGV)
    def test_word(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(GROUP_ARGV)
    def test_group(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(GENUS_ARGV)
    def test_genus(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=15, deadline=None)
    @given(AUDIT_ARGV)
    def test_audit(self, argv):
        assert self.exit_code(argv) in (0, 1, 2, 3)

    @settings(max_examples=15, deadline=None)
    @given(C3_ARGV)
    def test_c3(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(TORSION_ARGV)
    def test_torsion(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(ISOGENY_ARGV)
    def test_isogeny(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(J_ARGV)
    def test_j(self, argv):
        assert self.exit_code(argv) in (0, 1, 2)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """(argv, promised output) for each `heiscurve ...` line of the first
    fenced block under the README's `## CLI` heading; a comment
    `-> "text"` or `-> text` promises that text as a line of stdout."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["heiscurve"]:
            continue
        promise = re.search(r'->\s*"?([^"]*?)"?\s*$', comment)
        examples.append(pytest.param(
            argv[1:], promise.group(1) if promise else None,
            id=" ".join(argv[1:])))
    return examples


def test_readme_lists_the_cli_examples():
    examples = readme_cli_examples()
    assert len(examples) >= 10
    assert {p.values[0][0] for p in examples} >= {
        "group", "word", "genus", "audit", "c3", "torsion", "isogeny", "j"}
    assert {p.values[1] for p in examples} >= {"13", "does not lift"}


@pytest.mark.parametrize("argv, promised", readme_cli_examples())
def test_readme_cli_example(capsys, argv, promised):
    code, out, err = run(capsys, *argv)
    assert code == (cli.AUDIT_INCONSISTENT if argv[0] == "audit" else 0), err
    assert err == ""
    assert out.strip()
    if promised is not None:
        assert promised in [ln.strip() for ln in out.splitlines()]


class _Sink(io.TextIOBase):
    def write(self, text):
        return len(text)


class TestStream:
    """`group --op enumerate` and `audit` write their output as it is
    produced, with the bytes of printing the whole list at once."""

    @pytest.mark.parametrize("argv", [
        ("group", "--n", "48", "--op", "enumerate", "--format", "json"),
        ("audit", "--n-max", "4000", "--format", "json"),
    ])
    def test_memory_does_not_grow_with_the_output(self, monkeypatch, argv):
        # the outputs are about 1.5 MB and 3 MB, so holding either one
        # would pass the limit
        monkeypatch.setattr(sys, "stdout", _Sink())
        tracemalloc.start()
        try:
            main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # n = 5 (125 elements) and n_max = 40 (148 verdicts) span several
    # JSON write batches
    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_enumerate_equals_the_whole_list(self, capsys, n):
        elements = list(heisenberg.enumerate_group(n))
        argv = ("group", "--n", str(n), "--op", "enumerate")
        assert run(capsys, *argv) == (
            0, "\n".join(str(g) for g in elements) + "\n", "")
        payload = {"n": n, "count": len(elements),
                   "elements": [[g.x, g.y, g.z] for g in elements]}
        assert run(capsys, *argv, "--format", "json") == (
            0, json.dumps(payload, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("n_max", (3, 4, 12, 40))
    def test_audit_equals_the_whole_list(self, capsys, n_max):
        verdicts = covers.audit_signature_claims(n_max)
        code = 0 if all(v.consistent for v in verdicts) else 3
        argv = ("audit", "--n-max", str(n_max))
        assert run(capsys, *argv) == (
            code, "\n".join(cli._audit_line(v) for v in verdicts) + "\n", "")
        payload = [v.to_json_dict() for v in verdicts]
        assert run(capsys, *argv, "--format", "json") == (
            code, json.dumps(payload, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("head", (None, {"n": 0, "count": 0}))
    def test_empty_json_list(self, capsys, head):
        cli._stream("json", iter(()), str, list, head)
        document = [] if head is None else dict(head, elements=[])
        assert capsys.readouterr().out == json.dumps(document, sort_keys=True) + "\n"


def _spawn(*argv, **kwargs):
    """Run `python -m heiscurve.cli argv` on this tree's source, with piped
    stdout and stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-m", "heiscurve.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **kwargs)


class TestEntry:
    def test_reader_closing_pipe_early(self):
        # 20^3 lines, about 150 kB: more than a pipe buffer holds
        proc = _spawn("group", "--n", "20", "--op", "enumerate")
        assert proc.stdout.readline() == b"(0, 0, 0) mod 20\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_reader_closing_pipe_early_on_a_long_audit(self):
        # about 80 000 verdicts; the first line comes before the second claim
        # family is audited
        proc = _spawn("audit", "--n-max", "20000")
        assert proc.stdout.readline().startswith(b"consistent")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_interrupt_exits_130_without_a_traceback(self):
        # A child of a shell's background job inherits an ignored SIGINT,
        # and Python then installs no KeyboardInterrupt handler; restore the
        # default so the child behaves as under Ctrl-C.
        proc = _spawn("audit", "--n-max", "20000",
                      preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                       signal.SIG_DFL))
        assert proc.stdout.readline().startswith(b"consistent")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert b"Traceback" not in err
