import json
import re
import sys
import time
from fractions import Fraction

import pytest

from mtspec import exactnum
from mtspec.cli import render_exact
from mtspec.errors import MtspecError
from mtspec.exactnum import (MAX_POWER_DIGITS, MAX_POWER_EXPONENT, ExactComplex,
                             parse_exact)


class TestConstruction:
    def test_sign_folds_into_the_root(self):
        minus_two = ExactComplex.of(-2)
        assert minus_two.mag == 2
        assert minus_two.root == Fraction(1, 2)
        
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ExactComplex.of(0)

    def test_roots_are_reduced(self):
        assert ExactComplex.root_of_unity(6, 3) == ExactComplex.root_of_unity(2, 1)
        assert ExactComplex.root_of_unity(6, 0) == ExactComplex.one()
        assert ExactComplex.root_of_unity(4, 7) == ExactComplex.root_of_unity(4, 3)


class TestArithmetic:
    def test_group_law_of_roots(self):
        z6 = ExactComplex.root_of_unity(6)
        assert z6 ** 6 == ExactComplex.one()
        assert z6 ** 3 == ExactComplex.of(-1)
        assert z6 * z6 == ExactComplex.root_of_unity(3)

    def test_rational_powers(self):
        x = ExactComplex.of(Fraction(-3, 2))
        assert x ** 2 == ExactComplex.of(Fraction(9, 4))
        assert x ** -1 == ExactComplex.of(Fraction(-2, 3))

    def test_power_exponent_is_bounded(self):
        x = ExactComplex.of(Fraction(-3, 2))
        assert x ** -MAX_POWER_EXPONENT == \
            ExactComplex.of(Fraction(-2, 3) ** MAX_POWER_EXPONENT)
        for exponent in (MAX_POWER_EXPONENT + 1, -MAX_POWER_EXPONENT - 1, 10 ** 20):
            with pytest.raises(ValueError, match=str(MAX_POWER_EXPONENT)):
                x ** exponent

    def test_power_result_size_is_bounded(self):
        # 30 digits to the 9999th power: refused before it is computed
        x = ExactComplex.of(Fraction(999999999999999999999999999999, 7))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_POWER_DIGITS = %d" % MAX_POWER_DIGITS):
            x ** 9999
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match="MAX_POWER_DIGITS"):
            ExactComplex.of(10 ** (MAX_POWER_DIGITS + 100)) ** 1
        assert ExactComplex.of(10 ** 1000) ** 19 == ExactComplex.of(10 ** 19000)
        assert x ** 0 == ExactComplex.one()

    def test_roots_of_unity_power_without_bound(self):
        z3 = ExactComplex.root_of_unity(3)
        assert (z3 ** (3 * 10 ** 20 + 1)) == z3
        assert ExactComplex.of(-1) ** (10 ** 20 + 1) == ExactComplex.of(-1)

    def test_non_integer_power_rejected(self):
        with pytest.raises(TypeError):
            ExactComplex.of(2) ** 0.5


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("2", ExactComplex.of(2)),
        ("-3/2", ExactComplex.of(Fraction(-3, 2))),
        ("zeta6", ExactComplex.root_of_unity(6)),
        ("zeta6^5", ExactComplex.root_of_unity(6, 5)),
        ("-zeta4", ExactComplex.root_of_unity(4, 3)),
        ("2*zeta3", ExactComplex.of(2) * ExactComplex.root_of_unity(3)),
        ("ζ6", ExactComplex.root_of_unity(6)),
        ("ζ3²", ExactComplex.root_of_unity(3, 2)),
        ("2·ζ3", ExactComplex.of(2) * ExactComplex.root_of_unity(3)),
        ("3/2 · ζ12¹¹", ExactComplex.of(Fraction(3, 2)) * ExactComplex.root_of_unity(12, 11)),
    ])
    def test_literals(self, text, expected):
        assert parse_exact(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1.5", "zeta", "0",
                                      "1/0", "3/00", "zeta0", "-2*zeta0^3",
                                      "ζ3^²", "ζ3 ²", "ζ3⁻¹", "2²", "ζ0²", "·ζ", "2··ζ3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_exact(text)

    def test_str_reparses(self):
        # the --ascii text users see, rendered from the JSON form, parses back
        values = [ExactComplex.of(Fraction(-7, 3)),
                  ExactComplex.root_of_unity(12, 5),
                  ExactComplex.of(2) * ExactComplex.root_of_unity(8, 3)]
        for v in values:
            assert parse_exact(render_exact(v.to_json(), True)) == v


class TestJson:
    def test_roundtrip(self):
        # the document survives JSON, and its fields rebuild the value
        values = [ExactComplex.of(4), ExactComplex.of(Fraction(-27, 2)),
                  ExactComplex.root_of_unity(6, 5),
                  ExactComplex.of(Fraction(3, 2)) * ExactComplex.root_of_unity(3)]
        for v in values:
            document = json.loads(json.dumps(v.to_json()))
            assert document == v.to_json()
            text = document["magnitude"]
            root = document.get("root_of_unity")
            if root is not None:
                text += "*zeta%d^%d" % (root["order"], root["power"])
            assert parse_exact(text) == v
        assert ExactComplex.of(Fraction(-27, 2)).to_json() == {
            "magnitude": "27/2", "root_of_unity": {"order": 2, "power": 1}}

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on integer strings")
    def test_past_the_interpreters_digit_limit(self):
        # 3^10000 has 4,772 digits, more than Python turns into text by
        # default; the refusal is mtspec's and names the way to lift it
        big = ExactComplex.of(3) ** 10000
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for value in (big, big * ExactComplex.of(-1),
                          big * ExactComplex.root_of_unity(3)):
                with pytest.raises(MtspecError, match="set_int_max_str_digits"):
                    value.to_json()
        finally:
            sys.set_int_max_str_digits(previous)


# The parser's regular expression before each run of whitespace could match
# only one way; it backtracked catastrophically on long runs.  It is the
# oracle for the language the parser accepts.
OLD_PARSE_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?P<rat>\d+(?:/\d+)?)?\s*
        (?:\*?\s*(?:zeta|ζ)(?P<order>\d+)(?:\^(?P<power>-?\d+))?)?\s*$""",
    re.VERBOSE,
)

def literal_like(st):
    """Strings shaped like literals: each slot of the grammar empty, filled,
    or filled wrongly, with whitespace runs between the slots."""
    ws = st.sampled_from(["", " ", "  ", "\t", "\n"])

    def slot(*options):
        return st.sampled_from(("",) + options)

    return st.tuples(ws, slot("+", "-", "x"), ws,
                     slot("2", "13", "3/4", "1/0", "٣", "/", "2/", "2²"), ws,
                     slot("*", "**", "!", "·", "·*"), ws, slot("zeta", "ζ", "zet"),
                     slot("6", "0", "12"),
                     slot("^5", "^-1", "^", "^x", "⁵", "¹¹", "⁻¹", "^²", "²^5"),
                     ws).map("".join)


SUPERSCRIPT_RUN = re.compile("[⁰¹²³⁴⁵⁶⁷⁸⁹]+")


def as_ascii(text):
    """The text with the CLI's unicode forms spelled in ASCII: "·" as "*"
    and a superscript power as "^" and its digits."""
    return SUPERSCRIPT_RUN.sub(
        lambda m: "^" + m.group().translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")),
        text.replace("·", "*"))


class TestParserLanguage:
    def test_same_language_as_the_old_expression(self):
        # a text without "·" or superscripts is matched as before, and the
        # superscript group is None there; a unicode form is matched as its
        # ASCII spelling is
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(literal_like(hypothesis.strategies))
        def check(text):
            old = OLD_PARSE_RE.match(as_ascii(text))
            new = exactnum._PARSE_RE.match(text)
            groups = new and new.groupdict()
            if groups:
                superscript = groups.pop("superscript")
                if as_ascii(text) == text:
                    assert superscript is None
                elif superscript is not None:
                    groups["power"] = as_ascii(superscript)[1:]
            assert (old and old.groupdict()) == groups

        check()

    def test_rendered_text_reads_back(self):
        # both the --ascii and the unicode text users see parse back
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.fractions().filter(bool), st.integers(1, 60),
                          st.integers(-100, 100), st.booleans())
        def check(q, order, power, ascii_mode):
            v = ExactComplex.of(q) * ExactComplex.root_of_unity(order, power)
            assert parse_exact(render_exact(v.to_json(), ascii_mode)) == v

        check()

    @pytest.mark.parametrize("text", [" " * 100_000 + "!", "2" + " " * 100_000 + "!",
                                      "-" + " " * 100_000 + "*",
                                      "2·" + " " * 100_000 + "ζ3²!"])
    def test_long_whitespace_fails_in_linear_time(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_exact(text)
        assert time.perf_counter() - start < 1
