import json
import re
import time
from fractions import Fraction

import pytest

from mtspec import exactnum
from mtspec.exactnum import (MAX_POWER_DIGITS, MAX_POWER_EXPONENT, ExactComplex,
                             parse_exact)


class TestConstruction:
    def test_sign_folds_into_the_root(self):
        minus_two = ExactComplex.of(-2)
        assert minus_two.mag == 2
        assert minus_two.root == Fraction(1, 2)
        assert minus_two.rational_value() == -2

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
        assert (x ** 2).rational_value() == Fraction(9, 4)
        assert (x ** -1).rational_value() == Fraction(-2, 3)

    def test_power_exponent_is_bounded(self):
        x = ExactComplex.of(Fraction(-3, 2))
        assert (x ** -MAX_POWER_EXPONENT).rational_value() == \
            Fraction(-2, 3) ** MAX_POWER_EXPONENT
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
        assert (ExactComplex.of(10 ** 1000) ** 19).rational_value() == 10 ** 19000
        assert x ** 0 == ExactComplex.one()

    def test_roots_of_unity_power_without_bound(self):
        z3 = ExactComplex.root_of_unity(3)
        assert (z3 ** (3 * 10 ** 20 + 1)) == z3
        assert (ExactComplex.of(-1) ** (10 ** 20 + 1)).rational_value() == -1

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
    ])
    def test_literals(self, text, expected):
        assert parse_exact(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1.5", "zeta", "0",
                                      "1/0", "3/00", "zeta0", "-2*zeta0^3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_exact(text)

    def test_str_reparses(self):
        values = [ExactComplex.of(Fraction(-7, 3)),
                  ExactComplex.root_of_unity(12, 5),
                  ExactComplex.of(2) * ExactComplex.root_of_unity(8, 3)]
        for v in values:
            assert parse_exact(str(v)) == v


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
                     slot("2", "13", "3/4", "1/0", "٣", "/", "2/"), ws,
                     slot("*", "**", "!"), ws, slot("zeta", "ζ", "zet"),
                     slot("6", "0", "12"), slot("^5", "^-1", "^", "^x"),
                     ws).map("".join)


class TestParserLanguage:
    def test_same_language_as_the_old_expression(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(literal_like(hypothesis.strategies))
        def check(text):
            old = OLD_PARSE_RE.match(text)
            new = exactnum._PARSE_RE.match(text)
            assert (old and old.groupdict()) == (new and new.groupdict())

        check()

    @pytest.mark.parametrize("text", [" " * 100_000 + "!", "2" + " " * 100_000 + "!",
                                      "-" + " " * 100_000 + "*"])
    def test_long_whitespace_fails_in_linear_time(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_exact(text)
        assert time.perf_counter() - start < 1
