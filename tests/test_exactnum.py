import json
import math
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
        assert (minus_two.power, minus_two.order) == (1, 2)
        assert minus_two.root == Fraction(1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ExactComplex.of(0)

    def test_roots_are_reduced(self):
        assert ExactComplex.root_of_unity(6, 3) == ExactComplex.root_of_unity(2, 1)
        assert ExactComplex.root_of_unity(6, 0) == ExactComplex.one()
        assert ExactComplex.root_of_unity(4, 7) == ExactComplex.root_of_unity(4, 3)

    def test_a_float_is_refused(self):
        with pytest.raises(TypeError, match="cannot build an exact value from 1.5"):
            ExactComplex.of(1.5)

    def test_a_root_of_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="root order must be positive"):
            ExactComplex.root_of_unity(0)


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

    def test_an_integer_times_a_value_is_the_product(self):
        # not the value's fields repeated, as a tuple's would be
        assert 2 * ExactComplex.of(3) == ExactComplex.of(3) * 2 == ExactComplex.of(6)
        assert -1 * ExactComplex.root_of_unity(4) == ExactComplex.root_of_unity(4, 3)

    def test_values_do_not_add(self):
        # the values form a multiplicative group; a concatenation is no sum
        with pytest.raises(TypeError):
            ExactComplex.of(3) + ExactComplex.of(3)

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


# An independent model of a value: its magnitude and its phase as a
# Fraction of a full turn in [0, 1), as the benchmark's oracles keep it.
def model_mul(a, b):
    return a[0] * b[0], (a[1] + b[1]) % 1


def model_pow(a, n):
    return a[0] ** n, (a[1] * n) % 1


def model(value):
    return value.mag, value.root


def assert_reduced(value):
    assert 0 <= value.power < value.order
    assert math.gcd(value.power, value.order) == 1  # so order 1 for phase 0
    assert value.mag > 0


def with_models(st, rationals, orders, powers):
    """(value, its model) pairs: q * zeta_order^power, built through
    ExactComplex.of, root_of_unity and a product, and modelled apart."""
    def pair(q, order, power):
        value = ExactComplex.of(q) * ExactComplex.root_of_unity(order, power)
        sign = Fraction(1, 2) if q < 0 else Fraction(0)
        return value, (abs(q), (sign + Fraction(power, order)) % 1)
    return st.builds(pair, rationals, orders, powers)


def check_examples(*strategies, examples=200):
    """The decorated check, run on that many examples of the strategies."""
    hypothesis = pytest.importorskip("hypothesis")

    def run(check):
        hypothesis.settings(max_examples=examples, deadline=None, derandomize=True,
                            database=None)(hypothesis.given(*strategies)(check))()
    return run


class TestAgainstTheModel:
    """Products, powers, signs and equality agree with the Fraction model,
    and every value's phase is a reduced (power, order) pair."""

    @staticmethod
    def values():
        st = pytest.importorskip("hypothesis.strategies")
        return with_models(st, st.fractions(min_value=-9, max_value=9,
                                            max_denominator=9).filter(bool),
                           st.integers(1, 60), st.integers(-200, 200))

    def test_products(self):
        @check_examples(self.values(), self.values())
        def check(a, b):
            product = a[0] * b[0]
            assert_reduced(product)
            assert model(product) == model_mul(a[1], b[1])
            assert model(a[0]) == a[1] and model(b[0]) == b[1]

    def test_powers(self):
        st = pytest.importorskip("hypothesis.strategies")

        @check_examples(self.values(), st.integers(-MAX_POWER_EXPONENT, MAX_POWER_EXPONENT),
                        examples=100)
        def check(a, n):
            power = a[0] ** n
            assert_reduced(power)
            assert model(power) == model_pow(a[1], n)

    def test_sign_is_half_a_turn(self):
        @check_examples(self.values())
        def check(a):
            negated = a[0] * ExactComplex.of(-1)
            assert_reduced(negated)
            assert model(negated) == (a[1][0], (a[1][1] + Fraction(1, 2)) % 1)
            assert negated != a[0] and negated * ExactComplex.of(-1) == a[0]

    def test_equality_is_the_models(self):
        st = pytest.importorskip("hypothesis.strategies")
        # small orders and magnitudes, so that equal values come up often
        small = with_models(st, st.sampled_from([Fraction(-1), Fraction(1), Fraction(2)]),
                            st.integers(1, 6), st.integers(-6, 6))

        @check_examples(small, small)
        def check(a, b):
            assert (a[0] == b[0]) == (a[1] == b[1])
            if a[0] == b[0]:
                assert hash(a[0]) == hash(b[0])

    def test_the_json_text_parses_back(self):
        @check_examples(self.values())
        def check(a):
            document = a[0].to_json()
            text = document["magnitude"]
            root = document.get("root_of_unity")
            if root is not None:
                text += "*zeta%d^%d" % (root["order"], root["power"])
            assert parse_exact(text) == a[0]

    @pytest.mark.parametrize("text", ["zeta1^5", "-zeta2", "zeta4^4", "-1*zeta6^3"])
    def test_phases_that_are_whole_turns_are_one(self, text):
        one = parse_exact(text)
        assert one == ExactComplex.one()
        assert (one.power, one.order) == (0, 1)
        assert one.to_json() == {"magnitude": "1"}

    def test_a_huge_order_squares_at_once(self):
        start = time.perf_counter()
        z = parse_exact("zeta999999999999")
        assert z * z == z ** 2 == ExactComplex.root_of_unity(999999999999, 2)
        assert (z ** 2).to_json() == {"magnitude": "1", "root_of_unity": {
            "order": 999999999999, "power": 2}}
        assert time.perf_counter() - start < 0.1

    def test_an_unreduced_pair_is_refused(self):
        for power, order in [(0, 2), (2, 4), (3, 3), (-1, 3), (0, 0)]:
            with pytest.raises(ValueError):
                ExactComplex(Fraction(1), power, order)
        with pytest.raises(ValueError):
            ExactComplex(Fraction(-1), 0, 1)
        assert ExactComplex(Fraction(1), 0, 1) == ExactComplex.one()
        with pytest.raises(AttributeError):
            ExactComplex.one().power = 1
