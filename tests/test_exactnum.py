import math
from fractions import Fraction

import pytest

from mtspec.exactnum import MAX_POWER_EXPONENT, ExactComplex, parse_exact


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
        assert ExactComplex.root_of_unity(6, 0).is_one
        assert ExactComplex.root_of_unity(4, 7) == ExactComplex.root_of_unity(4, 3)


class TestArithmetic:
    def test_group_law_of_roots(self):
        z6 = ExactComplex.root_of_unity(6)
        assert (z6 ** 6).is_one
        assert z6 ** 3 == ExactComplex.of(-1)
        assert z6 * z6 == ExactComplex.root_of_unity(3)

    def test_rational_powers(self):
        x = ExactComplex.of(Fraction(-3, 2))
        assert (x ** 2).rational_value() == Fraction(9, 4)
        assert (x ** -1).rational_value() == Fraction(-2, 3)

    def test_division_and_inverse(self):
        x = ExactComplex.of(Fraction(5, 7))
        assert (x / x).is_one
        assert (x * x.inverse()).is_one

    def test_float_projection(self):
        z4 = ExactComplex.root_of_unity(4)
        assert abs(z4.to_complex() - 1j) < 1e-12
        assert abs(ExactComplex.of(-2).to_complex() + 2) < 1e-12

    def test_power_exponent_is_bounded(self):
        x = ExactComplex.of(Fraction(-3, 2))
        assert (x ** -MAX_POWER_EXPONENT).rational_value() == \
            Fraction(-2, 3) ** MAX_POWER_EXPONENT
        for exponent in (MAX_POWER_EXPONENT + 1, -MAX_POWER_EXPONENT - 1, 10 ** 20):
            with pytest.raises(ValueError, match=str(MAX_POWER_EXPONENT)):
                x ** exponent

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
        values = [ExactComplex.of(4), ExactComplex.of(Fraction(-27, 2)),
                  ExactComplex.root_of_unity(6, 5),
                  ExactComplex.of(Fraction(3, 2)) * ExactComplex.root_of_unity(3)]
        for v in values:
            assert ExactComplex.from_json(v.to_json()) == v
