"""Exact nonzero complex scalars: positive rational times a root of unity.

This little value class is what keeps theory parameters, kernel elements
and manifold invariants exact end to end.  Every value is q * zeta_n^k
with q a positive rational and 0 <= k < n reduced, which is closed under
multiplication and integer powers.  There is no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

# Bounds on powers of a magnitude other than 1: the largest |exponent|, and
# the most decimal digits the result's numerator or denominator may have.
# The digits of q ** e grow with e times the digits of q, so either
# unbounded can exhaust memory; both are checked before powering.  Roots
# of unity of magnitude 1 cost nothing to power.
MAX_POWER_EXPONENT = 10_000
MAX_POWER_DIGITS = 20_000


@dataclass(frozen=True)
class ExactComplex:
    mag: Fraction   # > 0
    root: Fraction  # phase as a fraction of a full turn, in [0, 1)

    def __post_init__(self):
        if self.mag <= 0:
            raise ValueError("magnitude must be positive (values are nonzero)")
        if not 0 <= self.root < 1:
            raise ValueError("root exponent must be reduced into [0, 1)")

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(mag: Fraction, root: Fraction) -> "ExactComplex":
        if mag == 0:
            raise ValueError("exact complex values are nonzero")
        if mag < 0:
            mag = -mag
            root = root + Fraction(1, 2)
        return ExactComplex(mag, root % 1)

    @classmethod
    def of(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls._make(Fraction(value), Fraction(0))
        if isinstance(value, str):
            return parse_exact(value)
        raise TypeError("cannot build an exact value from %r" % (value,))

    @classmethod
    def one(cls) -> "ExactComplex":
        return cls(Fraction(1), Fraction(0))

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "ExactComplex":
        if order < 1:
            raise ValueError("root order must be positive")
        return cls._make(Fraction(1), Fraction(power, order))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        other = ExactComplex.of(other)
        return ExactComplex._make(self.mag * other.mag, self.root + other.root)

    def __pow__(self, exponent: int) -> "ExactComplex":
        if not isinstance(exponent, int):
            raise TypeError("only integer powers stay exact")
        if self.mag != 1:
            if abs(exponent) > MAX_POWER_EXPONENT:
                raise ValueError("exponent %d exceeds the bound %d on powers of "
                                 "a magnitude other than 1"
                                 % (exponent, MAX_POWER_EXPONENT))
            # log10(2) > 3/10, so this undercounts the digits of the result
            digits = abs(exponent) * 3 * max(self.mag.numerator.bit_length(),
                                             self.mag.denominator.bit_length()) // 10
            if digits > MAX_POWER_DIGITS:
                raise ValueError("a power with about %d digits exceeds the bound "
                                 "MAX_POWER_DIGITS = %d" % (digits, MAX_POWER_DIGITS))
        return ExactComplex._make(self.mag ** exponent, self.root * exponent)

    # -- inspection ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.root == 0 or self.root == Fraction(1, 2)

    def rational_value(self) -> Fraction:
        if self.root == 0:
            return self.mag
        if self.root == Fraction(1, 2):
            return -self.mag
        raise ValueError("%s is not rational" % self)

    @property
    def root_order(self) -> int:
        return self.root.denominator

    @property
    def root_power(self) -> int:
        return self.root.numerator

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if self.is_rational:
            return str(self.rational_value())
        zeta = "zeta%d" % self.root_order
        if self.root_power != 1:
            zeta += "^%d" % self.root_power
        if self.mag == 1:
            return zeta
        return "%s*%s" % (self.mag, zeta)

    def to_json(self) -> dict:
        out = {"magnitude": str(self.mag)}
        if self.root != 0:
            out["root_of_unity"] = {"order": self.root_order, "power": self.root_power}
        return out


# Each token takes the whitespace after it, so a run of whitespace can be
# matched one way only and a failing match backtracks in linear time.
_PARSE_RE = re.compile(
    r"""^\s*(?:(?P<sign>[+-])\s*)?
        (?:(?P<rat>\d+(?:/\d+)?)\s*)?
        (?:(?:\*\s*)?(?:zeta|ζ)(?P<order>\d+)(?:\^(?P<power>-?\d+))?\s*)?$""",
    re.VERBOSE,
)


def parse_exact(text: str) -> ExactComplex:
    """Parse "2", "-3/2", "zeta6", "zeta6^5" or "-2*zeta3" exactly."""
    match = _PARSE_RE.match(text)
    if not match or (match.group("rat") is None and match.group("order") is None):
        raise ValueError("cannot parse exact value %r" % text)
    try:
        mag = Fraction(match.group("rat")) if match.group("rat") else Fraction(1)
        root = Fraction(0)
        if match.group("order"):
            power = int(match.group("power") or 1)
            root = Fraction(power, int(match.group("order")))
    except ZeroDivisionError:
        raise ValueError("zero denominator in exact value %r" % text) from None
    if match.group("sign") == "-":
        mag = -mag
    return ExactComplex._make(mag, root)
