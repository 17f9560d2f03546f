"""Exact nonzero complex scalars: positive rational times a root of unity.

This little value class is what keeps theory parameters, kernel elements
and manifold invariants exact end to end.  Every value is q * zeta_n^k
with q a positive rational (a ``Fraction``) and the phase k/n of a full
turn kept as the reduced integer pair (power k, order n): 0 <= k < n,
gcd(k, n) = 1, and n = 1 for the phase 0.  The set is closed under
multiplication and integer powers, and since the pair is reduced, two
values are equal exactly when their fields are.  A product adds the
phases over the product of the orders, a power multiplies the power, and
a sign adds half a turn; each is reduced with one ``%`` and one
``math.gcd``, so no ``Fraction`` is made for a phase.  There is no
floating point anywhere.  A value leaves the program only as its JSON
form (``to_json``), from which the CLI renders the text users see.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import MtspecError, checked

# Bounds on powers of a magnitude other than 1: the largest |exponent|, and
# the most decimal digits the result's numerator or denominator may have.
# The digits of q ** e grow with e times the digits of q, so either
# unbounded can exhaust memory; both are checked before powering.  Roots
# of unity of magnitude 1 cost nothing to power.
MAX_POWER_EXPONENT = 10_000
MAX_POWER_DIGITS = 20_000


@checked
class ExactComplex(namedtuple("ExactComplex", "mag power order")):
    """mag * zeta_order^power: mag > 0, and the phase power/order of a full
    turn is reduced, 0 <= power < order, coprime, and order 1 for phase 0."""

    __slots__ = ()

    def __new__(cls, mag: Fraction, power: int, order: int):
        if mag <= 0:
            raise ValueError("magnitude must be positive (values are nonzero)")
        if not (0 <= power < order and gcd(power, order) == 1):
            raise ValueError("the phase must be a reduced pair: 0 <= power < order, "
                             "coprime")
        return tuple.__new__(cls, (mag, power, order))

    @property
    def root(self) -> Fraction:
        """The phase as a fraction of a full turn, in [0, 1)."""
        return Fraction(self.power, self.order)

    # -- construction -------------------------------------------------------

    @staticmethod
    def _reduced(mag: Fraction, power: int, order: int) -> "ExactComplex":
        """mag * zeta_order^power for any rational mag != 0, any integer
        power and order >= 1, reduced: a negative mag is -mag half a turn
        on."""
        if mag == 0:
            raise MtspecError("exact complex values are nonzero")
        if mag < 0:
            mag = -mag
            power, order = 2 * power + order, 2 * order
        power %= order
        common = gcd(power, order)
        return ExactComplex(mag, power // common, order // common)

    @classmethod
    def of(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls._reduced(Fraction(value), 0, 1)
        if isinstance(value, str):
            return parse_exact(value)
        raise TypeError("cannot build an exact value from %r" % (value,))

    @classmethod
    def one(cls) -> "ExactComplex":
        return cls(Fraction(1), 0, 1)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "ExactComplex":
        if order < 1:
            raise ValueError("root order must be positive")
        return cls._reduced(Fraction(1), power, order)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        other = ExactComplex.of(other)
        # power/order + power'/order' over the common multiple order*order'
        return ExactComplex._reduced(self.mag * other.mag,
                                     self.power * other.order + other.power * self.order,
                                     self.order * other.order)

    __rmul__ = __mul__  # k * x is the product, not a repeat of the tuple

    def __add__(self, other):  # a concatenation of the fields is no sum
        return NotImplemented

    def __pow__(self, exponent: int) -> "ExactComplex":
        if not isinstance(exponent, int):
            raise TypeError("only integer powers stay exact")
        if self.mag != 1:
            if abs(exponent) > MAX_POWER_EXPONENT:
                raise MtspecError("exponent %d exceeds the bound %d on powers of "
                                  "a magnitude other than 1"
                                  % (exponent, MAX_POWER_EXPONENT))
            # log10(2) > 3/10, so this undercounts the digits of the result
            digits = abs(exponent) * 3 * max(self.mag.numerator.bit_length(),
                                             self.mag.denominator.bit_length()) // 10
            if digits > MAX_POWER_DIGITS:
                raise MtspecError("a power with about %d digits exceeds the bound "
                                  "MAX_POWER_DIGITS = %d" % (digits, MAX_POWER_DIGITS))
        return ExactComplex._reduced(self.mag ** exponent, self.power * exponent, self.order)

    # -- rendering ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"magnitude": _text(self.mag)}
        if self.order != 1:
            out["root_of_unity"] = {"order": self.order, "power": self.power}
        return out


def _text(q: Fraction) -> str:
    """str(q), refused past the limit of sys.set_int_max_str_digits."""
    try:
        return str(q)
    except ValueError as exc:
        raise MtspecError(str(exc)) from None


# Each token takes the whitespace after it, so a run of whitespace can be
# matched one way only and a failing match backtracks in linear time.  The
# unicode forms are those the CLI prints: "·" for "*", a superscript power.
_PARSE_RE = re.compile(
    r"""^\s*(?:(?P<sign>[+-])\s*)?
        (?:(?P<rat>\d+(?:/\d+)?)\s*)?
        (?:(?:[*·]\s*)?(?:zeta|ζ)(?P<order>\d+)
           (?:\^(?P<power>-?\d+)|(?P<superscript>[⁰¹²³⁴⁵⁶⁷⁸⁹]+))?\s*)?$""",
    re.VERBOSE,
)
_FROM_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def parse_exact(text: str) -> ExactComplex:
    """Parse "2", "-3/2", "zeta6", "zeta6^5", "-2*zeta3", "ζ6⁵" or "2·ζ3"
    exactly."""
    match = _PARSE_RE.match(text)
    if not match or (match.group("rat") is None and match.group("order") is None):
        raise MtspecError("cannot parse exact value %r" % text)
    try:
        mag = Fraction(match.group("rat")) if match.group("rat") else Fraction(1)
        power, order = 0, 1
        if match.group("order"):
            power = int(match.group("power")
                        or (match.group("superscript") or "1").translate(_FROM_SUPERSCRIPTS))
            order = int(match.group("order"))
            if not order:  # zeta0, as 1/0: no root has order 0
                raise ZeroDivisionError
    except ZeroDivisionError:
        raise MtspecError("zero denominator in exact value %r" % text) from None
    except ValueError as exc:  # more digits than this interpreter converts
        raise MtspecError("cannot parse exact value: %s" % exc) from None
    if match.group("sign") == "-":
        mag = -mag
    return ExactComplex._reduced(mag, power, order)
