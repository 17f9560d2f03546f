"""Integral cohomology rings of the low-dimensional oriented Grassmannians.

The rings served here are, as graded rings,

    d = 4:  Z[W3, e, p1] / (2 W3)      |W3| = 3, |e| = |p1| = 4
    d = 3:  Z[W3, p1] / (2 W3)
    d = 2:  Z[c]                       |c| = 2
    d = 1:  Z                          (no generators)

A monomial is its exponent tuple over (W3, e, p1, c).  The restriction
maps keep same-named generators, send e to zero, send p1 to -c^2 and W3
to zero once there is no degree-3 class left, and send c to zero in
d = 1.  Each generator goes to plus or minus a power of one generator or
to zero, so each monomial goes to plus or minus one monomial or to zero:
ring_restriction needs no ring arithmetic.  The class W3 arises as an
integral Bockstein of the second mod-2 class; no mod-2 operations are
computed here.

A formal degree-zero class u turns each graded piece into the matching
piece of the suspended Thom spectrum: the virtual bundle has dimension
zero, so tensoring with u shifts nothing.  A table entry,
CohomologyEntry, is its named generators; its group is read from them.
The certified tables take their uncovered rows from thom_module_piece,
and the restriction between the spectra is ring_restriction: no data
file records it, and the loader solves the d=2 cover arrow in degree 4
from the 3 -> 2 square with it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import DIMENSIONS
from .abelian import FgAbGroup
from .errors import checked

_GENERATORS = ("W3", "e", "p1", "c")  # the order of a monomial's exponents
_DEGREES = (3, 4, 4, 2)
_LEGAL = {1: (), 2: ("c",), 3: ("W3", "p1"), 4: ("W3", "e", "p1")}  # each d-ring's generators
MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# graded pieces and named entries


@checked
class CohomologyEntry(namedtuple("CohomologyEntry", "generators")):
    """A group given by its ordered, named generating set.

    Each generator is (name, torsion order) with None marking a free
    generator.  The group is read from the list: one Z per free generator
    and the torsion orders, sorted, as invariant factors, so the orders
    must form a divisibility chain of integers >= 2 (FgAbGroup's rule).
    The views of the list are built with the entry: its names, its free
    names, and each generator's position among the canonical generators
    (free ones first, then torsion by ascending order).
    """

    def __new__(cls, generators: tuple):  # ((name, order-or-None), ...)
        names, free_names, canonical, torsion = [], [], [], []
        for i, (name, order) in enumerate(generators):
            names.append(name)
            if order is None:
                free_names.append(name)
                canonical.append(i)
            else:
                torsion.append((order, i))
        torsion.sort()
        orders = []
        for order, i in torsion:
            orders.append(order)
            canonical.append(i)
        positions = [0] * len(canonical)
        for position, i in enumerate(canonical):
            positions[i] = position
        # the views are attributes, not fields, so equality, hashing and repr
        # see the generators only
        self = tuple.__new__(cls, (generators,))
        self.__dict__.update(group=FgAbGroup(len(free_names), tuple(orders)),
                             names=tuple(names), free_names=tuple(free_names),
                             positions=tuple(positions))
        return self


def _degree_monomials(d: int, k: int) -> list:
    """Exponent tuples of the degree-k monomials of the d-ring, in the
    tables' order: descending lexicographic, so e comes before p1."""
    if d not in DIMENSIONS:
        raise ValueError("ambient dimension must be 1, 2, 3 or 4")
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError("degree must lie in 0..%d" % MAX_DEGREE)
    ranges = [range(k // deg + 1) if g in _LEGAL[d] else (0,)
              for g, deg in zip(_GENERATORS, _DEGREES)]
    return [exps for exps in reversed(list(itertools.product(*ranges)))
            if sum(e * deg for e, deg in zip(exps, _DEGREES)) == k]


def _thom_name(exps: tuple) -> str:
    """The monomial's name times u: W3e^2u, p1u, u, ..."""
    return "".join(g if e == 1 else "%s^%d" % (g, e)
                   for g, e in zip(_GENERATORS, exps) if e) + "u"


_THOM_PIECES = {}  # (d, k) -> CohomologyEntry; entries are immutable


def thom_module_piece(d: int, k: int) -> CohomologyEntry:
    """Degree-k piece of the suspended Thom spectrum, with its monomial basis.

    Each torsion-free monomial m of degree k contributes a Z and each
    W3-divisible one a Z/2, named m*u (the Thom class has degree zero).
    """
    entry = _THOM_PIECES.get((d, k))
    if entry is None:
        entry = _THOM_PIECES[(d, k)] = CohomologyEntry(tuple(
            (_thom_name(exps), 2 if exps[0] else None) for exps in _degree_monomials(d, k)))
    return entry


# ---------------------------------------------------------------------------
# restriction maps


def _restrict_monomial(exps: tuple, d: int, to_d: int):
    """(sign, exponents) of the monomial's restriction, or None if it dies."""
    w3, e, p1, c = exps
    sign = 1
    if to_d < 4 <= d and e:
        return None  # e dies
    if to_d < 3 <= d:
        if w3:
            return None  # W3 dies
        sign, p1, c = (-1) ** p1, 0, c + 2 * p1  # p1 lands on -c^2
    if to_d < 2 <= d and c:
        return None  # c dies
    return sign, (w3, 0, p1, c)


_RESTRICTIONS = {}  # (d, k, to_d) -> named images; tuples are immutable


def ring_restriction(d: int, k: int, to_d: int) -> tuple:
    """The ring restriction of the Thom-module piece (d, k) to (to_d, k).

    The images are named as a recorded arrow's assignments are:
    ((source name, ((target name, coefficient),) or ()), ...), in the
    order of the source basis.
    """
    key = (d, k, to_d)
    images = _RESTRICTIONS.get(key)
    if images is None:
        if not 1 <= to_d < d:
            raise ValueError("restriction must go down to a dimension 1 <= to_d < d")
        images = []
        for exps in _degree_monomials(d, k):
            image = _restrict_monomial(exps, d, to_d)
            images.append((_thom_name(exps),
                           () if image is None else ((_thom_name(image[1]), image[0]),)))
        images = _RESTRICTIONS[key] = tuple(images)
    return images
