"""Integral cohomology rings of the low-dimensional oriented Grassmannians.

The rings served here are, as graded rings,

    d = 4:  Z[W3, e, p1] / (2 W3)      |W3| = 3, |e| = |p1| = 4
    d = 3:  Z[W3, p1] / (2 W3)
    d = 2:  Z[c]                       |c| = 2
    d = 1:  Z                          (no generators)

together with the restriction maps that preserve same-named generators,
send e to zero and send p1 to -c^2.  The class W3 arises as an integral
Bockstein of the second mod-2 class; no mod-2 operations are computed
here.

A formal degree-zero class u turns each graded piece into the matching
piece of the suspended Thom spectrum: the virtual bundle has dimension
zero, so tensoring with u shifts nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import FgAbGroup
from .errors import AmbientMismatch

GEN_ORDER = ("W3", "e", "p1", "c")
GEN_DEGREES = {"W3": 3, "e": 4, "p1": 4, "c": 2}
LEGAL_GENERATORS = {
    1: frozenset(),
    2: frozenset({"c"}),
    3: frozenset({"W3", "p1"}),
    4: frozenset({"W3", "e", "p1"}),
}
MAX_DEGREE = 64


def _check_ambient(d: int):
    if d not in LEGAL_GENERATORS:
        raise ValueError("ambient dimension must be 1, 2, 3 or 4")


@dataclass(frozen=True)
class Monomial:
    """Exponents aligned with GEN_ORDER = (W3, e, p1, c)."""

    exps: tuple

    def __post_init__(self):
        if len(self.exps) != len(GEN_ORDER) or any(e < 0 for e in self.exps):
            raise ValueError("bad exponent tuple")

    @classmethod
    def unit(cls) -> "Monomial":
        return cls((0, 0, 0, 0))

    @classmethod
    def of_generator(cls, name: str) -> "Monomial":
        if name not in GEN_ORDER:
            raise ValueError("unknown generator %r" % name)
        return cls(tuple(int(g == name) for g in GEN_ORDER))

    @property
    def degree(self) -> int:
        return sum(e * GEN_DEGREES[g] for g, e in zip(GEN_ORDER, self.exps))

    @property
    def has_torsion(self) -> bool:
        return self.exps[GEN_ORDER.index("W3")] > 0

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def generators_used(self):
        return {g for g, e in zip(GEN_ORDER, self.exps) if e}

    def name(self) -> str:
        if not any(self.exps):
            return "1"
        parts = []
        for g, e in zip(GEN_ORDER, self.exps):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append("%s^%d" % (g, e))
        return "".join(parts)

    def thom_name(self) -> str:
        return "u" if not any(self.exps) else self.name() + "u"


def _sorted_monomials(monomials):
    # descending lexicographic in (W3, e, p1, c) exponents, which puts the
    # tables' generators in their conventional order (e before p1, etc.)
    return sorted(monomials, key=lambda m: m.exps, reverse=True)


@dataclass(frozen=True)
class RingElement:
    """An integer combination of monomials in one ambient ring.

    Terms are kept sorted, nonzero, and with coefficients of torsion
    monomials reduced mod 2 (the relation 2*W3 = 0).
    """

    ambient_d: int
    terms: tuple  # ((Monomial, coefficient), ...)

    def __post_init__(self):
        _check_ambient(self.ambient_d)
        legal = LEGAL_GENERATORS[self.ambient_d]
        for mono, coeff in self.terms:
            if not mono.generators_used() <= legal:
                raise ValueError("monomial %s illegal in ambient d=%d"
                                 % (mono.name(), self.ambient_d))
            if coeff == 0 or (mono.has_torsion and coeff not in (0, 1)):
                raise ValueError("terms must be normalized")

    @classmethod
    def make(cls, d: int, term_map) -> "RingElement":
        _check_ambient(d)
        cleaned = {}
        for mono, coeff in term_map.items():
            if mono.has_torsion:
                coeff %= 2
            if coeff:
                cleaned[mono] = coeff
        ordered = tuple((m, cleaned[m]) for m in _sorted_monomials(cleaned))
        return cls(d, ordered)

    @classmethod
    def zero(cls, d: int) -> "RingElement":
        return cls.make(d, {})

    @classmethod
    def one(cls, d: int) -> "RingElement":
        return cls.make(d, {Monomial.unit(): 1})

    @classmethod
    def generator(cls, d: int, name: str) -> "RingElement":
        _check_ambient(d)
        if name not in LEGAL_GENERATORS[d]:
            raise ValueError("generator %r not available for d=%d" % (name, d))
        return cls.make(d, {Monomial.of_generator(name): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Common degree of a homogeneous element (None for zero)."""
        degrees = {m.degree for m, _ in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous")
        return degrees.pop()

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.ambient_d != other.ambient_d:
            raise AmbientMismatch("cannot add across ambient dimensions")
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return RingElement.make(self.ambient_d, acc)

    def __neg__(self) -> "RingElement":
        return RingElement.make(self.ambient_d, {m: -c for m, c in self.terms})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, k: int) -> "RingElement":
        return RingElement.make(self.ambient_d, {m: k * c for m, c in self.terms})

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.ambient_d != other.ambient_d:
            raise AmbientMismatch("cannot multiply across ambient dimensions")
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.times(m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return RingElement.make(self.ambient_d, acc)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            name = m.name()
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%d%s" % (c, name))
        out = parts[0]
        for p in parts[1:]:
            out += ("-" + p[1:]) if p.startswith("-") else ("+" + p)
        return out


# ---------------------------------------------------------------------------
# graded pieces and named entries


@dataclass(frozen=True)
class CohomologyEntry:
    """A group together with its ordered, named generating set.

    Each generator is (name, torsion order) with None marking a free
    generator; the list must realize the group exactly.
    """

    group: FgAbGroup
    generators: tuple  # ((name, order-or-None), ...)

    def __post_init__(self):
        free = [g for g in self.generators if g[1] is None]
        torsion = sorted(g[1] for g in self.generators if g[1] is not None)
        if len(free) != self.group.free_rank or tuple(torsion) != tuple(sorted(self.group.torsion)):
            raise ValueError("generator list does not realize the group")

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.generators)

    @property
    def free_names(self) -> tuple:
        return tuple(name for name, order in self.generators if order is None)

    def generator_orders(self) -> tuple:
        return tuple(0 if order is None else order for _, order in self.generators)

    def canonical_index(self) -> list:
        """Position of each listed generator among the canonical ones
        (free generators first, then torsion by ascending order)."""
        free_seen = 0
        torsion_positions = sorted(
            (order, idx) for idx, (_, order) in enumerate(self.generators)
            if order is not None)
        torsion_rank = {idx: self.group.free_rank + pos
                        for pos, (_, idx) in enumerate(torsion_positions)}
        out = []
        for idx, (_, order) in enumerate(self.generators):
            if order is None:
                out.append(free_seen)
                free_seen += 1
            else:
                out.append(torsion_rank[idx])
        return out


def _degree_monomials(d: int, k: int):
    _check_ambient(d)
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError("degree must lie in 0..%d" % MAX_DEGREE)
    gens = [g for g in GEN_ORDER if g in LEGAL_GENERATORS[d]]
    ranges = [range(k // GEN_DEGREES[g] + 1) for g in gens]
    found = []
    for combo in itertools.product(*ranges):
        if sum(e * GEN_DEGREES[g] for g, e in zip(gens, combo)) == k:
            exps = dict(zip(gens, combo))
            found.append(Monomial(tuple(exps.get(g, 0) for g in GEN_ORDER)))
    return _sorted_monomials(found)


_THOM_PIECES = {}  # (d, k) -> CohomologyEntry; entries are immutable


def thom_module_piece(d: int, k: int) -> CohomologyEntry:
    """Degree-k piece of the suspended Thom spectrum, with its monomial basis.

    Each torsion-free monomial m of degree k contributes a Z and each
    W3-divisible one a Z/2, named m*u (the Thom class has degree zero).
    """
    entry = _THOM_PIECES.get((d, k))
    if entry is None:
        gens = tuple((m.thom_name(), 2 if m.has_torsion else None)
                     for m in _degree_monomials(d, k))
        free = sum(1 for _, order in gens if order is None)
        cyclic = [order for _, order in gens if order is not None]
        entry = _THOM_PIECES[(d, k)] = CohomologyEntry(FgAbGroup.of(free, cyclic), gens)
    return entry


# ---------------------------------------------------------------------------
# restriction maps


_STEP_IMAGES = {
    # one dimension down at a time; same-named generators persist
    (4, 3): {"W3": ("W3", 1), "e": None, "p1": ("p1", 1)},
    (3, 2): {"W3": None, "p1": ("c^2", -1)},
    (2, 1): {"c": None},
}


def _step_image(d_from: int, name: str) -> RingElement:
    spec_map = _STEP_IMAGES[(d_from, d_from - 1)]
    target = spec_map[name]
    if target is None:
        return RingElement.zero(d_from - 1)
    label, sign = target
    if "^" in label:
        base, exp = label.split("^")
        elem = RingElement.one(d_from - 1)
        for _ in range(int(exp)):
            elem = elem * RingElement.generator(d_from - 1, base)
    else:
        elem = RingElement.generator(d_from - 1, label)
    return elem.scale(sign)


def restrict_generators(x: RingElement, to_d: int) -> RingElement:
    """Restrict along the inclusion of oriented Grassmannians.

    Same-named generators map to each other, e dies, p1 lands on -c^2,
    and W3 dies once there is no degree-3 class left.
    """
    if to_d not in (1, 2, 3):
        raise ValueError("restriction target must be below the ambient dimension")
    if to_d >= x.ambient_d:
        raise ValueError("restriction must strictly lower the dimension")
    current = x
    while current.ambient_d > to_d:
        d = current.ambient_d
        acc = RingElement.zero(d - 1)
        for mono, coeff in current.terms:
            term = RingElement.one(d - 1)
            for g, e in zip(GEN_ORDER, mono.exps):
                for _ in range(e):
                    term = term * _step_image(d, g)
            acc = acc + term.scale(coeff)
        current = acc
    return current
