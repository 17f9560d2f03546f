"""Concrete manifold descriptors and theory evaluation.

Manifolds are descriptor tuples, not triangulations: the theories in
range see only the Euler characteristic, the signature, the first
Pontryagin number and (in dimensions 1 mod 4) the real semicharacteristic,
so the data model (ManifoldClass, defined in certified and re-exported
here) stores the others and computes p1 = 3*sigma by the signature
theorem.  The catalog serves the ManifoldClass instances built and
validated when the shipped data file loads; none is invented silently.

All evaluation is exact: parameters and values are rational numbers
times roots of unity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import certified
from .certified import ManifoldClass
from .errors import DimensionMismatch, MissingKr, UnknownManifold
from .exactnum import ExactComplex


def disjoint_union(a: ManifoldClass, b: ManifoldClass) -> ManifoldClass:
    """Disjoint union: every invariant is additive."""
    if a.dim != b.dim:
        raise DimensionMismatch("disjoint union needs equal dimensions")
    kr = None
    if a.kr is not None and b.kr is not None:
        kr = (a.kr + b.kr) % 2
    return ManifoldClass("%s+%s" % (a.name, b.name), a.dim,
                         a.euler + b.euler, a.signature + b.signature, kr=kr)


def connected_sum(a: ManifoldClass, b: ManifoldClass) -> ManifoldClass:
    """Connected sum in dimensions 2 and 4: the sphere's euler 2 drops out."""
    if a.dim != b.dim:
        raise DimensionMismatch("connected sum needs equal dimensions")
    if a.dim not in (2, 4):
        raise DimensionMismatch("connected sum is provided for dimensions 2 and 4")
    return ManifoldClass("%s#%s" % (a.name, b.name), a.dim,
                         a.euler + b.euler - 2, a.signature + b.signature)


@dataclass(frozen=True)
class FormalSum:
    """An integer combination of manifold classes of one dimension."""

    terms: tuple  # ((ManifoldClass, multiplicity), ...)

    def __post_init__(self):
        dims = {m.dim for m, _ in self.terms}
        if len(dims) > 1:
            raise DimensionMismatch("formal sums must be homogeneous in dimension")

    @classmethod
    def of(cls, pairs) -> "FormalSum":
        acc = {}
        for manifold, mult in pairs:
            acc[manifold] = acc.get(manifold, 0) + mult
        return cls(tuple((m, c) for m, c in acc.items() if c))


# ---------------------------------------------------------------------------
# catalog


class ManifoldCatalog:
    """Named manifolds plus one-parameter families from the data file."""

    def __init__(self, manifolds, families):
        self._entries = dict(manifolds)
        self._families = []
        for family in families.values():
            pattern = re.compile("^" + re.escape(family.name[:-2]) + r"_(\d+)$")
            self._families.append((pattern, family))

    def get(self, name: str) -> ManifoldClass:
        if name in self._entries:
            return self._entries[name]
        for pattern, family in self._families:
            match = pattern.match(name)
            if match:
                return family.member(name, int(match.group(1)))
        raise UnknownManifold("no catalog entry named %r" % name)


def standard_manifolds(data=None) -> ManifoldCatalog:
    data = data or certified.load_data()
    return ManifoldCatalog(data.manifolds, data.families)


# ---------------------------------------------------------------------------
# vector-field bordism invariants


def vf_invariant(d: int, s: FormalSum) -> tuple:
    """The complete invariant tuple of a formal sum in dimension d.

    d=1: the semicharacteristic sum mod 2; d=2: half the euler sum;
    d=3: nothing (the group is trivial); d=4: (half of euler+signature,
    signature).
    """
    if d not in (1, 2, 3, 4):
        raise DimensionMismatch("dimension must be 1..4")
    for manifold, _ in s.terms:
        if manifold.dim != d:
            raise DimensionMismatch("sum contains a manifold of dimension %d"
                                    % manifold.dim)
    if d == 1:
        total = 0
        for manifold, mult in s.terms:
            if manifold.kr is None:
                raise MissingKr("%s carries no semicharacteristic" % manifold.name)
            total += mult * manifold.kr
        return (total % 2,)
    if d == 2:
        return (sum(mult * (m.euler // 2) for m, mult in s.terms),)
    if d == 3:
        return ()
    return (sum(mult * ((m.euler + m.signature) // 2) for m, mult in s.terms),
            sum(mult * m.signature for m, mult in s.terms))


def is_vf_nullbordant(d: int, s: FormalSum) -> bool:
    """True when the invariant tuple vanishes (complete for d <= 4)."""
    return all(x == 0 for x in vf_invariant(d, s))


# ---------------------------------------------------------------------------
# Frobenius and Euler theories


def frobenius_closed_value(mu, g: int) -> ExactComplex:
    """Value of the Frobenius theory on the closed genus-g surface."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return ExactComplex.of(mu) ** (1 - g)


def frobenius_surface_value(mu, m: ManifoldClass) -> ExactComplex:
    """Value on a closed, possibly disconnected surface.

    A genus-g component gives mu^(1-g) = mu^(chi/2) and the theory is
    multiplicative under disjoint union, so the value is mu^(chi/2).
    """
    if m.dim != 2:
        raise DimensionMismatch("the Frobenius theory evaluates surfaces")
    return ExactComplex.of(mu) ** (m.euler // 2)


@dataclass(frozen=True)
class SurfaceBordism:
    """A surface bordism remembered through euler data of total and source."""

    chi_total: int
    chi_source: int = 0


def euler_theory_value(lam, b: SurfaceBordism) -> ExactComplex:
    """Value of the Euler theory: the parameter to the relative euler number."""
    return ExactComplex.of(lam) ** (b.chi_total - b.chi_source)


def invertible_4d_value(l1, l2, m: ManifoldClass) -> ExactComplex:
    """Value of the two-parameter theory on a closed oriented 4-manifold."""
    if m.dim != 4:
        raise DimensionMismatch("this theory evaluates 4-manifolds")
    return ExactComplex.of(l1) ** m.euler * ExactComplex.of(l2) ** m.p1_number


# ---------------------------------------------------------------------------
# expression parsing (shared with the command line)


# Each token takes the whitespace after it, so a run of whitespace can be
# matched one way only and a failing match backtracks in linear time.
_SUM_TERM_RE = re.compile(
    r"\s*(?:([+-])\s*)?(?:(?:\(\s*)?(-?\d+)\s*(?:\)\s*)?\*\s*)?([A-Za-z][A-Za-z0-9_]*)")


def parse_formal_sum(text: str, catalog: ManifoldCatalog) -> FormalSum:
    """Parse sums like "K3 + 2*S4" or "Sigma_3 - (-2)*S2"."""
    pos = 0
    pairs = []
    first = True
    while pos < len(text):
        match = _SUM_TERM_RE.match(text, pos)
        if not match or (not first and match.group(1) is None):
            raise ValueError("cannot parse formal sum at %r" % text[pos:])
        sign = -1 if match.group(1) == "-" else 1
        coeff = int(match.group(2)) if match.group(2) is not None else 1
        pairs.append((catalog.get(match.group(3)), sign * coeff))
        pos = match.end()
        first = False
    if not pairs:
        raise ValueError("empty formal sum")
    return FormalSum.of(pairs)


def parse_manifold(text: str, catalog: ManifoldCatalog) -> ManifoldClass:
    """Parse a name, a connect-sum chain with '#', or a disjoint union with '+'."""
    pieces = [p.strip() for p in text.split("+")]
    built = []
    for piece in pieces:
        parts = [catalog.get(p.strip()) for p in piece.split("#")]
        acc = parts[0]
        for nxt in parts[1:]:
            acc = connected_sum(acc, nxt)
        built.append(acc)
    acc = built[0]
    for nxt in built[1:]:
        acc = disjoint_union(acc, nxt)
    return acc
