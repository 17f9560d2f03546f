"""Concrete manifold descriptors and theory evaluation.

Manifolds are descriptor tuples, not triangulations: the theories in
range see only the Euler characteristic, the signature, the first
Pontryagin number and (in dimensions 1 mod 4) the real semicharacteristic,
so the data model (ManifoldClass, defined in certified and re-exported
here) stores the others and computes p1 = 3*sigma by the signature
theorem.  A class may be an integer combination of manifolds of one
dimension (``formal_sum``), as those theories see a sum only through its
summed invariants.  The catalog serves the data's ManifoldClass
instances and the members of the families that ``certified``'s rules
give, Sigma_<g> and S2xSigma_<g>; none is invented silently.

All evaluation is exact: parameters and values are rational numbers
times roots of unity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import certified
from .certified import ManifoldClass
from .errors import MtspecError
from .exactnum import ExactComplex


def connected_sum(*chain: ManifoldClass) -> ManifoldClass:
    """Connected sum of a chain in dimensions 2 and 4: each '#' drops the
    euler number of S^dim.  A chain of one manifold is that manifold."""
    first = chain[0]
    for other in chain[1:]:
        if other.dim != first.dim:
            raise MtspecError("connected sum needs equal dimensions")
        if first.dim not in (2, 4):
            raise MtspecError("connected sum is provided for dimensions 2 and 4")
    if len(chain) == 1:
        return first
    sphere = certified.RULED_MANIFOLDS["S%d" % first.dim]
    return ManifoldClass("#".join(m.name for m in chain), first.dim,
                         sum(m.euler for m in chain) - sphere.euler * (len(chain) - 1),
                         sum(m.signature for m in chain))


def formal_sum(pairs) -> ManifoldClass:
    """The class of the sum of k*M over one or more (M, k) pairs.

    Every term must have the first term's dimension, whatever its
    multiplicity.  The euler number and the signature add with the
    multiplicities, kr adds mod 2 (None when a term has none), and the
    name, which only messages read, joins the terms with '+'.
    """
    dim = pairs[0][0].dim
    euler = signature = kr = 0
    names = []
    for manifold, mult in pairs:
        if manifold.dim != dim:
            raise MtspecError("formal sums must be homogeneous in dimension")
        euler += mult * manifold.euler
        signature += mult * manifold.signature
        kr = None if kr is None or manifold.kr is None else kr + mult * manifold.kr
        names.append(manifold.name if mult == 1 else "%d*%s" % (mult, manifold.name))
    return ManifoldClass("+".join(names), dim, euler, signature,
                         kr=None if kr is None else kr % 2)


# ---------------------------------------------------------------------------
# catalog


class ManifoldCatalog:
    """The data's named manifolds, and the members of the ruled families."""

    def __init__(self, manifolds):
        self._entries = manifolds

    def get(self, name: str) -> ManifoldClass:
        entry = self._entries.get(name) or certified.family_member(name)
        if entry is None:
            raise MtspecError("no catalog entry named %r" % name)
        return entry


def standard_manifolds(data=None) -> ManifoldCatalog:
    data = data or certified.load_data()
    return ManifoldCatalog(data.manifolds)


# ---------------------------------------------------------------------------
# vector-field bordism invariants


def vf_invariant(d: int, m: ManifoldClass) -> tuple:
    """The complete invariant tuple of a class (or formal sum) in dimension d.

    d=1: the semicharacteristic mod 2; d=2: half the euler number;
    d=3: nothing (the group is trivial); d=4: (half of euler+signature,
    signature).
    """
    if d not in (1, 2, 3, 4):
        raise MtspecError("dimension must be 1..4")
    if m.dim != d:
        raise MtspecError("sum contains a manifold of dimension %d" % m.dim)
    if d == 1:
        if m.kr is None:
            raise MtspecError("%s carries no semicharacteristic" % m.name)
        return (m.kr,)
    if d == 2:
        return (m.euler // 2,)
    if d == 3:
        return ()
    return ((m.euler + m.signature) // 2, m.signature)


def is_vf_nullbordant(d: int, m: ManifoldClass) -> bool:
    """True when the invariant tuple vanishes (complete for d <= 4)."""
    return all(x == 0 for x in vf_invariant(d, m))


# ---------------------------------------------------------------------------
# Frobenius and Euler theories


def frobenius_closed_value(mu, g: int) -> ExactComplex:
    """Value of the Frobenius theory on the closed genus-g surface."""
    if g < 0:
        raise MtspecError("genus must be nonnegative")
    return ExactComplex.of(mu) ** (1 - g)


def frobenius_surface_value(mu, m: ManifoldClass) -> ExactComplex:
    """Value on a closed, possibly disconnected surface.

    A genus-g component gives mu^(1-g) = mu^(chi/2) and the theory is
    multiplicative under disjoint union, so the value is mu^(chi/2).
    """
    if m.dim != 2:
        raise MtspecError("the Frobenius theory evaluates surfaces")
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
        raise MtspecError("this theory evaluates 4-manifolds")
    return ExactComplex.of(l1) ** m.euler * ExactComplex.of(l2) ** m.p1_number


# ---------------------------------------------------------------------------
# expression parsing (shared with the command line)


# Each token takes the whitespace after it, so a run of whitespace can be
# matched one way only and a failing match backtracks in linear time.
_SUM_TERM_RE = re.compile(r"\s*(?:([+-])\s*)?(?:(?:\(\s*)?(-?\d+)\s*(?:\)\s*)?\*\s*)?(%s)"
                          % certified._MANIFOLD_NAME_RE.pattern)
# the catalog names one manifold expression or formal sum may hold
MAX_EXPRESSION_TERMS = 1000
_TOO_MANY_TERMS = ("the expression has more than MAX_EXPRESSION_TERMS (%d) terms"
                   % MAX_EXPRESSION_TERMS)


def _int(digits: str) -> int:
    """The integer the digits spell, refused past the interpreter's limit
    on converting digits (``sys.set_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError as exc:
        raise MtspecError(str(exc)) from None


def parse_formal_sum(text: str, catalog: ManifoldCatalog) -> ManifoldClass:
    """Parse sums like "K3 + 2*S4" or "Sigma_3 - (-2)*S2"."""
    pos = 0
    pairs = []
    while pos < len(text):
        match = _SUM_TERM_RE.match(text, pos)
        if not match or (pairs and match.group(1) is None):
            raise MtspecError("cannot parse formal sum at %r" % text[pos:])
        if len(pairs) == MAX_EXPRESSION_TERMS:  # before the term past it is looked up
            raise MtspecError(_TOO_MANY_TERMS)
        sign = -1 if match.group(1) == "-" else 1
        coeff = _int(match.group(2)) if match.group(2) is not None else 1
        pairs.append((catalog.get(match.group(3)), sign * coeff))
        pos = match.end()
    if not pairs:
        raise MtspecError("empty formal sum")
    return formal_sum(pairs)


def parse_manifold(text: str, catalog: ManifoldCatalog) -> ManifoldClass:
    """Parse a name, a connect-sum chain with '#', or a disjoint union with '+'."""
    if text.count("+") + text.count("#") >= MAX_EXPRESSION_TERMS:  # before a name is read
        raise MtspecError(_TOO_MANY_TERMS)
    chains = []
    for piece in text.split("+"):
        chains.append((connected_sum(*[catalog.get(p.strip()) for p in piece.split("#")]), 1))
    return formal_sum(chains)
