"""The manifold catalog, manifold expressions and theory evaluation.

Manifolds are descriptor tuples, not triangulations: the theories in
range see only the Euler characteristic, the signature, the first
Pontryagin number and (in dimensions 1 mod 4) the real semicharacteristic,
so the data model (ManifoldClass) stores the others and computes p1 =
3*sigma by the signature theorem.  A class may be an integer combination
of manifolds of one dimension (``formal_sum``), as those theories see a
sum only through its summed invariants.

The catalog is code, and no data file records a manifold (data version
7): the spheres S1..S4, the tori T3, T4 and the hypersurfaces CP2 and K3
in CP^3 are RULED_MANIFOLDS, and the families Sigma_<g> and S2xSigma_<g>
are ``family_member``.  One expression language names a class:
``parse_formal_sum`` reads integer combinations of '#'-chains of catalog
names, for ``eval --manifold`` and ``bordism --sum`` alike.

All evaluation is exact: parameters and values are rational numbers
times roots of unity.
"""

from __future__ import annotations

import re
from collections import namedtuple
from types import SimpleNamespace

from . import DIMENSIONS
from .errors import MtspecError, checked
from .exactnum import ExactComplex


@checked
class ManifoldClass(namedtuple("ManifoldClass", "name dim euler signature kr")):
    """An oriented closed manifold, or an integer combination of such
    manifolds of one dimension, remembered through its invariants; every
    rule below is linear, so a combination of valid classes is valid."""

    __slots__ = ()

    def __new__(cls, name: str, dim: int, euler: int, signature: int = 0,
                kr: int | None = None):
        if dim not in DIMENSIONS:
            raise MtspecError("dimension must be %d..%d" % (DIMENSIONS[0], DIMENSIONS[-1]))
        if dim % 2 and euler != 0:
            raise MtspecError("closed odd-dimensional manifolds have euler 0")
        if dim % 4 and signature:
            raise MtspecError("signature is only meaningful in dimensions 0 mod 4")
        if dim % 2 == 0 and (euler + signature) % 2:
            raise MtspecError("euler + signature must be even (duality parity)")
        if kr is not None:
            if dim % 4 != 1:
                raise MtspecError("kr applies in dimensions 1 mod 4 only")
            if kr not in (0, 1):
                raise MtspecError("kr is a mod-2 value")
        return tuple.__new__(cls, (name, dim, euler, signature, kr))

    @property
    def p1_number(self) -> int:
        """The first Pontryagin number, 3 * signature by Hirzebruch's
        signature theorem; 0 outside dimension 4, as the signature is."""
        return 3 * self.signature


# ---------------------------------------------------------------------------
# catalog


def _product(name: str, a, b) -> ManifoldClass:
    """The product rule: dimensions add, euler numbers and signatures
    multiply, and a product of positive dimensions has no kr.  A factor
    not served itself is any object with the three invariants: only the
    product is checked, as a ManifoldClass."""
    return ManifoldClass(name, a.dim + b.dim, a.euler * b.euler, a.signature * b.signature)


def _hypersurface(name: str, k: int) -> ManifoldClass:
    """A smooth surface of degree k in CP^3: c1 = (4 - k)h, c2 = (k^2 - 4k + 6)h^2
    and h^2 = k, so euler = c2 and signature = (c1^2 - 2 c2) / 3 (Gompf-Stipsicz)."""
    return ManifoldClass(name, 4, k ** 3 - 4 * k ** 2 + 6 * k, -k * (k * k - 4) // 3)


def _int(digits: str) -> int:
    """The integer the digits spell, refused past the interpreter's limit
    on converting digits (``sys.set_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError as exc:
        raise MtspecError(str(exc)) from None


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # a catalog name, as an expression spells it
_FAMILY_RE = re.compile(r"(S2x)?Sigma_([0-9]+)")  # ASCII digits only


def family_member(name: str) -> ManifoldClass | None:
    """The member a family rule gives the name, or None: Sigma_<g> is the
    genus-g surface, euler 2 - 2g, and S2xSigma_<g> its product with S2."""
    match = _FAMILY_RE.fullmatch(name)
    if match is None:
        return None
    genus = _int(match[2])
    euler = 2 - 2 * genus  # of the genus-g surface
    if match[1]:
        return _product(name, RULED_MANIFOLDS["S2"],
                        SimpleNamespace(dim=2, euler=euler, signature=0))
    return ManifoldClass(name, 2, euler)


# the sphere rule, euler(S^n) = 1 + (-1)^n with kr(S1) = 1 (one circle), the tori
# T3 = S1 x Sigma_1 and T4 = Sigma_1 x Sigma_1, and CP2 and K3
_CIRCLE, _TORUS = ManifoldClass("S1", 1, 0, kr=1), family_member("Sigma_1")
RULED_MANIFOLDS = {m.name: m for m in (
    _CIRCLE, *(ManifoldClass("S%d" % n, n, 1 + (-1) ** n) for n in (2, 3, 4)),
    _product("T3", _CIRCLE, _TORUS), _product("T4", _TORUS, _TORUS),
    _hypersurface("CP2", 1), _hypersurface("K3", 4))}


def _catalog_entry(name: str) -> ManifoldClass:
    entry = RULED_MANIFOLDS.get(name) or family_member(name)
    if entry is None:
        raise MtspecError("no catalog entry named %r" % name)
    return entry


_CATALOG = SimpleNamespace(get=_catalog_entry)


def standard_manifolds():
    """The catalog the parsers read names from, built once: its get(name)
    is a ruled name, else a family member, and refuses any other name."""
    return _CATALOG


def connected_sum(*chain: ManifoldClass) -> ManifoldClass:
    """Connected sum of a chain of one dimension: each '#' drops the euler
    number of S^dim, and in dimension 1 also its kr, mod 2, so a chain of
    circles is a circle.  A chain of one manifold is that manifold."""
    first = chain[0]
    for other in chain[1:]:
        if other.dim != first.dim:
            raise MtspecError("connected sum needs equal dimensions")
    if len(chain) == 1:
        return first
    sphere, links = RULED_MANIFOLDS["S%d" % first.dim], len(chain) - 1
    krs = [m.kr for m in chain]
    kr = None if first.dim != 1 or None in krs else (sum(krs) - sphere.kr * links) % 2
    return ManifoldClass("#".join(m.name for m in chain), first.dim,
                         sum(m.euler for m in chain) - sphere.euler * links,
                         sum(m.signature for m in chain), kr)


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
# vector-field bordism invariants


def vf_invariant(d: int, m: ManifoldClass) -> tuple:
    """The complete invariant tuple of a class (or formal sum) in dimension d.

    d=1: the semicharacteristic mod 2; d=2: half the euler number;
    d=3: nothing (the group is trivial); d=4: (half of euler+signature,
    signature).
    """
    if d not in DIMENSIONS:
        raise MtspecError("dimension must be %d..%d" % (DIMENSIONS[0], DIMENSIONS[-1]))
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


class SurfaceBordism(namedtuple("SurfaceBordism", "chi_total chi_source", defaults=(0,))):
    """A surface bordism remembered through euler data of total and source."""

    __slots__ = ()


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
# A term is an optional sign and coefficient and a catalog name, and each
# '#' link after it extends its chain by one more name.
_SUM_TERM_RE = re.compile(r"\s*(?:([+-])\s*)?(?:(?:\(\s*)?(-?\d+)\s*(?:\)\s*)?\*\s*)?(%s)"
                          % _NAME_RE.pattern)
_LINK_RE = re.compile(r"\s*#\s*(%s)" % _NAME_RE.pattern)
# the catalog names one expression may hold, in all its chains
MAX_EXPRESSION_TERMS = 1000


def parse_formal_sum(text: str, catalog) -> ManifoldClass:
    """Parse an integer combination of connected-sum chains of catalog
    names, like "K3 + 2*S4", "Sigma_3 - (-2)*S2" or "2*CP2#K3 - S4"; a
    coefficient multiplies the whole chain after it."""
    pos = names = 0
    pairs = []
    end = len(text.rstrip())  # trailing whitespace ends the expression
    while pos < end:
        match = _SUM_TERM_RE.match(text, pos)
        if not match or (pairs and match.group(1) is None):
            raise MtspecError("cannot parse formal sum at %r" % text[pos:])
        sign = -1 if match.group(1) == "-" else 1
        coeff = _int(match.group(2)) if match.group(2) is not None else 1
        chain, link = [], match
        while link:
            if names == MAX_EXPRESSION_TERMS:  # before the name past it is looked up
                raise MtspecError("the expression has more than MAX_EXPRESSION_TERMS "
                                  "(%d) terms" % MAX_EXPRESSION_TERMS)
            names += 1
            chain.append(catalog.get(link.groups()[-1]))
            pos = link.end()
            link = _LINK_RE.match(text, pos)
        pairs.append((connected_sum(*chain), sign * coeff))
    if not pairs:
        raise MtspecError("empty formal sum")
    return formal_sum(pairs)


parse_manifold = parse_formal_sum  # a second name, which perfbench/worker.py calls
