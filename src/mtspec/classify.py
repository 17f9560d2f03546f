"""Classification of invertible topological field theories for d <= 4.

The classification group in dimension d (one of ``mtspec.DIMENSIONS``)
at category number n is read off the certified cohomology tables through
the unit-coefficient sequence Z -> C -> C^x: torsion-free classes in
degree d contribute one C^x coordinate each, and torsion in degree d+1 a
finite part (zero on the shipped file, but computed honestly).
Restriction maps act multiplicatively through the recorded generator
maps.  A kernel is read off one Smith form of the transposed exponent
matrix: its group from the diagonal, and, when small, its elements as
root-of-unity tuples whose phases are integers modulo the lcm of that
diagonal.  Both read one prelude, ``_restriction``, the one check of the
levels and the one finite-part rule (both must be trivial, or the map
is refused), which builds the exponent matrix.  A theory's coordinates
are a tuple, ``TheoryParams``.  Everything is exact.
``exactnum`` is imported when the first coordinate is made, not with
this module, so a classification or the certificate does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from . import DIMENSIONS, certified
from .abelian import FgAbGroup, IntMatrix, smith_normal_form
from .certified import SpectrumId
from .errors import InternalCheckError, MtspecError

_KERNEL_LISTING_BOUND = 64


@functools.cache
def _exact():
    """exactnum.ExactComplex, imported on the first call, not with this module."""
    from .exactnum import ExactComplex
    return ExactComplex


class TheoryGroup(namedtuple("TheoryGroup", "d n unit_rank finite_part basis_names")):
    """The group of invertible theories at one (dimension, level): the
    number of C^x coordinates, the torsion contribution from one degree
    up, and the generator names the coordinates are dual to."""

    __slots__ = ()


class TheoryParams(tuple):
    """Multiplicative coordinates of one invertible theory: the tuple of
    its ExactComplex values, one per basis name."""

    __slots__ = ()

    @classmethod
    def of(cls, values) -> "TheoryParams":
        return cls(map(_exact().of, values))


class ExtensionClass(namedtuple("ExtensionClass", "rho_multiple")):
    """An integer multiple of the generating class of the cover group."""

    __slots__ = ()


def classify(d: int, n: int, data=None) -> TheoryGroup:
    """Invertible theories in dimension d with category number n."""
    if not (isinstance(d, int) and isinstance(n, int) and d in DIMENSIONS and 1 <= n <= d):
        raise MtspecError("need 1 <= n <= d <= 4")
    data = data or certified.load_data()
    spec = SpectrumId(d, certified.equivalent_stored_cover(d, d - n, data))
    here = certified.cohomology(spec, d, data)
    above = certified.cohomology(spec, d + 1, data)
    finite = FgAbGroup(0, above.group.torsion)
    return TheoryGroup(d, n, here.group.free_rank, finite, here.free_names)


def _restriction(d: int, n_from: int, n_to: int, data) -> tuple:
    """The source's theory group and the exponent matrix of the restriction
    map on free generators: row i carries the powers of the i-th source
    coordinate, so the j-th restricted coordinate is prod_i s_i^(A[i][j]).

    The levels are checked once the source is classified, which checks d
    and n_from, and before the target is, so a bad target level gets this
    one message.  Both finite parts must be trivial: a map of the free
    coordinates says nothing of a finite part's theories.
    """
    data = data or certified.load_data()
    source = classify(d, n_from, data)
    if not 1 <= n_to < n_from:
        raise MtspecError("need 1 <= n_to < n_from <= d <= 4")
    target = classify(d, n_to, data)
    if not (source.finite_part.is_trivial and target.finite_part.is_trivial):
        raise MtspecError("coordinate transport needs trivial finite parts")
    src_names, tgt_names = source.basis_names, target.basis_names
    if (certified.equivalent_stored_cover(d, d - n_from, data)
            == certified.equivalent_stored_cover(d, d - n_to, data)):
        if src_names != tgt_names:
            raise InternalCheckError("equivalent covers disagree on generators")
        return source, IntMatrix.identity(len(src_names))
    if not src_names:
        return source, IntMatrix((), len(tgt_names))
    arrow = certified.cover_map(d, d, "cover", data)
    rows = []
    for name in src_names:
        image = arrow.image_of(name)
        if not set(image) <= set(tgt_names):
            raise MtspecError("image of %s lands outside the free generators" % name)
        rows.append([image.get(t, 0) for t in tgt_names])
    return source, IntMatrix.from_rows(rows)


def restrict_theory(d: int, n_from: int, n_to: int, params: TheoryParams,
                    data=None) -> TheoryParams:
    """Push theory coordinates along a restriction, exactly."""
    _, matrix = _restriction(d, n_from, n_to, data)
    coords = TheoryParams.of(params)
    if len(coords) != len(matrix.rows):
        raise MtspecError("expected %d coordinates, got %d" % (len(matrix.rows), len(coords)))
    one = _exact().one()
    return TheoryParams(math.prod((x ** e for x, e in zip(coords, column)), start=one)
                        for column in matrix.columns())


class RestrictionKernel(namedtuple("RestrictionKernel", "group basis_names elements")):
    """Kernel of a restriction map, with explicit elements when small:
    tuples of ExactComplex, or None when infinite or large."""

    __slots__ = ()


def restriction_kernel(d: int, n_from: int, n_to: int, data=None) -> RestrictionKernel:
    """Theories with the same restriction: the kernel of the coordinate map.

    With x = exp(2*pi*i*z) it is {z mod 1 : A^T z integral}.  Given
    U * A^T * V = D and z = V w, w_c is a multiple of 1/s_c for each nonzero
    diagonal entry s_c and free otherwise: the group is Z^(m - rank) plus
    the Z/s_c, and a finite kernel's phases are integers modulo their lcm.
    """
    source, matrix = _restriction(d, n_from, n_to, data)
    _, diag_m, v = smith_normal_form(matrix.transpose())
    diag = [s for s in diag_m.diagonal() if s]
    group = FgAbGroup(len(matrix.rows) - len(diag), tuple(s for s in diag if s > 1))
    elements = None
    order = group.order()
    if order is not None and order <= _KERNEL_LISTING_BOUND:
        root_of_unity = _exact().root_of_unity
        lcm = math.lcm(*diag)
        steps = [lcm // s for s in diag]
        phases = sorted(
            tuple(sum(x * k * step for x, k, step in zip(row, ks, steps)) % lcm
                  for row in v.rows)
            for ks in itertools.product(*map(range, diag)))
        elements = tuple(tuple(root_of_unity(lcm, p) for p in phase)
                         for phase in phases)
    return RestrictionKernel(group, source.basis_names, elements)


# ---------------------------------------------------------------------------
# mapping class group extensions and the impossibility certificate


def mcg_extension_class(x: ExtensionClass) -> int:
    """Multiple of the generating mapping-class-group extension induced by x.

    The generating class of the cover group induces twice the generator,
    and the assignment is additive in the class.
    """
    return 2 * x.rho_multiple


class GilmerMasbaumReport(namedtuple(
        "GilmerMasbaumReport", "group generator atiyah_class walker_class gilmer_class "
                               "mcg_dictionary fundamental_realizable")):
    """The full impossibility certificate for the fundamental extension:
    the classification group of Z-central extensions and its generating
    class, the three classes, the dictionary ((key, rho multiple, induced
    class), ...), and whether the fundamental extension is realizable,
    which also decides Walker's index-4 subcategory."""

    __slots__ = ()


def gilmer_masbaum_report(data=None) -> GilmerMasbaumReport:
    """Derive the certificate from the certified tables and recorded maps."""
    data = data or certified.load_data()
    if not certified.grid_equivalence(3, 2, 1, data):
        raise InternalCheckError("the second cover no longer matches the stored one")
    entry = certified.cohomology(SpectrumId(3, 1), 4, data)
    if entry.group != FgAbGroup(1) or entry.names != ("rho",):
        raise InternalCheckError("the degree-4 cover group is no longer Z on rho")

    cover_arrow = certified.cover_map(3, 4, "cover", data)
    atiyah_mult = cover_arrow.image_of("p1u").get("rho", 0)
    cover_dim_arrow = certified.cover_map(4, 4, "covdim", data)
    if cover_dim_arrow.image_of("psi").get("rho", 0) != 1:
        raise InternalCheckError("psi no longer maps to the generator")
    walker_mult = cover_dim_arrow.image_of("sigma").get("rho", 0)
    if walker_mult % 2:
        raise InternalCheckError("the signature class is not an even multiple")

    classes = {"atiyah": ExtensionClass(atiyah_mult), "walker": ExtensionClass(walker_mult),
               "gilmer": ExtensionClass(walker_mult // 2)}
    target = 1  # the generating mapping class group extension
    realizable = (target % 2 == 0)  # every induced class 2n is even
    return GilmerMasbaumReport(
        group=entry.group, generator="rho", atiyah_class=classes["atiyah"],
        walker_class=classes["walker"], gilmer_class=classes["gilmer"],
        mcg_dictionary=tuple((key, cls.rho_multiple, mcg_extension_class(cls))
                             for key, cls in classes.items()),
        fundamental_realizable=realizable)
