"""Classification of invertible topological field theories for d <= 4.

The classification group in dimension d at category number n is read off
the certified cohomology tables through the unit-coefficient sequence
Z -> C -> C^x: torsion-free classes in degree d contribute one C^x
coordinate each, and torsion in degree d+1 would contribute a finite
part (it is zero in every case in range, but is computed honestly).
Restriction maps act multiplicatively through the recorded generator
maps; kernels are reported as groups and, when small, as explicit
root-of-unity tuples.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import certified
from .abelian import FgAbGroup, IntMatrix, smith_normal_form, units_kernel
from .certified import SpectrumId
from .errors import InternalCheckError, NotRecorded, OutOfRange
from .exactnum import ExactComplex

_KERNEL_LISTING_BOUND = 64


@dataclass(frozen=True)
class TheoryGroup:
    """The group of invertible theories at one (dimension, level)."""

    d: int
    n: int
    unit_rank: int            # number of C^x coordinates
    finite_part: FgAbGroup    # torsion contribution from one degree up
    basis_names: tuple        # generator names the coordinates are dual to

    @property
    def is_trivial(self) -> bool:
        return self.unit_rank == 0 and self.finite_part.is_trivial


@dataclass(frozen=True)
class TheoryParams:
    """Multiplicative coordinates of one invertible theory."""

    coords: tuple  # ExactComplex values, one per basis name

    @classmethod
    def of(cls, values) -> "TheoryParams":
        return cls(tuple(ExactComplex.of(v) for v in values))

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class ExtensionClass:
    """An integer multiple of the generating class of the cover group."""

    rho_multiple: int


def classify(d: int, n: int, data=None) -> TheoryGroup:
    """Invertible theories in dimension d with category number n."""
    if not (isinstance(d, int) and isinstance(n, int) and 1 <= n <= d <= 4):
        raise OutOfRange("need 1 <= n <= d <= 4")
    data = data or certified.load_data()
    spec = SpectrumId(d, certified.equivalent_stored_cover(d, d - n, data))
    here = certified.cohomology(spec, d, data)
    above = certified.cohomology(spec, d + 1, data)
    finite = FgAbGroup(0, above.group.torsion)
    return TheoryGroup(d, n, here.group.free_rank, finite, here.free_names)


def _check_levels(d: int, n_from: int, n_to: int):
    if not 1 <= n_to < n_from <= d <= 4:
        raise OutOfRange("need 1 <= n_to < n_from <= d <= 4")


def restriction_matrix(source: TheoryGroup, target: TheoryGroup, data=None) -> IntMatrix:
    """Exponent matrix of the restriction map on free generators, from the
    theories at one level of a dimension to those at a lower level.

    Row i carries the powers of the i-th source coordinate, so the j-th
    restricted coordinate is prod_i s_i^(A[i][j]).
    """
    d, n_from, n_to = source.d, source.n, target.n
    _check_levels(d, n_from, n_to)
    data = data or certified.load_data()
    src_names, tgt_names = source.basis_names, target.basis_names
    if (certified.equivalent_stored_cover(d, d - n_from, data)
            == certified.equivalent_stored_cover(d, d - n_to, data)):
        if src_names != tgt_names:
            raise InternalCheckError("equivalent covers disagree on generators")
        return IntMatrix.identity(len(src_names))
    if not src_names:
        return IntMatrix((), len(tgt_names))
    arrow = certified.cover_map(d, d, "cover", data)
    rows = []
    for name in src_names:
        image = arrow.image_of(name)
        extra = set(image) - set(tgt_names)
        if extra:
            raise NotRecorded("image of %s lands outside the free generators" % name)
        rows.append([image.get(t, 0) for t in tgt_names])
    return IntMatrix.from_rows(rows)


def restrict_theory(d: int, n_from: int, n_to: int, params: TheoryParams,
                    data=None) -> TheoryParams:
    """Push theory coordinates along a restriction, exactly."""
    data = data or certified.load_data()
    source = classify(d, n_from, data)
    target = classify(d, n_to, data)
    if not (source.finite_part.is_trivial and target.finite_part.is_trivial):
        raise OutOfRange("coordinate transport needs trivial finite parts")
    matrix = restriction_matrix(source, target, data)
    coords = tuple(ExactComplex.of(v) for v in params)
    if len(coords) != len(matrix.rows):
        raise OutOfRange("expected %d coordinates, got %d" % (len(matrix.rows), len(coords)))
    out = []
    for column in matrix.columns():
        value = ExactComplex.one()
        for x, e in zip(coords, column):
            value = value * x ** e
        out.append(value)
    return TheoryParams(tuple(out))


@dataclass(frozen=True)
class RestrictionKernel:
    """Kernel of a restriction map, with explicit elements when small."""

    group: FgAbGroup
    basis_names: tuple
    elements: tuple | None  # tuples of ExactComplex, or None when infinite/large


def restriction_kernel(d: int, n_from: int, n_to: int, data=None) -> RestrictionKernel:
    """Theories with the same restriction: the kernel of the coordinate map."""
    data = data or certified.load_data()
    source = classify(d, n_from, data)
    _check_levels(d, n_from, n_to)  # before the target level is classified
    matrix = restriction_matrix(source, classify(d, n_to, data), data)
    group = units_kernel(matrix)
    elements = None
    order = group.order()
    if order is not None and order <= _KERNEL_LISTING_BOUND:
        elements = _enumerate_kernel_elements(matrix)
    return RestrictionKernel(group, source.basis_names, elements)


def _enumerate_kernel_elements(matrix: IntMatrix) -> tuple:
    """All solutions of prod_i x_i^(A[i][j]) = 1 when there are finitely many.

    Writing x = exp(2*pi*i*z) turns the condition into A^T z integral; the
    solutions mod 1 are enumerated exactly through the Smith form of A^T.
    """
    m = len(matrix.rows)
    if m == 0:
        return ((),)
    _, diag_m, v = smith_normal_form(matrix.transpose())
    diag = diag_m.diagonal()
    if sum(1 for x in diag if x) != m:
        raise InternalCheckError("kernel is infinite; elements cannot be listed")
    combos = [[]]
    for i in range(m):
        combos = [c + [k] for c in combos for k in range(diag[i])]
    elements = []
    for combo in combos:
        w = [Fraction(k, diag[i]) for i, k in enumerate(combo)]
        z = [sum(Fraction(x) * y for x, y in zip(row, w)) % 1 for row in v.rows]
        elements.append(tuple(
            ExactComplex.root_of_unity(f.denominator, f.numerator) for f in z))
    elements.sort(key=lambda tup: [x.root for x in tup])
    return tuple(elements)


# ---------------------------------------------------------------------------
# mapping class group extensions and the impossibility certificate


def mcg_extension_class(x: ExtensionClass) -> int:
    """Multiple of the generating mapping-class-group extension induced by x.

    The generating class of the cover group induces twice the generator,
    and the assignment is additive in the class.
    """
    return 2 * x.rho_multiple


@dataclass(frozen=True)
class GilmerMasbaumReport:
    """The full impossibility certificate for the fundamental extension."""

    group: FgAbGroup            # classification group of Z-central extensions
    generator: str              # its generating class
    cover_note: str
    atiyah_class: ExtensionClass
    walker_class: ExtensionClass
    gilmer_class: ExtensionClass
    mcg_dictionary: tuple       # ((label, rho multiple, induced class), ...)
    fundamental_realizable: bool  # also decides Walker's index-4 subcategory
    argument: tuple


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
    gilmer_mult = walker_mult // 2

    atiyah = ExtensionClass(atiyah_mult)
    walker = ExtensionClass(walker_mult)
    gilmer = ExtensionClass(gilmer_mult)
    dictionary = tuple((label, cls.rho_multiple, mcg_extension_class(cls))
                       for label, cls in (("Atiyah (p1-structures)", atiyah),
                                          ("Walker (signature)", walker),
                                          ("Gilmer (index-2 subcategory)", gilmer)))
    target = 1  # the generating mapping class group extension
    realizable = (target % 2 == 0)  # every induced class 2n is even
    argument = (
        "every class n*rho induces the mapping class group extension 2n, "
        "which is always even",
        "the generating extension corresponds to the odd class %d, so no "
        "Z-central extension of the bordism category induces it" % target,
        "in particular no index-4 subcategory of Walker's category exists",
    )
    return GilmerMasbaumReport(
        group=entry.group,
        generator="rho",
        cover_note=("the second cover agrees with the stored first cover: "
                    "no homotopy in degree 1"),
        atiyah_class=atiyah,
        walker_class=walker,
        gilmer_class=gilmer,
        mcg_dictionary=dictionary,
        fundamental_realizable=realizable,
        argument=argument,
    )
