"""The consistency proof behind the certified tables.

A long-exact-sequence verifier for the fiber sequence

    (cover) -> (spectrum) -> (integral Eilenberg-MacLane spectrum),

and a constrained derivation engine that re-derives every cover entry of
the table, admitting only constraints read from the data: Hurewicz facts
from the homotopy table and divisibility from the recorded cover arrows.
The tables themselves are served by ``certified``, next to the data file
they are read from, which computes the uncovered rows, the restriction
between the spectra and part of the restriction diagram; this module is
the machine-checked consistency proof of the cover rows.  It
re-exports the table lookups (``SpectrumId``, ``cohomology``,
``homotopy_group``, ``hz_self_cohomology``, ``grid_equivalence``,
``equivalent_stored_cover``, ``cover_map`` and ``MAX_TABLE_DEGREE``), so
``spectra.cohomology`` and the others resolve as before; serving a table
does not import it.

Every exactness check and every derivation runs on each call.  What the
proof only builds from a snapshot, the entries of H^k(HZ), the zero map
between two groups and the cover's connectivity, it builds once per
snapshot and keeps in that CertifiedData's ``derived`` dict, its
workspace; a new data file is a new CertifiedData with an empty one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import certified
from .abelian import (FgAbGroup, GroupHom, TRIVIAL_GROUP, check_exact,
                      cokernel_with_projection, enumerate_extensions, zero_hom)
from .charclasses import CohomologyEntry
# the lookups below are used here or re-exported; see the module docstring
from .certified import (MAX_TABLE_DEGREE, SpectrumId, cohomology, cover_map,  # noqa: F401
                        equivalent_stored_cover, grid_equivalence, homotopy_group,
                        hz_self_cohomology)
from .errors import DataFormatError, InternalCheckError, MtspecError

# ---------------------------------------------------------------------------
# the proof's workspace: values that depend on the snapshot alone, kept in
# data.derived under ("hz", k), ("zero", source, target) or ("connectivity", d)


def _hz_entry(k: int, data) -> CohomologyEntry:
    """H^k(HZ) as a table entry; the group is cyclic, generated by hz<k>."""
    key = ("hz", k)
    entry = data.derived.get(key)
    if entry is None:
        hz = hz_self_cohomology(k, data)
        entry = CohomologyEntry(hz, tuple(("hz%d" % k, order or None)
                                          for order in hz.generator_orders()))
        data.derived[key] = entry
    return entry


def _zero_map(source: FgAbGroup, target: FgAbGroup, data) -> GroupHom:
    key = ("zero", source, target)
    hom = data.derived.get(key)
    if hom is None:
        hom = data.derived[key] = zero_hom(source, target)
    return hom


def _cover_connectivity(d: int, data) -> int:
    """First degree >= 1 where the cover can have homotopy, per the table."""
    key = ("connectivity", d)
    conn = data.derived.get(key)
    if conn is None:
        conn = next((i for i in range(1, d + 1)
                     if not homotopy_group(d, i, data).is_trivial), d + 1)
        data.derived[key] = conn
    return conn


# ---------------------------------------------------------------------------
# long exact sequence verification


@dataclass(frozen=True)
class LesCheck:
    label: str
    exact: bool
    note: str = ""


@dataclass(frozen=True)
class LesChunk:
    description: str
    groups: tuple
    exact: bool


@dataclass(frozen=True)
class LesReport:
    d: int
    checks: tuple
    chunks: tuple
    notes: tuple

    @property
    def all_exact(self) -> bool:
        return all(c.exact for c in self.checks)


def verify_les(d: int, data=None) -> LesReport:
    """Assemble the long exact sequence in degrees 0..5 and check it.

    The data's arrows enter as loaded; maps touching a zero group are
    zero; the identifications of the Eilenberg-MacLane groups with the
    spectrum's (the unit map in degree 0, and degree 3) and the
    connecting surjections onto them are synthesized canonically
    (generator pairings and cokernel projections), and a mismatch there
    is reported as a failure.
    """
    data = data or certified.load_data()
    if d not in (2, 3, 4):
        raise MtspecError("the fiber sequence is recorded for d = 2, 3, 4")
    labels, nodes = [], []  # one labelled CohomologyEntry per group, in order
    shown = [(spectrum, spectrum.display(True))
             for spectrum in (SpectrumId(d, 0), SpectrumId(d, 1))]
    for k in range(MAX_TABLE_DEGREE + 2):
        labels.append("HZ^%d(HZ)" % k)
        nodes.append(_hz_entry(k, data))
        if k <= MAX_TABLE_DEGREE:
            for spectrum, text in shown:
                labels.append("H^%d(%s)" % (k, text))
                nodes.append(cohomology(spectrum, k, data))

    notes = []
    failures = {}

    def alpha(k: int):
        src, tgt = nodes[3 * k], nodes[3 * k + 1]
        if src.group == tgt.group:
            pairing = tuple((s, ((t, 1),)) for s, t in zip(src.names, tgt.names))
            try:
                hom = certified.assignments_to_group_hom(src, tgt, pairing)
            except DataFormatError:
                failures[3 * k + 1] = "no generator pairing identifies the groups"
                return None
            notes.append("degree %d: identification of %s with %s synthesized "
                         "as the canonical isomorphism"
                         % (k, labels[3 * k], labels[3 * k + 1]))
            return hom
        failures[3 * k + 1] = "groups differ but no map is recorded"
        return None

    def beta(k: int):
        record = data.arrow("cover", d, k)
        if record is None:
            failures[3 * k + 2] = "cover arrow not recorded"
            return None
        return record.to_group_hom(data)

    def delta(k: int):
        src, tgt = nodes[3 * k + 2], nodes[3 * k + 3]
        image = maps[3 * k + 2].matrix.columns() if maps[3 * k + 2] else []
        quotient, proj = cokernel_with_projection(src.group, image)
        if quotient != tgt.group:
            failures[3 * k + 3] = ("connecting map: quotient by the recorded "
                                   "image is %s, expected %s" % (quotient, tgt.group))
            return None
        notes.append("degree %d: connecting map onto %s synthesized as the "
                     "canonical quotient projection" % (k, labels[3 * k + 3]))
        return proj

    # maps[i] goes into nodes[i], and the last one out of the sequence; a
    # map touching a zero group is None, made a zero map only if checked
    groups = [TRIVIAL_GROUP] + [node.group for node in nodes] + [TRIVIAL_GROUP]
    trivial = [group.is_trivial for group in groups]
    maps = [None]
    for i in range(1, len(nodes)):
        k, step = divmod(i - 1, 3)
        maps.append(None if trivial[i] or trivial[i + 1] else (alpha, beta, delta)[step](k))
    maps.append(None)

    def into(i: int) -> GroupHom:
        return maps[i] or _zero_map(groups[i], groups[i + 1], data)

    checks = []
    for idx, label in enumerate(labels):
        exact = idx not in failures and (trivial[idx + 1]
                                         or check_exact(into(idx), into(idx + 1)))
        checks.append(LesCheck(label, exact, failures.get(idx, "")))

    runs = itertools.groupby(range(len(nodes)), key=lambda idx: trivial[idx + 1])
    chunks = [_make_chunk(nodes, checks, list(run)) for zero, run in runs if not zero]

    return LesReport(d, tuple(checks), tuple(chunks), tuple(notes))


def _make_chunk(nodes, checks, indices) -> LesChunk:
    names = []
    for idx in indices:
        node = nodes[idx]
        gens = ",".join(node.names)
        names.append("%s%s" % (node.group, " (%s)" % gens if gens else ""))
    description = "0 -> " + " -> ".join(names) + " -> 0"
    exact = all(checks[idx].exact for idx in indices)
    return LesChunk(description, tuple(nodes[idx].group for idx in indices), exact)


# ---------------------------------------------------------------------------
# constrained derivation of the cover entries


KIND_HUREWICZ_VANISHING = "HurewiczVanishing"
KIND_HUREWICZ_ISO = "HurewiczIso"
KIND_UNIVERSAL_COEFFICIENTS = "UniversalCoefficients"
KIND_DIVISIBILITY = "DivisibilityFromSquare"


@dataclass(frozen=True)
class DerivationConstraint:
    """One side fact admitted into the derivation, citing its table source."""

    kind: str
    degree: int | None = None
    group: FgAbGroup | None = None
    divisor: int | None = None
    generator: str | None = None
    basis: str = ""

    @classmethod
    def hurewicz_vanishing(cls, basis: str) -> "DerivationConstraint":
        return cls(KIND_HUREWICZ_VANISHING, basis=basis)

    @classmethod
    def hurewicz_iso(cls, degree: int, group: FgAbGroup, basis: str) -> "DerivationConstraint":
        return cls(KIND_HUREWICZ_ISO, degree=degree, group=group, basis=basis)

    @classmethod
    def universal_coefficients(cls, basis: str) -> "DerivationConstraint":
        return cls(KIND_UNIVERSAL_COEFFICIENTS, basis=basis)

    @classmethod
    def divisibility_from_square(cls, divisor: int, generator: str,
                                 basis: str) -> "DerivationConstraint":
        return cls(KIND_DIVISIBILITY, divisor=divisor, generator=generator,
                   basis=basis)


@dataclass(frozen=True)
class DerivationResult:
    group: FgAbGroup | None
    ambiguous: bool
    candidates: frozenset | None
    notes: tuple = ()


def _extract_ses(d: int, k: int, data):
    """The short exact sequence around the cover entry in degree k.

    Returns (A, A generator names, B) where 0 -> A -> H^k(cover) -> B -> 0,
    or None when the bounding map in this degree is not pinned by the
    recorded data (the degree-3 self-cohomology can map either way).
    """
    e_here = data.entry(d, 0, k)  # the ring's rows are there for every d and k
    hz_here = hz_self_cohomology(k, data)
    if e_here.group.is_trivial:
        a_group, a_names = TRIVIAL_GROUP, ()
    elif hz_here.is_trivial:
        a_group, a_names = e_here.group, e_here.free_names
        if len(a_names) != e_here.group.num_generators:
            return None  # torsion entering the image is not pinned here
    elif k == 0:
        a_group, a_names = TRIVIAL_GROUP, ()  # unit map is an isomorphism
    else:
        return None

    e_next = data.entry(d, 0, k + 1) if k + 1 <= MAX_TABLE_DEGREE else None
    hz_next = hz_self_cohomology(k + 1, data)
    if hz_next.is_trivial:
        b_group = TRIVIAL_GROUP
    elif e_next is not None and e_next.group.is_trivial:
        b_group = hz_next
    else:
        return None
    return a_group, a_names, b_group


def default_constraints(d: int, k: int, data=None) -> list:
    """The constraint set under which every cover entry derives uniquely.

    Below and at the cover's first homotopy degree, the homotopy table
    gives Hurewicz constraints.  Elsewhere, each source generator of the
    recorded degree-k cover arrow whose image coefficients have a common
    divisor g > 1 is admitted as divisible by g.
    """
    data = data or certified.load_data()
    conn = _cover_connectivity(d, data)
    if k < conn:
        return [DerivationConstraint.hurewicz_vanishing(
            "homotopy table: the cover is %d-connected" % (conn - 1))]
    if k == conn and conn <= d:
        pi = homotopy_group(d, conn, data)
        return [
            DerivationConstraint.hurewicz_iso(
                conn, pi, "homotopy table: first homotopy of the cover is %s" % pi),
            DerivationConstraint.universal_coefficients(
                "cohomology in the first nonzero degree is the dual of homology"),
        ]
    arrow = data.arrow("cover", d, k)
    if arrow is None:
        return []
    constraints = []
    for name, combo in arrow.assignments:
        divisor = math.gcd(*(coeff for _, coeff in combo))
        if divisor > 1:
            constraints.append(DerivationConstraint.divisibility_from_square(
                divisor, name, "recorded cover arrow (prov=%s): the image of %s "
                "is %d times a class" % (arrow.provenance, name, divisor)))
    return constraints


def derive_cover_cohomology(d: int, k: int, constraints, data=None) -> DerivationResult:
    """Re-derive a cover entry from the sequence plus admitted constraints.

    Enumerates the middle groups of the extracted short exact sequence,
    filters them through the constraints, and returns the unique survivor
    (asserted against the certified table) or flags the ambiguity.
    """
    data = data or certified.load_data()
    if d not in (2, 3, 4) or not 0 <= k <= MAX_TABLE_DEGREE:
        raise MtspecError("cover entries exist for d=2..4, k=0..5")
    notes = []

    pinned = None
    conn = _cover_connectivity(d, data)
    iso_group = None
    has_uct = any(c.kind == KIND_UNIVERSAL_COEFFICIENTS for c in constraints)
    for c in constraints:
        if c.kind == KIND_HUREWICZ_VANISHING:
            if k >= conn:
                raise MtspecError(
                    "connectivity from the homotopy table stops below degree %d" % k)
            pinned = TRIVIAL_GROUP
            notes.append("pinned to 0: %s" % c.basis)
        elif c.kind == KIND_HUREWICZ_ISO:
            if c.degree != k or k != conn or k > d:
                raise MtspecError(
                    "the first-homotopy identification applies only in degree %d" % conn)
            table_pi = homotopy_group(d, k, data)
            if c.group != table_pi:
                raise MtspecError(
                    "stated homotopy %s conflicts with the table value %s"
                    % (c.group, table_pi))
            iso_group = table_pi
    if iso_group is not None and has_uct:
        dual = FgAbGroup(iso_group.free_rank)
        if pinned is not None and pinned != dual:
            raise MtspecError("constraints pin two different groups")
        pinned = dual
        notes.append("pinned to %s: dual of the first homotopy group" % dual)

    divisibility = [c for c in constraints if c.kind == KIND_DIVISIBILITY]

    ses = _extract_ses(d, k, data)
    if ses is None:
        if pinned is None:
            return DerivationResult(None, True, None,
                                    ("the bounding maps in this degree are not pinned "
                                     "by recorded data; add a connectivity constraint",))
        candidates = frozenset([pinned])
        result_group = pinned
    else:
        a_group, a_names, b_group = ses
        if divisibility and not a_names:
            raise MtspecError(
                "divisibility constraint references a generator, but the "
                "subgroup has none in this degree")
        survivors = set()
        for ext in enumerate_extensions(a_group, b_group):
            ok = True
            for c in divisibility:
                if c.generator not in a_names:
                    raise MtspecError(
                        "no generator named %r in this degree" % c.generator)
                index = a_names.index(c.generator)
                if not ext.a_generator_divisible(index, c.divisor):
                    ok = False
                    break
            if ok:
                survivors.add(ext.group)
                if ext.group == pinned:
                    break  # the pinned group is admissible; nothing else can survive
        if not survivors:
            raise MtspecError("no extension satisfies the constraints")
        if pinned is not None:
            survivors &= {pinned}
            if not survivors:
                raise MtspecError(
                    "constraint-pinned group is not an admissible middle group")
        candidates = frozenset(survivors)
        if len(candidates) != 1:
            return DerivationResult(None, True, candidates, tuple(notes))
        result_group = next(iter(candidates))

    table_value = cohomology(SpectrumId(d, 1), k, data).group
    if result_group != table_value:
        raise InternalCheckError(
            "derived %s for (d=%d, cover=1, k=%d) but the table holds %s"
            % (result_group, d, k, table_value))
    return DerivationResult(result_group, False, candidates, tuple(notes))
