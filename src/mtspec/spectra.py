"""The consistency proof behind the certified tables, which ``prove``
states once: the sequence for each dimension of
``certified.COVER_DIMENSIONS`` (d = 2..4, the one statement of the
proof's domain), then the 18 cover derivations, then the Gilmer-Masbaum
certificate.  It is built from a long-exact-sequence verifier for the
fiber sequence

    (cover) -> (spectrum) -> (integral Eilenberg-MacLane spectrum),

and a constrained derivation engine that re-derives every cover entry of
the table, admitting only constraints read from the data: Hurewicz facts
from the homotopy table and divisibility from the recorded cover arrows.
The tables themselves, with the arrows the load computes, are served by
``certified``; of its lookups, ``SpectrumId``, ``cohomology`` and
``grid_equivalence`` are also read through this module by callers
outside the package.  Serving a table does not import it.

Every exactness check and every derivation runs on each call.  What the
proof only builds from a snapshot, it builds once per snapshot and keeps
in that CertifiedData's ``derived`` dict, its workspace, through one
decorator, ``_per_snapshot``: the zero map between two groups, the
cover's connectivity and each identification of two entries that the
sequence synthesizes (or the reason there is none); each enumeration of
Ext^1(B, A) is kept there once it has run to the end.  A map keeps its
Smith form and its cokernel projection, so each arrow and workspace map
is factored once per snapshot; a second proof of a snapshot factors only
the classes read before a derivation stopped at its pinned group.  A new
data file is a new CertifiedData with an empty workspace.  The labels of
the sequence depend on d alone and are built once per d.  Records are
named tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from . import certified, classify
from .abelian import (FgAbGroup, GroupHom, TRIVIAL_GROUP, check_exact,
                      enumerate_extensions, zero_hom)
# the lookups below are used here, and some are read through this module;
# see the module docstring
from .certified import (COVER_DIMENSIONS, HZ_DEGREES, TABLE_DEGREES, SpectrumId,  # noqa: F401
                        cohomology, grid_equivalence, homotopy_group, hz_self_cohomology)
from .errors import DataFormatError, InternalCheckError, MtspecError

# ---------------------------------------------------------------------------
# the proof's workspace: values that depend on the snapshot alone, kept in
# data.derived under (function that builds it, *arguments) or ("extensions", A, B)


def _per_snapshot(build):
    """build(*args, data), built once per snapshot and kept in its workspace."""
    def kept(*args):
        derived, key = args[-1].derived, (build, *args[:-1])
        value = derived.get(key)
        if value is None:
            value = derived[key] = build(*args)
        return value
    return kept


@_per_snapshot
def _zero_map(source: FgAbGroup, target: FgAbGroup, data) -> GroupHom:
    return zero_hom(source, target)


def _extensions(a_group: FgAbGroup, b_group: FgAbGroup, data):
    """The classes of Ext^1(B, A), kept in the workspace once the enumeration
    has run to the end: not when a derivation stops it, nor when it refuses."""
    key = ("extensions", a_group, b_group)
    if key in data.derived:
        yield from data.derived[key]
        return
    classes = []
    for ext in enumerate_extensions(a_group, b_group):
        classes.append(ext)
        yield ext
    data.derived[key] = tuple(classes)


@_per_snapshot
def _cover_connectivity(d: int, data) -> int:
    """First degree >= 1 where the cover can have homotopy, per the table."""
    return next((i for i in range(1, d + 1)
                 if not homotopy_group(d, i, data).is_trivial), d + 1)


# ---------------------------------------------------------------------------
# long exact sequence verification


@_per_snapshot
def _identification(source, target, data):
    """The isomorphism pairing the entries' generators in order, or the
    reason there is none."""
    if source.group != target.group:
        return "groups differ but no map is recorded"
    pairing = tuple((s, ((t, 1),)) for s, t in zip(source.names, target.names))
    try:
        return certified.assignments_to_group_hom(source, target, pairing)
    except DataFormatError:
        return "no generator pairing identifies the groups"


@functools.cache
def _les_layout(d: int) -> tuple:
    """The labels of the sequence for d, in order, and the (spectrum,
    degree) of the table entry behind each, the spectrum None for HZ."""
    lookups = tuple((spectrum, k) for k in HZ_DEGREES
                    for spectrum in (None, SpectrumId(d, 0), SpectrumId(d, 1))
                    if spectrum is None or k in TABLE_DEGREES)
    labels = tuple("HZ^%d(HZ)" % k if spectrum is None
                   else "H^%d(%s)" % (k, spectrum.display(True)) for spectrum, k in lookups)
    return labels, lookups


LesCheck = namedtuple("LesCheck", "label exact note", defaults=("",))
LesChunk = namedtuple("LesChunk", "description groups exact")


class LesReport(namedtuple("LesReport", "d checks chunks notes")):
    __slots__ = ()

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
    if d not in COVER_DIMENSIONS:
        raise MtspecError("the fiber sequence is recorded for d = %s"
                          % ", ".join(map(str, COVER_DIMENSIONS)))
    labels, lookups = _les_layout(d)  # one labelled CohomologyEntry per group, in order
    nodes = [hz_self_cohomology(k, data) if spectrum is None else cohomology(spectrum, k, data)
             for spectrum, k in lookups]

    notes = []
    failures = {}

    def alpha(k: int):
        found = _identification(nodes[3 * k], nodes[3 * k + 1], data)
        if isinstance(found, str):
            failures[3 * k + 1] = found
            return None
        notes.append("degree %d: identification of %s with %s synthesized "
                     "as the canonical isomorphism"
                     % (k, labels[3 * k], labels[3 * k + 1]))
        return found

    def beta(k: int):  # the load refuses a file that lacks it
        return data.arrows[("cover", d, k)].hom

    def delta(k: int):
        quotient, proj = into(3 * k + 2).cokernel_projection()
        expected = nodes[3 * k + 3].group
        if quotient != expected:
            failures[3 * k + 3] = ("connecting map: quotient by the recorded "
                                   "image is %s, expected %s" % (quotient, expected))
            return None
        notes.append("degree %d: connecting map onto %s synthesized as the "
                     "canonical quotient projection" % (k, labels[3 * k + 3]))
        return proj

    # maps[i] goes into nodes[i], and the last one out of the sequence; a
    # map touching a zero group is None, made a zero map only where read
    groups = [TRIVIAL_GROUP] + [node.group for node in nodes] + [TRIVIAL_GROUP]
    trivial = [group.is_trivial for group in groups]

    def into(i: int) -> GroupHom:
        return maps[i] or _zero_map(groups[i], groups[i + 1], data)

    maps = [None]
    for i in range(1, len(nodes)):
        k, step = divmod(i - 1, 3)
        maps.append(None if trivial[i] or trivial[i + 1] else (alpha, beta, delta)[step](k))
    maps.append(None)

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


class DerivationConstraint(namedtuple("DerivationConstraint",
                                      "kind degree group divisor generator basis",
                                      defaults=(None, None, None, None, ""))):
    """One side fact admitted into the derivation, citing its table source."""

    __slots__ = ()

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


DerivationResult = namedtuple("DerivationResult", "group ambiguous candidates notes",
                              defaults=((),))


def _extract_ses(d: int, k: int, data):
    """The short exact sequence around the cover entry in degree k.

    Returns (A, A generator names, B) where 0 -> A -> H^k(cover) -> B -> 0,
    or None when the bounding map in this degree is not pinned by the
    recorded data (the degree-3 self-cohomology can map either way).
    """
    e_here = data.entry(d, 0, k)  # the ring's rows are there for every d and k
    hz_here = hz_self_cohomology(k, data).group
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

    e_next = data.entry(d, 0, k + 1)  # None past the table
    hz_next = hz_self_cohomology(k + 1, data).group
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
                conn, pi, "homotopy table: first homotopy of the cover is %s" % (pi,)),
            DerivationConstraint.universal_coefficients(
                "cohomology in the first nonzero degree is the dual of homology"),
        ]
    arrow = data.arrow("cover", d, k)  # None where a row is zero
    constraints = []
    for name, combo in arrow.assignments if arrow else ():
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
    if d not in COVER_DIMENSIONS or k not in TABLE_DEGREES:
        raise MtspecError("cover entries exist for d=%d..%d, k=0..%d"
                          % (COVER_DIMENSIONS[0], COVER_DIMENSIONS[-1], TABLE_DEGREES[-1]))
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
    if iso_group is not None and has_uct:  # then k == conn: no vanishing was admitted
        pinned = FgAbGroup(iso_group.free_rank)
        notes.append("pinned to %s: dual of the first homotopy group" % (pinned,))

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
        for ext in _extensions(a_group, b_group, data):
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


# ---------------------------------------------------------------------------
# the proof of a data file: the one statement of its checks and their order


ProofCheck = namedtuple("ProofCheck", "step subject verdict reason")
ProofReport = namedtuple("ProofReport", "checks failure")


# (step, subject, d, k) of each check of the proof, in order
_CHECKS = (tuple(("verify_les", "d=%d" % d, d, None) for d in COVER_DIMENSIONS)
           + tuple(("derivation", "d=%d k=%d" % (d, k), d, k)
                   for d in COVER_DIMENSIONS for k in TABLE_DEGREES)
           + (("certificate", "gilmer-masbaum", None, None),))


def _verdict(step: str, d: int, k: int, data) -> tuple:
    """The verdict and the reason of one check."""
    if step == "verify_les":
        report = verify_les(d, data)
        if report.all_exact:
            return "passed", ""
        return "refused", "not exact at " + "; ".join(
            c.label + (": " + c.note if c.note else "") for c in report.checks if not c.exact)
    if step == "derivation":
        result = derive_cover_cohomology(d, k, default_constraints(d, k, data), data)
        if not result.ambiguous:
            return "passed", ""
        return "ambiguous", "; ".join(result.notes) or "middle groups left: %s" % ", ".join(
            sorted(map(str, result.candidates)))
    classify.gilmer_masbaum_report(data)
    return "passed", ""


def prove(data=None) -> ProofReport:
    """The consistency proof of a data file, and its one definition.

    The long exact sequence for d = 2..4, then the 18 cover derivations
    under ``default_constraints``, where an ambiguous result is a
    refusal, then the Gilmer-Masbaum certificate, up to the first check
    that does not pass.  Each check is a ProofCheck: its step, what it
    checked, its verdict ("passed", "refused" or "ambiguous") and, unless
    it passed, the reason; a refusal (an ``MtspecError`` or an
    ``InternalCheckError``) is a verdict, never raised.  The report holds
    the checks run and the first that did not pass, or None.
    """
    data = data or certified.load_data()
    checks = []
    for step, subject, d, k in _CHECKS:
        try:
            verdict, reason = _verdict(step, d, k, data)
        except (MtspecError, InternalCheckError) as exc:
            verdict, reason = "refused", str(exc)
        checks.append(ProofCheck(step, subject, verdict, reason))
        if verdict != "passed":
            return ProofReport(tuple(checks), checks[-1])
    return ProofReport(tuple(checks), None)
