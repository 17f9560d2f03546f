"""The versioned certified data file, and the tables served from it.

The file ships with the package and carries the cover rows of the
cohomology table, each its named generators (version 4), the homotopy
table, the self-cohomology of the integral Eilenberg-MacLane spectrum
and the four recorded arrows of the restriction diagram.  What the
package computes is not in it: the uncovered cohomology rows are the
ring's Thom-module pieces (``charclasses.thom_module_piece``); the
restriction between the spectra is the ring's
(``charclasses.ring_restriction``), a map touching a zero group is zero,
and ``spectra.verify_les`` synthesizes the degree-0 unit map; and once
the recorded arrows are validated, covdim d=3 k=4 is the same-name map
and cover d=2 k=4 is solved from the 3 -> 2 square.  No manifold is
data: the catalog is code in ``tftlab`` (version 7).  A file that
records any of these anyway is refused naming the line, and so is a
cohomology row's group= field, which its generators give, a p1= field
(version 2), and a manifold row, whose refusal says which sum of catalog
names to write instead.  Loading validates the rest: no group or gens=
list may have more than MAX_GROUP_GENERATORS generators as spelled, a
row's torsion orders must form a divisibility chain and its generators
have distinct names spelled as a map names one, an hz group must be cyclic, a homotopy
row of degree 0 must state Z (the ring's H^0 = Z u and H^1 = 0 force
pi_0 = H_0 = Z, by Hurewicz and universal coefficients), no two records
of one type may share a key, no record may name a field twice and no
arrow's map a generator (a source, or a target within one image), the
file has one version line (each repeat is refused, not taken in place
of the first) and it states 7, which is compared once every row is read
so that an older file is refused at a row its migration changes, and
each arrow's map must be well-defined between the rows it names (built
once every row is read, it is the ArrowRecord's hom).  The environment
variable MTSPEC_DATA overrides the path; a file that cannot be read or
is not UTF-8 is a DataFormatError like any other bad file.

``load_data`` reads MTSPEC_DATA on every call and checks its cache with
one ``os.stat`` of the path in effect (the shipped file's absolute path is
computed once, at import).  The cache is keyed on the file's identity, its
device and inode, and an entry is served while the file keeps the size
and modification time it had when it was read, the rule
``linecache.checkcache`` uses.  So a symlink or a relative MTSPEC_DATA
naming the shipped file shares its CertifiedData, a retargeted symlink
and a file moved over the path are followed, and a rewrite that changes
the size or the mtime is read again; a rewrite of the same size within
one mtime tick is not seen.  A miss reads the file and resolves its path
once, with ``os.path.realpath``, to name it in CertifiedData.path.  Only a
regular file of at most MAX_DATA_BYTES is read: a fifo, which would block
the read, a device, which may never end, and a longer file are unreadable
files, as are a missing file, a directory and a symlink loop.
Each public function that takes ``data=`` resolves the file once, at its
top, and passes that one CertifiedData to everything it calls: a call
answers from one snapshot of the data even if MTSPEC_DATA changes during
it, and a caller that passes ``data=`` skips the lookup altogether.
Each loaded fact is one value: a cohomology or hz row is a
CohomologyEntry, an arrow an ArrowRecord with its map.
CertifiedData.derived is the workspace of the consistency proof in ``spectra``, which keeps
there what it builds from this snapshot alone; it is empty when the file
is read, so nothing carries over between files.

The lookups at the end of the module serve the tables: homotopy and
cohomology of the suspended Madsen-Tillmann spectra and their first
covers (SpectrumId), the self-cohomology of the Eilenberg-MacLane
spectrum, grid equivalences between cover levels, and the arrows,
recorded or computed.  They need nothing beyond this module, so serving a table loads
no part of the consistency proof in ``spectra``.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

from .abelian import FgAbGroup, GroupHom, IntMatrix
from .charclasses import CohomologyEntry, ring_restriction, thom_module_piece
from .errors import DataFormatError, MtspecError

ENV_DATA_PATH = "MTSPEC_DATA"
MAX_TABLE_DEGREE = 5  # cohomology is tabulated in degrees 0..5
# generators of one group in the data file, free rank plus cyclic parts:
# sixteen times the shipped file's largest group, Z^2.  A file at the
# bound loads as fast as the shipped one; past a few thousand generators
# the load time grows superlinearly with the rank
MAX_GROUP_GENERATORS = 32

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9^]*")  # a generator, as a map names it
_TERM_RE = re.compile(r"([+-]?\d+)\*(%s)" % _NAME_RE.pattern)
_DATA_VERSION = 7  # the version this loader reads
_PI_0 = FgAbGroup(1)  # the one group a homotopy row of degree 0 may state
# the keys a table row may have, and the refusal of any other: the first
# covers that the proof derives, the homotopy groups in degrees 0..d, and
# H^k(HZ) in the degrees of the long exact sequence; nothing reads or
# proves a row outside them
_COVER_ROW_KEYS = frozenset((d, 1, k) for d in (2, 3, 4) for k in range(MAX_TABLE_DEGREE + 1))
_HOMOTOPY_KEYS = frozenset((d, k) for d in (1, 2, 3, 4) for k in range(d + 1))
_HZ_DEGREES = range(MAX_TABLE_DEGREE + 2)
_OUTSIDE = {
    "cohomology": "outside the tables: a cohomology row has d=2..4, cover=1 and "
                  "k=0..%d" % MAX_TABLE_DEGREE,
    "homotopy": "outside the tables: a homotopy row has d=1..4 and k=0..d",
    "hz": "outside the tables: an hz row has k=0..%d" % (MAX_TABLE_DEGREE + 1),
}


@dataclass(frozen=True)
class ArrowRecord:
    """One generator map between two table entries in degree k.

    kind "cover" maps the spectrum to its first cover, and "covdim"
    restricts the first cover from dimension d to d - 1.
    """

    kind: str        # cover | covdim
    d: int
    k: int
    provenance: str  # diagram (recorded) | names | square (computed)
    assignments: tuple  # ((source name, ((target name, coeff), ...)), ...)
    hom: GroupHom    # the map in canonical coordinates, built at load

    def image_of(self, name: str) -> dict:
        """The image of one source generator as {target name: coefficient}."""
        return dict(dict(self.assignments)[name])


def assignments_to_group_hom(source: CohomologyEntry,
                             target: CohomologyEntry,
                             assignments) -> GroupHom:
    """Build a canonical-coordinate GroupHom from named generator images."""
    amap = {src: dict(combo) for src, combo in assignments}
    src_names = source.names
    if set(amap) != set(src_names):
        raise DataFormatError("assignments do not cover the source generators")
    position = {}  # target name -> canonical index; a repeated name takes the first
    for name, i in zip(target.names, target.positions):
        position.setdefault(name, i)
    n_src = len(source.generators)
    canonical = [[0] * n_src for _ in target.generators]
    for src_name, j in zip(src_names, source.positions):
        for tgt_name, coeff in amap[src_name].items():
            if tgt_name not in position:
                raise DataFormatError("unknown target generator %r" % tgt_name)
            canonical[position[tgt_name]][j] = coeff
    try:
        return GroupHom(source.group, target.group, IntMatrix(canonical, n_src))
    except ValueError as exc:
        raise DataFormatError("recorded map is not well-defined: %s" % exc)


class CertifiedData:
    """Parsed, validated contents of one certified data file."""

    def __init__(self, version, cohomology, homotopy, hz, arrows, path):
        self.version = version
        self.cohomology = cohomology    # (d, cover, k) -> CohomologyEntry
        self.homotopy = homotopy        # (d, k) -> FgAbGroup
        self.hz = hz                    # k -> CohomologyEntry, generated by hz<k>
        self.arrows = arrows            # (kind, d, k) -> ArrowRecord
        self.path = path
        self.derived = {}               # the proof's workspace (see spectra)

    def entry(self, d: int, cover: int, k: int) -> CohomologyEntry | None:
        return self.cohomology.get((d, cover, k))

    def arrow(self, kind: str, d: int, k: int) -> ArrowRecord | None:
        return self.arrows.get((kind, d, k))


def _parse_combo(text: str):
    if text == "0":
        return ()
    terms = {}  # a repeat is refused, not taken over the first
    pos = 0
    while pos < len(text) or not terms:
        # matching only where the last term ended keeps the work linear; a
        # search would retry every start inside a run of digits
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise ValueError("cannot parse combo %r" % text)
        name = match.group(2)
        if name in terms:
            raise ValueError("the target generator %s is named twice in %r" % (name, text))
        terms[name] = int(match.group(1))
        pos = match.end()
    return tuple(terms.items())


def _parse_map(text: str):
    out = {}  # a repeat is refused, not taken over the first
    for item in text.split(";"):
        if ":" not in item:
            raise ValueError("bad map item %r" % item)
        src, combo = item.split(":", 1)
        if src in out:
            raise ValueError("the source generator %s is named twice" % src)
        out[src] = _parse_combo(combo)
    return tuple(out.items())


def _parse_gens(text: str):
    items = text.split(",") if text else ()
    if len(items) > MAX_GROUP_GENERATORS:  # counted before an order is read
        raise ValueError("%d generators, more than MAX_GROUP_GENERATORS (%d)"
                         % (len(items), MAX_GROUP_GENERATORS))
    gens = tuple((name, int(order) if colon else None)
                 for name, colon, order in (item.partition(":") for item in items))
    seen = set()
    for name, _ in gens:
        if not _NAME_RE.fullmatch(name):  # no arrow could name it
            raise ValueError("generator name %r is not spelled as a map names one "
                             "(%s)" % (name, _NAME_RE.pattern))
        if name in seen:
            raise ValueError("the generator %s is named twice" % name)
        seen.add(name)
    return gens


_RECORD_FIELDS = {
    "cohomology": {"d", "cover", "k", "gens"},
    "homotopy": {"d", "k", "group"},
    "hz": {"k", "group"},
    "arrow": {"kind", "d", "k", "map"},
}


def _parse_fields(parts):
    fields = {}
    for part in parts:
        if "=" not in part:
            raise ValueError("bad field %r" % part)
        key, value = part.split("=", 1)
        if key in fields:  # a repeat is refused, not taken over the first
            raise ValueError("the field %s= came earlier" % key)
        fields[key] = value
    return fields


# the shipped file, made absolute once; load_data stats it per call
_SHIPPED_DATA_PATH = Path(os.path.abspath(__file__)).parent / "data" / "certified_data.txt"


def default_data_path() -> Path:
    """The shipped data file, absolute but not resolved."""
    return _SHIPPED_DATA_PATH


# the arrows a rule gives, by kind or by (kind, d, k), each with its rule
_RULED_ARROWS = {
    "dim": "the restriction between the spectra is the ring's "
           "(charclasses.ring_restriction)",
    "unit": "the degree-0 unit map is the canonical identification",
    ("covdim", 3, 4): "covdim d=3 k=4 keeps the generator names",
    ("cover", 2, 4): "cover d=2 k=4 is solved from the 3 -> 2 square",
}


def _load_arrows(cohomology: dict, recorded: dict) -> dict:
    """The recorded arrows, given as {(kind, d, k): (line, assignments)},
    then the two the load computes, each with its map built between the
    table entries it names; a refusal names the line or the rule."""
    arrows = {}

    def add(kind, d, k, provenance, assignments):
        if kind == "cover":
            source, target = cohomology.get((d, 0, k)), cohomology.get((d, 1, k))
        else:  # covdim; parse_data refuses any other kind
            source, target = cohomology.get((d, 1, k)), cohomology.get((d - 1, 1, k))
        if source is None or target is None:
            raise DataFormatError("the arrow references a missing table entry")
        if provenance == "diagram" and (source.group.is_trivial or target.group.is_trivial):
            raise DataFormatError("a map into or out of a zero group is zero, "
                                  "not recorded; delete the line")
        arrows[(kind, d, k)] = ArrowRecord(kind, d, k, provenance, assignments,
                                           assignments_to_group_hom(source, target, assignments))

    for (kind, d, k), (line, assignments) in recorded.items():
        try:
            add(kind, d, k, "diagram", assignments)
        except DataFormatError as exc:
            raise DataFormatError("bad record %r: %s" % (line, exc))
    for arrow in _computed_arrows(cohomology, arrows):
        try:
            add(*arrow)
        except DataFormatError as exc:
            raise DataFormatError("the computed %s arrow d=%d k=%d (prov=%s): %s"
                                  % (*arrow[:4], exc))
    return arrows


def _computed_arrows(cohomology: dict, arrows: dict):
    """The 3 -> 2 row of the degree-4 square, (kind, d, k, provenance,
    assignments) each, from the validated arrows.

    covdim keeps names, so cover_2 = covdim o cover_3 o dim^-1 is cover_3
    read through dim^-1.  The ring's dim sends each generator to +-1 times
    one generator or to 0, so its inverse is a lookup by name.  A file
    without cover_3 gets neither arrow, as it lacks any arrow it omits.
    """
    cover_3 = arrows.get(("cover", 3, 4))
    if cover_3 is None:
        return ()
    names = cohomology[(3, 1, 4)].names  # cover_3 was built, so the row exists
    preimage = {image[0][0]: (name, image[0][1])
                for name, image in ring_restriction(3, 4, 2)
                if len(image) == 1 and image[0][1] in (1, -1)}
    solved = []
    for name in thom_module_piece(2, 4).names:
        if name not in preimage:
            raise DataFormatError("the 3 -> 2 square leaves the cover image of %s "
                                  "undetermined" % name)
        source, sign = preimage[name]
        solved.append((name, tuple((target, sign * coeff)
                                   for target, coeff in cover_3.image_of(source).items())))
    return (("covdim", 3, 4, "names", tuple((n, ((n, 1),)) for n in names)),
            ("cover", 2, 4, "square", tuple(solved)))


def parse_data(text: str, path="<memory>") -> CertifiedData:
    version = None
    # the uncovered rows are the ring's; the file records only the covers
    cohomology = {(d, 0, k): thom_module_piece(d, k)
                  for d in (1, 2, 3, 4) for k in range(MAX_TABLE_DEGREE + 1)}
    homotopy = {}
    hz = {}
    # each recorded arrow's line and assignments, until every row is read
    arrows = {}
    # the rows repeat few texts: one group per group text, and one entry
    # per gens text, shared by every row that spells it
    groups, entries = {}, {}

    def group(text):
        parsed = groups.get(text)
        if parsed is None:
            # counted as spelled, before the canonical form sorts the
            # torsion; |k| for Z^k, so a negative rank hides no parts
            spelled = sum(abs(int(part[2:])) if part.startswith("Z^") else 1
                          for part in text.split("+"))
            if spelled > MAX_GROUP_GENERATORS:
                raise ValueError("%d generators, more than MAX_GROUP_GENERATORS (%d)"
                                 % (spelled, MAX_GROUP_GENERATORS))
            parsed = groups[text] = FgAbGroup.from_text(text)
        return parsed

    # a line is taken apart once, by split; the stripped line is made only
    # where it is shown (an arrow, whose refusal comes later, or an error)
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        rectype = parts[0]
        try:
            if rectype.startswith("version="):
                if version is not None:
                    raise ValueError("a version line came earlier")
                version_line = raw.strip()
                version = int(version_line[len("version="):])
                continue
            if rectype == "family":
                raise ValueError("Sigma_<g> and S2xSigma_<g> are rules, not recorded; "
                                 "delete the line")
            if rectype == "manifold":  # the catalog's sums replace it (version 7)
                raise ValueError(
                    "where the manifold is named, write the sum a*S4 + b*CP2 with b = "
                    "signature and a = (euler - 3*signature)/2 (dim 4), (euler/2)*S2 (dim 2), "
                    "S3 (dim 3), or S1 (kr 1) or 2*S1 (kr 0) (dim 1): a manifold is a sum of "
                    "catalog names, not recorded; delete the line")
            fields = _parse_fields(parts[1:])
            if "p1" in fields:
                raise ValueError("p1 is 3 * signature, not recorded; delete the p1= field")
            if rectype == "cohomology" and "group" in fields:
                raise ValueError("a cohomology row's group is read from its generators, "
                                 "not recorded; delete the group= field")
            known = _RECORD_FIELDS.get(rectype)
            if known is None:
                raise ValueError("unknown record type %r" % rectype)
            if not known.issuperset(fields):  # a misspelled field would lose its value
                raise ValueError("a record of type %s has no field %s" % (
                    rectype, ", ".join(sorted(k + "=" for k in fields.keys() - known))))
            if rectype == "cohomology":
                table, key = cohomology, (int(fields["d"]), int(fields["cover"]),
                                          int(fields["k"]))
                if key[1] == 0:
                    raise ValueError("uncovered rows are the ring's Thom-module "
                                     "pieces, not recorded; delete the cover=0 row")
                if key not in _COVER_ROW_KEYS:
                    raise ValueError(_OUTSIDE[rectype])
                spelled = fields.get("gens", "")
                rec = entries.get(spelled)
                if rec is None:
                    rec = entries[spelled] = CohomologyEntry(_parse_gens(spelled))
            elif rectype == "homotopy":
                table, key = homotopy, (int(fields["d"]), int(fields["k"]))
                if key not in _HOMOTOPY_KEYS:
                    raise ValueError(_OUTSIDE[rectype])
                rec = group(fields["group"])
                if key[1] == 0 and rec != _PI_0:
                    raise ValueError(
                        "pi_0 is Z for every d: the ring gives H^0 = Z u and H^1 = 0, "
                        "so Hurewicz (pi_0 = H_0 for a connective spectrum) and "
                        "universal coefficients force H_0 = Z")
            elif rectype == "hz":
                table, key = hz, int(fields["k"])
                if key not in _HZ_DEGREES:
                    raise ValueError(_OUTSIDE[rectype])
                parsed = group(fields["group"])
                if parsed.num_generators > 1:  # the entry names its generator hz<k>
                    raise ValueError("an hz group must be cyclic, generated by hz%d" % key)
                rec = CohomologyEntry(tuple(("hz%d" % key, order or None)
                                            for order in parsed.generator_orders()))
            elif rectype == "arrow":
                kind = fields["kind"]
                table, key = arrows, (kind, int(fields["d"]), int(fields["k"]))
                rec = (raw.strip(), _parse_map(fields["map"]))
                rule = _RULED_ARROWS.get(kind) or _RULED_ARROWS.get(key)
                if rule:
                    raise ValueError(rule + ", not recorded; delete the line")
                if kind not in ("cover", "covdim"):
                    raise ValueError("unknown arrow kind %r" % kind)
            if key in table:  # a repeat is refused, not taken over the first
                raise ValueError("a record with the key %s came earlier" % (key,))
            table[key] = rec
        except (KeyError, ValueError) as exc:
            raise DataFormatError("bad record %r: %s" % (raw.strip(), exc))
    if version is None:
        raise DataFormatError("data file lacks a version line")
    # checked once every row is read, so an old file's rows name their own migration
    if version != _DATA_VERSION:
        raise DataFormatError("bad record %r: this program reads data version %d"
                              % (version_line, _DATA_VERSION))
    return CertifiedData(version, cohomology, homotopy, hz, _load_arrows(cohomology, arrows),
                         path)


MAX_DATA_BYTES = 1 << 20  # the shipped file has under 5 KB

_CACHE = {}  # (st_dev, st_ino) -> (st_size, st_mtime_ns, CertifiedData)


def load_data(path=None) -> CertifiedData:
    if path is None:
        path = os.environ.get(ENV_DATA_PATH) or default_data_path()
    try:
        st = os.stat(path)  # follows symlinks; a symlink loop raises ELOOP
        cached = _CACHE.get((st.st_dev, st.st_ino))
        if (cached is not None and cached[0] == st.st_size
                and cached[1] == st.st_mtime_ns):
            return cached[2]
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(st.st_mode):  # a fifo blocks the open, a device may never end
            raise OSError("not a regular file")
        with open(path, "rb") as handle:
            st = os.fstat(handle.fileno())  # the stamp of the bytes read
            raw = handle.read(MAX_DATA_BYTES + 1)
        if len(raw) > MAX_DATA_BYTES:
            raise OSError("more than MAX_DATA_BYTES (%d) bytes" % MAX_DATA_BYTES)
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # a decode error has none
        raise DataFormatError("cannot read data file %s: %s" % (os.path.realpath(path), reason))
    data = parse_data(text, os.path.realpath(path))
    # a file moved over this path drops the entry of the file it replaced
    for key in [key for key, entry in _CACHE.items() if entry[2].path == data.path]:
        del _CACHE[key]
    _CACHE[(st.st_dev, st.st_ino)] = (st.st_size, st.st_mtime_ns, data)
    return data


# ---------------------------------------------------------------------------
# serving the tables


@dataclass(frozen=True)
class SpectrumId:
    """A suspended oriented Madsen-Tillmann spectrum, possibly covered.

    The suspension is always by the dimension d, and cover_level k means
    the connective cover killing homotopy below degree k (0 = no cover).
    """

    d: int
    cover_level: int = 0

    def __post_init__(self):
        if self.d not in (1, 2, 3, 4):
            raise MtspecError("dimension must be 1..4")
        if self.cover_level not in (0, 1, 2, 3):
            raise MtspecError("cover level must be 0..3")

    def display(self, ascii_mode: bool = False) -> str:
        if ascii_mode:
            base = "Sigma^%d MTSO(%d)" % (self.d, self.d)
            return base if not self.cover_level else "p>=%d %s" % (self.cover_level, base)
        sup = "¹²³⁴"[self.d - 1]
        base = "Σ%sMTSO(%d)" % (sup, self.d)
        return base if not self.cover_level else "p≥%d%s" % (self.cover_level, base)


def homotopy_group(d: int, k: int, data=None) -> FgAbGroup:
    """Homotopy of the suspended spectrum, from the certified table."""
    table = (data or load_data()).homotopy
    if (d, k) not in table:
        raise MtspecError("homotopy group (d=%d, k=%d) is outside the table" % (d, k))
    return table[(d, k)]


def hz_self_cohomology(k: int, data=None) -> CohomologyEntry:
    """Integral self-cohomology of the integral Eilenberg-MacLane spectrum,
    as a table entry generated by hz<k>."""
    table = (data or load_data()).hz
    if k not in table:
        raise MtspecError("self-cohomology degree %d is outside the table" % k)
    return table[k]


def cohomology(spectrum: SpectrumId, k: int, data=None) -> CohomologyEntry:
    """Integral cohomology of a spectrum in degrees 0..5.

    Uncovered spectra and first covers are served from the certified
    table, whose uncovered rows are the Thom-module pieces of the ring.
    Higher covers are only reachable through grid_equivalence and are
    refused here.
    """
    data = data or load_data()
    if not 0 <= k <= MAX_TABLE_DEGREE:
        raise MtspecError("cohomology is tabulated for degrees 0..%d" % MAX_TABLE_DEGREE)
    entry = data.entry(spectrum.d, spectrum.cover_level, k)
    if entry is None:
        hint = ("; resolve higher covers through grid_equivalence first"
                if spectrum.cover_level >= 2 else "")
        raise MtspecError("no table entry for %s in degree %d%s"
                          % (spectrum.display(True), k, hint))
    return entry


def grid_equivalence(d: int, from_cover: int, to_cover: int, data=None) -> bool:
    """Is the natural map between the two cover levels an equivalence?

    True exactly when every homotopy group in degrees [min, max) of the
    two levels vanishes per the table; degrees beyond the table raise.
    """
    SpectrumId(d, from_cover)
    SpectrumId(d, to_cover)
    data = data or load_data()
    lo, hi = sorted((from_cover, to_cover))
    for i in range(lo, hi):
        if not homotopy_group(d, i, data).is_trivial:
            return False
    return True


def equivalent_stored_cover(d: int, cover: int, data=None) -> int:
    """The stored cover level (0 or 1) equivalent to the requested one."""
    if cover <= 1:
        return cover
    # level 0 needs pi_0 .. pi_(cover-1) to vanish, a superset of what level 1 needs
    if grid_equivalence(d, cover, 1, data):
        return 1
    raise MtspecError("cover level %d of d=%d is not equivalent to a stored one"
                      % (cover, d))


def cover_map(d: int, k: int, kind: str = "cover",
              data=None) -> ArrowRecord:
    """A generator map as loaded, recorded or computed (see its provenance).

    kind "cover" is the map from the spectrum to its first cover, and
    "covdim" the dimension restriction from the first cover in d to the
    one in d - 1.  An arrow the data does not hold raises MtspecError;
    nothing is ever guessed.
    """
    data = data or load_data()
    if kind not in ("cover", "covdim"):
        raise ValueError("unknown arrow kind %r" % kind)
    record = data.arrow(kind, d, k)
    if record is None:
        raise MtspecError("no recorded %s arrow for d=%d, k=%d" % (kind, d, k))
    return record
