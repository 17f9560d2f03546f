"""The versioned certified data file, and the tables served from it.

The file ships with the package and carries the cover rows of the
cohomology table with their named generators, the homotopy table, the
self-cohomology of the integral Eilenberg-MacLane spectrum, every
recorded generator map, and the manifold catalog.  Two facts are not in
it, because the package computes them: each uncovered cohomology row is
the Thom-module piece of the ring (``charclasses.thom_module_piece``),
entered into the table before the file's rows are read, and each
manifold's p1 number is 3 * signature (Hirzebruch), a property of
ManifoldClass.  A file that records either anyway, a cover=0 row or a
p1= field, is refused naming the line.  Loading validates the rest: no
two records of one type may share a key, no record may name a field
twice and the file has one integer version line (each repeat is
refused, not taken in place of the first), each recorded map must be
well-defined between the rows it names (the maps built for that check
are kept and served by ArrowRecord.to_group_hom), each dim arrow must
lower d by one and agree with the ring restriction on every named
generator (coefficients on a Z/n generator modulo n), each manifold
record must satisfy the ManifoldClass invariants, and each family record
(name ending in _g) must yield valid members for g = 0 and g = 1, which
suffices because every invariant is affine in g.  The environment
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

The lookups at the end of the module serve the tables: homotopy and
cohomology of the suspended Madsen-Tillmann spectra and their first
covers (SpectrumId), the self-cohomology of the Eilenberg-MacLane
spectrum, grid equivalences between cover levels, and the recorded
arrows.  They need nothing beyond this module, so serving a table loads
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
from .errors import (DataFormatError, InvalidManifold, NotRecorded, OutOfTable,
                     Unsupported)

ENV_DATA_PATH = "MTSPEC_DATA"
MAX_TABLE_DEGREE = 5  # cohomology is tabulated in degrees 0..5

_TERM_RE = re.compile(r"([+-]?\d+)\*([A-Za-z][A-Za-z0-9^]*)")


@dataclass(frozen=True)
class ArrowRecord:
    """One recorded generator map between two table entries in degree k.

    kind "cover" maps the spectrum to its first cover, "dim" and "covdim"
    restrict from dimension d to to_d (uncovered and covered), and "unit"
    maps the Eilenberg-MacLane self-cohomology to the spectrum.
    """

    kind: str        # cover | dim | covdim | unit
    d: int
    k: int
    to_d: int | None
    provenance: str  # diagram | names | square | forced | unit
    assignments: tuple  # ((source name, ((target name, coeff), ...)), ...)

    def image_of(self, name: str) -> dict:
        """The image of one source generator as {target name: coefficient}."""
        return dict(dict(self.assignments)[name])

    def to_group_hom(self, data: CertifiedData) -> GroupHom:
        """The map in canonical coordinates between its two table entries,
        as built when the data loaded; an arrow the data does not record
        raises NotRecorded."""
        hom = data.homs.get(self)
        if hom is None:
            raise NotRecorded("arrow %s is not recorded in this data" % (self,))
        return hom


@dataclass(frozen=True)
class ManifoldClass:
    """An oriented closed manifold, remembered through its invariants."""

    name: str
    dim: int
    euler: int
    signature: int = 0
    kr: int | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3, 4):
            raise InvalidManifold("dimension must be 1..4")
        if self.dim % 2 and self.euler != 0:
            raise InvalidManifold("closed odd-dimensional manifolds have euler 0")
        if self.dim % 4 and self.signature:
            raise InvalidManifold("signature is only meaningful in dimensions 0 mod 4")
        if self.dim % 2 == 0 and (self.euler + self.signature) % 2:
            raise InvalidManifold("euler + signature must be even (duality parity)")
        if self.kr is not None:
            if self.dim % 4 != 1:
                raise InvalidManifold("kr applies in dimensions 1 mod 4 only")
            if self.kr not in (0, 1):
                raise InvalidManifold("kr is a mod-2 value")

    @property
    def p1_number(self) -> int:
        """The first Pontryagin number, 3 * signature by Hirzebruch's
        signature theorem; 0 outside dimension 4, as the signature is."""
        return 3 * self.signature


@dataclass(frozen=True)
class FamilyRecord:
    name: str       # pattern like Sigma_g; g is the nonnegative parameter
    dim: int
    euler0: int
    eulerg: int
    signature: int

    def member(self, name: str, g: int) -> ManifoldClass:
        """The member with parameter g; raises InvalidManifold if invalid."""
        return ManifoldClass(name, self.dim, self.euler0 + self.eulerg * g,
                             self.signature)


def hz_entry(group: FgAbGroup, k: int) -> CohomologyEntry:
    """A synthetic named entry for the Eilenberg-MacLane self-cohomology."""
    return CohomologyEntry(group, tuple(("hz%d" % k, order or None)
                                        for order in group.generator_orders()))


def assignments_to_group_hom(source: CohomologyEntry,
                             target: CohomologyEntry,
                             assignments) -> GroupHom:
    """Build a canonical-coordinate GroupHom from named generator images."""
    amap = {src: dict(combo) for src, combo in assignments}
    src_names = source.names
    if set(amap) != set(src_names):
        raise DataFormatError("assignments do not cover the source generators")
    position = {}  # target name -> canonical index; a repeated name takes the first
    for name, i in zip(target.names, target.canonical_index()):
        position.setdefault(name, i)
    n_src = len(source.generators)
    canonical = [[0] * n_src for _ in target.generators]
    for src_name, j in zip(src_names, source.canonical_index()):
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

    def __init__(self, version, cohomology, homotopy, hz, arrows,
                 manifolds, families, path):
        self.version = version
        self.cohomology = cohomology    # (d, cover, k) -> CohomologyEntry
        self.homotopy = homotopy        # (d, k) -> FgAbGroup
        self.hz = hz                    # k -> FgAbGroup
        self._arrow_index = arrows      # (kind, d, k, to_d) -> ArrowRecord
        self.arrows = list(arrows.values())
        self.manifolds = manifolds      # name -> ManifoldClass
        self.families = families        # name -> FamilyRecord
        self.path = path
        self.homs = {}                  # ArrowRecord -> GroupHom, built by _validate

    def entry(self, d: int, cover: int, k: int) -> CohomologyEntry | None:
        return self.cohomology.get((d, cover, k))

    def arrow(self, kind: str, d: int, k: int, to_d=None) -> ArrowRecord | None:
        return self._arrow_index.get((kind, d, k, to_d))


def _parse_combo(text: str):
    if text == "0":
        return ()
    terms = []
    pos = 0
    while pos < len(text) or not terms:
        # matching only where the last term ended keeps the work linear; a
        # search would retry every start inside a run of digits
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise ValueError("cannot parse combo %r" % text)
        terms.append((match.group(2), int(match.group(1))))
        pos = match.end()
    return tuple(terms)


def _parse_map(text: str):
    out = []
    for item in text.split(";"):
        if ":" not in item:
            raise ValueError("bad map item %r" % item)
        src, combo = item.split(":", 1)
        out.append((src, _parse_combo(combo)))
    return tuple(out)


def _parse_gens(text: str):
    gens = []
    if text:
        for item in text.split(","):
            if ":" in item:
                name, order = item.split(":", 1)
                gens.append((name, int(order)))
            else:
                gens.append((item, None))
    return tuple(gens)


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


def _arrow_endpoints(data: CertifiedData, arrow: ArrowRecord):
    """The (source, target) table entries an arrow maps between."""
    if arrow.kind == "cover":
        source = data.entry(arrow.d, 0, arrow.k)
        target = data.entry(arrow.d, 1, arrow.k)
    elif arrow.kind == "dim":
        source = data.entry(arrow.d, 0, arrow.k)
        target = data.entry(arrow.to_d, 0, arrow.k)
    elif arrow.kind == "covdim":
        source = data.entry(arrow.d, 1, arrow.k)
        target = data.entry(arrow.to_d, 1, arrow.k)
    elif arrow.kind == "unit":
        source = hz_entry(data.hz[arrow.k], arrow.k) if arrow.k in data.hz else None
        target = data.entry(arrow.d, 0, arrow.k)
    else:
        raise DataFormatError("unknown arrow kind %r" % arrow.kind)
    if source is None or target is None:
        raise DataFormatError("arrow %s references a missing table entry" % (arrow,))
    return source, target


def _validate(data: CertifiedData):
    for arrow in data.arrows:
        # the lookups find a restriction only one dimension down, and
        # any other arrow only without a target dimension
        if arrow.to_d != (arrow.d - 1 if arrow.kind in ("dim", "covdim") else None):
            raise DataFormatError("%s arrow (d=%d, k=%d) cannot go to d=%s"
                                  % (arrow.kind, arrow.d, arrow.k, arrow.to_d))
        source, target = _arrow_endpoints(data, arrow)
        data.homs[arrow] = assignments_to_group_hom(source, target, arrow.assignments)
        if arrow.kind == "dim":
            _check_ring_restriction(arrow, target)


def _check_ring_restriction(arrow: ArrowRecord, target: CohomologyEntry):
    """A dim arrow must be the ring restriction, read on named generators.

    The arrow's map was built already, so both rows exist and every name
    it uses is a generator of them.
    """
    orders = dict(target.generators)

    def reduced(combo):
        out = {}
        for name, coeff in dict(combo).items():
            coeff = coeff % orders[name] if orders[name] else coeff
            if coeff:
                out[name] = coeff
        return out

    ring = dict(ring_restriction(arrow.d, arrow.k, arrow.to_d))
    for name, combo in arrow.assignments:
        recorded, expected = reduced(combo), reduced(ring[name])
        if recorded != expected:
            raise DataFormatError(
                "dim arrow (d=%d, k=%d) sends %s to %s but the ring restriction "
                "gives %s" % (arrow.d, arrow.k, name, recorded, expected))


def parse_data(text: str, path="<memory>") -> CertifiedData:
    version = None
    # the uncovered rows are the ring's; the file records only the covers
    cohomology = {(d, 0, k): thom_module_piece(d, k)
                  for d in (1, 2, 3, 4) for k in range(MAX_TABLE_DEGREE + 1)}
    homotopy = {}
    hz = {}
    arrows = {}
    manifolds = {}
    families = {}
    # the rows repeat few texts: one group per group text, and one entry
    # per (group, gens) text, shared by every row that spells it
    groups, entries = {}, {}

    def group(text):
        return groups.get(text) or groups.setdefault(text, FgAbGroup.from_text(text))

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("version="):
                if version is not None:
                    raise ValueError("a version line came earlier")
                version = int(line.split("=", 1)[1])
                continue
            parts = line.split()
            rectype, fields = parts[0], _parse_fields(parts[1:])
            if "p1" in fields:
                raise ValueError("p1 is 3 * signature, not recorded; delete the p1= field")
            if rectype == "cohomology":
                table, key = cohomology, (int(fields["d"]), int(fields["cover"]),
                                          int(fields["k"]))
                if key[1] == 0:
                    raise ValueError("uncovered rows are the ring's Thom-module "
                                     "pieces, not recorded; delete the cover=0 row")
                spelled = (fields["group"], fields.get("gens", ""))
                if spelled not in entries:
                    entries[spelled] = CohomologyEntry(group(spelled[0]),
                                                       _parse_gens(spelled[1]))
                rec = entries[spelled]
            elif rectype == "homotopy":
                table, key = homotopy, (int(fields["d"]), int(fields["k"]))
                rec = group(fields["group"])
            elif rectype == "hz":
                table, key, rec = hz, int(fields["k"]), group(fields["group"])
            elif rectype == "arrow":
                rec = ArrowRecord(
                    kind=fields["kind"],
                    d=int(fields["d"]),
                    k=int(fields["k"]),
                    to_d=int(fields["to"]) if "to" in fields else None,
                    provenance=fields["prov"],
                    assignments=_parse_map(fields["map"]),
                )
                table, key = arrows, (rec.kind, rec.d, rec.k, rec.to_d)
            elif rectype == "manifold":
                rec = ManifoldClass(
                    name=fields["name"], dim=int(fields["dim"]),
                    euler=int(fields["euler"]),
                    signature=int(fields.get("signature", 0)),
                    kr=int(fields["kr"]) if "kr" in fields else None)
                table, key = manifolds, rec.name
            elif rectype == "family":
                rec = FamilyRecord(
                    name=fields["name"], dim=int(fields["dim"]),
                    euler0=int(fields["euler0"]), eulerg=int(fields["eulerg"]),
                    signature=int(fields.get("signature", 0)))
                if not rec.name.endswith("_g"):
                    raise InvalidManifold("family name has no parameter slot _g")
                # every invariant is affine in g, so two members check all
                rec.member(rec.name, 0)
                rec.member(rec.name, 1)
                table, key = families, rec.name
            else:
                raise DataFormatError("unknown record type %r" % rectype)
            if key in table:  # a repeat is refused, not taken over the first
                raise ValueError("a record with the key %s came earlier" % (key,))
            table[key] = rec
        except (KeyError, ValueError, InvalidManifold) as exc:
            raise DataFormatError("bad record %r: %s" % (line, exc))
    if version is None:
        raise DataFormatError("data file lacks a version line")
    data = CertifiedData(version, cohomology, homotopy, hz, arrows,
                         manifolds, families, path)
    _validate(data)
    return data


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
            raise ValueError("dimension must be 1..4")
        if self.cover_level not in (0, 1, 2, 3):
            raise ValueError("cover level must be 0..3")

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
        raise OutOfTable("homotopy group (d=%d, k=%d) is outside the table" % (d, k))
    return table[(d, k)]


def hz_self_cohomology(k: int, data=None) -> FgAbGroup:
    """Integral self-cohomology of the integral Eilenberg-MacLane spectrum."""
    table = (data or load_data()).hz
    if k not in table:
        raise OutOfTable("self-cohomology degree %d is outside the table" % k)
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
        raise Unsupported("cohomology is tabulated for degrees 0..%d" % MAX_TABLE_DEGREE)
    entry = data.entry(spectrum.d, spectrum.cover_level, k)
    if entry is None:
        raise Unsupported("no table entry for %s in degree %d; resolve higher "
                          "covers through grid_equivalence first"
                          % (spectrum.display(True), k))
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
    data = data or load_data()
    for stored in (1, 0):
        if grid_equivalence(d, cover, stored, data):
            return stored
    raise Unsupported("cover level %d of d=%d is not equivalent to a stored one"
                      % (cover, d))


def cover_map(d: int, k: int, kind: str = "cover",
              data=None) -> ArrowRecord:
    """A recorded generator map, exactly as stored.

    kind "cover" is the map from the spectrum to its first cover, "dim"
    the dimension restriction between uncovered spectra, and "covdim"
    the dimension restriction between the covers.  Unrecorded arrows
    raise NotRecorded; nothing is ever guessed.
    """
    data = data or load_data()
    if kind not in ("cover", "dim", "covdim"):
        raise ValueError("unknown arrow kind %r" % kind)
    to_d = None if kind == "cover" else d - 1
    record = data.arrow(kind, d, k, to_d)
    if record is None:
        raise NotRecorded("no recorded %s arrow for d=%d, k=%d" % (kind, d, k))
    return record
