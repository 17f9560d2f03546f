import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from mtspec import certified
from mtspec.certified import MAX_DATA_BYTES, TABLE_DEGREES, load_data, parse_data
from mtspec.charclasses import thom_module_piece
from mtspec.cli import main
from mtspec.errors import DataFormatError
from mtspec.tftlab import (RULED_MANIFOLDS, ManifoldClass, _hypersurface, connected_sum,
                           family_member)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"

MINIMAL = """\
version=7
cohomology d=2 cover=1 k=2 gens=tau
"""


class TestShippedData:
    def test_loads_and_validates(self):
        data = load_data()
        assert data.version == 7
        assert len(data.cohomology) == 42  # seven rows, degrees 0..5
        assert set(data.hz) == set(range(7))

    def test_the_file_records_the_diagram_and_the_load_computes_two_arrows(self):
        text = SHIPPED.read_text()
        arrow_lines = [line for line in text.splitlines() if line.startswith("arrow ")]
        assert len(arrow_lines) == 4
        assert all(" prov=" not in line and " to=" not in line for line in arrow_lines)
        arrows = load_data().arrows
        assert {key: a.provenance for key, a in arrows.items()} == {
            ("cover", 2, 2): "diagram", ("cover", 3, 4): "diagram",
            ("cover", 4, 4): "diagram", ("covdim", 4, 4): "diagram",
            ("covdim", 3, 4): "names", ("cover", 2, 4): "square"}
        assert arrows[("covdim", 3, 4)].assignments == (("rho", (("rho", 1),)),)
        assert arrows[("cover", 2, 4)].assignments == (("c^2u", (("rho", -6),)),)

    def test_catalog_records(self):
        # the file records no manifold; the catalog is code in tftlab
        rows = [line for line in SHIPPED.read_text().splitlines()
                if line.startswith(("manifold ", "family "))]
        assert rows == []
        assert not hasattr(load_data(), "manifolds")
        assert list(RULED_MANIFOLDS) == ["S1", "S2", "S3", "S4", "T3", "T4", "CP2", "K3"]


def tampered(old, new):
    text = SHIPPED.read_text()
    modified = text.replace(old, new)
    assert modified != text
    return modified


# the arrow records of the version-2 file, of which version 3 keeps four
V2_ARROWS = """\
arrow kind=unit d=2 k=0 prov=unit map=hz0:1*u
arrow kind=unit d=3 k=0 prov=unit map=hz0:1*u
arrow kind=unit d=4 k=0 prov=unit map=hz0:1*u
arrow kind=cover d=2 k=0 prov=forced map=u:0
arrow kind=cover d=2 k=2 prov=diagram map=cu:2*tau
arrow kind=cover d=2 k=4 prov=square map=c^2u:-6*rho
arrow kind=cover d=3 k=0 prov=forced map=u:0
arrow kind=cover d=3 k=3 prov=forced map=W3u:0
arrow kind=cover d=3 k=4 prov=diagram map=p1u:6*rho
arrow kind=cover d=4 k=0 prov=forced map=u:0
arrow kind=cover d=4 k=3 prov=forced map=W3u:0
arrow kind=cover d=4 k=4 prov=diagram map=eu:2*psi-1*sigma;p1u:3*sigma
arrow kind=dim d=4 to=3 k=0 prov=names map=u:1*u
arrow kind=dim d=4 to=3 k=3 prov=names map=W3u:1*W3u
arrow kind=dim d=4 to=3 k=4 prov=diagram map=eu:0;p1u:1*p1u
arrow kind=dim d=3 to=2 k=0 prov=names map=u:1*u
arrow kind=dim d=3 to=2 k=3 prov=forced map=W3u:0
arrow kind=dim d=3 to=2 k=4 prov=diagram map=p1u:-1*c^2u
arrow kind=covdim d=4 to=3 k=4 prov=diagram map=psi:1*rho;sigma:2*rho
arrow kind=covdim d=3 to=2 k=4 prov=names map=rho:1*rho
"""


def without_prov_and_to(line):
    return " ".join(part for part in line.split()
                    if not part.startswith(("prov=", "to=")))


class TestArrowsAtLoad:
    """A version-3 file records only the four arrows of the restriction
    diagram; a record of an arrow a rule gives is refused naming the line."""

    def test_a_version_2_file_is_refused_at_its_first_arrow(self):
        text = SHIPPED.read_text().replace("version=7", "version=2")
        arrows = [line for line in text.splitlines() if line.startswith("arrow ")]
        for line in arrows:
            text = text.replace(line + "\n", "")
        v2 = text + V2_ARROWS
        first = V2_ARROWS.splitlines()[0]
        with pytest.raises(DataFormatError, match=re.escape(repr(first))) as info:
            parse_data(v2)
        assert "has no field prov=" in str(info.value)

    @pytest.mark.parametrize("line", [without_prov_and_to(line)
                                      for line in V2_ARROWS.splitlines()])
    def test_each_version_2_arrow_is_refused_naming_its_line(self, line):
        # the four diagram arrows are repeats; each other one a rule gives
        with pytest.raises(DataFormatError, match=re.escape(repr(line))) as info:
            parse_data(SHIPPED.read_text() + line + "\n")
        reason = str(info.value)
        assert "came earlier" in reason or "not recorded; delete the line" in reason

    @pytest.mark.parametrize("line,reason", [
        ("arrow kind=dim d=4 k=0 map=u:1*u", "the ring's"),
        ("arrow kind=unit d=2 k=0 map=hz0:1*u", "canonical identification"),
        ("arrow kind=covdim d=3 k=4 map=rho:1*rho", "keeps the generator names"),
        ("arrow kind=cover d=2 k=4 map=c^2u:-6*rho", "solved from the 3 -> 2 square"),
        ("arrow kind=cover d=2 k=0 map=u:0", "zero group"),        # into a zero group
        ("arrow kind=cover d=2 k=1 map=x:1*t", "zero group"),      # out of one
    ], ids=["dim", "unit", "names", "square", "into-zero", "out-of-zero"])
    def test_a_ruled_arrow_exits_two(self, capsys, monkeypatch, tmp_path, line, reason):
        text = (MINIMAL + "cohomology d=2 cover=1 k=0\n"
                "cohomology d=2 cover=1 k=1 gens=t\n" + line + "\n")
        with pytest.raises(DataFormatError, match=re.escape(repr(line))) as info:
            parse_data(text)
        assert reason in str(info.value)
        path = tmp_path / "ruled.txt"
        path.write_text(text)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert repr(line) in captured.err

    def test_the_square_solves_the_d2_cover_arrow_from_the_d3_one(self):
        data = parse_data(tampered("map=p1u:6*rho", "map=p1u:5*rho"))
        assert data.arrow("cover", 2, 4).image_of("c^2u") == {"rho": -5}

    def test_a_square_that_leaves_a_generator_undetermined_is_refused(self, monkeypatch):
        monkeypatch.setattr(certified, "ring_restriction", lambda d, k, to_d: (("p1u", ()),))
        with pytest.raises(DataFormatError, match="leaves the cover image of c\\^2u "
                                                  "undetermined"):
            parse_data(SHIPPED.read_text())

    @pytest.mark.parametrize("old,new,reason", [
        ("", "arrow kind=cover d=9 k=4 map=u:1*u\n",
         "the arrow references a missing table entry"),
        ("arrow kind=cover d=4 k=4 map=eu:2*psi-1*sigma;p1u:3*sigma\n",
         "arrow kind=cover d=4 k=4 map=eu:2*psi-1*sigma\n",
         "assignments do not cover the source generators"),
    ], ids=["rows-outside-the-tables", "a-source-generator-left-out"])
    def test_a_recorded_arrow_must_map_the_rows_it_joins(self, old, new, reason):
        text = SHIPPED.read_text()
        text = text.replace(old, new) if old else text + new
        assert text != SHIPPED.read_text()
        with pytest.raises(DataFormatError, match=re.escape(
                "bad record %r: %s" % (new.strip(), reason))):
            parse_data(text)

    def test_a_computed_arrow_that_is_not_well_defined_is_refused(self):
        text = tampered("cohomology d=2 cover=1 k=4 gens=rho",
                        "cohomology d=2 cover=1 k=4 gens=theta")
        with pytest.raises(DataFormatError, match=re.escape(
                "the computed covdim arrow d=3 k=4 (prov=names): "
                "unknown target generator 'rho'")):
            parse_data(text)


# the catalog rows of the version-5 file, which rules give since version 6
# and no file records since version 7
V5_CATALOG_ROWS = """\
manifold name=CP2 dim=4 euler=3 signature=1
manifold name=K3 dim=4 euler=24 signature=-16
"""

# the catalog rows of the version-4 file that rules give since version 5:
# the spheres and tori before CP2 and K3, and the families after them
V4_MANIFOLD_ROWS = """\
manifold name=S1 dim=1 euler=0 kr=1
manifold name=S2 dim=2 euler=2
manifold name=S3 dim=3 euler=0
manifold name=T3 dim=3 euler=0
manifold name=S4 dim=4 euler=2 signature=0
manifold name=T4 dim=4 euler=0 signature=0
"""
V4_FAMILY_ROWS = """\
family name=Sigma_g dim=2 euler0=2 eulerg=-2
family name=S2xSigma_g dim=4 euler0=4 eulerg=-4 signature=0
"""


class TestRuledCatalog:
    """A version-7 file records no manifold: every manifold row, and any
    family row, is refused naming the line, and a manifold row's refusal
    says which sum of catalog names to write instead."""

    @pytest.mark.parametrize("version,rows,first", [
        (5, V5_CATALOG_ROWS, "manifold name=CP2 dim=4 euler=3 signature=1"),
        (4, V4_MANIFOLD_ROWS + V5_CATALOG_ROWS + V4_FAMILY_ROWS,
         "manifold name=S1 dim=1 euler=0 kr=1"),
    ], ids=["version-5", "version-4"])
    def test_an_older_file_is_refused_at_its_first_ruled_row(
            self, capsys, monkeypatch, tmp_path, version, rows, first):
        old = tampered("version=7", "version=%d" % version) + rows
        with pytest.raises(DataFormatError, match=re.escape(repr(first))) as info:
            parse_data(old)
        assert "delete the line" in str(info.value)
        path = tmp_path / "old.txt"
        path.write_text(old)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert repr(first) in captured.err and "delete the line" in captured.err

    @pytest.mark.parametrize("row", (V5_CATALOG_ROWS + V4_MANIFOLD_ROWS
                                     + V4_FAMILY_ROWS).splitlines() + [
        "manifold name=Sigma_0 dim=2 euler=2",
        "manifold name=S2xSigma_12 dim=4 euler=-44",
        "family name=Sigma_g dim=2 euler0=2 eulerg=-1",
        "family name=T_g dim=2 euler0=2 eulerg=-2 signature=0 kr=0",
    ])
    def test_a_ruled_row_is_refused_naming_the_line(self, row):
        with pytest.raises(DataFormatError, match=re.escape(repr(row))) as info:
            parse_data(SHIPPED.read_text() + row + "\n")
        assert str(info.value).endswith("not recorded; delete the line")

    @pytest.mark.parametrize("row,argv", [
        # served in place of the member, this row made the value 1, not 1/4
        ("manifold name=Sigma_2 dim=2 euler=0",
         ["eval", "euler", "--lam", "2", "--manifold", "Sigma_2"]),
        ("manifold name=S2xSigma_1 dim=4 euler=0",
         ["eval", "four_d", "--l1", "2", "--l2", "3", "--manifold", "S2xSigma_1"]),
    ], ids=["Sigma_2", "S2xSigma_1"])
    def test_a_row_cannot_shadow_a_family_member(self, capsys, monkeypatch, tmp_path,
                                                 row, argv):
        path = tmp_path / "shadow.txt"
        path.write_text(SHIPPED.read_text() + row + "\n")
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert repr(row) in captured.err and "delete the line" in captured.err

    @pytest.mark.parametrize("row", [
        "manifold name=X4 dim=4 euler=4 signature=2",
        "manifold name=Sigma_g dim=2 euler=4",
    ])
    def test_a_version_6_file_is_refused_at_its_manifold_row(
            self, capsys, monkeypatch, tmp_path, row):
        old = tampered("version=7", "version=6") + row + "\n"
        with pytest.raises(DataFormatError, match=re.escape(repr(row))) as info:
            parse_data(old)
        assert "write the sum a*S4 + b*CP2" in str(info.value)
        path = tmp_path / "v6.txt"
        path.write_text(old)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert repr(row) in captured.err and "write the sum a*S4 + b*CP2" in captured.err

    def test_a_version_6_file_without_manifold_rows_is_refused_at_its_version_line(
            self, capsys, monkeypatch, tmp_path):
        old = tampered("version=7", "version=6")
        with pytest.raises(DataFormatError, match=re.escape("'version=6'")) as info:
            parse_data(old)
        assert "reads data version 7" in str(info.value)
        path = tmp_path / "v6.txt"
        path.write_text(old)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "'version=6'" in captured.err and "reads data version 7" in captured.err


class TestHypersurfaceRule:
    """CP2 and K3 are the smooth surfaces of degree 1 and 4 in CP^3; the
    rule is checked against identities it is not written from."""

    def test_the_quadric_is_s2_x_s2(self):
        quadric, s2xs2 = _hypersurface("Q", 2), family_member("S2xSigma_0")
        assert (quadric.euler, quadric.signature) == (s2xs2.euler, s2xs2.signature) == (4, 0)

    def test_the_cubic_is_cp2_blown_up_at_six_points(self):
        cp2 = RULED_MANIFOLDS["CP2"]
        minus_cp2 = ManifoldClass("-CP2", 4, cp2.euler, -cp2.signature)
        blown_up = connected_sum(cp2, *[minus_cp2] * 6)
        cubic = _hypersurface("cubic", 3)
        assert (cubic.euler, cubic.signature) == (blown_up.euler, blown_up.signature) == (9, -5)

    def test_noether_parity_and_integrality_hold_for_every_degree(self):
        for k in range(1, 61):
            surface = _hypersurface("X", k)
            # Noether: (euler + signature) / 4 = 1 - q + p_g, with q = 0 and
            # p_g = C(k - 1, 3), the monomials of degree k - 4 in four variables
            assert surface.euler + surface.signature == 4 * (1 + math.comb(k - 1, 3)), k
            assert (surface.euler + surface.signature) % 2 == 0, k
            assert 3 * surface.signature == -k * (k * k - 4), k  # no remainder dropped


class TestRepeatedKeys:
    """A record whose key an earlier record of its type already holds is
    refused, whatever the order of its fields."""

    @pytest.mark.parametrize("record", [
        "cohomology d=2 cover=1 k=2 gens=tau:3",
        "cohomology d=2 cover=1 k=2 gens=tau",              # a verbatim repeat
        "homotopy k=0 d=2 group=Z",
        "hz k=0 group=Z/2",
        "arrow kind=cover d=3 k=4 map=p1u:5*rho",
        "arrow map=psi:1*rho;sigma:2*rho k=4 d=4 kind=covdim",
    ])
    def test_repeated_key_is_refused(self, record):
        text = SHIPPED.read_text() + record + "\n"
        with pytest.raises(DataFormatError, match="came earlier"):
            parse_data(text)


class TestRepeatedFields:
    """A field named twice in one record, a generator named twice in an
    arrow's map, and a second version line or one that does not state 7,
    are refused naming the line, in process and through MTSPEC_DATA."""

    @pytest.mark.parametrize("old,new", [
        # would load as the d=2 row, which the line also spells d=3
        ("cohomology d=2 cover=1 k=2 gens=tau",
         "cohomology d=3 cover=1 k=2 d=2 gens=tau"),
        # would load as sigma:2*rho: the later term of a target won
        ("arrow kind=covdim d=4 k=4 map=psi:1*rho;sigma:2*rho",
         "arrow kind=covdim d=4 k=4 map=psi:1*rho;sigma:0*rho+2*rho"),
        # would build 5 rho: the later image of a source won
        ("arrow kind=cover d=3 k=4 map=p1u:6*rho",
         "arrow kind=cover d=3 k=4 map=p1u:6*rho;p1u:5*rho"),
        ("version=7", "version=7\nversion=2"),    # would load as version 2
        ("version=7", "version=abc"),             # escaped as a bare ValueError
        ("version=7", "version=3"),               # loaded version-5 rows as version 3
        ("version=7", "version=4"),               # loaded version-5 rows as version 4
        ("version=7", "version=5"),               # version-6 rows as version 5
        ("version=7", "version=-7"),
    ])
    def test_refused_naming_the_line(self, capsys, monkeypatch, tmp_path, old, new):
        modified = tampered(old, new)
        line = new.splitlines()[-1]
        with pytest.raises(DataFormatError, match=re.escape(repr(line))):
            parse_data(modified)
        path = tmp_path / "repeated.txt"
        path.write_text(modified)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert repr(line) in captured.err


def cap_address_space():
    """Cap a child at 512 MiB, so that an unbounded read fails in the child."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


class TestUnreadableFile:
    @pytest.mark.parametrize("kind", ["missing", "directory", "loop", "oversized",
                                      "non-utf8"])
    def test_exits_two_in_process(self, capsys, monkeypatch, tmp_path, kind):
        if kind == "loop":  # two symlinks that point at each other
            path = tmp_path / "a.txt"
            path.symlink_to(tmp_path / "b.txt")
            (tmp_path / "b.txt").symlink_to(path)
        elif kind == "oversized":  # a valid file, padded past the bound
            path = tmp_path / "big.txt"
            comments = "#" * 1023 + "\n"
            path.write_text(SHIPPED.read_text()
                            + comments * (MAX_DATA_BYTES // len(comments)))
        elif kind == "non-utf8":  # 0xff starts no UTF-8 sequence
            path = tmp_path / "latin.txt"
            path.write_bytes(b"version=7\n\xff\n")
        else:
            path = tmp_path / "absent.txt" if kind == "missing" else tmp_path
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        with pytest.raises(DataFormatError, match="cannot read data file"):
            load_data()
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err

    @pytest.mark.parametrize("kind", ["fifo", "device"])
    def test_exits_two_without_reading(self, tmp_path, kind):
        # a fifo with no writer blocks an open and /dev/zero never ends: the
        # file is refused before it is opened, and the timeout and the
        # address-space cap make a regression fail instead of hang
        if kind == "fifo":
            path = str(tmp_path / "fifo")
            os.mkfifo(path)
        else:
            path = "/dev/zero"
        env = dict(os.environ, MTSPEC_DATA=path)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-m", "mtspec", "table", "hz"],
                              capture_output=True, text=True, env=env, timeout=10,
                              preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: cannot read data file %s: not a regular file\n"
                               % os.path.realpath(path))


class TestParser:
    def test_minimal_document(self):
        data = parse_data(MINIMAL)
        assert data.entry(2, 1, 2).names == ("tau",)
        assert data.entry(2, 0, 0).names == ("u",)

    def test_version_required(self):
        with pytest.raises(DataFormatError, match="lacks a version line"):
            parse_data("cohomology d=2 cover=1 k=2 gens=tau\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(DataFormatError):
            parse_data(MINIMAL + "mystery a=1\n")

    @pytest.mark.parametrize("record,reason", [
        ("bogus x=1", "unknown record type 'bogus'"),
        ("arrow kind=zz d=2 k=2 map=tau:1*tau", "unknown arrow kind 'zz'"),
    ], ids=["record-type", "arrow-kind"])
    def test_unknown_name_is_refused_naming_the_line(self, record, reason):
        with pytest.raises(DataFormatError, match=re.escape(repr(record))) as info:
            parse_data("version=7\n" + record + "\n")
        assert reason in str(info.value)

    @pytest.mark.parametrize("gens,reason", [
        ("tau:2,x:3", "divisibility chain"),     # Z/2+Z/3 is Z/6, which needs one name
        ("tau:6,x:4", "divisibility chain"),     # sorted, 4 and 6 are no chain either
        ("tau,x:1", "integers >= 2"),
        ("tau:0", "integers >= 2"),
        ("tau:-2", "integers >= 2"),
    ], ids=["2-3", "6-4", "order-1", "order-0", "negative"])
    def test_torsion_orders_must_form_a_chain_of_orders_from_two(self, gens, reason):
        record = "cohomology d=2 cover=1 k=2 gens=%s" % gens
        with pytest.raises(DataFormatError, match=re.escape(repr(record))) as info:
            parse_data("version=7\n" + record + "\n")
        assert reason in str(info.value)

    def test_a_chain_of_torsion_orders_is_the_group(self):
        entry = parse_data("version=7\ncohomology d=2 cover=1 k=2 "
                           "gens=a:6,b,c:2,d:12\n").entry(2, 1, 2)
        assert (entry.group.free_rank, entry.group.torsion) == (1, (2, 6, 12))
        assert entry.names == ("a", "b", "c", "d")

    @pytest.mark.parametrize("old,new,reason", [
        # rho,rho loaded as Z^2, whose second rho no arrow could name
        ("d=2 cover=1 k=4 gens=rho\n", "d=2 cover=1 k=4 gens=rho,rho\n",
         "the generator rho is named twice"),
        ("k=4 gens=psi,sigma\n", "k=4 gens=psi,sigma,psi:2\n",
         "the generator psi is named twice"),
        ("k=2 gens=tau\n", "k=2 gens=tau,\n", "generator name '' is not spelled"),
        ("k=2 gens=tau\n", "k=2 gens=2tau\n", "generator name '2tau' is not spelled"),
        ("k=2 gens=tau\n", "k=2 gens=t-u:2\n", "generator name 't-u' is not spelled"),
    ], ids=["repeated", "repeated-torsion", "empty", "digit-first", "dash"])
    def test_a_generator_no_map_can_name_is_refused(self, capsys, monkeypatch, tmp_path,
                                                     old, new, reason):
        modified = tampered(old, new)
        record = next(line for line in modified.splitlines()
                      if line.endswith(new.strip()))
        with pytest.raises(DataFormatError, match=re.escape(repr(record))) as info:
            parse_data(modified)
        assert reason in str(info.value)
        path = tmp_path / "names.txt"
        path.write_text(modified)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert repr(record) in captured.err and reason in captured.err

    def test_a_group_field_on_a_cohomology_row_is_refused(self, capsys, monkeypatch, tmp_path):
        # a version-3 file fails at its first cover row
        v3 = SHIPPED.read_text().replace("version=7", "version=3").replace(
            "cohomology d=2 cover=1 k=0\n", "cohomology d=2 cover=1 k=0 group=0\n")
        record = "cohomology d=2 cover=1 k=0 group=0"
        with pytest.raises(DataFormatError, match=re.escape(repr(record))) as info:
            parse_data(v3)
        assert "delete the group= field" in str(info.value)
        path = tmp_path / "v3.txt"
        path.write_text(v3)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert repr(record) in captured.err and "delete the group= field" in captured.err

    def test_uncovered_row_must_match_the_ring(self):
        # the uncovered rows are the ring's pieces themselves, in any file
        for text in (MINIMAL, SHIPPED.read_text()):
            data = parse_data(text)
            for d in (1, 2, 3, 4):
                for k in TABLE_DEGREES:
                    assert data.entry(d, 0, k) is thom_module_piece(d, k), (d, k)

    @pytest.mark.parametrize("record,remedy", [
        ("cohomology d=2 cover=0 k=0 gens=u", "delete the cover=0 row"),
        # a manifold is refused as a row, before its p1= field is read
        ("manifold name=CP2 dim=4 euler=3 signature=1 p1=3", "write the sum"),
    ], ids=["cover-row", "manifold-p1"])
    def test_computed_fact_is_refused(self, record, remedy):
        # a version-1 file recorded these; each now only repeats the code
        with pytest.raises(DataFormatError) as info:
            parse_data(MINIMAL + record + "\n")
        assert repr(record) in str(info.value) and remedy in str(info.value)

    @pytest.mark.parametrize("record,field", [
        ("hz k=7 group=Z bogus=3", "bogus="),
        # no record type has a p1= field since version 7, so it has no refusal of its own
        ("hz k=0 group=Z p1=3", "p1="),
        ("homotopy d=2 k=1 group=0 cover=1", "cover="),
        ("cohomology d=2 cover=1 k=3 gen=tau", "gen="),
        ("arrow kind=cover d=2 k=2 map=tau:1*tau from=1", "from="),
        ("arrow kind=cover d=2 k=2 map=cu:2*tau prov=diagram", "prov="),
        ("arrow kind=covdim d=4 to=3 k=4 map=psi:1*rho;sigma:2*rho", "to="),
    ], ids=["hz", "hz-p1", "homotopy", "cohomology", "arrow", "arrow-prov", "arrow-to"])
    def test_unknown_field_is_refused_naming_the_line(self, record, field):
        with pytest.raises(DataFormatError, match=re.escape(repr(record))) as info:
            parse_data(MINIMAL + record + "\n")
        assert "has no field " + field in str(info.value)
        # the type follows "of type", so no article has to agree with it
        rectype = record.split()[0]
        assert "a record of type %s has no field %s" % (rectype, field) in str(info.value)

    def test_ill_defined_arrow_rejected(self):
        bad = (
            "version=7\n"
            "cohomology d=3 cover=1 k=3 gens=x\n"
            "arrow kind=cover d=3 k=3 map=W3u:1*x\n"
        )
        with pytest.raises(DataFormatError, match="not well-defined"):
            parse_data(bad)

    def test_bad_combo_rejected(self):
        bad = (
            "version=7\n"
            "cohomology d=2 cover=1 k=0 gens=t\n"
            "arrow kind=cover d=2 k=0 map=u:t+t\n"
        )
        with pytest.raises(DataFormatError):
            parse_data(bad)

    @pytest.mark.parametrize("record", [
        "cohomology d=2 cover=0 k=0 gens=u junk",    # a field without =
        "arrow kind=cover d=2 k=0 map=u:t+t",        # a bad combo
        "arrow kind=cover d=2 k=0 map=u",            # a map item without :
    ])
    def test_field_errors_name_the_line(self, record):
        with pytest.raises(DataFormatError, match=re.escape(repr(record))):
            parse_data(MINIMAL + record + "\n")

    @pytest.mark.parametrize("group", ["Z^2", "Z+Z/2", "Z/2+Z/2"])
    def test_hz_group_must_be_cyclic(self, capsys, monkeypatch, tmp_path, group):
        # the sequence names every generator of an hz group hz<k>, so a
        # second generator could not be told apart: the unit map's
        # pairing hz0 -> u would send both to u
        record = "hz k=0 group=%s" % group
        text = tampered("hz k=0 group=Z\n", record + "\n")
        with pytest.raises(DataFormatError, match=re.escape(repr(record))):
            parse_data(text)
        path = tmp_path / "hz.txt"
        path.write_text(text)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be cyclic" in captured.err

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("group", ["0", "Z/2", "Z/3", "Z^2", "Z/6", "Z^3"])
    def test_pi_0_is_z(self, capsys, monkeypatch, tmp_path, d, group):
        # the ring gives H^0 = Z u and H^1 = 0 for every d, so Hurewicz and
        # universal coefficients force pi_0 = H_0 = Z
        record = "homotopy d=%d k=0 group=%s" % (d, group)
        text = tampered("homotopy d=%d k=0 group=Z\n" % d, record + "\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(repr(record)) + ": pi_0 is Z for every d"):
            parse_data(text)
        path = tmp_path / "pi0.txt"
        path.write_text(text)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "homotopy", "--d", str(d)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "pi_0 is Z" in captured.err

    @pytest.mark.parametrize("record,allowed", [
        ("homotopy d=9 k=7 group=Z/5", "a homotopy row has d=1..4 and k=0..d"),
        ("hz k=40 group=Z/2", "an hz row has k=0..6"),
        ("cohomology d=7 cover=1 k=3 gens=x", "a cohomology row has d=2..4, cover=1 and k=0..5"),
    ], ids=["homotopy", "hz", "cohomology"])
    def test_a_row_outside_the_tables_is_refused(self, capsys, monkeypatch, tmp_path,
                                                  record, allowed):
        # nothing serves or proves such a row, so the shipped file plus one
        # is refused, naming the line and the range
        text = SHIPPED.read_text() + record + "\n"
        with pytest.raises(DataFormatError,
                           match=re.escape("%r: outside the tables: %s" % (record, allowed))):
            parse_data(text)
        path = tmp_path / "outside.txt"
        path.write_text(text)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside the tables" in captured.err

    def test_long_digit_run_fails_fast(self):
        bad = (
            "version=7\n"
            "cohomology d=2 cover=1 k=0 gens=t\n"
            "arrow kind=cover d=2 k=0 map=u:" + "1" * 100_000 + "\n"
        )
        start = time.perf_counter()
        with pytest.raises(DataFormatError, match="cannot parse combo"):
            parse_data(bad)
        assert time.perf_counter() - start < 1
