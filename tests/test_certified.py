import os
import re
import subprocess
import sys
import time

import pytest

from mtspec.certified import (MAX_DATA_BYTES, MAX_TABLE_DEGREE, ManifoldClass,
                              default_data_path, load_data, parse_data)
from mtspec.charclasses import thom_module_piece
from mtspec.cli import main
from mtspec.errors import DataFormatError, NotRecorded

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MINIMAL = """\
version=2
cohomology d=2 cover=1 k=2 group=Z gens=tau
"""


class TestShippedData:
    def test_loads_and_validates(self):
        data = load_data()
        assert data.version == 2
        assert len(data.cohomology) == 42  # seven rows, degrees 0..5
        assert len(data.arrows) == 20
        assert set(data.hz) == set(range(7))

    def test_every_arrow_cites_its_provenance(self):
        allowed = {"diagram", "names", "square", "forced", "unit"}
        for arrow in load_data().arrows:
            assert arrow.provenance in allowed

    def test_catalog_records(self):
        data = load_data()
        assert {"S1", "S2", "S4", "T4", "CP2", "K3"} <= set(data.manifolds)
        assert set(data.families) == {"Sigma_g", "S2xSigma_g"}


def tampered(old, new):
    text = default_data_path().read_text()
    modified = text.replace(old, new)
    assert modified != text
    return modified


class TestArrowsAtLoad:
    """Each arrow's target dimension, and each dim arrow against the ring
    restriction, is checked when the file loads."""

    @pytest.mark.parametrize("old,new", [
        ("map=p1u:-1*c^2u", "map=p1u:1*c^2u"),                 # p1 -> +c^2
        ("map=eu:0;p1u:1*p1u", "map=eu:1*p1u;p1u:1*p1u"),       # e survives
        ("d=3 to=2 k=0 prov=names", "d=3 to=1 k=0 prov=names"),  # skips d=2
    ])
    def test_tampered_dim_arrow_exits_two(self, capsys, monkeypatch, tmp_path, old, new):
        modified = tampered(old, new)
        with pytest.raises(DataFormatError):
            parse_data(modified)
        path = tmp_path / "tampered.txt"
        path.write_text(modified)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        assert main(["table", "hz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("old,new", [
        ("kind=covdim d=4 to=3 k=4", "kind=covdim d=4 to=2 k=4"),
        ("kind=cover d=3 k=4 prov=diagram", "kind=cover d=3 to=2 k=4 prov=diagram"),
    ])
    def test_every_arrow_names_the_target_its_lookup_uses(self, old, new):
        # both would load and then be unreachable through cover_map
        with pytest.raises(DataFormatError, match="cannot go to d=2"):
            parse_data(tampered(old, new))

    def test_torsion_coefficients_compare_modulo_the_order(self):
        # W3u generates Z/2, so 3*W3u is W3u
        data = parse_data(tampered("map=W3u:1*W3u", "map=W3u:3*W3u"))
        assert data.arrow("dim", 4, 3, 3).image_of("W3u") == {"W3u": 3}
        with pytest.raises(DataFormatError, match="W3u"):
            parse_data(tampered("map=W3u:1*W3u", "map=W3u:2*W3u"))


class TestRepeatedKeys:
    """A record whose key an earlier record of its type already holds is
    refused, whatever the order of its fields."""

    @pytest.mark.parametrize("record", [
        "cohomology d=2 cover=1 k=2 group=Z/3 gens=tau:3",
        "cohomology d=2 cover=1 k=2 group=Z gens=tau",      # a verbatim repeat
        "homotopy k=0 d=2 group=Z",
        "hz k=0 group=Z/2",
        "arrow kind=cover d=3 k=4 prov=diagram map=p1u:5*rho",
        "arrow to=3 kind=dim d=4 k=0 prov=names map=u:1*u",
        "manifold name=S2 dim=2 euler=2",
        "family name=Sigma_g dim=2 euler0=2 eulerg=-2",
    ])
    def test_repeated_key_is_refused(self, record):
        text = default_data_path().read_text() + record + "\n"
        with pytest.raises(DataFormatError, match="came earlier"):
            parse_data(text)


class TestRepeatedFields:
    """A field named twice in one record, and a second or non-integer
    version line, are refused naming the line, in process and through
    MTSPEC_DATA."""

    @pytest.mark.parametrize("old,new", [
        # would load as the d=2 row, which the line also spells d=3
        ("cohomology d=2 cover=1 k=2 group=Z gens=tau",
         "cohomology d=3 cover=1 k=2 d=2 group=Z gens=tau"),
        # would load with euler 4
        ("manifold name=S2 dim=2 euler=2", "manifold name=S2 dim=2 euler=2 euler=4"),
        ("version=2", "version=2\nversion=3"),    # would load as version 3
        ("version=2", "version=abc"),             # escaped as a bare ValueError
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
            path.write_text(default_data_path().read_text()
                            + comments * (MAX_DATA_BYTES // len(comments)))
        elif kind == "non-utf8":  # 0xff starts no UTF-8 sequence
            path = tmp_path / "latin.txt"
            path.write_bytes(b"version=2\n\xff\n")
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
            parse_data("cohomology d=2 cover=1 k=2 group=Z gens=tau\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(DataFormatError):
            parse_data(MINIMAL + "mystery a=1\n")

    def test_generator_list_must_realize_group(self):
        with pytest.raises(DataFormatError, match="does not realize the group"):
            parse_data("version=2\ncohomology d=2 cover=1 k=2 group=Z gens=tau,x\n")

    def test_uncovered_row_must_match_the_ring(self):
        # the uncovered rows are the ring's pieces themselves, in any file
        for text in (MINIMAL, default_data_path().read_text()):
            data = parse_data(text)
            for d in (1, 2, 3, 4):
                for k in range(MAX_TABLE_DEGREE + 1):
                    assert data.entry(d, 0, k) is thom_module_piece(d, k), (d, k)

    @pytest.mark.parametrize("record,remedy", [
        ("cohomology d=2 cover=0 k=0 group=Z gens=u", "delete the cover=0 row"),
        ("manifold name=CP2 dim=4 euler=3 signature=1 p1=3", "delete the p1= field"),
        ("family name=S2xSigma_g dim=4 euler0=4 eulerg=-4 p1=0", "delete the p1= field"),
    ], ids=["cover-row", "manifold-p1", "family-p1"])
    def test_computed_fact_is_refused(self, record, remedy):
        # a version-1 file recorded these; each now only repeats the code
        with pytest.raises(DataFormatError) as info:
            parse_data(MINIMAL + record + "\n")
        assert repr(record) in str(info.value) and remedy in str(info.value)

    def test_manifold_record_must_be_a_manifold(self):
        with pytest.raises(DataFormatError, match="name=X"):
            parse_data(MINIMAL + "manifold name=X dim=3 euler=2\n")

    @pytest.mark.parametrize("record", [
        "family name=Sigma_g dim=2 euler0=2 eulerg=-1",   # Sigma_1 has odd euler
        "family name=Sigma_g dim=2 euler0=1 eulerg=-2",   # Sigma_0 has odd euler
        "family name=Sigma_g dim=3 euler0=0 eulerg=2",    # odd dimension, euler 2g
        "family name=Sigma dim=2 euler0=2 eulerg=-2",     # no parameter slot
    ])
    def test_family_record_must_yield_manifolds(self, record):
        with pytest.raises(DataFormatError, match="family name=Sigma"):
            parse_data(MINIMAL + record + "\n")

    def test_four_manifold_record_must_satisfy_hirzebruch(self):
        # p1 = 3 * signature is computed, so no record can break it
        data = parse_data(MINIMAL + "manifold name=X4 dim=4 euler=4 signature=2\n"
                          "family name=SxS_g dim=4 euler0=4 eulerg=-4 signature=2\n")
        assert data.manifolds["X4"].p1_number == 6
        assert data.families["SxS_g"].member("SxS_3", 3).p1_number == 6

    def test_catalog_records_are_manifold_classes(self):
        data = parse_data(MINIMAL + "manifold name=CP2 dim=4 euler=3 signature=1\n")
        assert data.manifolds["CP2"] == ManifoldClass("CP2", 4, 3, 1)
        assert data.manifolds["CP2"].p1_number == 3

    def test_ill_defined_arrow_rejected(self):
        bad = (
            "version=2\n"
            "cohomology d=3 cover=1 k=3 group=Z gens=x\n"
            "arrow kind=cover d=3 k=3 prov=diagram map=W3u:1*x\n"
        )
        with pytest.raises(DataFormatError, match="not well-defined"):
            parse_data(bad)

    def test_foreign_arrow_is_not_recorded(self):
        arrow = load_data().arrow("cover", 4, 4)
        with pytest.raises(NotRecorded):
            arrow.to_group_hom(parse_data(MINIMAL))

    def test_bad_combo_rejected(self):
        bad = (
            "version=2\n"
            "cohomology d=2 cover=1 k=0 group=Z gens=t\n"
            "arrow kind=cover d=2 k=0 prov=diagram map=u:t+t\n"
        )
        with pytest.raises(DataFormatError):
            parse_data(bad)

    @pytest.mark.parametrize("record", [
        "cohomology d=2 cover=0 k=0 group=Z gens=u junk",         # a field without =
        "arrow kind=cover d=2 k=0 prov=diagram map=u:t+t",        # a bad combo
        "arrow kind=cover d=2 k=0 prov=diagram map=u",            # a map item without :
    ])
    def test_field_errors_name_the_line(self, record):
        with pytest.raises(DataFormatError, match=re.escape(repr(record))):
            parse_data(MINIMAL + record + "\n")

    def test_long_digit_run_fails_fast(self):
        bad = (
            "version=2\n"
            "cohomology d=2 cover=1 k=0 group=Z gens=t\n"
            "arrow kind=cover d=2 k=0 prov=diagram map=u:" + "1" * 100_000 + "\n"
        )
        start = time.perf_counter()
        with pytest.raises(DataFormatError, match="cannot parse combo"):
            parse_data(bad)
        assert time.perf_counter() - start < 1
