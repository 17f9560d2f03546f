"""Each public call resolves the data file once and reads only that data.

A counting wrapper around ``certified.load_data`` sees every lookup, since
every module calls it through ``certified``.  With ``data`` omitted a call
that reads data makes exactly one; with an explicit ``data`` it makes
none, and every answer comes from that data even when it differs from the
shipped file.  A call that reads no data makes no lookup: the manifold
catalog is code, so parsing and evaluating a manifold reads no file.
A restriction likewise classifies each of its two levels once.  A
cached lookup costs one ``os.stat`` and resolves no path, every path that
names the shipped file serves the same CertifiedData, and a file that was
rewritten, replaced or retargeted since it was read is read again.
"""

import importlib
import os
import pathlib

import pytest

from mtspec import certified
from mtspec.certified import SpectrumId, parse_data
from mtspec.classify import (TheoryParams, classify, gilmer_masbaum_report,
                             restrict_theory, restriction_kernel)
from mtspec.cli import main
from mtspec.errors import DataFormatError
from mtspec.exactnum import ExactComplex
from mtspec.tftlab import (SurfaceBordism, euler_theory_value, frobenius_closed_value,
                           invertible_4d_value, is_vf_nullbordant, parse_formal_sum,
                           parse_manifold, standard_manifolds, vf_invariant)

SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"


def _bordism(data):
    total = parse_formal_sum("K3 + 2*S4", standard_manifolds())
    return vf_invariant(4, total), is_vf_nullbordant(4, total)


# one call of each operation kind of the api-mix benchmark workload, with
# arguments that reach the most lookups of their kind; the catalog kinds
# take the data only to keep one signature, and read none
API_CALLS = {
    "cohomology": lambda data: certified.cohomology(SpectrumId(4, 0), 4, data),
    "cover_cohomology": lambda data: certified.cohomology(SpectrumId(4, 1), 4, data),
    "classify": lambda data: classify(4, 1, data),
    "restrict": lambda data: restrict_theory(4, 4, 3, TheoryParams.of([2, 3]), data),
    "kernel": lambda data: restriction_kernel(4, 4, 3, data),
    "grid": lambda data: certified.grid_equivalence(4, 1, 3, data),
    "bordism": _bordism,
    "euler": lambda data: euler_theory_value(
        3, SurfaceBordism(parse_manifold("Sigma_2#S2", standard_manifolds()).euler)),
    "frobenius": lambda data: frobenius_closed_value(
        4, (2 - parse_manifold("Sigma_2#Sigma_1", standard_manifolds()).euler) // 2),
    "four_d": lambda data: invertible_4d_value(
        2, 3, parse_manifold("K3#CP2 + S4", standard_manifolds())),
    "certificate": gilmer_masbaum_report,
}
CATALOG_KINDS = {"bordism", "euler", "frobenius", "four_d"}  # they read no data

CLI_CALLS = [
    ["table", "hz"],
    ["table", "cohomology", "--d", "4", "--cover", "2"],
    ["classify", "--d", "4", "--n", "1"],
    ["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
    ["kernel", "--d", "4", "--from", "4", "--to", "3"],
    ["eval", "four_d", "--l1", "2", "--l2", "3", "--manifold", "CP2"],
    ["bordism", "--d", "4", "--sum", "K3 + 2*S4"],
    ["gilmer-masbaum"],
]


@pytest.fixture
def lookups(monkeypatch):
    """The paths of every load_data call made after the fixture is set up."""
    monkeypatch.delenv(certified.ENV_DATA_PATH, raising=False)
    calls = []
    original = certified.load_data

    def counting(path=None):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(certified, "load_data", counting)
    return calls


class TestOneLookupPerCall:
    @pytest.mark.parametrize("kind", sorted(API_CALLS))
    def test_api_call_without_data(self, lookups, kind):
        API_CALLS[kind](None)
        assert len(lookups) == (0 if kind in CATALOG_KINDS else 1)

    @pytest.mark.parametrize("kind", sorted(API_CALLS))
    def test_api_call_with_data(self, lookups, kind):
        data = certified.load_data()
        lookups.clear()
        API_CALLS[kind](data)
        assert lookups == []

    @pytest.mark.parametrize("argv", CLI_CALLS, ids=" ".join)
    def test_cli_subcommand(self, lookups, capsys, argv):
        assert main(argv) == 0
        capsys.readouterr()
        assert len(lookups) == 1


def variant_data():
    """The shipped file with four served answers changed; it still loads."""
    text = SHIPPED.read_text()
    for old, new in [("gens=tau", "gens=theta"), ("cu:2*tau", "cu:2*theta"),
                     ("p1u:3*sigma", "p1u:5*sigma"), ("map=p1u:6*rho", "map=p1u:10*rho")]:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return parse_data(text)


class TestExplicitData:
    """Each answer below differs on the shipped file, so a helper that
    drops the data it was given answers from the shipped file and fails."""

    def test_answers_come_from_the_data_given(self, lookups):
        data = variant_data()
        assert classify(2, 1, data).basis_names == ("theta",)
        out = restrict_theory(4, 4, 3, TheoryParams.of([2, 3]), data)
        assert tuple(out) == (ExactComplex.of(4), ExactComplex.of("243/2"))
        assert str(restriction_kernel(4, 4, 3, data).group) == "Z/10"
        assert gilmer_masbaum_report(data).atiyah_class.rho_multiple == 10
        assert lookups == []


class TestOneClassificationPerLevel:
    """A counting wrapper around ``classify.classify``, which the
    restriction calls reach as a module global."""

    @pytest.mark.parametrize("kind", ["restrict", "kernel"])
    def test_each_level_is_classified_once(self, monkeypatch, kind):
        module = importlib.import_module("mtspec.classify")
        data = certified.load_data()
        calls = []
        original = module.classify

        def counting(d, n, data=None):
            calls.append((d, n))
            return original(d, n, data)

        monkeypatch.setattr(module, "classify", counting)
        API_CALLS[kind](data)
        assert sorted(calls) == [(4, 3), (4, 4)]


def count_path_calls(monkeypatch):
    """The names of the ``os.stat``, ``os.path.realpath`` and
    ``Path.resolve`` calls made from now on; ``load_data`` reaches each
    through its module."""
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(os, "stat")
    counting(os.path, "realpath")
    counting(pathlib.Path, "resolve")
    return calls


class TestOneStatPerLookup:
    """A cache hit costs one ``os.stat`` and resolves no path; a miss
    resolves the path once, to name the file it read."""

    @pytest.mark.parametrize("source", ["default", "environment"])
    def test_a_hit_is_one_stat(self, monkeypatch, tmp_path, source):
        monkeypatch.delenv(certified.ENV_DATA_PATH, raising=False)
        if source == "environment":
            copy = tmp_path / "copy.txt"
            copy.write_text(SHIPPED.read_text())
            monkeypatch.setenv(certified.ENV_DATA_PATH, str(copy))
        data = certified.load_data()
        calls = count_path_calls(monkeypatch)
        assert certified.load_data() is data
        assert calls == ["stat"]

    def test_a_miss_resolves_once(self, monkeypatch, tmp_path):
        copy = tmp_path / "copy.txt"
        copy.write_text(SHIPPED.read_text())
        monkeypatch.setenv(certified.ENV_DATA_PATH, str(copy))
        calls = count_path_calls(monkeypatch)
        certified.load_data()
        assert calls.count("realpath") == 1 and "resolve" not in calls


class TestSameFileSameData:
    """A path that names the shipped file by another route is a cache hit."""

    @pytest.mark.parametrize("route", ["symlink", "relative"])
    def test_same_object_and_output(self, monkeypatch, capsys, tmp_path, route):
        monkeypatch.delenv(certified.ENV_DATA_PATH, raising=False)
        shipped = certified.load_data()
        assert main(["table", "hz"]) == 0
        expected = capsys.readouterr().out
        if route == "symlink":
            link = tmp_path / "link.txt"
            link.symlink_to(SHIPPED)
            monkeypatch.setenv(certified.ENV_DATA_PATH, str(link))
        else:
            monkeypatch.chdir(tmp_path)
            monkeypatch.setenv(certified.ENV_DATA_PATH,
                               os.path.relpath(SHIPPED, tmp_path))
        assert certified.load_data() is shipped
        assert main(["table", "hz"]) == 0
        assert capsys.readouterr().out == expected


def renamed(text, name):
    """The data text with the generator tau of the (d=2, cover=1, k=2) row
    renamed, in the row and in the cover arrow that names it."""
    return text.replace("gens=tau", "gens=" + name).replace("cu:2*tau", "cu:2*" + name)


def rewrite(path, text):
    """Rewrite a file in place and move its mtime a second on, so that the
    test does not depend on the file system's timestamp granularity."""
    stamp = os.stat(path).st_mtime_ns + 10**9
    path.write_text(text)
    os.utime(path, ns=(stamp, stamp))


class TestChangedFile:
    """A file rewritten, replaced or retargeted between calls is read again."""

    @pytest.fixture
    def copy(self, tmp_path):
        path = tmp_path / "copy.txt"
        path.write_text(SHIPPED.read_text())
        return path

    @pytest.mark.parametrize("name", ["theta", "tao"])  # a new size, the same size
    def test_in_place_rewrite_is_reloaded(self, copy, name):
        assert classify(2, 1, certified.load_data(copy)).basis_names == ("tau",)
        inode = os.stat(copy).st_ino
        rewrite(copy, renamed(copy.read_text(), name))
        assert os.stat(copy).st_ino == inode
        assert classify(2, 1, certified.load_data(copy)).basis_names == (name,)

    def test_invalid_rewrite_raises(self, copy):
        certified.load_data(copy)
        # the cover arrow still names tau, which the row no longer has
        rewrite(copy, copy.read_text().replace("gens=tau", "gens=theta"))
        with pytest.raises(DataFormatError):
            certified.load_data(copy)

    def test_replaced_file_is_served_in_the_old_ones_place(self, copy, tmp_path):
        certified.load_data(copy)
        entries = len(certified._CACHE)
        new = tmp_path / "new.txt"
        new.write_text(renamed(copy.read_text(), "theta"))
        os.replace(new, copy)
        assert classify(2, 1, certified.load_data(copy)).basis_names == ("theta",)
        assert len(certified._CACHE) == entries

    def test_retargeted_symlink_serves_each_copy(self, copy, tmp_path):
        other = tmp_path / "other.txt"
        other.write_text(renamed(copy.read_text(), "theta"))
        link = tmp_path / "link.txt"
        served = []
        for target in [copy, other, copy]:
            staged = tmp_path / "staged.txt"
            staged.symlink_to(target)
            os.replace(staged, link)
            served.append(certified.load_data(link))
        assert [classify(2, 1, data).basis_names for data in served] == [
            ("tau",), ("theta",), ("tau",)]
        assert served[2] is served[0]
