"""Each public call resolves the data file once and reads only that data.

A counting wrapper around ``certified.load_data`` sees every lookup, since
every module calls it through ``certified``.  With ``data`` omitted a call
makes exactly one; with an explicit ``data`` it makes none, and every
answer comes from that data even when it differs from the shipped file.
A restriction likewise classifies each of its two levels once.
"""

import importlib

import pytest

from mtspec import certified
from mtspec.certified import SpectrumId, default_data_path, parse_data
from mtspec.classify import (TheoryParams, classify, gilmer_masbaum_report,
                             restrict_theory, restriction_kernel)
from mtspec.cli import main
from mtspec.exactnum import ExactComplex
from mtspec.tftlab import (SurfaceBordism, euler_theory_value, frobenius_closed_value,
                           invertible_4d_value, is_vf_nullbordant, parse_formal_sum,
                           parse_manifold, standard_manifolds, vf_invariant)


def _bordism(data):
    total = parse_formal_sum("K3 + 2*S4", standard_manifolds(data))
    return vf_invariant(4, total), is_vf_nullbordant(4, total)


# one call of each operation kind of the api-mix benchmark workload, with
# arguments that reach the most lookups of their kind
API_CALLS = {
    "cohomology": lambda data: certified.cohomology(SpectrumId(4, 0), 4, data),
    "cover_cohomology": lambda data: certified.cohomology(SpectrumId(4, 1), 4, data),
    "classify": lambda data: classify(4, 1, data),
    "restrict": lambda data: restrict_theory(4, 4, 3, TheoryParams.of([2, 3]), data),
    "kernel": lambda data: restriction_kernel(4, 4, 3, data),
    "grid": lambda data: certified.grid_equivalence(4, 1, 3, data),
    "bordism": _bordism,
    "euler": lambda data: euler_theory_value(
        3, SurfaceBordism(parse_manifold("Sigma_2#S2", standard_manifolds(data)).euler)),
    "frobenius": lambda data: frobenius_closed_value(
        4, (2 - parse_manifold("Sigma_2#Sigma_1", standard_manifolds(data)).euler) // 2),
    "four_d": lambda data: invertible_4d_value(
        2, 3, parse_manifold("K3#CP2 + S4", standard_manifolds(data))),
    "certificate": gilmer_masbaum_report,
}

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
        assert len(lookups) == 1

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
    text = default_data_path().read_text()
    for old, new in [("gens=tau", "gens=theta"), ("cu:2*tau", "cu:2*theta"),
                     ("p1u:3*sigma", "p1u:5*sigma"), ("map=p1u:6*rho", "map=p1u:10*rho")]:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return parse_data(text + "manifold name=X4 dim=4 euler=4 signature=2 p1=6\n")


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
        assert standard_manifolds(data).get("X4").signature == 2
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
