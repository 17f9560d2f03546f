"""The modules agree on the domain that the package declares once: the
dimensions ``mtspec.DIMENSIONS``, and the degrees of the tables,
``certified.TABLE_DEGREES`` and ``certified.HZ_DEGREES``."""

import json
import pathlib
from types import SimpleNamespace

import pytest

from mtspec import DIMENSIONS, certified, charclasses, classify, tftlab
from mtspec.cli import main
from mtspec.spectra import _les_layout

SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"


def _manifold(d):
    return tftlab.ManifoldClass("M", d, 0, kr=1 if d % 4 == 1 else None)


def _with_homotopy_row(d):
    """The shipped file with `homotopy d=<d> k=0 group=Z` as its one such row."""
    row = "homotopy d=%d k=0 group=Z" % d
    lines = [line for line in SHIPPED.read_text().splitlines() if line != row]
    return "\n".join(lines + [row]) + "\n"


# each site that reads the dimensions, as a call on d that returns False or
# raises (an MtspecError is a ValueError) when it refuses d
SITES = {
    "SpectrumId": certified.SpectrumId,
    "ManifoldClass": _manifold,
    "vf_invariant": lambda d: tftlab.vf_invariant(
        d, SimpleNamespace(name="M", dim=d, euler=0, signature=0, kr=1)),
    "classify": lambda d: classify.classify(d, 1),
    "thom_module_piece": lambda d: charclasses.thom_module_piece(d, 0),
    "homotopy row": lambda d: certified.parse_data(_with_homotopy_row(d)),
    "table homotopy": lambda d: main(["table", "homotopy", "--d", str(d)]) == 0,
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("d", sorted({0, 5, *DIMENSIONS}))
def test_each_site_accepts_exactly_the_declared_dimensions(monkeypatch, site, d):
    monkeypatch.delenv("MTSPEC_DATA", raising=False)
    try:
        accepted = SITES[site](d) is not False
    except ValueError:
        accepted = False
    assert accepted == (d in DIMENSIONS)


def test_the_tables_have_the_declared_degrees(capsys, monkeypatch):
    monkeypatch.delenv("MTSPEC_DATA", raising=False)
    for argv, degrees in ((["table", "hz"], certified.HZ_DEGREES),
                          (["table", "cohomology", "--d", "2"], certified.TABLE_DEGREES)):
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert [row["k"] for row in rows] == list(degrees)
    for d in certified.COVER_DIMENSIONS:
        _, lookups = _les_layout(d)
        assert [k for spectrum, k in lookups if spectrum is None] == list(certified.HZ_DEGREES)
