"""Every single-row edit of the shipped data file is refused by the
consistency proof, or listed here with the reason no check refuses it.

The edits come from the record grammar, one row at a time:

- each ``homotopy`` and ``hz`` group becomes each other group among 0, Z,
  Z/2, Z/3, Z^2, Z/6 and Z^3;
- each ``cohomology`` row gets each other generator list among none,
  ``x``, ``x:2``, ``x:3`` and ``x,y``;
- each arrow coefficient moves by -1 and +1.

The file records no manifold: rules give every catalog name.

An edited file is refused by ``parse_data`` or by the first check of
``spectra.prove`` that does not pass: ``verify_les`` for d = 2..4, one of
the 18 cover derivations (an ambiguous one is a refusal too) or the
certificate.  The list of passing edits may shrink freely as checks are
added.  It grows only with a stated reason, and never stands in for a
check.
"""

import pathlib
import re
from collections import Counter

import pytest

from mtspec import certified
from mtspec.errors import DataFormatError
from mtspec.spectra import prove

GROUPS = ("0", "Z", "Z/2", "Z/3", "Z^2", "Z/6", "Z^3")
GENS = (None, "x", "x:2", "x:3", "x,y")
SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"


def _replaced(line, match, text):
    return line[:match.start(1)] + text + line[match.end(1):]


def row_edits(line):
    """The edited texts of one row of the data file, in a fixed order."""
    kind = line.split(" ", 1)[0]
    if kind in ("homotopy", "hz"):
        match = re.search(r"group=(\S+)", line)
        return [_replaced(line, match, group) for group in GROUPS if group != match[1]]
    if kind == "cohomology":
        match = re.search(r" gens=(\S+)", line)
        base = line[:match.start()] if match else line
        current = match[1] if match else None
        return [base if gens is None else "%s gens=%s" % (base, gens)
                for gens in GENS if gens != current]
    if kind == "arrow":
        return [_replaced(line, match, str(int(match[1]) + step))
                for match in re.finditer(r"(\d+)\*", line) for step in (-1, 1)]
    return []


def single_row_edits(text):
    """{edited row: the whole edited file} for every row of the file."""
    lines = text.split("\n")
    edits = {}
    for i, line in enumerate(lines):
        for edited in row_edits(line):
            assert edited not in edits
            edits[edited] = "\n".join(lines[:i] + [edited] + lines[i + 1:])
    return edits


def refusing_step(text):
    """The step that refuses the file, or None: "parse_data" when it does
    not load, else the step of the first check of ``prove`` that does not
    pass, "ambiguous derivation" for a derivation that leaves a choice."""
    try:
        data = certified.parse_data(text)
    except DataFormatError:
        return "parse_data"
    failure = prove(data).failure
    if failure is None:
        return None
    return failure.step if failure.verdict == "refused" else "ambiguous " + failure.step


# the edits the whole proof accepts, by the reason no check refuses them
PASSING = {
    "the proof covers d = 2..4, and nothing checks the d = 1 top row":
        ["homotopy d=1 k=1 group=%s" % group
         for group in ("0", "Z", "Z/3", "Z^2", "Z/6", "Z^3")],
    "a torsion first homotopy group of the cover: the derivation reads only "
    "its free part, the dual of homology in that degree, and no constraint "
    "compares its Ext in the next degree":
        ["homotopy d=%d k=%d group=%s" % (d, k, group)
         for d, k in ((2, 1), (3, 3)) for group in ("Z/2", "Z/3", "Z/6")],
    "the sigma coefficient of eu in the d = 4 cover arrow: at 0 or 2 the "
    "image still has cokernel Z/6 and the derivation still gives Z^2; only "
    "an integrality check of the pairings would refuse these":
        ["arrow kind=cover d=4 k=4 map=eu:2*psi-0*sigma;p1u:3*sigma",
         "arrow kind=cover d=4 k=4 map=eu:2*psi-2*sigma;p1u:3*sigma"],
}

# how many edits each step refuses first.  A weaker exactness check would
# pass some of verify_les's edits on to a later step; a check added before
# a step takes edits from it, and then these are pinned again on purpose
REFUSED_BY = {"parse_data": 58, "verify_les": 92, "derivation": 33,
              "ambiguous derivation": 15, "certificate": 4}


@pytest.fixture(scope="module")
def verdicts():
    text = SHIPPED.read_text()
    return {edited: refusing_step(whole)
            for edited, whole in single_row_edits(text).items()}


def test_the_shipped_file_passes():
    assert refusing_step(SHIPPED.read_text()) is None


def test_the_grammar_gives_every_row_its_edits(verdicts):
    kinds = Counter(edited.split(" ", 1)[0] for edited in verdicts)
    # 14 homotopy and 7 hz rows, 6 other groups each; 14 zero cohomology
    # rows with 4 other lists and 4 named ones with 5; 7 arrow coefficients
    assert kinds == {"homotopy": 84, "hz": 42, "cohomology": 76, "arrow": 14}


def test_every_passing_edit_is_listed_with_its_reason(verdicts):
    passing = sorted(edited for edited, step in verdicts.items() if step is None)
    listed = sorted(edited for edits in PASSING.values() for edited in edits)
    assert passing == listed


def test_each_step_refuses_its_share(verdicts):
    assert Counter(step for step in verdicts.values() if step) == REFUSED_BY
