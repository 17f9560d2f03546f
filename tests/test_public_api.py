"""Every public name of the package has a caller inside the package.

A public top-level function, class or UPPER_CASE constant of
``src/mtspec`` that nothing in ``src/mtspec`` refers to, apart from its own
definition, is API that exists only for the tests.  The allow-list names
the exceptions, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mtspec"

ALLOWED = {
    "verify_les": "verify-data entry point: checks the long exact sequence "
                  "of any data file (benchmark workload; the planned "
                  "`mtspec verify` will call it)",
    "default_constraints": "verify-data entry point: the constraints each "
                           "cover derivation runs under",
    "derive_cover_cohomology": "verify-data entry point: re-derives each "
                               "cover entry of any data file",
}


def _public_definitions(tree):
    """(name, node) for each public top-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper() \
                        and not target.id.startswith("_"):
                    yield target.id, node


def _references(node):
    """Identifiers read anywhere under the node, with their counts."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _unreferenced():
    """module.name of each public definition read nowhere outside itself."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return ["%s.%s" % (module, name)
            for module, tree in trees.items()
            for name, node in _public_definitions(tree)
            if everywhere[name] == _references(node)[name]]


def test_every_public_name_has_a_caller_in_the_package():
    missing = [q for q in _unreferenced() if q.split(".")[1] not in ALLOWED]
    assert missing == [], "public names only the tests use: %s" % ", ".join(missing)


def test_the_allow_list_is_still_needed():
    unreferenced = {q.split(".")[1] for q in _unreferenced()}
    assert set(ALLOWED) <= unreferenced
