"""Every public name of the package has a caller inside the package.

A public top-level function, class or UPPER_CASE constant of
``src/mtspec``, or a public method or property of a public class, that
nothing in ``src/mtspec`` refers to, apart from its own definition, is
API that exists only for the tests.  A method or property counts as read
where an attribute of its name is read, on any object, so two methods of
one name hide each other.  The allow-list names the exceptions, each with
its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mtspec"

ALLOWED = {
    "prove": "the proof of a data file: the tests and the tamper sweep call "
             "it, and the planned load gate for a file other than the shipped "
             "one and `mtspec verify` will",
    "IntMatrix.to_rows": "the benchmark's Smith-form check reads it, until "
                         "the benchmark reads the rows itself",
    "IntMatrix.entries": "the benchmark's tracer reads it for the size of a "
                         "Smith form's entries, until it reads the rows itself",
    "units_kernel": "the benchmark's snf-large workload times it; the "
                    "package reads a restriction kernel off one Smith form",
    "ExactComplex.root": "the benchmark's oracles read a value's phase as a "
                         "Fraction; the package reads the integer pair",
}


def _public_definitions(tree):
    """(qualified name, reference key, node) for each public top-level def,
    class and constant, and for each public method and property of a
    public class, whose key is its name read as an attribute."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield "%s.%s" % (node.name, member.name), "." + member.name, member
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper() \
                        and not target.id.startswith("_"):
                    yield target.id, target.id, node


def _references(node):
    """Identifiers read anywhere under the node, with their counts; an
    attribute read counts under its name and under "." + its name."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
            names["." + sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _unreferenced():
    """module.name or module.Class.name of each public definition read
    nowhere outside itself."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualified, key, node in _public_definitions(tree):
            if everywhere[key] == _references(node)[key]:
                found.append("%s.%s" % (module, qualified))
    return found


def test_every_public_name_has_a_caller_in_the_package():
    missing = [q for q in _unreferenced() if q.split(".", 1)[1] not in ALLOWED]
    assert missing == [], "public names only the tests use: %s" % ", ".join(missing)


def test_the_allow_list_is_still_needed():
    unreferenced = {q.split(".", 1)[1] for q in _unreferenced()}
    assert set(ALLOWED) <= unreferenced
