"""The error contract, checked directly and by fuzzing.

An ``MtspecError`` refuses the input and a ``DataFormatError`` the data
file; ``cli.main`` turns both into exit 2 with one ``error:`` line.  Any
other exception is an internal failure: exit 3 with one ``internal
consistency failure:`` line.  So each parser either answers or raises
``MtspecError``, ``parse_data`` raises only ``DataFormatError``, and on
the shipped data ``cli.main`` returns 0 or 2 and never raises.
"""

import contextlib
import io
import pathlib
import time
import types

import pytest

from mtspec import certified, cli, errors
from mtspec.abelian import FgAbGroup, GroupHom, IntMatrix
from mtspec.certified import MAX_GROUP_GENERATORS, CertifiedData, SpectrumId, parse_data
from mtspec.charclasses import CohomologyEntry
from mtspec.errors import DataFormatError, InternalCheckError, MtspecError
from mtspec.exactnum import ExactComplex, parse_exact
from mtspec.tftlab import (MAX_EXPRESSION_TERMS, RULED_MANIFOLDS, ManifoldClass,
                           parse_formal_sum, parse_manifold, standard_manifolds)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = standard_manifolds()
SHIPPED = pathlib.Path(certified.__file__).parent / "data" / "certified_data.txt"
SHIPPED_LINES = SHIPPED.read_text(encoding="utf-8").splitlines()

# bounded and repeatable; a deadline of one second per example catches a
# parser gone quadratic or backtracking on the long runs below.  Each test
# also runs the refusals it must cover as explicit examples, which a
# bounded random search may miss.
FUZZ = hypothesis.settings(max_examples=150, deadline=1000, derandomize=True,
                           database=None)
MANY_DIGITS = "7" * 5000  # more than int() converts by default


@pytest.fixture(autouse=True, scope="module")
def shipped_data():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MTSPEC_DATA", raising=False)
        yield


def answers_or_refuses(parse, *args):
    """What parse returns, or None when it raises MtspecError; any other
    exception escapes and fails the test."""
    try:
        return parse(*args)
    except MtspecError:
        return None


# ---------------------------------------------------------------------------
# the three kinds, and what cli.main does with each


def test_three_kinds_of_error():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"MtspecError", "DataFormatError", "InternalCheckError"}
    assert issubclass(MtspecError, ValueError)
    assert issubclass(DataFormatError, MtspecError)
    assert not issubclass(InternalCheckError, MtspecError)


def test_any_other_exception_exits_three_in_one_line(monkeypatch, capsys):
    def broken(args, data):
        raise ValueError("boom")

    monkeypatch.setitem(cli._HANDLERS, "gilmer-masbaum", broken)
    assert cli.main(["gilmer-masbaum"]) == 3
    assert capsys.readouterr() == ("", "internal consistency failure: boom\n")


def test_an_operating_system_error_reaches_the_entry_point(monkeypatch):
    def broken(args, data):
        raise BrokenPipeError("gone")

    monkeypatch.setitem(cli._HANDLERS, "gilmer-masbaum", broken)
    with pytest.raises(BrokenPipeError):
        cli.main(["gilmer-masbaum"])


# ---------------------------------------------------------------------------
# strategies: near misses and hits of each input language


SPACE = st.sampled_from(["", " ", "\t", "  "])


def long_runs():
    """A token repeated thousands of times, then a tail that may fail."""
    return st.builds(lambda token, n, tail: token * n + tail,
                     st.sampled_from([" ", "1", "zeta", "2*", "-", "S2 + ", "#S2", "(", "+"]),
                     st.integers(1000, 5000), st.sampled_from(["", "!", "/", "x", "^"]))


def or_noise(strategy):
    """The strategy's texts, arbitrary short texts and long runs."""
    return st.one_of(strategy, st.text(max_size=20), long_runs())


def exact_literals():
    sign = st.sampled_from(["", "-", "+", "--"])
    rational = st.sampled_from(["", "0", "1", "2", "3/4", "1/0", "0/5", "007",
                                "99999999999999999999", MANY_DIGITS, "2/", "/3", "٣"])
    root = st.sampled_from(["", "zeta6", "ζ3", "*zeta4", "zeta0", "zeta1^-1", "zeta12^5",
                            "zeta6^", "zeta", "**zeta2", "zeta3^x", "zeta999999999999",
                            "zeta" + MANY_DIGITS, "ζ3²", "·ζ12¹¹", "·zeta4", "ζ0⁵", "ζ3⁻¹",
                            "ζ5^²", "··ζ2", "ζ2" + "⁹" * len(MANY_DIGITS)])
    return or_noise(st.tuples(SPACE, sign, SPACE, rational, SPACE, root, SPACE).map("".join))


MANIFOLD_NAMES = st.sampled_from(
    sorted(RULED_MANIFOLDS)
    + ["Sigma_0", "Sigma_3", "Sigma_99999999999", "S2xSigma_2", "Sigma_", "Sigma_-1",
       "Sigma_" + MANY_DIGITS, "Sigma_g", "RP7", "k3", ""])


def formal_sums():
    sign = st.sampled_from(["", "+", "-", "+-"])
    coeff = st.sampled_from(["", "2*", "(-2)*", "-3 *", "( 4 ) *", "0*", "2", "*", "(2*",
                             MANY_DIGITS + "*"])
    term = st.tuples(SPACE, sign, SPACE, coeff, SPACE, MANIFOLD_NAMES).map("".join)
    return or_noise(st.lists(term, max_size=6).map("".join))


def manifold_expressions():
    op = st.sampled_from(["#", "+", " # ", " + ", "##", ""])
    piece = st.tuples(MANIFOLD_NAMES, op).map("".join)
    return or_noise(st.lists(piece, min_size=1, max_size=5).map("".join))


# ---------------------------------------------------------------------------
# the parsers answer or raise MtspecError


@FUZZ
@hypothesis.given(exact_literals())
@hypothesis.example("0")
@hypothesis.example("1/0")
@hypothesis.example("zeta0")
@hypothesis.example(MANY_DIGITS)
def test_parse_exact_answers_or_refuses(text):
    value = answers_or_refuses(parse_exact, text)
    assert value is None or isinstance(value, ExactComplex)


@FUZZ
@hypothesis.given(formal_sums())
@hypothesis.example("")
@hypothesis.example("K3 K3")
@hypothesis.example("K3 + S2")
@hypothesis.example(MANY_DIGITS + "*K3")
def test_parse_formal_sum_answers_or_refuses(text):
    value = answers_or_refuses(parse_formal_sum, text, CATALOG)
    assert value is None or isinstance(value, ManifoldClass)


@FUZZ
@hypothesis.given(manifold_expressions())
@hypothesis.example("")
@hypothesis.example("S1#S1")
@hypothesis.example("Sigma_" + MANY_DIGITS)
def test_parse_manifold_answers_or_refuses(text):
    value = answers_or_refuses(parse_manifold, text, CATALOG)
    assert value is None or isinstance(value, ManifoldClass)


def chains_and_terms(n):
    """n catalog names of dimension 4, in chains of up to three joined by
    signed and weighted terms."""
    names = ["K3", "CP2", "S4"] * (n // 3) + ["S4"] * (n % 3)
    chains = ["#".join(names[i:i + 3]) for i in range(0, n, 3)]
    return chains[0] + "".join((" - 2*" if i % 2 else " + (-3)*") + chain
                               for i, chain in enumerate(chains[1:]))


# one grammar, read by both commands: a text of n catalog names, as terms,
# as one chain, and as chains joined by terms
TERM_BOUND_CASES = {
    "terms": lambda n: " + ".join(["S4"] * n),
    "chain": lambda n: "#".join(["S4"] * n),
    "chains-and-terms": chains_and_terms,
}
COMMANDS = {
    "bordism": lambda text: ["bordism", "--d", "4", "--sum", text],
    "eval": lambda text: ["eval", "four_d", "--l1", "zeta6", "--l2", "zeta4",
                          "--manifold", text],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(TERM_BOUND_CASES))
def test_an_expression_at_the_term_bound_is_read(case, command, capsys):
    text = TERM_BOUND_CASES[case](MAX_EXPRESSION_TERMS)
    assert isinstance(parse_formal_sum(text, CATALOG), ManifoldClass)
    assert cli.main(COMMANDS[command](text)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(TERM_BOUND_CASES))
def test_an_expression_past_the_term_bound_is_refused(case, command, capsys):
    text = TERM_BOUND_CASES[case](MAX_EXPRESSION_TERMS + 1)
    with pytest.raises(MtspecError, match=r"more than MAX_EXPRESSION_TERMS \(1000\) terms"):
        parse_formal_sum(text, CATALOG)
    assert cli.main(COMMANDS[command](text)) == 2
    assert capsys.readouterr() == (
        "", "error: the expression has more than MAX_EXPRESSION_TERMS (1000) terms\n")


@pytest.mark.parametrize("case", sorted(TERM_BOUND_CASES))
def test_the_name_past_the_bound_is_not_looked_up(case):
    looked_up = []

    def get(name):
        looked_up.append(name)
        return CATALOG.get(name)

    counting = types.SimpleNamespace(get=get)
    parse_formal_sum(TERM_BOUND_CASES[case](MAX_EXPRESSION_TERMS), counting)
    assert len(looked_up) == MAX_EXPRESSION_TERMS
    looked_up.clear()
    with pytest.raises(MtspecError, match="MAX_EXPRESSION_TERMS"):
        parse_formal_sum(TERM_BOUND_CASES[case](MAX_EXPRESSION_TERMS + 1), counting)
    assert len(looked_up) == MAX_EXPRESSION_TERMS


# ---------------------------------------------------------------------------
# parse_data loads a file or raises DataFormatError


RECORD_TYPES = ["cohomology", "homotopy", "hz", "arrow", "manifold", "family", "bogus"]
FIELD_VALUES = ["0", "1", "-1", "2", "5", "99999999999999999999", "", "x", "Z", "Z^2",
                "Z/2", "Z/0", "Z/1", "Z+Z/2", "tau", "tau:2", "u:1*u", "u:", "u:1*",
                "psi:1*rho;sigma:2*rho", "cover", "dim", "covdim", "unit", "zz", "=",
                "Sigma_g", "Sigma", "tau:2,x:3", "tau:1", "rho,rho", "tau,"]


@st.composite
def mutated_data(draw):
    """The shipped file with lines dropped or repeated elsewhere, fields
    dropped or given other values, and records given another type."""
    lines = list(SHIPPED_LINES)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "value", "drop-field", "retype"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            parts = lines[i].split(" ")
            j = draw(st.integers(0, len(parts) - 1))
            if action == "value":
                parts[j] = parts[j].split("=", 1)[0] + "=" + draw(st.sampled_from(FIELD_VALUES))
            elif action == "drop-field":
                del parts[j]
            else:
                parts[0] = draw(st.sampled_from(RECORD_TYPES))
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@FUZZ
@hypothesis.given(mutated_data())
def test_parse_data_loads_or_refuses_the_file(text):
    try:
        data = parse_data(text)
    except DataFormatError:
        return
    assert isinstance(data, CertifiedData)


def with_hz0_group(group):
    """The shipped file with another group in its hz k=0 row."""
    shipped = "\n".join(SHIPPED_LINES) + "\n"
    text = shipped.replace("\nhz k=0 group=Z\n", "\nhz k=0 group=%s\n" % group)
    assert text != shipped
    return text


OVERSIZED_GROUPS = {"Z^200000": "Z^200000", "1000 Z parts": "+".join(["Z"] * 1000),
                    "1000 Z/2 parts": "+".join(["Z/2"] * 1000),
                    "Z^-1000 and 1000 Z/2 parts": "+".join(["Z^-1000"] + ["Z/2"] * 1000)}


@pytest.mark.parametrize("group", OVERSIZED_GROUPS.values(), ids=OVERSIZED_GROUPS.keys())
def test_a_group_past_the_generator_bound_is_refused_at_once(group, tmp_path, monkeypatch,
                                                             capsys):
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match=r"^bad record 'hz k=0 group=Z[^']*': \d+ "
                                              r"generators, more than MAX_GROUP_GENERATORS "
                                              r"\(32\)$"):
        parse_data(with_hz0_group(group))
    assert time.perf_counter() - start < 1
    path = tmp_path / "data.txt"
    path.write_text(with_hz0_group(group), encoding="utf-8")
    monkeypatch.setenv("MTSPEC_DATA", str(path))
    assert cli.main(["table", "hz"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_a_group_at_the_generator_bound_loads():
    # an hz group must be cyclic and pi_0 is Z, so the bound is met in a
    # homotopy row of positive degree
    shipped = "\n".join(SHIPPED_LINES) + "\n"
    text = shipped.replace("\nhomotopy d=3 k=1 group=0\n",
                           "\nhomotopy d=3 k=1 group=Z^%d\n" % MAX_GROUP_GENERATORS)
    assert text != shipped
    assert parse_data(text).homotopy[(3, 1)] == FgAbGroup(MAX_GROUP_GENERATORS)


def with_cover_gens(count, order=""):
    """The shipped file with `count` generators in its zero d=3 cover row
    of degree 2, which no arrow touches."""
    shipped = "\n".join(SHIPPED_LINES) + "\n"
    gens = ",".join("g%d%s" % (i, order) for i in range(count))
    text = shipped.replace("\ncohomology d=3 cover=1 k=2\n",
                           "\ncohomology d=3 cover=1 k=2 gens=%s\n" % gens)
    assert text != shipped
    return text


@pytest.mark.parametrize("count,order", [(MAX_GROUP_GENERATORS + 1, ""),
                                         (MAX_GROUP_GENERATORS + 1, ":2"),
                                         (200_000, ":0")], ids=["33", "33-torsion", "200000"])
def test_a_generator_list_past_the_bound_is_refused_at_once(count, order, tmp_path,
                                                            monkeypatch, capsys):
    # the length is checked before an order is read or an entry is built
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match=r"^bad record 'cohomology d=3 cover=1 k=2 "
                                              r"gens=g0[^']*': %d generators, more than "
                                              r"MAX_GROUP_GENERATORS \(32\)$" % count):
        parse_data(with_cover_gens(count, order))
    assert time.perf_counter() - start < 1
    path = tmp_path / "data.txt"
    path.write_text(with_cover_gens(count, order), encoding="utf-8")
    monkeypatch.setenv("MTSPEC_DATA", str(path))
    assert cli.main(["table", "hz"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("order,group", [("", FgAbGroup(MAX_GROUP_GENERATORS)),
                                         (":2", FgAbGroup(0, (2,) * MAX_GROUP_GENERATORS))],
                         ids=["free", "torsion"])
def test_a_generator_list_at_the_bound_loads(order, group):
    entry = parse_data(with_cover_gens(MAX_GROUP_GENERATORS, order)).entry(3, 1, 2)
    assert entry.group == group and len(entry.names) == MAX_GROUP_GENERATORS


# ---------------------------------------------------------------------------
# cli.main answers 0 or 2 on the shipped data, and never raises


EXACT = st.sampled_from(["2", "-3/2", "1/7", "7", "zeta6", "zeta6^5", "-zeta4", "2*zeta3",
                         "zeta999999999999"])
SURFACES = st.sampled_from(["S2", "Sigma_0", "Sigma_3", "S2+Sigma_2", "Sigma_2#Sigma_1"])
FOUR_MANIFOLDS = st.sampled_from(["S4", "T4", "CP2", "K3", "CP2#CP2#K3", "S2xSigma_3",
                                  "K3+S4"])
BORDISM_TERMS = {1: ["S1"], 2: ["S2", "Sigma_3"], 3: ["S3", "T3"], 4: ["K3", "CP2", "S4", "T4"]}


@st.composite
def valid_calls(draw):
    """A subcommand and its arguments, as (flag, value) pairs that the
    shipped data answers (an empty flag is positional)."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    if command == "table":
        kind = draw(st.sampled_from(["hz", "homotopy", "cohomology"]))
        d, cover = draw(st.integers(1, 4)), draw(st.integers(0, 1))
        args = {"hz": [], "homotopy": [("--d", d)], "cohomology": [("--d", d), ("--cover", cover)]}
        pairs = [("", kind)] + args[kind]
    elif command == "classify":  # 1 <= n <= d <= 4
        d = draw(st.integers(1, 4))
        pairs = [("--d", d), ("--n", draw(st.integers(1, d)))]
    elif command in ("restrict", "kernel"):  # 1 <= to < from <= d <= 4
        d = draw(st.integers(2, 4))
        n_from = draw(st.integers(2, d))
        pairs = [("--d", d), ("--from", n_from), ("--to", draw(st.integers(1, n_from - 1)))]
        if command == "restrict":  # the number of coordinates may not fit
            pairs.append(("--params", ",".join(draw(st.lists(EXACT, max_size=3)))))
    elif command == "eval":
        theory = draw(st.sampled_from(["euler", "frobenius", "four_d"]))
        surface = SURFACES.map(lambda name: ("--manifold", name))
        if theory == "euler":
            pairs = [("--lam", draw(EXACT)), draw(st.one_of(
                surface, st.integers(-9, 9).map(lambda chi: ("--chi-total", chi))))]
        elif theory == "frobenius":
            pairs = [("--mu", draw(EXACT)), draw(st.one_of(
                surface, st.integers(0, 9).map(lambda g: ("--g", g))))]
        else:
            pairs = [("--l1", draw(EXACT)), ("--l2", draw(EXACT)),
                     ("--manifold", draw(FOUR_MANIFOLDS))]
        pairs.insert(0, ("", theory))
    elif command == "bordism":
        d = draw(st.integers(1, 4))
        terms = draw(st.lists(st.tuples(st.sampled_from(["+", "-"]), st.integers(1, 3),
                                        st.sampled_from(BORDISM_TERMS[d])), min_size=1, max_size=4))
        total = " ".join("%s %d*%s" % term for term in terms)
        pairs = [("--d", d), ("--sum", total)]
    else:
        pairs = []
    return command, [(flag, str(value)) for flag, value in pairs]


# values that each kind of argument refuses, or that reach a bound
BAD_VALUES = {
    "number": ["-1", "0", "5", "99999999999999999999", "-99999999999999999999"],
    "exact": ["0", "-0", "1/0", "zeta0", "2/", "", "--2", "zeta6^", MANY_DIGITS,
              "999999999999999999999999999999/7", "2,3", ","],
    "--manifold": ["RP7", "S1#S1", "S2+S4", "S4", "Sigma_-1", "", "S4#", "S1",
                   "Sigma_" + MANY_DIGITS, "S2xSigma_" + MANY_DIGITS],
    "--sum": ["", "K3 +", "K3 K3", "S2 + S4", MANY_DIGITS + "*K3", "RP7", "S1", "S2", "K3",
              "-", "2*", "Sigma_" + MANY_DIGITS],
    "": ["hz", "homotopy", "cohomology", "euler", "frobenius", "four_d"],
}
EXACT_FLAGS = ("--lam", "--mu", "--l1", "--l2", "--params")


@st.composite
def argvs(draw):
    """A valid call, half the time with one argument dropped or given a
    value it refuses, in text, ASCII or JSON form."""
    command, pairs = draw(valid_calls())
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        flag = pairs[i][0]
        if draw(st.integers(0, 3)):
            kind = "exact" if flag in EXACT_FLAGS else flag if flag in BAD_VALUES else "number"
            pairs[i] = (flag, draw(st.sampled_from(BAD_VALUES[kind])))
        else:
            del pairs[i]
    argv = [command] + [flag + "=" + value if flag else value for flag, value in pairs]
    return argv + draw(st.sampled_from([[], ["--ascii"], ["--format=json"],
                                        ["--format=json", "--ascii"]]))


@FUZZ
@hypothesis.given(argvs())
@hypothesis.example(["eval", "four_d", "--l1", "zeta0", "--l2", "1", "--manifold", "S4"])
@hypothesis.example(["eval", "euler", "--lam", "x", "--chi-total", "2"])
@hypothesis.example(["eval", "euler", "--lam", "0", "--manifold", "S2"])
@hypothesis.example(["eval", "euler", "--lam", "2", "--chi-total", "99999999999999999999"])
@hypothesis.example(["eval", "euler", "--lam", "999999999999999999999999999999/7",
                     "--chi-total", "9999"])
@hypothesis.example(["eval", "frobenius", "--mu", "2", "--g", "-1"])
@hypothesis.example(["table", "cohomology", "--d", "5"])
@hypothesis.example(["table", "cohomology", "--d", "2", "--cover", "7"])
@hypothesis.example(["bordism", "--d", "4", "--sum", "K3 K3"])
@hypothesis.example(["bordism", "--d", "4", "--sum", ""])
@hypothesis.example(["bordism", "--d", "4", "--sum", "K3+S2"])
def test_main_answers_or_refuses_on_the_shipped_data(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert not out.getvalue()
        assert err.getvalue().startswith(("error: ", "usage: "))


# ---------------------------------------------------------------------------
# a record's _replace makes the checks of its constructor


@pytest.mark.parametrize("record,fields,error", [
    (FgAbGroup(0, (2,)), {"torsion": (3, 2)}, "divisibility chain"),
    (IntMatrix(((1,),), 1), {"ncols": 2}, "row length"),
    (GroupHom(FgAbGroup(1), FgAbGroup(1), IntMatrix(((1,),), 1)),
     {"source": FgAbGroup(0, (2,))}, "not well-defined"),
    (ExactComplex.one(), {"power": 1}, "reduced pair"),
    (SpectrumId(2), {"d": 5}, "dimension must be 1..4"),
    (ManifoldClass("S2", 2, 2), {"euler": 1}, "euler \\+ signature must be even"),
], ids=["FgAbGroup", "IntMatrix", "GroupHom", "ExactComplex", "SpectrumId", "ManifoldClass"])
def test_replace_is_refused_as_the_constructor_refuses(record, fields, error):
    with pytest.raises(ValueError, match=error):
        record._replace(**fields)


def test_replace_builds_a_table_entry_with_its_views():
    entry = CohomologyEntry((("x", None),))._replace(generators=(("y", 2), ("z", None)))
    assert (entry.group, entry.names, entry.free_names) == (FgAbGroup(1, (2,)), ("y", "z"), ("z",))
