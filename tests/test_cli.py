import gc
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mtspec.certified import load_data
from mtspec.cli import document_to_json, main, render_gen, render_group
from mtspec.exactnum import parse_exact
from mtspec.spectra import SpectrumId

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_subprocess(*argv, env_extra=None, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # buffered stdout unless a test asks otherwise, so that output lost
    # to a missing flush shows
    env.pop("PYTHONUNBUFFERED", None)
    if env_extra:
        env.update(env_extra)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "mtspec", *argv],
                          stderr=subprocess.PIPE, text=True, env=env, **kwargs)


def limit_address_space():
    """Cap the child at 1 GiB, so a runaway allocation fails in the child."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def write_odd_euler_t3(tmp_path):
    """A copy of the shipped data file whose T3 record has euler 2."""
    text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
    modified = text.replace("manifold name=T3 dim=3 euler=0",
                            "manifold name=T3 dim=3 euler=2")
    assert modified != text
    path = tmp_path / "odd_euler_t3.txt"
    path.write_text(modified)
    return path


def write_inconsistent_data(tmp_path):
    """A copy of the shipped data file that fails the certificate's checks:
    an odd signature multiple breaks the evenness cross-check."""
    text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
    modified = text.replace("map=psi:1*rho;sigma:2*rho", "map=psi:1*rho;sigma:3*rho")
    assert modified != text
    path = tmp_path / "tampered.txt"
    path.write_text(modified)
    return path


GOLDEN_COVER_TABLE = """\
H*(p≥1Σ⁴MTSO(4))
k=0: 0
k=1: 0
k=2: 0
k=3: 0
k=4: ℤ⊕ℤ (ψ, σ)
k=5: 0
"""

GOLDEN_D3_ASCII = """\
H*(Sigma^3 MTSO(3))
k=0: Z (u)
k=1: 0
k=2: 0
k=3: Z/2 (W3u)
k=4: Z (p1u)
k=5: 0
"""


class TestTableCommand:
    def test_cover_table_golden(self, capsys):
        code, out = run_main(capsys, "table", "cohomology", "--d", "4", "--cover", "1")
        assert code == 0 and out == GOLDEN_COVER_TABLE

    def test_uncovered_table_ascii_golden(self, capsys):
        code, out = run_main(capsys, "table", "cohomology", "--d", "3", "--ascii")
        assert code == 0 and out == GOLDEN_D3_ASCII

    def test_homotopy_row(self, capsys):
        code, out = run_main(capsys, "table", "homotopy", "--d", "2")
        assert code == 0 and out == "ℤ, 0, ℤ\n"

    def test_hz_row(self, capsys):
        code, out = run_main(capsys, "table", "hz")
        assert code == 0 and out == "ℤ,0,0,ℤ/2,0,ℤ/6,0\n"

    def test_table_matches_data_file_rendering(self, capsys):
        # every row, uncovered or covered, is served from the certified data
        # file, so the table renders exactly the stored rows
        data = load_data()
        for d in (2, 3, 4):
            for cover in (0, 1):
                lines = ["H*(%s)" % SpectrumId(d, cover).display(True)]
                for k in range(6):
                    entry = data.entry(d, cover, k)
                    names = ", ".join(render_gen(n, True) for n in entry.names)
                    lines.append("k=%d: %s%s" % (
                        k, render_group(entry.group, True),
                        " (%s)" % names if names else ""))
                expected = "\n".join(lines) + "\n"
                code, out = run_main(capsys, "table", "cohomology", "--d",
                                     str(d), "--cover", str(cover), "--ascii")
                assert code == 0 and out == expected

    @pytest.mark.parametrize("d,cover,stored", [(2, 2, 1), (3, 2, 1), (3, 3, 1),
                                                (4, 2, 1), (4, 3, 1)])
    def test_higher_cover_is_served_from_its_stored_equivalent(self, capsys, d,
                                                               cover, stored):
        # the rows are those of the equivalent stored level, as in classify;
        # the header names the requested spectrum
        _, want = run_main(capsys, "table", "cohomology", "--d", str(d),
                           "--cover", str(stored), "--ascii")
        code, out = run_main(capsys, "table", "cohomology", "--d", str(d),
                             "--cover", str(cover), "--ascii")
        assert code == 0
        assert out.splitlines()[0] == "H*(%s)" % SpectrumId(d, cover).display(True)
        assert out.splitlines()[1:] == want.splitlines()[1:]

    def test_out_of_range_exits_two(self, capsys):
        assert main(["table", "cohomology", "--d", "7"]) == 2
        capsys.readouterr()
        # no stored level is equivalent to these covers
        assert main(["table", "cohomology", "--d", "2", "--cover", "3"]) == 2
        assert main(["table", "cohomology", "--d", "1", "--cover", "2"]) == 2
        assert "not equivalent to a stored one" in capsys.readouterr().err


class TestClassifyCommands:
    def test_classify_text(self, capsys):
        code, out = run_main(capsys, "classify", "--d", "4", "--n", "4")
        assert code == 0 and out == "(ℂˣ)² on (eu, p₁u)\n"
        code, out = run_main(capsys, "classify", "--d", "2", "--n", "1")
        assert code == 0 and out == "ℂˣ on (τ)\n"
        code, out = run_main(capsys, "classify", "--d", "3", "--n", "1")
        assert code == 0 and out == "trivial\n"

    def test_restrict_text(self, capsys):
        code, out = run_main(capsys, "restrict", "--d", "4", "--from", "4",
                             "--to", "3", "--params", "2,3")
        assert code == 0 and out == "4, 27/2\n"

    def test_kernel_text(self, capsys):
        code, out = run_main(capsys, "kernel", "--d", "4", "--from", "4", "--to", "3")
        assert code == 0 and out == "ℤ/6: (ζ³, ζ), ζ⁶=1\n"
        code, out = run_main(capsys, "kernel", "--d", "2", "--from", "2",
                             "--to", "1", "--ascii")
        assert code == 0 and out == "Z/2: (zeta), zeta^2=1\n"

    def test_restrict_bad_params_exits_two(self, capsys):
        assert main(["restrict", "--d", "4", "--from", "4", "--to", "3",
                     "--params", "2"]) == 2
        capsys.readouterr()
        assert main(["restrict", "--d", "4", "--from", "4", "--to", "3",
                     "--params", "0,1"]) == 2
        capsys.readouterr()


class TestEvalCommands:
    def test_four_d(self, capsys):
        code, out = run_main(capsys, "eval", "four_d", "--l1", "2", "--l2", "1",
                             "--manifold", "S4")
        assert code == 0 and out == "4\n"

    def test_euler_closed_surface(self, capsys):
        code, out = run_main(capsys, "eval", "euler", "--lam", "4",
                             "--manifold", "Sigma_2")
        assert code == 0 and out == "1/16\n"

    def test_frobenius(self, capsys):
        code, out = run_main(capsys, "eval", "frobenius", "--mu", "4", "--g", "2")
        assert code == 0 and out == "1/4\n"

    def test_root_of_unity_parameters(self, capsys):
        code, out = run_main(capsys, "eval", "four_d", "--l1", "zeta6^3",
                             "--l2", "1", "--manifold", "CP2")
        assert code == 0 and out == "-1\n"

    def test_frobenius_disconnected_surface(self, capsys):
        # the theory is multiplicative, so S2+S2 gives mu^(chi/2), the Euler
        # theory's value at lam with lam^2 = mu
        code, out = run_main(capsys, "eval", "frobenius", "--mu", "4",
                             "--manifold", "S2+S2")
        assert code == 0 and out == "16\n"
        code, out = run_main(capsys, "eval", "euler", "--lam", "2",
                             "--manifold", "S2+S2")
        assert code == 0 and out == "16\n"
        assert main(["eval", "frobenius", "--mu", "4", "--g", "-1"]) == 2
        capsys.readouterr()

    def test_inputs_echo_only_the_options_given(self, capsys):
        # no genus is derived for a manifold: S2+S2 has none
        code, out = run_main(capsys, "eval", "frobenius", "--mu", "4",
                             "--manifold", "S2+S2", "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"] == {
            "theory": "frobenius", "manifold": "S2+S2", "mu": "4", "g": None}
        code, out = run_main(capsys, "eval", "frobenius", "--mu", "4", "--g", "2",
                             "--format", "json")
        assert json.loads(out)["inputs"] == {"theory": "frobenius", "mu": "4", "g": 2}

    def test_unknown_manifold_exits_two(self, capsys):
        assert main(["eval", "four_d", "--l1", "2", "--l2", "1",
                     "--manifold", "Nope"]) == 2
        capsys.readouterr()


class TestBordismCommand:
    def test_relation_sum(self, capsys):
        code, out = run_main(capsys, "bordism", "--d", "2", "--sum",
                             "Sigma_3 - (-2)*S2")
        assert code == 0 and out == "invariant: 0\nnull-bordant: true\n"

    def test_four_dimensional_pair(self, capsys):
        code, out = run_main(capsys, "bordism", "--d", "4", "--sum", "CP2")
        assert code == 0 and out == "invariant: (2, 1)\nnull-bordant: false\n"


class TestGilmerMasbaumCommand:
    def test_text_certificate(self, capsys):
        code, out = run_main(capsys, "gilmer-masbaum", "--ascii")
        assert code == 0
        assert "Atiyah (p1-structures): 6rho -> 12" in out
        assert "Walker (signature): 2rho -> 4" in out
        assert "Gilmer (index-2 subcategory): rho -> 2" in out
        assert out.rstrip().endswith("fundamental extension: impossible")

    def test_json_certificate(self, capsys):
        code, out = run_main(capsys, "gilmer-masbaum", "--format", "json")
        document = json.loads(out)
        classes = document["result"]["classes"]
        assert classes["atiyah"] == {"rho_multiple": 6, "mcg_class": 12}
        assert classes["walker"] == {"rho_multiple": 2, "mcg_class": 4}
        assert classes["gilmer"] == {"rho_multiple": 1, "mcg_class": 2}
        assert document["result"]["fundamental_realizable"] is False
        assert document["result"]["walker_index4_possible"] is False


class TestStructuredOutput:
    @pytest.mark.parametrize("argv", [
        ["table", "cohomology", "--d", "4", "--cover", "1"],
        ["table", "homotopy", "--d", "4"],
        ["table", "hz"],
        ["classify", "--d", "4", "--n", "4"],
        ["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
        ["kernel", "--d", "4", "--from", "4", "--to", "3"],
        ["eval", "four_d", "--l1", "2", "--l2", "3", "--manifold", "K3"],
        ["bordism", "--d", "4", "--sum", "K3 + 2*S4"],
        ["gilmer-masbaum"],
    ])
    def test_roundtrip(self, capsys, argv):
        code = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert list(document) == ["command", "inputs", "result"]
        rebuilt = document_to_json(document["command"], document["inputs"],
                                   document["result"])
        assert rebuilt + "\n" == out

    def test_typed_payload_reconstruction(self, capsys):
        code = main(["classify", "--d", "4", "--n", "4", "--format", "json"])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["result"]["finite_part"] == {"free_rank": 0, "torsion": []}
        code = main(["restrict", "--d", "4", "--from", "4", "--to", "3",
                     "--params", "2,3", "--format", "json"])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["result"]["params"] == [parse_exact("4").to_json(),
                                                parse_exact("27/2").to_json()]


class TestProcessLevel:
    def test_success_exit_zero(self):
        proc = run_subprocess("table", "hz")
        assert proc.returncode == 0

    def test_usage_error_exit_two(self):
        proc = run_subprocess("table", "nosuchkind")
        assert proc.returncode == 2
        proc = run_subprocess("classify", "--d", "9", "--n", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "frobenius", "--mu", "1/0", "--g", "1"],
        ["eval", "four_d", "--l1", "zeta0", "--l2", "1", "--manifold", "S4"],
    ])
    def test_zero_denominator_exits_two(self, argv):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2
        assert "zero denominator" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tampered_uncovered_row_exits_two(self, tmp_path):
        # uncovered rows come from the ring; a file that records one is refused
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        override = tmp_path / "tampered.txt"
        override.write_text(text + "cohomology d=1 cover=0 k=5 group=Z gens=x\n")
        proc = run_subprocess("table", "cohomology", "--d", "1",
                              env_extra={"MTSPEC_DATA": str(override)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cohomology d=1 cover=0 k=5 group=Z gens=x" in proc.stderr
        assert "delete the cover=0 row" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_symlink_loop_data_path_exits_two(self, tmp_path):
        # resolving a loop must not raise; reading it is an unreadable file
        path = tmp_path / "a.txt"
        path.symlink_to(tmp_path / "b.txt")
        (tmp_path / "b.txt").symlink_to(path)
        proc = run_subprocess("table", "hz", env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read data file")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_invalid_manifold_record_exits_two(self, tmp_path):
        # manifold records are checked against the ManifoldClass invariants
        # when the file loads, not when the manifold is first used
        proc = run_subprocess("table", "hz", env_extra={
            "MTSPEC_DATA": str(write_odd_euler_t3(tmp_path))})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "manifold name=T3 dim=3 euler=2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["table", "cohomology", "--d", "4"],
        ["classify", "--d", "4", "--n", "4"],
        ["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
        ["kernel", "--d", "4", "--from", "4", "--to", "3"],
        ["eval", "frobenius", "--mu", "4", "--g", "2"],
        ["bordism", "--d", "2", "--sum", "S2"],
        ["gilmer-masbaum"],
    ])
    def test_invalid_manifold_record_refused_by_every_subcommand(
            self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("MTSPEC_DATA", str(write_odd_euler_t3(tmp_path)))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "name=T3" in captured.err

    def test_invalid_family_record_exits_two(self, tmp_path):
        # a family is checked through its members g=0 and g=1 at load;
        # here Sigma_1 would have euler 1
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        modified = text.replace("family name=Sigma_g dim=2 euler0=2 eulerg=-2",
                                "family name=Sigma_g dim=2 euler0=2 eulerg=-1")
        assert modified != text
        path = tmp_path / "odd_genus_step.txt"
        path.write_text(modified)
        proc = run_subprocess("table", "hz", env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Sigma_g" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource limits")
    def test_huge_exponent_exits_two(self):
        # without a bound the power of 2 grows until memory runs out; the
        # timeout and the address-space cap make that a failure, not a hang
        proc = run_subprocess("eval", "euler", "--lam", "2", "--chi-total",
                              "99999999999999999999", timeout=60,
                              preexec_fn=limit_address_space)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "bound" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_power_result_size_is_bounded(self):
        # the result would have about 300,000 digits; it is refused before
        # it is computed, under mtspec's own bound
        proc = run_subprocess("eval", "euler", "--lam",
                              "999999999999999999999999999999/7",
                              "--chi-total", "9999", timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "MAX_POWER_DIGITS" in proc.stderr
        assert "Exceeds the limit" not in proc.stderr

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on integer strings")
    @pytest.mark.parametrize("argv,expected", [
        (["eval", "euler", "--lam", "3/2", "--chi-total", "10000"],
         lambda: Fraction(3, 2) ** 10000),
        (["eval", "four_d", "--l1", "7" * 5000, "--l2", "1", "--manifold", "S4"],
         lambda: int("7" * 5000) ** 2),
        (["bordism", "--d", "2", "--sum", "Sigma_" + "1" * 5000],
         lambda: 1 - int("1" * 5000)),
    ])
    def test_integers_past_pythons_string_limit(self, capsys, argv, expected):
        # Python converts at most 4300 digits between integers and text by
        # default; the CLI reads and prints longer ones exactly, and main
        # called in process restores the caller's limit afterwards
        proc = run_subprocess(*argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        previous = sys.get_int_max_str_digits()
        assert run_main(capsys, *argv) == (0, proc.stdout)
        assert sys.get_int_max_str_digits() == previous
        sys.set_int_max_str_digits(0)
        try:
            assert str(expected()) in proc.stdout
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("argv", [
        ["eval", "euler", "--lam", " " * 100_000 + "!", "--chi-total", "2"],
        ["bordism", "--d", "2", "--sum", "S2" + " " * 100_000 + "!"],
    ])
    def test_long_whitespace_runs_fail_fast(self, argv):
        start = time.perf_counter()
        proc = run_subprocess(*argv, timeout=60)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2
        assert "cannot parse" in proc.stderr

    def test_long_digit_run_in_a_data_file_fails_fast(
            self, capsys, monkeypatch, tmp_path):
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        modified = text.replace("map=hz0:1*u", "map=hz0:" + "1" * 100_000, 1)
        assert modified != text
        path = tmp_path / "long_combo.txt"
        path.write_text(modified)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        start = time.perf_counter()
        assert main(["table", "hz"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse combo" in captured.err

    def test_data_override(self, tmp_path):
        text = (pathlib.Path(SRC) / "mtspec" / "data" / "certified_data.txt").read_text()
        modified = text.replace(
            "cohomology d=2 cover=1 k=2 group=Z gens=tau",
            "cohomology d=2 cover=1 k=2 group=Z/3 gens=tau:3")
        override = tmp_path / "override.txt"
        override.write_text(modified)
        proc = run_subprocess("table", "cohomology", "--d", "2", "--cover", "1",
                              "--ascii", env_extra={"MTSPEC_DATA": str(override)})
        assert proc.returncode == 0
        assert "k=2: Z/3 (tau)" in proc.stdout

    def test_repeated_arrow_exits_two(self, tmp_path):
        # a second cover arrow for (d=3, k=4) used to win over the first,
        # and the certificate then printed "5rho -> 10"
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        path = tmp_path / "repeated_arrow.txt"
        path.write_text(text + "arrow kind=cover d=3 k=4 prov=diagram map=p1u:5*rho\n")
        proc = run_subprocess("gilmer-masbaum", env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "map=p1u:5*rho" in proc.stderr and "came earlier" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_four_manifold_off_the_signature_theorem_exits_two(self, tmp_path):
        # X4 has the invariants of S4 but p1 = 5; p1 is 3 * signature by
        # construction, so a record that states a p1 at all is refused
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        path = tmp_path / "x4.txt"
        path.write_text(text + "manifold name=X4 dim=4 euler=2 signature=0 p1=5\n")
        proc = run_subprocess("bordism", "--d", "4", "--sum", "X4 - S4",
                              env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "name=X4" in proc.stderr and "delete the p1= field" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_inconsistent_data_exits_three(self, tmp_path):
        proc = run_subprocess("gilmer-masbaum", env_extra={
            "MTSPEC_DATA": str(write_inconsistent_data(tmp_path))})
        assert proc.returncode == 3
        assert "internal consistency failure" in proc.stderr


# ---------------------------------------------------------------------------
# byte-identical output and the modules each subcommand loads

CLI_EXPECTED = json.loads(
    (SRC.parent / "perfbench" / "cli_expected.json").read_text(encoding="utf-8"))
USAGE_EXPECTED = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_usage_expected.json").read_text(encoding="utf-8"))


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "call", CLI_EXPECTED["calls"] + CLI_EXPECTED["known_defects"],
        ids=lambda call: " ".join(call["argv"]))
    def test_benchmark_call(self, capsys, monkeypatch, call):
        # every call of the cli-oneshot pool, and the three inputs that
        # once failed, in process: a name a handler no longer imports
        # fails here on whichever rendering path uses it
        monkeypatch.delenv("MTSPEC_DATA", raising=False)
        assert run_main(capsys, *call["argv"]) == (call["exit"], call["stdout"])

    @pytest.mark.parametrize("call", USAGE_EXPECTED["calls"],
                             ids=lambda call: " ".join(call["argv"]) or "(none)")
    def test_help_and_errors(self, capsys, monkeypatch, call):
        monkeypatch.delenv("MTSPEC_DATA", raising=False)
        monkeypatch.setenv("COLUMNS", "80")
        code = main(list(call["argv"]))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (call["exit"], call["stdout"],
                                                      call["stderr"])


LOADED_MODULES = """\
import contextlib, io, sys
from mtspec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "mtspec")))
"""

TABLE_MODULES = {"mtspec", "mtspec.abelian", "mtspec.certified", "mtspec.charclasses",
                 "mtspec.cli", "mtspec.errors"}


class TestSubcommandImports:
    @pytest.mark.parametrize("argv,extra", [
        (["table", "cohomology", "--d", "4", "--cover", "1"], set()),
        (["classify", "--d", "4", "--n", "4"], {"mtspec.classify", "mtspec.exactnum"}),
        (["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
         {"mtspec.classify", "mtspec.exactnum"}),
        (["kernel", "--d", "4", "--from", "4", "--to", "3"],
         {"mtspec.classify", "mtspec.exactnum"}),
        (["gilmer-masbaum"], {"mtspec.classify", "mtspec.exactnum"}),
        (["eval", "euler", "--lam", "2", "--manifold", "Sigma_2"],
         {"mtspec.tftlab", "mtspec.exactnum"}),
        (["bordism", "--d", "4", "--sum", "K3 + 2*S4"], {"mtspec.tftlab", "mtspec.exactnum"}),
    ], ids=["table", "classify", "restrict", "kernel", "gilmer-masbaum", "eval", "bordism"])
    def test_each_subcommand_loads_only_what_it_runs(self, argv, extra):
        # a fresh interpreter per subcommand; the consistency proof in
        # spectra is never loaded to serve an answer
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("MTSPEC_DATA", None)
        proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                              capture_output=True, text=True, env=env)
        code, modules = proc.stdout.split(" ", 1)
        assert code == "0", proc.stderr
        assert set(modules.split()) == TABLE_MODULES | extra


# ---------------------------------------------------------------------------
# the one-shot entry point behind `python -m mtspec` and the `mtspec` script


class TestEntryPoint:
    @pytest.mark.parametrize("argv,code", [
        (["table", "cohomology", "--d", "4", "--cover", "1"], 0),
        (["classify", "--d", "4", "--n", "4", "--format", "json"], 0),
        (["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"], 0),
        (["kernel", "--d", "4", "--from", "4", "--to", "3", "--ascii"], 0),
        (["eval", "euler", "--lam", "4", "--manifold", "Sigma_2"], 0),
        (["bordism", "--d", "4", "--sum", "K3 + 2*S4", "--format", "json"], 0),
        (["gilmer-masbaum"], 0),
        (["--help"], 0),
        (["table", "nosuchkind"], 2),
        (["classify", "--d", "9", "--n", "1"], 2),
        (["gilmer-masbaum"], 3),
    ], ids=["table", "classify", "restrict", "kernel", "eval", "bordism",
            "gilmer-masbaum", "help", "usage-error", "range-error", "internal-check"])
    def test_process_matches_main_in_process(self, capsys, monkeypatch, tmp_path,
                                             argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("MTSPEC_DATA", raising=False)
        if code == 3:
            monkeypatch.setenv("MTSPEC_DATA", str(write_inconsistent_data(tmp_path)))
        proc = run_subprocess(*argv)
        in_process = (main(list(argv)), *capsys.readouterr())
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process
        assert proc.returncode == code

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_two(self, unbuffered):
        # a pipe whose read end is closed before the child starts: the
        # unbuffered write inside main fails, or the buffered one at the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_subprocess(
                "table", "hz", stdout=write_end,
                env_extra={"PYTHONUNBUFFERED": "1"} if unbuffered else None)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Broken pipe" in proc.stderr

    @pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
    def test_closed_standard_stream_is_not_flushed(self, fd):
        # Python starts with sys.stdout or sys.stderr None when the
        # descriptor is closed; the answer is then discarded, as at exit
        proc = run_subprocess("table", "hz", "--ascii", preexec_fn=lambda: os.close(fd))
        assert proc.returncode == 0
        expected_out = "" if fd == 1 else "Z,0,0,Z/2,0,Z/6,0\n"
        assert (proc.stdout, proc.stderr) == (expected_out, "")

    def test_missing_data_file_exits_two(self, tmp_path):
        proc = run_subprocess("table", "hz",
                              env_extra={"MTSPEC_DATA": str(tmp_path / "absent.txt")})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "absent.txt" in proc.stderr

    @pytest.mark.parametrize("argv,term", [
        (["bordism", "--d", "4", "--sum"], "K3"),
        (["eval", "euler", "--lam", "2", "--manifold"], "Sigma_2"),
    ], ids=["bordism", "eval"])
    def test_cyclic_garbage_does_not_grow_with_input(self, capsys, argv, term):
        # the entry point turns the cyclic collector off, which keeps a call's
        # memory bounded only while its cyclic garbage is the same for any input
        def garbage(terms):
            was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                assert main(argv + [" + ".join([term] * terms)]) == 0
                return gc.collect()
            finally:
                capsys.readouterr()
                if was_enabled:
                    gc.enable()

        garbage(1)  # the handler's lazy imports and the data file's cache
        assert garbage(1) == garbage(500)
