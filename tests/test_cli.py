import gc
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mtspec import cli
from mtspec.certified import load_data, parse_data
from mtspec.cli import (build_parser, document_to_json, main, parse_args, render_gen,
                        render_group)
from mtspec.errors import MtspecError
from mtspec.exactnum import parse_exact
from mtspec.spectra import SpectrumId, verify_les
from mtspec.tftlab import parse_formal_sum, standard_manifolds, vf_invariant

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


# how a manifold row's refusal begins: no data file records a manifold
# since version 7, and the refusal says which sum to write instead
MANIFOLD_ROW_REFUSAL = "where the manifold is named, write the sum a*S4 + b*CP2"


def write_odd_parity_manifold(tmp_path):
    """A copy of the shipped data file plus a manifold row, X4 with euler 4
    and signature 1 (euler + signature odd, so no sum gives it); since
    version 7 every manifold row is refused."""
    text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
    path = tmp_path / "odd_parity_x4.txt"
    path.write_text(text + "manifold name=X4 dim=4 euler=4 signature=1\n")
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
                    group = {"free_rank": entry.group.free_rank,
                             "torsion": list(entry.group.torsion)}
                    lines.append("k=%d: %s%s" % (
                        k, render_group(group, True),
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

    @pytest.mark.parametrize("argv,option", [
        # printed the groups of the uncovered spectrum: the wrong table
        (["homotopy", "--d", "2", "--cover", "1"], "--cover"),
        (["hz", "--d", "3"], "--d"),
        (["hz", "--cover", "1"], "--cover"),
        (["hz", "--cover", "0"], "--cover"),
    ], ids=["homotopy-cover", "hz-d", "hz-cover", "hz-cover-0"])
    def test_an_option_the_kind_does_not_read_is_refused(self, capsys, argv, option):
        for extra in ([], ["--format", "json"]):
            assert main(["table", *argv, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: table %s does not take %s\n" % (argv[0], option)

    def test_an_omitted_cover_is_level_0(self, capsys):
        code, out = run_main(capsys, "table", "cohomology", "--d", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"] == {"kind": "cohomology", "d": 2, "cover": 0}
        assert run_main(capsys, "table", "cohomology", "--d", "2")[1] == \
            run_main(capsys, "table", "cohomology", "--d", "2", "--cover", "0")[1]

    def test_a_missing_first_cover_row_names_no_higher_cover(self, capsys):
        # d=1 records no cover rows; cover 1 is a stored level, so there is
        # no higher cover to resolve
        assert main(["table", "cohomology", "--d", "1", "--cover", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: no table entry for p>=1 Sigma^1 MTSO(1) in degree 0\n"


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

    @pytest.mark.parametrize("argv,option", [
        (["frobenius", "--mu", "2", "--g", "3", "--manifold", "S2"], "--g"),
        (["euler", "--lam", "2", "--manifold", "S2", "--chi-total", "5"], "--chi-total"),
        (["euler", "--lam", "2", "--manifold", "S2", "--chi-source", "1"], "--chi-source"),
        (["four_d", "--l1", "2", "--l2", "3", "--manifold", "K3", "--lam", "5"], "--lam"),
        (["four_d", "--l1", "2", "--l2", "3", "--manifold", "K3", "--g", "1"], "--g"),
        (["euler", "--lam", "2", "--manifold", "S2", "--l2", "3"], "--l2"),
        (["euler", "--lam", "2", "--chi-total", "4", "--g", "1"], "--g"),
        (["frobenius", "--mu", "2", "--g", "3", "--chi-total", "4"], "--chi-total"),
        (["frobenius", "--mu", "2", "--manifold", "S2", "--lam", "2"], "--lam"),
    ], ids=["frobenius-g-and-manifold", "euler-manifold-and-chi-total",
            "euler-manifold-and-chi-source", "four_d-lam", "four_d-g", "euler-l2", "euler-g",
            "frobenius-chi-total", "frobenius-lam"])
    def test_an_option_the_theory_does_not_read_is_refused(self, capsys, argv, option):
        # each used to answer and drop the option
        for extra in ([], ["--format", "json"]):
            assert main(["eval", *argv, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert option in captured.err.replace(",", " ").split()

    def test_frobenius_needs_mu(self, capsys):
        assert main(["eval", "frobenius", "--g", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: eval frobenius needs --mu\n")

    def test_a_combination_of_chains_is_evaluated(self, capsys):
        # 2*CP2 - S4 has euler 4 and signature 2, so the value is 2^4 * 3^6
        code, out = run_main(capsys, "eval", "four_d", "--l1", "2", "--l2", "3",
                             "--manifold", "2*CP2 - S4")
        assert code == 0 and out == "11664\n"
        code, out = run_main(capsys, "eval", "four_d", "--l1", "2", "--l2", "3",
                             "--manifold", "2*K3#CP2")
        assert code == 0 and out == "%s\n" % Fraction(2 ** 50, 3 ** 90)

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

    def test_a_connected_sum_chain(self, capsys):
        # K3#CP2 has euler 25 and signature -15
        code, out = run_main(capsys, "bordism", "--d", "4", "--sum", "K3#CP2")
        assert code == 0 and out == "invariant: (5, -15)\nnull-bordant: false\n"
        code, out = run_main(capsys, "bordism", "--d", "4", "--sum", "2*K3#CP2")
        assert code == 0 and out == "invariant: (10, -30)\nnull-bordant: false\n"

    @pytest.mark.parametrize("argv,out", [
        (["--d", "3", "--sum", "S3#T3"], "invariant: 0\nnull-bordant: true\n"),
        (["--d", "1", "--sum", "S1#S1"], "invariant: 1\nnull-bordant: false\n"),
    ], ids=["d3", "d1"])
    def test_a_chain_in_an_odd_dimension(self, capsys, argv, out):
        # a chain of 3-manifolds is one, and a chain of circles is a circle
        assert run_main(capsys, "bordism", *argv) == (0, out)

    @pytest.mark.parametrize("d,total,message", [
        ("4", "0*S2", "sum contains a manifold of dimension 2"),
        ("4", "S2 - S2", "sum contains a manifold of dimension 2"),
        ("1", "K3 - K3", "sum contains a manifold of dimension 4"),
        ("2", "0*K3 + S2", "formal sums must be homogeneous in dimension"),
    ])
    def test_a_cancelled_term_counts_for_the_dimension(self, capsys, d, total, message):
        # each once answered for the dimension of the terms left over
        assert main(["bordism", "--d", d, "--sum", total]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)

    def test_a_cancelled_sum_in_process(self):
        with pytest.raises(MtspecError, match="sum contains a manifold of dimension 2"):
            vf_invariant(4, parse_formal_sum("S2 - S2", standard_manifolds()))


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
        override.write_text(text + "cohomology d=1 cover=0 k=5 gens=x\n")
        proc = run_subprocess("table", "cohomology", "--d", "1",
                              env_extra={"MTSPEC_DATA": str(override)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cohomology d=1 cover=0 k=5 gens=x" in proc.stderr
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
        # a manifold row is refused when the file loads, not when the
        # manifold is first used
        proc = run_subprocess("table", "hz", env_extra={
            "MTSPEC_DATA": str(write_odd_parity_manifold(tmp_path))})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "manifold name=X4 dim=4 euler=4 signature=1" in proc.stderr
        assert MANIFOLD_ROW_REFUSAL in proc.stderr and proc.stderr.count("\n") == 1
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
        monkeypatch.setenv("MTSPEC_DATA", str(write_odd_parity_manifold(tmp_path)))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "name=X4" in captured.err and MANIFOLD_ROW_REFUSAL in captured.err

    def test_family_record_exits_two(self, tmp_path):
        # the families are rules since data version 5; a version-4 family
        # row is refused naming the line
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        row = "family name=Sigma_g dim=2 euler0=2 eulerg=-2"
        path = tmp_path / "family.txt"
        path.write_text(text + row + "\n")
        proc = run_subprocess("table", "hz", env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert repr(row) in proc.stderr and "delete the line" in proc.stderr
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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on integer strings")
    def test_exact_value_past_pythons_string_limit_in_process(self, capsys):
        # 3^10000 has 4,772 digits; to_json, which turns the value into
        # text, runs under the limit main lifts for the call
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            result = run_main(capsys, "eval", "euler", "--lam", "3", "--chi-total", "10000")
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert result == (0, str(3 ** 10000) + "\n")
        finally:
            sys.set_int_max_str_digits(previous)
        assert len(result[1]) == 4772 + 1

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
        modified = text.replace("map=cu:2*tau", "map=cu:" + "1" * 100_000, 1)
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
            "cohomology d=2 cover=1 k=2 gens=tau",
            "cohomology d=2 cover=1 k=2 gens=tau:3")
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
        path.write_text(text + "arrow kind=cover d=3 k=4 map=p1u:5*rho\n")
        proc = run_subprocess("gilmer-masbaum", env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "map=p1u:5*rho" in proc.stderr and "came earlier" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_four_manifold_off_the_signature_theorem_exits_two(self, tmp_path):
        # X4 has the invariants of S4 but p1 = 5; p1 is 3 * signature by
        # construction, and a manifold row is refused whatever it states
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        path = tmp_path / "x4.txt"
        path.write_text(text + "manifold name=X4 dim=4 euler=2 signature=0 p1=5\n")
        proc = run_subprocess("bordism", "--d", "4", "--sum", "X4 - S4",
                              env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "name=X4" in proc.stderr and MANIFOLD_ROW_REFUSAL in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_misspelled_field_exits_two(self, tmp_path):
        # read without its gens= field, the row would be the zero group
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        row = "cohomology d=2 cover=1 k=2 gens=tau"
        assert text.count(row + "\n") == 1
        path = tmp_path / "gen.txt"
        path.write_text(text.replace(row + "\n", row.replace("gens=", "gen=") + "\n"))
        proc = run_subprocess("table", "cohomology", "--d", "2", "--cover", "1",
                              env_extra={"MTSPEC_DATA": str(path)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "gen=tau" in proc.stderr and "no field gen=" in proc.stderr
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


# ---------------------------------------------------------------------------
# the text is rendered from the JSON document alone

# the successful calls whose text this file pins, and calls that reach the
# renderers' other branches: no coordinates, a trivial kernel, a root of
# unity times a magnitude, -1, an empty invariant
TEXT_ARGVS = [
    ["table", "cohomology", "--d", "3"],
    *(["table", "cohomology", "--d", str(d), "--cover", str(cover)]
      for d in (2, 3, 4) for cover in range(min(d + 1, 4))),
    ["table", "homotopy", "--d", "3"],
    ["classify", "--d", "3", "--n", "1"],
    ["kernel", "--d", "3", "--from", "3", "--to", "1"],
    ["restrict", "--d", "3", "--from", "3", "--to", "2"],
    ["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "zeta6,3*zeta4^3"],
    ["eval", "four_d", "--l1", "zeta6^3", "--l2", "1", "--manifold", "CP2"],
    ["eval", "four_d", "--l1", "2*zeta3", "--l2", "zeta5^2", "--manifold", "CP2"],
    ["eval", "four_d", "--l1", "2", "--l2", "3", "--manifold", "K3"],
    ["eval", "euler", "--lam", "2", "--manifold", "S2+S2"],
    ["eval", "euler", "--lam", "3", "--chi-total", "10000"],
    ["eval", "euler", "--lam", "3/2", "--chi-total", "10000"],
    ["bordism", "--d", "4", "--sum", "CP2"],
    ["bordism", "--d", "3", "--sum", "S3"],
]
for _call in CLI_EXPECTED["calls"] + CLI_EXPECTED["known_defects"]:
    _argv = [a for a in _call["argv"] if a != "--ascii"]
    if "--format" in _argv:
        del _argv[_argv.index("--format"):_argv.index("--format") + 2]
    if _call["exit"] == 0 and _argv not in TEXT_ARGVS:
        TEXT_ARGVS.append(_argv)


class TestTextFromDocument:
    @pytest.mark.parametrize("argv", TEXT_ARGVS, ids=" ".join)
    def test_text_is_the_rendered_document(self, capsys, argv):
        # the JSON result, read back, gives the text and the --ascii text
        # byte for byte through the subcommand's renderer
        code, out = run_main(capsys, *argv, "--format", "json")
        assert code == 0
        document = json.loads(out)
        render = cli._RENDERERS[document["command"]]
        for ascii_mode in (False, True):
            code, text = run_main(capsys, *argv, *(["--ascii"] if ascii_mode else []))
            assert (code, text) == (0, render(document["result"], ascii_mode) + "\n")

    def test_a_non_cyclic_kernel_lists_its_elements(self):
        # no restriction of the shipped data has one
        one = {"magnitude": "1"}
        minus = {"magnitude": "1", "root_of_unity": {"order": 2, "power": 1}}
        i = {"magnitude": "1", "root_of_unity": {"order": 4, "power": 1}}
        result = {"group": {"free_rank": 0, "torsion": [2, 2]}, "basis": ["a", "b"],
                  "elements": [[one, one], [one, minus], [minus, one], [minus, i]]}
        assert cli._render_kernel(result, True) == \
            "Z/2+Z/2: (1, 1); (1, -1); (-1, 1); (-1, zeta4)"
        assert cli._render_kernel(result, False) == \
            "ℤ/2⊕ℤ/2: (1, 1); (1, -1); (-1, 1); (-1, ζ4)"


LOADED_MODULES = """\
import contextlib, io, sys
from mtspec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "mtspec"
                            or m in ("json", "fractions", "decimal", "dataclasses",
                                     "inspect", "pathlib"))))
"""

TABLE_MODULES = {"mtspec", "mtspec.abelian", "mtspec.certified", "mtspec.charclasses",
                 "mtspec.cli", "mtspec.errors"}
EXACT = {"mtspec.exactnum", "fractions", "decimal"}


class TestSubcommandImports:
    @pytest.mark.parametrize("argv,extra", [
        (["table", "cohomology", "--d", "4", "--cover", "1"], set()),
        (["table", "hz", "--format", "json"], {"json"}),
        (["classify", "--d", "4", "--n", "4"], {"mtspec.classify"}),
        (["restrict", "--d", "4", "--from", "4", "--to", "3", "--params", "2,3"],
         {"mtspec.classify"} | EXACT),
        (["kernel", "--d", "4", "--from", "4", "--to", "3"], {"mtspec.classify"} | EXACT),
        (["gilmer-masbaum"], {"mtspec.classify"}),
        (["eval", "euler", "--lam", "2", "--manifold", "Sigma_2"], {"mtspec.tftlab"} | EXACT),
        (["bordism", "--d", "4", "--sum", "K3 + 2*S4"], {"mtspec.tftlab"} | EXACT),
    ], ids=["table", "table-json", "classify", "restrict", "kernel", "gilmer-masbaum",
            "eval", "bordism"])
    def test_each_subcommand_loads_only_what_it_runs(self, argv, extra):
        # a fresh interpreter per subcommand, without site, whose imports
        # vary by installation; the consistency proof in spectra is never
        # loaded to serve an answer, json only for --format json, and the
        # exact numbers only where a subcommand makes or reads them; no
        # subcommand loads dataclasses, inspect or pathlib
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("MTSPEC_DATA", None)
        proc = subprocess.run([sys.executable, "-S", "-c", LOADED_MODULES, *argv],
                              capture_output=True, text=True, env=env)
        code, modules = proc.stdout.split(" ", 1)
        assert code == "0", proc.stderr
        assert set(modules.split()) == TABLE_MODULES | extra


# ---------------------------------------------------------------------------
# the parser of one subcommand against the parser of all seven

GOLDEN_ARGVS = [call["argv"] for call in (CLI_EXPECTED["calls"] + CLI_EXPECTED["known_defects"]
                                          + USAGE_EXPECTED["calls"])]


def _outcome(parse, argv):
    """The Namespace that parse returns for argv, or the code it exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


class TestOneSubcommandParser:
    @pytest.mark.parametrize("name", ["table", "classify", "restrict", "kernel", "eval",
                                      "bordism", "gilmer-masbaum"])
    def test_help_matches_the_full_parser(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parser in (build_parser(name), build_parser()):
            assert _outcome(parser.parse_args, [name, "--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: mtspec " + name)

    @pytest.mark.parametrize("argv", GOLDEN_ARGVS,
                             ids=lambda argv: " ".join(argv) or "(none)")
    def test_namespace_matches_the_full_parser(self, capsys, argv):
        # every golden call parses to the same Namespace, or exits with the
        # same code; test_help_and_errors pins what the exits print
        assert _outcome(parse_args, argv) == _outcome(build_parser().parse_args, argv)
        capsys.readouterr()


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


KERNEL_4_TO_3 = ["kernel", "--d", "4", "--from", "4", "--to", "3"]


class TestEditedDataBranches:
    """Branches that only an edited data file reaches.  Each case edits the
    shipped file, then runs either the long exact sequence of a dimension
    (an int), whose failed check must carry the note, or a command line,
    whose exit code and output (stdout on success, stderr otherwise) must
    hold the text."""

    @pytest.mark.parametrize("edits,run,expected", [
        ([("arrow kind=cover d=3 k=4 map=p1u:6*rho\n", "")],
         3, "cover arrow not recorded"),
        ([("hz k=3 group=Z/2\n", "hz k=3 group=Z/4\n")],
         4, "groups differ but no map is recorded"),
        ([("p1u:3*sigma", "p1u:0")],
         KERNEL_4_TO_3 + ["--ascii"], (0, "Z\n")),
        ([("p1u:3*sigma", "p1u:0")],
         KERNEL_4_TO_3 + ["--format", "json"], (0, '"elements": null')),
        ([("homotopy d=3 k=1 group=0\n", "homotopy d=3 k=1 group=Z/2\n")],
         ["gilmer-masbaum"], (3, "the second cover no longer matches the stored one")),
        ([("psi:1*rho", "psi:2*rho")],
         ["gilmer-masbaum"], (3, "psi no longer maps to the generator")),
        ([("cohomology d=2 cover=1 k=3\n", "cohomology d=2 cover=1 k=3 gens=x:2\n")],
         ["restrict", "--d", "2", "--from", "2", "--to", "1", "--params", "3"],
         (2, "coordinate transport needs trivial finite parts")),
        # a kernel of the free coordinates alone would miss the finite part's theories
        ([("cohomology d=2 cover=1 k=3\n", "cohomology d=2 cover=1 k=3 gens=x:2\n")],
         ["kernel", "--d", "2", "--from", "2", "--to", "1"],
         (2, "coordinate transport needs trivial finite parts")),
        ([("gens=tau\n", "gens=tau,x:2\n"), ("cu:2*tau", "cu:2*tau+1*x")],
         ["kernel", "--d", "2", "--from", "2", "--to", "1"],
         (2, "image of cu lands outside the free generators")),
    ], ids=["cover-arrow-missing", "hz-group-differs", "infinite-kernel-text",
            "infinite-kernel-json", "second-cover", "psi-image", "finite-part",
            "finite-part-kernel", "torsion-image"])
    def test_an_edited_file_reaches_the_branch(self, capsys, monkeypatch, tmp_path,
                                               edits, run, expected):
        text = (SRC / "mtspec" / "data" / "certified_data.txt").read_text()
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        if isinstance(run, int):
            report = verify_les(run, parse_data(text))
            assert not report.all_exact
            assert expected in [check.note for check in report.checks]
            return
        path = tmp_path / "edited.txt"
        path.write_text(text)
        monkeypatch.setenv("MTSPEC_DATA", str(path))
        code, needle = expected
        assert main(run) == code
        captured = capsys.readouterr()
        assert needle in (captured.out if code == 0 else captured.err)
        assert "Traceback" not in captured.err
