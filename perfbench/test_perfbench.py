"""Tests of the benchmark itself: seeded inputs, oracles and tracer.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BASE_TEXT = workloads.DATA_FILE.read_text()


def _blocks(seed, block):
    return {"cli-oneshot": workloads.cli_block(seed, block),
            "api-mix": workloads.api_block(seed, block),
            "verify-data": workloads.verify_block(seed, block, BASE_TEXT),
            "snf-large": workloads.snf_block(seed, block)}


def test_a_seed_always_gives_the_same_inputs():
    for seed in (0, 1, 12345):
        for block in (0, 3):
            assert _blocks(seed, block) == _blocks(seed, block)
    first, other = _blocks(1, 0), _blocks(2, 0)
    for name in workloads.WORKLOADS:
        assert first[name] != other[name], name


def test_blocks_have_a_fixed_composition():
    for seed in (1, 2):
        kinds = [op[0] for op in workloads.api_block(seed, 0)]
        assert sorted(kinds) == sorted(k for k, n in workloads.API_MIX for _ in range(n))
        shapes = [(n, shape) for n, shape, _ in workloads.snf_block(seed, 0)]
        assert sorted(shapes) == sorted((n, s) for n, count in workloads.SNF_COUNTS.items()
                                        for s in workloads.SNF_SHAPES for _ in range(count))
        assert len(workloads.cli_block(seed, 0)) == 3 * len(workloads.CLI_VARIANTS)


def test_snf_inputs_respect_entry_bound_and_rank():
    from sympy import Matrix
    rng = random.Random(5)
    for n in (10, 20):
        rows = workloads.random_matrix(rng, n, "deficient")
        assert all(-9 <= x <= 9 for row in rows for x in row)
        assert Matrix(rows).rank() == n - n // 4


def test_every_cli_pool_entry_has_an_expectation():
    expected = oracles.load_cli_expected()
    pool = [v + form for variants in workloads.CLI_VARIANTS.values()
            for v in variants for form in workloads.CLI_FORMS]
    for argv in pool + workloads.KNOWN_DEFECTS:
        assert tuple(argv) in expected


def test_cli_oracle_rejects_a_changed_byte():
    expected = oracles.load_cli_expected()
    argv = ["table", "hz", "--ascii"]
    code, stdout = expected[tuple(argv)]
    assert oracles.check_cli(expected, argv, code, stdout, "") is None
    changed = stdout.replace("Z/6", "Z/7")
    assert oracles.check_cli(expected, argv, code, changed, "") is not None
    assert oracles.check_cli(expected, argv, 1, stdout, "") is not None


def test_verify_oracle_rejects_a_tampered_data_variant():
    run_op, check = worker._verify_runner()
    rng = random.Random(3)
    good = workloads.data_variant(BASE_TEXT, rng)
    assert check(good, run_op(good)) is None
    tampered_base = BASE_TEXT.replace("sigma:2*rho", "sigma:4*rho")
    assert tampered_base != BASE_TEXT
    tampered = workloads.data_variant(tampered_base, rng)
    assert check(tampered, run_op(tampered)) is not None


def test_snf_oracle_rejects_a_perturbed_diagonal():
    from mtspec.abelian import IntMatrix
    run_op, check = worker._snf_runner()
    op = next(op for op in workloads.snf_block(4, 0) if op[0] == 10 and op[1] == "square")
    result = run_op(op)
    assert check(op, result) is None
    (u, d, v), coker, units = result
    rows = d.to_rows()
    rows[-1][-1] *= 2
    perturbed = ((u, IntMatrix.from_rows(rows), v), coker, units)
    assert check(op, perturbed) is not None
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(Matrix(op[2]), domain=ZZ)
    reference = [snf[i, i] for i in range(min(snf.shape))]
    assert oracles.check_snf_diagonal(d.diagonal(), reference) is None
    assert oracles.check_snf_diagonal([rows[i][i] for i in range(len(rows))], reference) \
        is not None


def test_snf_oracle_rejects_a_non_unimodular_transform():
    a = [[2, 0], [0, 3]]
    assert oracles.check_snf(a, [[1, 0], [0, 1]], [[1, 0], [0, 6]], [[1, 0], [0, 1]]) \
        is not None  # not U*A*V
    assert oracles.check_snf([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]],
                             [[1, 0], [0, 1]]) is not None  # det U = 2


def test_api_oracle_rejects_a_wrong_value():
    run_op, _ = worker._api_runner()
    op = ("euler", "3/2", [["Sigma_2", "S2"], ["Sigma_0"]])
    value = run_op(op)
    assert oracles.check_api(op, value) is None
    assert oracles.check_api(op, value * 2) is not None
    op = ("classify", 4, 4)
    assert oracles.check_api(op, run_op(op)) is None
    assert oracles.check_api(("classify", 4, 3), run_op(op)) is not None


def test_api_oracle_accepts_a_whole_block():
    run_op, check = worker._api_runner()
    for op in workloads.api_block(9, 0):
        assert check(op, run_op(op)) is None, op


def test_traced_answers_equal_untraced_ones_and_uninstall_restores():
    from mtspec import spectra
    run_op, _ = worker._api_runner()
    ops = workloads.api_block(11, 0)
    original = spectra.cohomology
    plain = [worker.canon(run_op(op)) for op in ops]
    trace = tracer.Tracer()
    trace.install()
    try:
        assert spectra.cohomology is not original
        traced = [worker.canon(run_op(op)) for op in ops]
    finally:
        trace.uninstall()
    assert spectra.cohomology is original
    assert traced == plain
    assert len(trace.spans) > 0


def test_self_times_partition_the_traced_time(tmp_path):
    run_op, _ = worker._verify_runner()
    text = workloads.verify_block(1, 0, BASE_TEXT)[0]
    trace = tracer.Tracer()
    trace.install()
    try:
        run_op(text)
    finally:
        trace.uninstall()
    trace.dump(tmp_path / "spans.bin")
    header, spans = tracer.load(tmp_path / "spans.bin")
    agg = tracer.Aggregate()
    agg.add(header, spans)
    f = tracer.FIELDS
    roots = sum(spans[i + 4] - spans[i + 3] for i in range(0, len(spans), f)
                if spans[i + 2] < 0)
    assert sum(agg.self_ns.values()) == roots
    assert agg.calls["certified.parse_data"] == 1
    assert agg.calls["spectra.verify_les"] == 3
    assert agg.calls["spectra.derive_cover_cohomology"] == 18
    assert agg.calls["abelian.enumerate_extensions"] > 0
    assert agg.self_ns["abelian.enumerate_extensions"] > 0


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == worker.PER_LAYER


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "api-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("text", ["3", "-3/2", "zeta6^5", "-2*zeta3", "zeta4^-1"])
def test_exact_literals_agree_with_mtspec(text):
    from mtspec.exactnum import parse_exact
    assert oracles.as_exact(parse_exact(text)) == oracles.exact_literal(text)


def test_scaled_times_follow_the_nearby_calibration():
    import speed
    scaled = speed.Scaled(2.0)
    scaled.add(10_000_000)          # 10 ms while the loop takes 4 ms: half speed
    for ms in [4.0] * 6 + [1.0] * 6:
        scaled.calibrate(ms)
    scaled.add(10_000_000)          # 10 ms while the loop takes 1 ms: double speed
    for _ in range(3):
        scaled.calibrate(1.0)
    assert scaled.scaled_ms() == [5.0, 20.0]


def test_importtime_counts_only_top_level_mtspec_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   mtspec.errors",
        "import time:      5000 |      20000 | mtspec",
        "import time:       300 |        300 |   json",
        "import time:      1000 |       1500 | mtspec.cli",
        "error: something else",
    ])
    assert worker.parse_importtime(stderr) == (21.5, 3)
