"""The mtspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from --seed; the workloads
are described in workloads.py and BENCHMARK.json.  Set-up time is measured
several times in fresh interpreters; the closed loop then runs in one
worker process (worker.py) with a pinned environment: PYTHONPATH is this
checkout's src, MTSPEC_DATA is unset, PYTHONHASHSEED is fixed and the
bytecode cache is a private directory warmed during set-up.  All scratch
files live under .perfbench-work/ and are removed at the end.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (from a traced run that also times the same operations untraced)
with --trace 1.  End-to-end times are scaled to a reference machine speed
by calibration samples interleaved with the operations (see speed.py);
per-layer values are raw.  Lines before the JSON record the Python version,
nproc, the sample count, the raw median latency and every failure reason.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import PER_LAYER  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s", "lat_p50_ms": "ms", "lat_p90_ms": "ms",
    "success_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 7
DEADLINE_S = 170

SETUP_SNIPPET = ("import sys; sys.path.insert(0, %r); import speed, time; "
                 "cal = speed.median([speed.loop_ms() for _ in range(5)]); "
                 "t0 = time.perf_counter(); import mtspec; "
                 "from mtspec.certified import load_data; load_data(); "
                 "print(time.perf_counter() - t0, cal)" % str(HERE))


def child_env(prefix: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "MTSPEC_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8",
               PYTHONPYCACHEPREFIX=str(prefix))
    return env


def _run(cmd, env, timeout=60):
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def measure_setup(workload: str, env: dict, prefix: Path, cold_prefix: Path) -> float:
    """Median set-up time in seconds at the reference speed; leaves the
    bytecode cache warm.

    In-process workloads: importing mtspec plus the first load_data(), timed
    and calibrated inside a fresh interpreter.  cli-oneshot: one
    `python -m mtspec table hz` whose bytecode cache holds the standard
    library but not mtspec, i.e. the call that warms the cache, calibrated
    by a bare interpreter started just before it.
    """
    _run([sys.executable, "-m", "mtspec", "table", "hz"], env)
    mtspec_cache = prefix / str(SRC / "mtspec").lstrip("/")
    shutil.copytree(prefix, cold_prefix)
    shutil.rmtree(cold_prefix / str(SRC / "mtspec").lstrip("/"))
    scaled = speed.Scaled(speed.BARE_REFERENCE_MS if workload == "cli-oneshot"
                          else speed.LOOP_REFERENCE_MS)
    for _ in range(SETUP_SAMPLES):
        if workload == "cli-oneshot":
            t0 = time.perf_counter_ns()
            _run([sys.executable, "-c", "pass"], env)
            scaled.calibrate((time.perf_counter_ns() - t0) / 1e6)
            shutil.rmtree(mtspec_cache)
            t0 = time.perf_counter_ns()
            _run([sys.executable, "-m", "mtspec", "table", "hz"], env)
            scaled.add(time.perf_counter_ns() - t0)
        else:
            seconds, calibration = _run([sys.executable, "-c", SETUP_SNIPPET], env).stdout.split()
            scaled.calibrate(float(calibration))
            scaled.add(round(float(seconds) * 1e9))
    return statistics.median(scaled.scaled_ms()) / 1e3


def sympy_failures(seed: int, sample) -> list:
    """Compare sampled Smith diagonals with sympy's; one reason per mismatch."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    reasons = []
    for block, index, diagonal in sample:
        rows = workloads.snf_block(seed, block)[index][2]
        snf = smith_normal_form(Matrix(rows), domain=ZZ)
        reference = [snf[i, i] for i in range(min(snf.shape))]
        reason = oracles.check_snf_diagonal(diagonal, reference)
        if reason:
            reasons.append(reason)
    return reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mtspec" / "__init__.py").is_file():
        print("error: %s does not hold the mtspec sources" % SRC, file=sys.stderr)
        return 2

    started = time.monotonic()
    work = ROOT / ".perfbench-work" / ("%s-%d" % (args.workload, os.getpid()))
    work.mkdir(parents=True)
    try:
        prefix, cold_prefix = work / "pycache", work / "pycache-cold"
        env = child_env(prefix)
        setup_s = measure_setup(args.workload, env, prefix, cold_prefix)
        worker_env = dict(env, PERFBENCH_COLD_PREFIX=str(cold_prefix))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
        remaining = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(cmd, env=worker_env, capture_output=True, text=True,
                              timeout=remaining)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("error: the worker exited with code %d" % proc.returncode, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    reasons = out["reasons"]
    failed = out["failed"]
    if args.workload == "snf-large":
        for reason in sympy_failures(args.seed, out["sympy"]):
            reasons[reason] = reasons.get(reason, 0) + 1
            failed += 1
    lat_ms = out["lat_ms"]
    raw_ms = [ns / 1e6 for ns in out["raw_lat_ns"]]

    print("# workload=%s seed=%d trace=%d python=%s nproc=%d samples=%d "
          "raw_p50_ms=%.4f raw_ops_per_s=%.4f"
          % (args.workload, args.seed, args.trace, platform.python_version(),
             len(os.sched_getaffinity(0)), len(lat_ms), statistics.median(raw_ms),
             len(raw_ms) / (sum(raw_ms) / 1e3)))
    for reason, count in sorted(reasons.items()):
        print("# failure x%d: %s" % (count, reason))
    for argv, reason in out.get("defects", []):
        print("# known defect (ROADMAP item 4) still present: mtspec %s: %s" % (argv, reason))

    if args.trace:
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "lat_p50_ms": statistics.median(lat_ms),
            "lat_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "success_ratio": 1 - failed / out["attempted"],
            "setup_s": setup_s,
            "peak_rss_mb": out["maxrss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
