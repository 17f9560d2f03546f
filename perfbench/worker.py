"""Closed-loop runner of one workload, started by run.py in a pinned environment.

One client, no extra threads: each operation starts after the previous one
has finished.  Operations are timed one by one; their answers are checked
against oracles.py after the clock stops.  The loop runs whole blocks until
the timed work reaches --seconds (and, untraced, at least MIN_SAMPLES
operations, so that p90 has ten samples beyond it).

With --trace 1 every block runs twice, untraced and traced, in alternating
order; both answers must agree, and the spans give the per-layer metrics.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import oracles
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 100
CALIBRATE_EVERY_NS = 50 * 10 ** 6
OP_TIMEOUT_S = 10
MODULES = ("cli", "certified", "charclasses", "spectra", "abelian", "classify",
           "tftlab", "exactnum")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "import.mtspec_ms": ("ms", "lower"),
    "import.cold_ms": ("ms", "lower"),
    "import.modules": ("count", "lower"),
    "cli.bare_interp_ms": ("ms", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "cli.build_parser_ms": ("ms/op", "lower"),
    "cli.render_ms": ("ms/op", "lower"),
    "certified.load_data.calls": ("calls/op", "lower"),
    "certified.load_data.self_ms": ("ms/op", "lower"),
    "certified.cache_hit_ratio": ("ratio", "higher"),
    "certified.parse_data.calls": ("calls/op", "lower"),
    "certified.parse_data.self_ms": ("ms/op", "lower"),
    "charclasses.thom_module_piece.calls": ("calls/op", "lower"),
    "charclasses.thom_module_piece.self_ms": ("ms/op", "lower"),
    "spectra.cohomology.calls": ("calls/op", "lower"),
    "spectra.cohomology.self_ms": ("ms/op", "lower"),
    "spectra.verify_les.self_ms": ("ms/op", "lower"),
    "spectra.derive_cover_cohomology.self_ms": ("ms/op", "lower"),
    "abelian.enumerate_extensions.self_ms": ("ms/op", "lower"),
    "abelian.check_exact.self_ms": ("ms/op", "lower"),
    "abelian.smith_normal_form.calls": ("calls/op", "lower"),
    "abelian.smith_normal_form.self_ms": ("ms/op", "lower"),
    "abelian.snf_max_digits": ("digits", "lower"),
}
for _module in MODULES:
    PER_LAYER[_module + ".calls"] = ("calls/op", "lower")
    PER_LAYER[_module + ".self_ms"] = ("ms/op", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "higher")


class OpTimeout(BaseException):
    """Raised by the per-operation alarm; a BaseException so no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def canon(x):
    """A plain, comparable form of an answer."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(canon(i) for i in x)
    if isinstance(x, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(repr(canon(i)) for i in x))
    if isinstance(x, Fraction):
        return str(x)
    return x


# ---------------------------------------------------------------------------
# in-process workloads


def _modules(*names):
    # `from mtspec import classify` would give the function the package re-exports
    return [importlib.import_module("mtspec." + name) for name in names]


def _api_runner():
    classify, spectra, tftlab = _modules("classify", "spectra", "tftlab")

    def run(op):
        kind = op[0]
        if kind == "cohomology":
            return spectra.cohomology(spectra.SpectrumId(op[1], 0), op[2])
        if kind == "cover_cohomology":
            return spectra.cohomology(spectra.SpectrumId(op[1], 1), op[2])
        if kind == "classify":
            return classify.classify(op[1], op[2])
        if kind == "restrict":
            return classify.restrict_theory(op[1], op[2], op[3],
                                            classify.TheoryParams.of(op[4]))
        if kind == "kernel":
            return classify.restriction_kernel(*op[1:])
        if kind == "grid":
            return spectra.grid_equivalence(*op[1:])
        if kind == "bordism":
            total = tftlab.parse_formal_sum(op[2], tftlab.standard_manifolds())
            return tftlab.vf_invariant(op[1], total), tftlab.is_vf_nullbordant(op[1], total)
        if kind == "euler":
            m = tftlab.parse_manifold(workloads.expression_text(op[2]),
                                      tftlab.standard_manifolds())
            return tftlab.euler_theory_value(op[1], tftlab.SurfaceBordism(m.euler, 0))
        if kind == "frobenius":
            m = tftlab.parse_manifold("#".join(op[2]), tftlab.standard_manifolds())
            return tftlab.frobenius_closed_value(op[1], (2 - m.euler) // 2)
        if kind == "four_d":
            m = tftlab.parse_manifold(workloads.expression_text(op[3]),
                                      tftlab.standard_manifolds())
            return tftlab.invertible_4d_value(op[1], op[2], m)
        if kind == "certificate":
            return classify.gilmer_masbaum_report()
        raise ValueError(kind)

    return run, oracles.check_api


def _verify_runner():
    certified, classify, spectra = _modules("certified", "classify", "spectra")

    def run(text):
        data = certified.parse_data(text)
        les = [spectra.verify_les(d, data) for d in (2, 3, 4)]
        derived = {(d, k): spectra.derive_cover_cohomology(
                       d, k, spectra.default_constraints(d, k, data), data)
                   for d in (2, 3, 4) for k in range(6)}
        return les, derived, classify.gilmer_masbaum_report(data)

    return run, lambda op, result: oracles.check_verify(result)


def check_snf_op(op, result):
    (u, d, v), coker, units = result
    a_rows = op[2]
    reason = oracles.check_snf(a_rows, u.to_rows(), d.to_rows(), v.to_rows(),
                               seed=len(a_rows))
    if reason:
        return reason
    diagonal = [x for x in d.diagonal() if x]
    expected = (len(a_rows) - len(diagonal), tuple(x for x in diagonal if x > 1))
    for name, group in (("cokernel", coker), ("units_kernel", units)):
        if (group.free_rank, tuple(group.torsion)) != expected:
            return "%s disagrees with the verified Smith form" % name
    return None


def _snf_runner():
    abelian, = _modules("abelian")

    def run(op):
        matrix = abelian.IntMatrix.from_rows(op[2])
        return (abelian.smith_normal_form(matrix), abelian.cokernel(matrix),
                abelian.units_kernel(matrix))

    return run, check_snf_op


def _blocks(workload, seed, block):
    if workload == "api-mix":
        return workloads.api_block(seed, block)
    if workload == "verify-data":
        return workloads.verify_block(seed, block, workloads.DATA_FILE.read_text())
    return workloads.snf_block(seed, block)


def timed(run, op):
    """(nanoseconds, answer, error) of one operation under the alarm."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        t0 = perf_counter_ns()
        try:
            answer = run(op)
        finally:
            t1 = perf_counter_ns()
    except OpTimeout:
        return t1 - t0, None, "timeout after %d s" % OP_TIMEOUT_S
    except Exception as exc:  # a crash of the program under test is a failure
        return t1 - t0, None, "crash: %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return t1 - t0, answer, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.reasons = {}

    def fail(self, reason):
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed(self):
        return sum(self.reasons.values())


def run_inprocess(args, out):
    import mtspec  # noqa: F401  (loads every module, so the tracer can wrap them all)
    from mtspec import certified
    certified.load_data()  # import and first load are set-up, measured by run.py
    run, check = {"api-mix": _api_runner, "verify-data": _verify_runner,
                  "snf-large": _snf_runner}[args.workload]()
    signal.signal(signal.SIGALRM, _alarm)
    for op in _blocks(args.workload, args.seed, -1):  # warm-up block
        timed(run, op)

    trace = tracer.Tracer() if args.trace else None
    tally, traced_lat, sympy_sample = Tally(), [], []
    scaled = speed.Scaled(speed.LOOP_REFERENCE_MS)
    lat = scaled.raw_ns
    measured = since_calibration = 0
    stop_wall = perf_counter_ns() + (4 * args.seconds + 30) * 10 ** 9
    block = 0
    while (measured < args.seconds * 10 ** 9
           or (not trace and len(lat) < MIN_SAMPLES)) and perf_counter_ns() < stop_wall:
        ops = _blocks(args.workload, args.seed, block)
        answers = {}
        order = (False, True) if block % 2 == 0 else (True, False)
        for traced in (order if trace else (False,)):
            if traced:
                trace.install()
            for i, op in enumerate(ops):
                if traced:
                    trace.op = len(traced_lat)
                ns, answer, error = timed(run, op)
                measured += ns
                if traced:
                    traced_lat.append(ns)
                else:
                    scaled.add(ns)
                    since_calibration += ns
                    if since_calibration >= CALIBRATE_EVERY_NS:
                        scaled.calibrate(speed.loop_ms())
                        since_calibration = 0
                answers.setdefault(i, []).append((traced, answer, error))
            if traced:
                trace.uninstall()
        for i, op in enumerate(ops):
            tally.attempted += 1
            untraced = next(a for a in answers[i] if not a[0])
            reason = untraced[2]
            if reason is None:
                try:
                    reason = check(op, untraced[1])
                except Exception as exc:  # a malformed answer is a failure
                    reason = "answer not checkable: %s: %s" % (type(exc).__name__, exc)
            if reason is None and trace:
                traced = next(a for a in answers[i] if a[0])
                if traced[2] is not None or canon(traced[1]) != canon(untraced[1]):
                    reason = "traced answer differs from the untraced one"
            if reason:
                tally.fail(reason)
            elif args.workload == "snf-large" and i == workloads.sympy_pick(args.seed, block, ops):
                sympy_sample.append([block, i, [str(x) for x in untraced[1][0][1].diagonal()]])
        block += 1

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled.calibrate(speed.loop_ms())
    out.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
               lat_ms=scaled.scaled_ms(), raw_lat_ns=list(lat), sympy=sympy_sample,
               maxrss_kb=maxrss_kb)
    if trace:
        spans_path = Path(args.work) / "spans.bin"
        trace.dump(spans_path)
        agg = tracer.Aggregate()
        agg.add(*tracer.load(spans_path))
        out["layers"] = layer_metrics(agg, len(traced_lat), sum(lat) / sum(traced_lat))


# ---------------------------------------------------------------------------
# cli-oneshot


def parse_importtime(stderr: str):
    """(ms of top-level mtspec imports, number of mtspec modules) from -X importtime."""
    top_us, modules = 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        raw = name[1:]
        stripped = raw.strip()
        if stripped == "mtspec" or stripped.startswith("mtspec."):
            modules += 1
            if raw == stripped and cumulative.strip().isdigit():
                top_us += int(cumulative)
    return top_us / 1000, modules


def call(cmd, env):
    """(nanoseconds, exit code, stdout, stderr) of one subprocess, with a timeout."""
    t0 = perf_counter_ns()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter_ns() - t0, None, "", ""
    ns = perf_counter_ns() - t0
    return (ns, proc.returncode, proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"))


def _check_call(expected, argv, result):
    _, code, stdout, stderr = result
    if code is None:
        return "timeout after %d s" % OP_TIMEOUT_S
    stderr = "\n".join(l for l in stderr.splitlines() if not l.startswith("import time:"))
    return oracles.check_cli(expected, argv, code, stdout, stderr)


def known_defects(env):
    """Reasons the known-defect inputs still fail, one per input."""
    expected = oracles.load_cli_expected()
    out = []
    for argv in workloads.KNOWN_DEFECTS:
        reason = _check_call(expected, argv, call([sys.executable, "-m", "mtspec", *argv], env))
        if reason:
            out.append([" ".join(argv), reason])
    return out


def run_cli(args, out):
    env = dict(os.environ)
    expected = oracles.load_cli_expected()
    work = Path(args.work)
    tally, traced_lat = Tally(), []
    scaled = speed.Scaled(speed.BARE_REFERENCE_MS)
    lat = scaled.raw_ns
    import_ms, modules, cold_ms = [], [], []
    agg = tracer.Aggregate()
    measured = 0
    stop_wall = perf_counter_ns() + (4 * args.seconds + 30) * 10 ** 9
    block = 0
    while (measured < args.seconds * 10 ** 9
           or (not args.trace and len(lat) < MIN_SAMPLES)) and perf_counter_ns() < stop_wall:
        for i, argv in enumerate(workloads.cli_block(args.seed, block)):
            tally.attempted += 1
            plain_cmd = [sys.executable, "-m", "mtspec", *argv]
            if args.trace:
                spans_path = work / ("spans-%d.bin" % len(traced_lat))
                traced_cmd = [sys.executable, "-X", "importtime",
                              str(HERE / "cli_traced.py"), *argv]
                traced_env = dict(env, PERFBENCH_SPANS=str(spans_path))
                if (i + block) % 2:  # alternate which of the pair runs first
                    traced = call(traced_cmd, traced_env)
                    plain = call(plain_cmd, env)
                else:
                    plain = call(plain_cmd, env)
                    traced = call(traced_cmd, traced_env)
                reason = _check_call(expected, argv, plain)
                traced_lat.append(traced[0])
                measured += traced[0]
                ms, count = parse_importtime(traced[3])
                import_ms.append(ms)
                modules.append(count)
                if spans_path.exists():
                    agg.add(*tracer.load(spans_path))
                    spans_path.unlink()
                if reason is None and traced[1:3] != plain[1:3]:
                    reason = "traced answer differs from the untraced one"
            else:
                plain = call(plain_cmd, env)
                reason = _check_call(expected, argv, plain)
            scaled.add(plain[0])
            # the bare interpreter is both the calibration and cli.bare_interp_ms
            scaled.calibrate(call([sys.executable, "-c", "pass"], env)[0] / 1e6)
            measured += plain[0]
            if reason:
                tally.fail(reason)
        if args.trace:  # the cold cache holds the standard library but not mtspec
            cold = call([sys.executable, "-B", "-X", "importtime", "-c", "import mtspec.cli"],
                        dict(env, PYTHONPYCACHEPREFIX=env["PERFBENCH_COLD_PREFIX"]))
            cold_ms.append(parse_importtime(cold[3])[0])
        block += 1

    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
               lat_ms=scaled.scaled_ms(), raw_lat_ns=list(lat), maxrss_kb=maxrss_kb,
               defects=known_defects(env))
    if args.trace:
        layers = layer_metrics(agg, len(traced_lat), sum(lat) / sum(traced_lat))
        bare_ms = statistics.median(scaled.calibration_ms)
        layers.update({
            "import.mtspec_ms": statistics.median(import_ms),
            "import.cold_ms": statistics.median(cold_ms) if cold_ms else 0.0,
            "import.modules": statistics.mean(modules),
            "cli.bare_interp_ms": bare_ms,
            "cli.overhead_ms": statistics.median(lat) / 1e6 - bare_ms,
        })
        out["layers"] = layers


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(agg: tracer.Aggregate, ops: int, overhead_ratio: float) -> dict:
    """Every per-layer metric, per traced operation; 0 where a layer is not called."""
    def per_op(value):
        return value / ops if ops else 0.0

    def fn(name):
        return (per_op(agg.calls.get(name, 0)), per_op(agg.self_ns.get(name, 0) / 1e6))

    layers = dict.fromkeys(PER_LAYER, 0.0)
    for name in ("certified.load_data", "certified.parse_data",
                 "charclasses.thom_module_piece", "spectra.cohomology",
                 "abelian.smith_normal_form"):
        layers[name + ".calls"], layers[name + ".self_ms"] = fn(name)
    for name in ("spectra.verify_les", "spectra.derive_cover_cohomology",
                 "abelian.enumerate_extensions", "abelian.check_exact"):
        layers[name + ".self_ms"] = fn(name)[1]
    for module in MODULES:
        calls, self_ns = agg.module_totals(module)
        layers[module + ".calls"], layers[module + ".self_ms"] = per_op(calls), per_op(self_ns / 1e6)
    load_calls = agg.calls.get("certified.load_data", 0)
    layers["certified.cache_hit_ratio"] = agg.load_data_hits / load_calls if load_calls else 0.0
    layers["cli.build_parser_ms"] = fn("cli.build_parser")[1]
    layers["cli.render_ms"] = per_op(agg.render_ns / 1e6)
    layers["abelian.snf_max_digits"] = agg.snf_max_digits
    layers["trace.overhead_ratio"] = overhead_ratio
    return layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    out = {}
    if args.workload == "cli-oneshot":
        run_cli(args, out)
    else:
        run_inprocess(args, out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
