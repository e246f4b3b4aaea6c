"""Benchmark of the ceviangeo exact engine: one workload, one seed, one result.

    python3 bench/run.py --workload sweep-generic --seed 7 --seconds 20 --trace 0

Runs closed-loop ops (one caller, no threads) for --seconds of op time,
checks every op's output with independent arithmetic, and prints as its
last line one JSON object: correct, attempted, failed and the metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
times the same ops untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import oracle
import probe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_OPS = 200          # p95 then has ten samples beyond it
SPEED_WINDOW = 16      # an op's host speed is the mean probe of the ops within this many
WALL_LIMIT_S = 150.0   # stop at the next round past this, to exit well within 180 s
SETUP_SAMPLES = 9
VERDICT_OPS = 100      # the verdict hash covers ops 0..VERDICT_OPS-1
REPORTED_PROBLEMS = 5

SETUP_CHILD = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ceviangeo, ceviangeo.cli
ceviangeo.cli.build_parser()
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import probe
print(seconds, statistics.median(probe.probe() for _ in range(5)), ceviangeo.__file__)
"""

FIGURE_IDS = ("collinearity", "fixed_point", "half_turn", "isotomcomplement",
              "midpoint_perspectivity", "parallel_lemma", "trace_circle")
LAYERS = ("sampling", "configuration", "theorems", "conjugacy", "conic", "affine",
          "triangle", "projective", "cli", "svgfig", "bench")

# Per-op inclusive time of a span name: (metric name, unit).
TIMED_SPANS = {
    "sampling.sample_configuration": "ms",
    "configuration.build_configuration": "ms",
    "theorems.run_suite": "ms",
    **{f"theorems.{i}": "us" for i in oracle.STATEMENT_IDS},
    "conjugacy.cyclocevian": "us",
    "conjugacy.formula_one": "us",
    "conjugacy.formula_two": "us",
    "conjugacy.ceva_conjugate": "us",
    "conic.circle_through_three": "us",
    "affine.from_correspondence": "us",
    "affine.apply": "us",
    "affine.compose": "us",
    "affine.invert": "us",
    "affine.fixed_points": "us",
    "triangle.Triangle": "us",
    "triangle.point_to_bary": "us",
    "triangle.bary_to_point": "us",
    "triangle.cevian_triangle": "us",
    "triangle.classify_point": "us",
    "projective.HPoint": "us",
    "projective.join": "us",
    "projective.meet": "us",
    "projective.collinear": "us",
    "projective.midpoint": "us",
    "cli.parse_document": "us",
    "cli.derive_document": "ms",
    "cli.dumps": "ms",
    **{f"svgfig.{f}": "ms" for f in FIGURE_IDS},
}
# Per-op call counts of the kernel entry points doing the most repeated work.
COUNTED_SPANS = ("projective.HPoint", "triangle.point_to_bary", "affine.apply",
                 "conjugacy.cyclocevian", "conjugacy.formula_two")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}_{unit}": unit for name, unit in TIMED_SPANS.items()}
    units["svgfig.render_figure_ms"] = "ms"
    units["configuration.max_coord_bits"] = "bits"
    units["theorems.pass"] = "count"
    units["theorems.skipped"] = "count"
    units["cli.doc_bytes"] = "bytes"
    units.update({f"{name}_calls": "count" for name in COUNTED_SPANS})
    units.update({f"self.{layer}_ms": "ms" for layer in LAYERS})
    units["trace.untraced_op_ms"] = "ms"
    units["trace.traced_op_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_engine() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "ceviangeo", "__init__.py")):
        fail(f"no ceviangeo package under {SRC}")
    sys.path.insert(0, SRC)
    import ceviangeo
    if not os.path.abspath(ceviangeo.__file__).startswith(SRC + os.sep):
        fail(f"imported ceviangeo from {ceviangeo.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median import-to-ready time of SETUP_SAMPLES fresh interpreters, each
    scaled to reference host speed by a probe run in the same child."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, SRC, BENCH],
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"set-up child failed: {done.stderr.strip()}")
        seconds, probe_ms, origin = done.stdout.split()
        if not os.path.abspath(origin).startswith(SRC + os.sep):
            fail(f"set-up child imported ceviangeo from {origin}")
        if i:  # the first child may still be writing bytecode caches
            samples.append(float(seconds) * probe.REFERENCE_MS / float(probe_ms))
    return statistics.median(samples)


class Pass:
    """Outcome of one sequence of ops: latencies, failures and check stats."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.verdicts: list[str] = []
        self.bits = 0
        self.passed = 0
        self.skipped = 0
        self.doc_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Op wall times at reference host speed: each is scaled by
        REFERENCE_MS over the mean probe time of the ops around it."""
        prefix = [0.0]
        for ms in self.probes:
            prefix.append(prefix[-1] + ms)
        n = len(self.latencies)
        scaled = []
        for i, seconds in enumerate(self.latencies):
            lo, hi = max(0, i - SPEED_WINDOW), min(n, i + SPEED_WINDOW + 1)
            host_ms = (prefix[hi] - prefix[lo]) / (hi - lo)
            scaled.append(seconds * probe.REFERENCE_MS / host_ms)
        return scaled

    def speed(self) -> float:
        """Reference over mean probe time: above 1 on a faster host."""
        return probe.REFERENCE_MS / statistics.fmean(self.probes)


def _report(item, problems) -> None:
    print(f"bench: op {item.index} failed: " + "; ".join(map(str, problems[:3])),
          file=sys.stderr)


def run_pass(workload, items, seconds: float, tracer=None, limit=None) -> Pass:
    """Run ops until `seconds` of op time and MIN_OPS ops (or `limit` ops),
    always ending on a whole round; check each op untimed."""
    result = Pass()
    timed = 0.0
    wall_start = time.perf_counter()
    op = workload.op
    if tracer is not None:
        op = lambda it: tracer.span("bench.op", workload.op, it)
    for item in items:
        if tracer is not None:
            tracer.op_id, tracer.on = item.index, True
        start = time.perf_counter()
        try:
            output = op(item)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            error = traceback.format_exception_only(exc)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        timed += elapsed
        result.latencies.append(elapsed)
        result.probes.append(probe.probe())
        if error is None:
            try:
                checked = workload.check(item, output)
                problems = checked.problems
            except Exception as exc:  # a check that cannot read the output fails it
                problems = traceback.format_exception_only(exc)
        else:
            problems = error
        if problems:
            result.failed += 1
            if result.failed <= REPORTED_PROBLEMS:
                _report(item, problems)
        else:
            if item.index < VERDICT_OPS:
                result.verdicts += [f"{item.index} {i} {s}" for i, s in checked.verdicts]
            result.bits = max(result.bits, checked.bits)
            result.passed += checked.passed
            result.skipped += checked.skipped
            result.doc_bytes += checked.doc_bytes
        if result.attempted % workload.round_size:
            continue
        if limit is not None:
            if result.attempted >= limit:
                break
        elif timed >= seconds and result.attempted >= MIN_OPS:
            break
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    return result


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "ceviangeo")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def print_info(workload: str, seed: int, result: Pass) -> None:
    if result.verdicts:
        digest = hashlib.sha256("\n".join(result.verdicts).encode()).hexdigest()
        ops = min(result.attempted, VERDICT_OPS)
        print(f"verdict-hash {workload} seed={seed} ops=0..{ops - 1}: {digest}")
    print(f"src-lines: {src_lines()}")


def print_unscaled(result: Pass) -> None:
    """Informational: the wall-clock figures before host-speed scaling."""
    print(f"wall clock, unscaled: {result.attempted / sum(result.latencies):.3f} ops/s, "
          f"p50 {statistics.median(result.latencies) * 1e3:.3f} ms; "
          f"mean probe {statistics.fmean(result.probes):.3f} ms "
          f"(reference {probe.REFERENCE_MS} ms)")


def end_to_end(result: Pass, setup_s: float) -> dict:
    lat = result.scaled_latencies()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p95": (statistics.quantiles(lat, n=20)[18] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    """Per-op layer figures of the traced pass, times at reference host speed."""
    n = traced.attempted
    speed = traced.speed()
    scale = {"ms": 1e6 / speed, "us": 1e3 / speed}
    values = {}
    for name, unit in TIMED_SPANS.items():
        values[f"{name}_{unit}"] = tracer.inclusive_ns.get(name, 0) / scale[unit] / n
    values["svgfig.render_figure_ms"] = sum(
        values[f"svgfig.{f}_ms"] for f in FIGURE_IDS)
    values["configuration.max_coord_bits"] = traced.bits
    values["theorems.pass"] = traced.passed / n
    values["theorems.skipped"] = traced.skipped / n
    values["cli.doc_bytes"] = traced.doc_bytes / n
    for name in COUNTED_SPANS:
        values[f"{name}_calls"] = tracer.calls.get(name, 0) / n
    for layer in LAYERS:
        values[f"self.{layer}_ms"] = tracer.self_ns.get(layer, 0) / scale["ms"] / n
    untraced_ms = sum(untraced.scaled_latencies()[:n]) / n * 1e3
    traced_ms = sum(traced.scaled_latencies()) / n * 1e3
    values["trace.untraced_op_ms"] = untraced_ms
    values["trace.traced_op_ms"] = traced_ms
    values["trace.overhead_pct"] = (traced_ms / untraced_ms - 1) * 100
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_self_table(metrics: dict) -> None:
    op_ms = metrics["trace.traced_op_ms"]["value"]
    print("self time per op, traced:")
    for layer in LAYERS:
        ms = metrics[f"self.{layer}_ms"]["value"]
        print(f"  {layer:<14} {ms:9.3f} ms  {ms / op_ms * 100:5.1f} %")
    print(f"  {'total':<14} {op_ms:9.3f} ms  (untraced "
          f"{metrics['trace.untraced_op_ms']['value']:.3f} ms, overhead "
          f"{metrics['trace.overhead_pct']['value']:.1f} %)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_engine()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, tracer)
    if not args.trace:
        setup_s = measure_setup()
        result = run_pass(workload, workload.inputs(args.seed), args.seconds)
        metrics = end_to_end(result, setup_s)
        print_unscaled(result)
        passes = [result]
    else:
        untraced = run_pass(workload, workload.inputs(args.seed), args.seconds / 2)
        tracer.install()
        try:
            traced = run_pass(workload, workload.inputs(args.seed), args.seconds,
                              tracer=tracer, limit=untraced.attempted)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, untraced, traced)
        print_self_table(metrics)
        print_unscaled(untraced)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "ops": traced.attempted, "spans_of_ops": tracing.SPAN_OPS,
                            "metrics": {k: v["value"] for k, v in metrics.items()}})
        print(f"spans: {path}")
        result = untraced
        passes = [untraced, traced]

    print_info(args.workload, args.seed, result)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
