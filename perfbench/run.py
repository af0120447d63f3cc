"""Run one workload of the steerkit benchmark and print its metrics.

Run from the repository root, which holds ``src/steerkit``:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 35 --trace 0

One process, one thread, one client in a closed loop: the next operation
starts when the previous one returns.  Inputs are generated from --seed
before timing starts.  Every operation's output is checked; an operation
that raises or fails its check counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every input twice,
untraced and traced, and reports the per-layer metrics from the traced
runs; the spans are written to perfbench/out/.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(entry_modules, runs: int):
    """Median wall time of a fresh interpreter importing the entry modules.

    Also returns the interpreter's module count after the imports and
    whether scipy was among them.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(entry_modules)}; "
        "print(len(sys.modules), int('scipy' in sys.modules))"
    )
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(time.perf_counter() - start)
    modules, scipy_loaded = (int(v) for v in done.stdout.split())
    return statistics.median(times), modules, scipy_loaded


def percentile(sorted_values, q: float) -> float:
    """Linearly interpolated q-quantile of sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


class Outcomes:
    """Per-operation results of a closed loop."""

    def __init__(self):
        self.attempted = 0
        self.latencies_ms: list[float] = []
        self.failures: list[str] = []

    def run(self, workload, x, index: int):
        """Run and check one operation.

        Returns its latency (None if it raised), its output (None if it
        raised) and whether it passed its check.
        """
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = workload.operate(x)
        except Exception as exc:  # every failure is counted, none stops the run
            self.failures.append(f"operation {index} raised {type(exc).__name__}: {exc}")
            return None, None, False
        elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        try:
            workload.check(x, out)
        except Exception as exc:
            self.failures.append(f"operation {index} failed its check: {exc}")
            return elapsed_ms, out, False
        self.latencies_ms.append(elapsed_ms)
        return elapsed_ms, out, True


def measure(workload, inputs, seconds: float):
    """Closed loop for `seconds`; outcomes and the loop's wall time."""
    outcomes = Outcomes()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        outcomes.run(workload, inputs[index % len(inputs)], index)
        index += 1
    return outcomes, time.perf_counter() - start


def measure_traced(workload, inputs, seconds: float, tracer):
    """Every input untraced and traced, alternating which runs first.

    Returns the outcomes, the operations whose both runs succeeded as
    (untraced ms, traced ms), and the traced runs as (output, passed).
    """
    outcomes = Outcomes()
    pairs, traced_outputs = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        x = inputs[index % len(inputs)]
        times = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install(index)
            try:
                elapsed_ms, out, passed = outcomes.run(workload, x, index)
            finally:
                if traced:
                    tracer.uninstall()
            times[traced] = elapsed_ms if passed else None
            if traced:
                traced_outputs.append((out, passed))
        if None not in times.values():
            pairs.append((times[False], times[True]))
        index += 1
    return outcomes, pairs, traced_outputs


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, wall_s, setup_s) -> dict:
    """The metrics BENCHMARK.json gates; the operation timings are printed only.

    On a machine whose cores other tenants share, throughput and latency
    move with the share of a run those tenants slow down, by as much as the
    largest bound the benchmark may set (README, Measurement limits).
    """
    lat = sorted(outcomes.latencies_ms)
    p90 = percentile(lat, 0.9)
    above = sum(v > p90 for v in lat)
    print(f"# {len(lat)} latency samples, {above} above op_p90_ms")
    print(f"# ops_per_s {len(lat) / wall_s} 1/s")
    print(f"# op_p50_ms {percentile(lat, 0.5)} ms")
    print(f"# op_p90_ms {p90} ms")
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, pairs, traced_outputs, modules, scipy_loaded) -> dict:
    ops = len(traced_outputs)
    metrics = {name: metric(v, unit) for name, (v, unit) in tracer.layer_metrics(ops).items()}
    calls = sum(1 for name, *_ in tracer.spans if name.startswith("lhs.membership_n"))
    verdicts = [(out.status, passed) for out, passed in traced_outputs if hasattr(out, "status")]
    certified = sum(passed for _, passed in verdicts)
    metrics["lhs.feasible"] = metric(sum(s == "feasible" for s, _ in verdicts), "count")
    metrics["lhs.infeasible"] = metric(sum(s == "infeasible" for s, _ in verdicts), "count")
    metrics["lhs.errors"] = metric(calls - len(verdicts), "count")
    metrics["lhs.certified_ratio"] = metric(certified / calls if calls else 0.0, "ratio")
    metrics["setup.sys_modules"] = metric(modules, "count")
    metrics["setup.scipy_loaded"] = metric(scipy_loaded, "count")
    untraced = sum(u for u, _ in pairs)
    metrics["trace.overhead_frac"] = metric(sum(t for _, t in pairs) / untraced - 1.0, "ratio")
    metrics["trace.self_sum_p50_ms"] = metric(tracer.self_sum_p50_ms(), "ms")
    metrics["trace.untraced_p50_ms"] = metric(statistics.median(u for u, _ in pairs), "ms")
    return metrics


def fail(message: str, outcomes) -> int:
    print(f"error: {message}", file=sys.stderr)
    for line in outcomes.failures[:5]:
        print(line, file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steerkit" / "__init__.py").is_file():
        print(f"error: no steerkit sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import steerkit
    import workloads

    if Path(steerkit.__file__).resolve().parent != (SRC / "steerkit").resolve():
        print(f"error: imported steerkit from {steerkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_s, modules, scipy_loaded = measure_setup(
        workload.entry_modules, 1 if args.trace else SETUP_RUNS)
    inputs = workload.inputs(args.seed)
    warmup = Outcomes()
    for i in range(workload.warmup):
        warmup.run(workload, inputs[i], i)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        outcomes, pairs, traced_outputs = measure_traced(workload, inputs, args.seconds, tracer)
        if not pairs:
            return fail("no operation succeeded both untraced and traced", outcomes)
        metrics = per_layer(tracer, pairs, traced_outputs, modules, scipy_loaded)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path}")
        for name in tracer.absent:
            print(f"# absent: {name} (not wrapped; its metrics read 0)")
    else:
        outcomes, wall_s = measure(workload, inputs, args.seconds)
        if not outcomes.latencies_ms:
            return fail("no operation succeeded", outcomes)
        metrics = end_to_end(outcomes, wall_s, setup_s)

    failures = warmup.failures + outcomes.failures
    attempted = warmup.attempted + outcomes.attempted
    for line in failures[:10]:
        print(f"# failed {line}", file=sys.stderr)
    print(f"# fail_frac {len(failures) / attempted} ratio")
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
