"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads reproduce predict lhs --seeds 1-10 --out perfbench/out/spread.json

Runs perfbench/run.py once per workload and seed, one run at a time, with
the run_seconds of BENCHMARK.json.  For every metric, including those a run
prints but does not gate (op_p50_ms, fail_frac), it prints the median of
the runs and their spread, the distance between the first
and third quartile (statistics.quantiles with n=4) as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # Metrics printed but not gated, such as op_p50_ms and fail_frac.
            for line in lines[:-1]:
                words = line.split()
                if len(words) == 4 and words[0] == "#" and words[1] not in result["metrics"]:
                    try:
                        result["metrics"][words[1]] = {"value": float(words[2]), "unit": words[3]}
                    except ValueError:
                        pass
            results.setdefault(workload, []).append({"seed": seed, **result})
            values = {k: f"{v['value']:.4g}" for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
    summary = {}
    for workload, runs in results.items():
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{workload:10s} {name:24s} median {median:.6g} spread {spread:.4f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
