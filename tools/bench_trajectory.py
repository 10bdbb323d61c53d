"""Record one point of the benchmark trajectory: BENCH_<pr>.json.

    python3 tools/bench_trajectory.py --pr N

For each workload in BENCHMARK.json, runs perfbench/run.py with seed 1 for
the benchmark's run_seconds, three times untraced (--trace 0, the end-to-end
metrics) and once traced (--trace 1, the per-layer metrics), each in its own
process.  A single untraced run on a noisy host can be far from the typical
one, so each end-to-end metric is the median of the three.  Writes
BENCH_<pr>.json at the root of the checkout with the commit, the host, and per
workload the end-to-end medians, the per-layer metrics, the digest and the
failed op counts (trace_0 summed over the untraced runs).  Exits 1, writing
nothing, when a run exits non-zero, reports correct: false, or the runs'
digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
UNTRACED_RUNS = 3


def run(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """The report and the result object of one run.py run."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"error: {workload} --trace {trace} reported correct: false: {report['failures']}")
    return report, result


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    args = ap.parse_args(argv)
    seconds = SPEC["run_seconds"]

    workloads = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        plain = [run(name, seconds, 0) for _ in range(UNTRACED_RUNS)]
        traced, traced_result = run(name, seconds, 1)
        digests = [report["digest"] for report, _ in plain] + [traced["digest"]]
        if len(set(digests)) != 1:
            sys.exit(f"error: {name} digests differ: {', '.join(digests[:-1])} untraced, {digests[-1]} traced")
        end_to_end = {
            metric: {"value": statistics.median(r["metrics"][metric]["value"] for _, r in plain), "unit": m["unit"]}
            for metric, m in plain[0][1]["metrics"].items()
        }
        workloads[name] = {
            "digest": digests[0],
            "end_to_end": end_to_end,
            "per_layer": traced_result["metrics"],
            "failed": {"trace_0": sum(r["failed"] for _, r in plain), "trace_1": traced_result["failed"]},
        }
        print(f"{name}: digest {digests[0]}, median {end_to_end['ops_per_s']['value']:.1f} ops/s", flush=True)

    out = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "tree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "host": {"python": platform.python_version(), "numpy": numpy.__version__, "cpus": os.cpu_count()},
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
