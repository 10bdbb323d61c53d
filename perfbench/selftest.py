"""The benchmark's own tests: a short smoke run of every workload.

    python3 perfbench/selftest.py

For each workload: two untraced runs and one traced run of SECONDS each with
the seed SEED.
Checks that every metric BENCHMARK.json names is printed with its unit, that
no op failed, and that the digest and the work counts are identical across
the runs.  Also checks that run.py refuses to run, without printing a
result, in a directory that holds only the benchmark.  Prints every metric
by name and unit, and exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 2
SEED = 7


def run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def smoke(workload: str, seed: int, seconds: float) -> None:
    reports = []
    for trace in (0, 0, 1):
        proc = run(workload, seed, seconds, trace)
        expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
        *_, report_line, result_line = proc.stdout.strip().splitlines()
        result, report = json.loads(result_line), json.loads(report_line)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0,
               f"{workload} trace={trace}: failures {report['failures']}")
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
        print(f"{workload} seed={seed} trace={trace} ops={result['attempted']} failed_frac={report['failed_frac']}"
              + (f" tail=p{report['latency_tail_pct']} of n={report['latency_tail_n']} per block, blocks={report['blocks']},"
                 f" trend={report['block_trend']:.3f}" if not trace else ""))
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        reports.append(report)
    for r in reports[1:]:
        expect(r["digest"] == reports[0]["digest"], f"{workload}: digests differ across runs of one seed")
        expect(r["counts"] == reports[0]["counts"], f"{workload}: work counts differ across runs of one seed")


def refuses_without_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 1, 1, 0, cwd=Path(tmp))
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"run.py without the program exited {proc.returncode} with output {proc.stdout[-300:]!r}")
    print("without the program: refused, exit code", proc.returncode)


def main() -> int:
    for w in SPEC["workloads"]:
        smoke(w["name"], SEED, SECONDS)
    refuses_without_program()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
