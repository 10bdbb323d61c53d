"""magari benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from ./src.
One process, one thread, a closed loop: each op starts when the previous one
returns, over a fixed input set made from --seed.  --trace 0 prints the
end-to-end metrics, measured with tracing off; --trace 1 prints the per-layer
metrics from a traced run.  The last stdout line is the result object; the
line before it is a report with the digest, the work counts and the tail
percentile used.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-spans"

# Input sets, in blocks of equal composition, hold over twice what a run of
# 30 s gets through on the seed code.  A faster program wraps round to the
# first block, which is harmless: every block costs the same work, and a
# repeated input must give the same answer.
INPUT_BLOCKS = {"crosscheck": 24, "deep-decide": 36, "closure": 44}
# RSS_OPS inputs at the 99th percentile of weight in the whole set run once,
# untimed, before the timed loop; peak_rss_mb is read after them, so it does
# not depend on how far the loop gets.  The set's very largest inputs would
# make it move with the seed, by about ±10% on crosscheck.
RSS_OPS = 8
# The first DIGEST_OPS inputs are replayed after the timed loop, untimed, for
# the digest and the exact work counts.
DIGEST_OPS = 48
# set-up probes before and after the timed loop, to sample two machine spells
SETUP_PROBES = (3, 3)
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)


def load(workload: str, seed: int):
    """The measured set-up: import the program from ./src and make the inputs."""
    if not (SRC / "magari" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'magari'}")
    sys.path.insert(0, str(SRC))
    import magari
    import workloads

    if Path(magari.__file__).resolve().parent != SRC / "magari":
        sys.exit(f"error: imported magari from {magari.__file__}, not from {SRC}")
    w = workloads.WORKLOADS[workload]
    return w, w.inputs(random.Random(seed), INPUT_BLOCKS[workload] * w.BLOCK)


def setup_seconds(args, repeats: int) -> list[float]:
    """Wall times from process start until imports and inputs are done."""
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
        times.append(elapsed)
    return times


def timed_loop(w, inputs, seconds: float | None = None, limit: int | None = None, tracer=None):
    """Closed loop over the inputs, in order, until the time or op limit is reached."""
    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    deadline = start + (seconds if seconds is not None else math.inf)
    i = 0
    while clock() < deadline and (limit is None or i < limit):
        inp = inputs[i % len(inputs)]
        t0 = clock()
        try:
            out = tracer.call_op(i, w.run, inp) if tracer else w.run(inp)
        except Exception as e:  # an op that raises is a failed op, not a crash
            out = e
        latencies.append(clock() - t0)
        outputs.append(out)
        i += 1
    return latencies, outputs, clock() - start


def check_outputs(w, inputs, outputs, seen: dict) -> list[str]:
    """Outside correctness check of every op; returns one reason per failed op.

    seen maps an input index to its (key, reason) from its first run, so that
    a repeated input is checked once and must then give the same answer."""
    failures = []
    for i, out in enumerate(outputs):
        j = i % len(inputs)
        if isinstance(out, Exception):
            failures.append(f"op {i} raised {type(out).__name__}: {out}")
            continue
        key = json.dumps(w.key(inputs[j], out))
        if j not in seen:
            try:
                reason = w.check(inputs[j], out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
            seen[j] = (key, reason)
        first_key, reason = seen[j]
        if reason is None and key != first_key:
            reason = "a repeated input gave another answer"
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return failures


def digest_pass(w, inputs, tracer, seen: dict):
    """Replay the first inputs untimed, counting work; digest their answers."""
    n = min(DIGEST_OPS, len(inputs))
    tracer.install("work")
    try:
        _, outputs, _ = timed_loop(w, inputs[:n], limit=n)
    finally:
        tracer.uninstall()
    failures = check_outputs(w, inputs[:n], outputs, seen)
    keys = [seen[j][0] for j in range(n) if j in seen]
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    return n, digest, failures


def percentile(ordered: list[float], pct: float) -> float:
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def fast(times) -> float:
    """The first decile: the speed the program runs at when the machine lets it."""
    times = list(times)
    return statistics.quantiles(times, n=10, method="inclusive")[0] if len(times) > 1 else times[0]


def block_metrics(latencies: list[float], block: int):
    """Throughput, median latency and tail latency of the fast decile of blocks.

    The timed loop runs whole blocks of inputs of equal composition.  On a
    shared 2-vCPU host the same block runs up to twice as slow in spells
    of seconds to minutes when neighbours are busy; the noise only ever
    slows.  So each metric is taken per complete block, and the first decile
    of the block times (the ninth of throughputs) is reported: the speed the
    program runs at when the machine lets it.  The tail percentile is the
    highest listed one with at least 10 samples beyond it within a block.
    The trend is the last block's time over the first's: a slowdown that
    grows over the run shows there, while the fast decile hides it.
    """
    blocks = [sorted(latencies[i:i + block]) for i in range(0, len(latencies) - block + 1, block)]
    blocks = blocks or [sorted(latencies)]
    n = len(blocks[0])
    pct = max([p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10], default=TAIL_PERCENTILES[0])

    return {
        "ops_per_s": n / fast(sum(b) for b in blocks),
        "latency_p50_ms": fast(statistics.median(b) for b in blocks) * 1000.0,
        "latency_tail_ms": fast(percentile(b, pct) for b in blocks) * 1000.0,
    }, pct, n, len(blocks), sum(blocks[-1]) / sum(blocks[0])


def work_metrics(work, ops: int) -> dict[str, tuple[float, str]]:
    def per(count, base):
        return work[count] / base if base else 0.0

    return {
        "decide.oracle_calls": (per("decide.oracle_calls", ops), "count/op"),
        "decide.oracle_lanes": (per("decide.oracle_lanes", work["decide.oracle_calls"]), "lanes/call"),
        "decide.oracle_first_hit_frac": (per("decide.oracle_first_hit_frac", work["decide.oracle_hits"]), "fraction"),
        "decide.decide_calls": (per("decide.decide_calls", ops), "count/op"),
        "decide.step_calls": (per("decide.step_calls", ops), "count/op"),
        "decide.refuted_frac": (per("decide.refuted", work["decide.decide_calls"]), "fraction"),
        "decide.state_width": (per("decide.state_width", work["decide.compiles"]), "bits"),
        "decide.letters": (per("decide.letters", work["decide.compiles"]), "count"),
        "decide.dag_nodes": (per("decide.dag_nodes", work["decide.compiles"]), "count"),
        "expressibility.equivalence_calls": (per("expressibility.equivalence_calls", ops), "count/op"),
        "semantics.evaluate_calls": (per("semantics.evaluate_calls", ops), "count/op"),
    }


def time_metrics(tracer, ops: int) -> dict[str, tuple[float, str]]:
    self_ms = tracer.self_ms()
    names = {
        "decide.oracle_ms": "decide.oracle",
        "decide.decide_ms": "decide.decide",
        "formulas.parse_ms": "formulas.parse",
        "formulas.normalize_ms": "formulas.normalize",
        "decide.compile_ms": "decide.compile",
        "expressibility.closure_ms": "expressibility.closure",
        "expressibility.verify_ms": "expressibility.verify",
        "decide.replay_ms": "decide.replay",
        "cli.self_ms": "cli.main",
    }
    out = {metric: (self_ms.get(span, 0.0) / ops, "ms/op") for metric, span in names.items()}
    out["decide.step_us"] = (tracer.step_s * 1e6 / tracer.step_calls if tracer.step_calls else 0.0, "us")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUT_BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else setup_seconds(args, SETUP_PROBES[0])
    w, inputs = load(args.workload, args.seed)
    from tracer import Tracer

    tracer = Tracer()
    seen: dict = {}
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        # half the time traced, then the same ops untraced for the overhead
        tracer.install("spans")
        try:
            lat, outputs, wall = timed_loop(w, inputs, seconds=args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        ops = len(lat)
        _, plain_outputs, plain_wall = timed_loop(w, inputs, limit=ops)
        failures = check_outputs(w, inputs, outputs, seen) + check_outputs(w, inputs, plain_outputs, seen)
        attempted = 2 * ops
        metrics = time_metrics(tracer, ops)
        metrics["trace.ops_per_s_ratio"] = ((ops / wall) / (ops / plain_wall), "ratio")
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(span_file)
        report["spans"] = str(span_file.relative_to(ROOT))
    else:
        skip = len(inputs) // 100
        heavy = sorted(inputs, key=w.weight, reverse=True)[skip:skip + RSS_OPS]
        _, heavy_outputs, _ = timed_loop(w, heavy, limit=len(heavy))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat, outputs, wall = timed_loop(w, inputs, seconds=args.seconds)
        run_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += setup_seconds(args, SETUP_PROBES[1])
        failures = check_outputs(w, heavy, heavy_outputs, {}) + check_outputs(w, inputs, outputs, seen)
        attempted = len(heavy) + len(lat)
        timing, pct, block_n, blocks, trend = block_metrics(lat, w.BLOCK)
        report.update(latency_tail_pct=pct, latency_tail_n=block_n, blocks=blocks, block_trend=trend,
                      run_ops_per_s=len(lat) / wall, run_p50_ms=statistics.median(lat) * 1000.0,
                      run_peak_rss_mb=run_peak_rss_mb)
        metrics = {
            "setup_s": (fast(setup_times), "s"),
            "ops_per_s": (timing["ops_per_s"], "1/s"),
            "latency_p50_ms": (timing["latency_p50_ms"], "ms"),
            "latency_tail_ms": (timing["latency_tail_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    digest_n, digest, digest_failures = digest_pass(w, inputs, tracer, seen)
    counts = work_metrics(tracer.work, digest_n)
    if args.trace:
        metrics.update(counts)
    report.update(
        failed_frac=len(failures) / attempted,
        digest=digest,
        digest_ops=digest_n,
        counts={k: v for k, (v, _unit) in counts.items()},
        failures=(failures + digest_failures)[:5],
    )
    print(json.dumps(report))
    result = {
        "correct": not failures and not digest_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
