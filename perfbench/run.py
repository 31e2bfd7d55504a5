#!/usr/bin/env python3
"""Builds and runs the Sieve closed-loop benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload wire_reads|policy_churn|adhoc_reads \
        --seed N --seconds S --trace 0|1

BENCHMARK.json declares wire_reads and policy_churn; adhoc_reads (every
read a rewrite-cache miss) runs the same way but is left out of the
declared set to keep all declared runs within the benchmark's time budget.

The benchmark is compiled from ../src into .bench_build/perfbench with an
optimized build. One run executes the workload's fixed, seeded operation
sequence (its length is S times a fixed nominal rate) and checks a seeded
sample of its outputs against the reference rewrite.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 reports the per-layer metrics. After one set-up the program runs
the sequence untraced, which gives the counts, and then its first three
400-read blocks traced, each op replayed at the inner entry points, which
gives the layer times; trace.overhead_ms.<op> is the outer p50 of the
traced pass minus that of the same ops untraced. The spans of the traced
pass are written to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
report (every metric measured, the failed-op share and run metadata).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sieve_perfbench"
WORKLOADS = ("wire_reads", "adhoc_reads", "policy_churn")
# Every invocation of this script ends within DEADLINE_S seconds, except
# the first one in a checkout, which compiles and gets FIRST_DEADLINE_S.
DEADLINE_S = 175
FIRST_DEADLINE_S = 870


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no source tree at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
         "sieve_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """sha256 over the benchmarked sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "bench", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".cpp", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(workload, seed, seconds, trace, deadline):
    """Runs the binary once, killing it at `deadline` (a time.monotonic()
    value); returns its parsed report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans",
                str(BUILD / ("spans-%s-%d.jsonl" % (workload, seed)))]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    first = not BINARY.is_file()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    deadline = start + (FIRST_DEADLINE_S if first else DEADLINE_S)
    report = run(args.workload, args.seed, args.seconds, args.trace, deadline)

    metrics = report["metrics"]
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    info = dict(report["info"], git_commit=git_commit(),
                source_digest=source_digest(), trace=args.trace,
                failed_share=report["failed"] / max(report["attempted"], 1))
    print(json.dumps({"report": metrics, "info": info}))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {n: metrics[n] for n in names}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
