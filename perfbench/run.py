#!/usr/bin/env python3
"""Runs one workload of the serving-system benchmark.

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
C++ program (perfbench/CMakeLists.txt, which builds the repository's own
libraries) into $CARGO_TARGET_DIR, default .bench_build. The run prints
a fingerprint line (nproc, CPU model, strategy tier, build type), then as
its last line one JSON object: correct, attempted, failed, metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.

Exit status: 0 for a correct run; 1 when an answer did not match its
reference (the result line is still printed, with "correct": false) or
the run failed; 2 when the program cannot be built or the arguments are bad.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point-hot", "range-scan")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build(out):
    """Configures (once) and builds the program; returns its path."""
    cmake_dir = out / "perfbench-cmake"
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed (%s):\n%s\n"
                                 % (log, "\n".join(tail)))
                return None
    return cmake_dir / "perfbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    work = out / ("work-%d" % os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", str(work)]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-summary",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: program exited %d without a result\n"
                         % proc.returncode)
        return 1

    fingerprint = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "strategy": report.get("strategy", "unknown"),
        "build_type": report.get("build_type", "unknown"),
    }
    # Sample counts behind the percentiles: "query" for query_p50_us and
    # query_p99_us, "encode" for ingest_p50_us and ingest_p99_us.
    print(json.dumps({"fingerprint": fingerprint, "workload": args.workload,
                      "seed": args.seed, "trace": int(args.trace),
                      "samples": report.get("samples", {})}))

    metrics = report["metrics"]
    correct = bool(report["correct"]) and proc.returncode == 0
    want = expected_metrics(args.trace == "1")
    if correct and want is not None and sorted(want) != sorted(metrics):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        sys.stderr.write("perfbench: metric set differs from BENCHMARK.json "
                         "(missing %s, unexpected %s)\n" % (missing, extra))
        return 1
    if report.get("error"):
        sys.stderr.write("perfbench: %s\n" % report["error"])
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
