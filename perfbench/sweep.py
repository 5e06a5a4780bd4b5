#!/usr/bin/env python3
"""Runs every workload of the benchmark over several seeds and reports the
run-to-run spread of each end-to-end metric against its bound.

    python3 perfbench/sweep.py --out DIR [--runs 10] [--first-seed 1]
                               [--workloads point-hot,range-scan]

Each run's standard output is saved as DIR/<workload>-seed<n>.out, the
input of compare.py. The spread of a metric is the distance between the
first and third quartile of its values (statistics.quantiles, n=4) as a
share of their median; a steady benchmark keeps it under a third of the
metric's bound (setup_s is exempt: only its median is compared).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_run(text):
    """(fingerprint line, result line) of one run's stdout, or None."""
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if len(lines) < 2:
        return None
    try:
        head, result = json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError:
        return None
    return (head, result) if "fingerprint" in head else None


def load_runs(directory):
    """{(workload, trace): [(fingerprint, result), ...]} of a sweep dir."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        parsed = parse_run(path.read_text())
        if parsed is None:
            continue
        head, result = parsed
        runs.setdefault((head["workload"], head["trace"]), []).append(
            (head["fingerprint"], result))
    return runs


def spread(values):
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failed = 0
    for workload in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=str(ROOT))
            (out / ("%s-seed%d.out" % (workload, seed))).write_text(proc.stdout)
            if proc.returncode != 0:
                failed += 1
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))

    steady = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, trace), runs in sorted(load_runs(out).items()):
        if trace != 0:
            continue
        print("%s (%d runs)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs
                      if name in r["metrics"]]
            s = spread(values)
            ok = name == "setup_s" or s <= bound / 3
            steady = steady and ok
            print("  %-22s median %-14.6g spread %.4f  bound %.2f  %s"
                  % (name, statistics.median(values), s, bound,
                     "ok" if ok else "UNSTEADY"))
    return 1 if failed or not steady else 0


if __name__ == "__main__":
    sys.exit(main())
