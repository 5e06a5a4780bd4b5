#!/usr/bin/env python3
"""Compares two sweeps of the benchmark (directories written by sweep.py).

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Refuses (exit 3) when the runs were not all taken on one fingerprint:
nproc, CPU model, strategy tier and build type must match across both
directories, since results from different machines or builds do not
compare. Otherwise prints, per workload and end-to-end metric, both
medians, the change (positive = worse) and a verdict against the bound
in BENCHMARK.json: "regressed" when the new median is worse by more than
the bound, "unresolved" when the base's own spread exceeds the bound,
"ok" otherwise. Exits 1 when anything regressed.
"""

import json
import statistics
import sys

from sweep import load_runs, load_spec, spread


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    prints = {json.dumps(fp, sort_keys=True)
              for runs in list(base.values()) + list(new.values())
              for fp, _ in runs}
    if len(prints) != 1:
        sys.stderr.write("refusing to compare runs taken on different "
                         "fingerprints:\n  %s\n" % "\n  ".join(sorted(prints)))
        return 3

    spec = load_spec()
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace != 0:
            continue
        print(workload)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for _, r in base[key]]
            n = [r["metrics"][name]["value"] for _, r in new[key]]
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            if m["better"] == "higher":
                change = -change
            if change > bound:
                verdict = "regressed"
                regressed = True
            elif name != "setup_s" and spread(b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-22s base %-14.6g new %-14.6g worse by %+.4f  bound "
                  "%.2f  %s" % (name, bm, nm, change, bound, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
