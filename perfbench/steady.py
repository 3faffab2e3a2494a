#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread. From the repository root:

    python3 perfbench/steady.py --workloads live-open,sim-zipf --seeds 1-10

For each workload it runs the benchmark once per seed (untraced) and
prints, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile of the values, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
BENCHMARK.json gives each metric's bound; a steady benchmark keeps every
spread but setup_s's below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    ok = True
    for wl in args.workloads.split(","):
        values = {m: [] for m in bounds}
        for seed in seeds(args.seeds):
            start = time.time()
            p = subprocess.run(
                [sys.executable, run, "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not res.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (wl, seed, p.returncode))
                ok = False
                continue
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print("%s seed %d: %.1f s %s" % (wl, seed, time.time() - start,
                  " ".join("%s=%.5g" % (m, res["metrics"][m]["value"]) for m in bounds)))
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if m == "setup_s" or spread < bounds[m] / 3 else "  <-- over a third of the bound"
            print("  %-16s median %-12.6g spread %.4f (bound %.2f)%s" % (m, med, spread, bounds[m], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
