#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace]

For every workload it runs the benchmark once per seed and prints, per
metric, the median, the first and third quartiles and the spread, which is
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives the
quartiles.  End-to-end metrics are compared with their bound in
BENCHMARK.json: "steady" below a third of the bound, "within" up to the
bound, "UNSTEADY" above it (setup_s is judged by its median alone, so its
spread is shown but not judged).  It also checks that the share of failed
operations is the same in every run.  The raw results go to
.bench_out/steady_<workloads>.json.  Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import sys

import run as bench


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true",
                    help="run traced and summarise the per-layer metrics")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bench.build()

    ok = True
    raw = {}
    for w in a.workloads.split(","):
        runs = []
        for seed in parse_seeds(a.seeds):
            p = bench.run(["--workload", w, "--seed", str(seed), "--seconds",
                           str(a.seconds), "--trace", "1" if a.trace else "0"],
                          capture=True)
            res = last_json(p.stdout)
            res["exit"] = p.returncode
            runs.append(res)
            print("%-13s seed %-4d exit %d  attempted %-7d failed %d" %
                  (w, seed, p.returncode, res["attempted"], res["failed"]),
                  flush=True)
        raw[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or any(r["exit"] or not r["correct"] for r in runs):
            ok = False
            print("  FAILED share differs or a run failed: %s" % sorted(shares))
        print("  %-28s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, sp = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and not a.trace:
                if name == "setup_s":
                    verdict = "(median only)"
                elif sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within"
                else:
                    verdict, ok = "UNSTEADY", False
            print("  %-28s %14.6g %14.6g %14.6g %7.1f%% %6s %s" %
                  (name, q1, med, q3, sp * 100,
                   "" if bound is None else bound, verdict))
    os.makedirs(os.path.join(bench.ROOT, ".bench_out"), exist_ok=True)
    out = os.path.join(bench.ROOT, ".bench_out",
                       "steady_%s%s.json" % (a.workloads.replace(",", "+"),
                                             "_trace" if a.trace else ""))
    json.dump(raw, open(out, "w"), indent=1)
    print("raw results: %s" % os.path.relpath(out, bench.ROOT))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
