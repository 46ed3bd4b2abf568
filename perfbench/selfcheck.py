#!/usr/bin/env python3
"""Self-check of the benchmark's own checks and output format.

    python3 perfbench/selfcheck.py [--seconds S]

For every workload in BENCHMARK.json it makes three short runs:
  - untraced: must exit 0 with no failed operation and print exactly the
    end_to_end metrics of BENCHMARK.json, with their units;
  - traced: the same, with the per_layer metrics;
  - --corrupt: one expected value is corrupted (paper_figs: Fig. 7's
    predicted rate; serve_wire: one served output; compile_many: one
    evaluator element), so the run must report failed operations, print
    "correct": false and exit non-zero.
Exits 1 when any of these does not hold.
"""
import argparse
import json
import os
import sys

import run as bench
from steady import last_json


def main():
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    a = ap.parse_args()
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bench.build()
    ok = True

    def check(label, cond, detail=""):
        nonlocal ok
        ok &= bool(cond)
        print("%-4s %s%s" % ("ok" if cond else "FAIL", label,
                             "" if cond else "  " + detail), flush=True)

    for w in (x["name"] for x in spec["workloads"]):
        base = ["--workload", w, "--seed", "7", "--seconds", str(a.seconds)]
        for trace in ("0", "1"):
            p = bench.run(base + ["--trace", trace], capture=True)
            res = last_json(p.stdout)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check("%s trace %s: exit 0, nothing failed" % (w, trace),
                  p.returncode == 0 and res["correct"] and res["failed"] == 0,
                  "exit %d, %d failed" % (p.returncode, res["failed"]))
            check("%s trace %s: metric names and units" % (w, trace),
                  got == want[trace],
                  "differ: %s" % sorted(set(got.items()) ^ set(want[trace].items())))
        p = bench.run(base + ["--trace", "0", "--corrupt"], capture=True)
        res = last_json(p.stdout)
        check("%s --corrupt: reported failed, exit non-zero" % w,
              p.returncode != 0 and not res["correct"] and res["failed"] > 0,
              "exit %d, %d failed" % (p.returncode, res["failed"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
