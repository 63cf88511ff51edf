#!/usr/bin/env python3
"""Interleaved A/B runs of the engine benchmark on one machine.

    python3 perfbench/ab.py --a ../graphitti-parent --b . --pairs 10
    python3 perfbench/ab.py --a . --b .          # do two sets of runs agree?

Builds this tree's benchmark twice, once against the engine sources of
each tree (so both sides run identical benchmark code), then for every
pair and every workload runs A and B with the same seed (seeds 1 to
--pairs) for BENCHMARK.json's run_seconds, alternating which side goes
first. Each run's record must name the tree its side was built from. Per
workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs B won (ties count for neither), and a
verdict:

  unresolved   a side's quartile spread exceeds the metric's bound
  better       at least ten pairs, B wins nine tenths of them, and the
               medians differ by more than A's quartile spread
  worse        B's median is worse than A's by more than the bound
  same         none of the above

It also checks that both sides fail the same share of operations, and
exits 1 when they do not or when any metric is worse. Builds go to
.bench_build/ab-a and .bench_build/ab-b.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCH = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def run_once(binary, tree, identity, workload, seed):
    cmd = [binary, "--workdir", run.WORK_DIR, "--commit", identity, "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        run.fail("no result from %s (exit %d): %s" % (workload, proc.returncode, proc.stderr[-2000:]))
    records = [json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# run_record ")]
    if not records or records[0]["engine_root"] != tree:
        run.fail("%s was not built from %s: its run record names %s"
                 % (binary, tree, records[0]["engine_root"] if records else "nothing"))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(q):
    """Quartile spread as a share of the median."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", required=True, help="source tree of side A (e.g. the parent)")
    ap.add_argument("--b", default=run.ROOT, help="source tree of side B (default: this tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    args = ap.parse_args()
    if args.pairs < 1:
        run.fail("--pairs must be at least 1")

    sides = {}
    for name, tree in (("A", args.a), ("B", args.b)):
        tree = os.path.abspath(tree)
        binary = run.build(tree, os.path.join(run.ROOT, ".bench_build", "ab-" + name.lower()))
        sides[name] = (binary, tree, run.source_identity(tree))
        print("%s: %s (%s)" % (name, tree, sides[name][2]), flush=True)
    os.makedirs(run.WORK_DIR, exist_ok=True)

    workloads = args.workloads.split(",")
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.pairs):
        seed = i + 1
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                res = run_once(*sides[side], w, seed)
                results[w][side].append(res)
            print("pair %d/%d %s done" % (i + 1, args.pairs, w), flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d pairs)" % (w, args.pairs))
        for side in ("A", "B"):
            runs = results[w][side]
            att = sum(r["attempted"] for r in runs)
            fail_ = sum(r["failed"] for r in runs)
            print("  %s: %d runs, correct %d/%d, failed %d of %d operations"
                  % (side, len(runs), sum(r["correct"] for r in runs), len(runs), fail_, att))
        shares = [sum(r["failed"] for r in results[w][s]) / max(1, sum(r["attempted"] for r in results[w][s]))
                  for s in ("A", "B")]
        if shares[0] != shares[1]:
            ok = False
            print("  failed shares differ: A %.6f, B %.6f" % tuple(shares))
        print("  %-26s %-8s %30s %30s %6s  %s" % ("metric", "unit", "A q1/median/q3", "B q1/median/q3",
                                                 "B won", "verdict"))
        for m in BENCH["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            qa, qb = quartiles(a), quartiles(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change > bound if lower else change < -bound
            if spread(qa) > bound or spread(qb) > bound:
                verdict = "unresolved"
            elif len(a) >= 10 and wins >= 0.9 * len(a) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            elif worse:
                verdict = "worse"
            else:
                verdict = "same"
            ok = ok and verdict != "worse"
            print("  %-26s %-8s %30s %30s %5.0f%%  %s (%+.1f%%, bound %.0f%%)"
                  % (name, m["unit"], "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                     100.0 * wins / len(a), verdict, 100 * change, 100 * bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
