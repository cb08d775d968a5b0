#!/usr/bin/env python3
"""A/B comparison of two checkouts with the nanobus benchmark.

    python3 nbbench/compare.py --parent ../parent --change . \\
        --claim work_per_s --claim-workload spec_sweep [--pairs 10]

Runs `python3 nbbench/run.py` in each checkout for --pairs pairs per
workload, alternating which side runs first, each pair on its own
seed (--seed-base + i, the same seed on both sides; use
--seed-base 1009 for the held-out re-check). Every end-to-end metric
of BENCHMARK.json is collected on every workload, at the benchmark's
run_seconds.

The claimed metric/workload passes only when the change wins at least
9 of every 10 pairs (a tie wins for neither side) and the two medians
differ by more than the parent's interquartile range. Every other
metric/workload pair is reported as `no worse`, `worse` or
`unresolved` against the metric's bound: `unresolved` when the
parent's own spread (IQR over median) exceeds the bound, unless every
change run beats every parent run.

Exit status: 0 when the claim holds and no pair is `worse`, else 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys



def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def improvement(parent, change, better):
    """Signed amount by which `change` beats `parent` (> 0 is better)."""
    return change - parent if better == "higher" else parent - change


def claim(parent, change, better):
    """The gain rule over paired runs: parent[i] and change[i] ran as
    one pair. Returns a dict with the verdict and its inputs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two complete pairs")
    wins = sum(1 for p, c in zip(parent, change)
               if improvement(p, c, better) > 0)
    q1, _, q3 = quartiles(parent)
    parent_iqr = q3 - q1
    gap = improvement(statistics.median(parent),
                      statistics.median(change), better)
    won = wins * 10 >= 9 * len(parent)
    return {
        "wins": wins,
        "pairs": len(parent),
        "median_gain": gap,
        "parent_iqr": parent_iqr,
        "met": won and gap > parent_iqr,
    }


def verdict(parent, change, better, bound):
    """`no worse`, `worse` or `unresolved` for one metric/workload."""
    parent_median = statistics.median(parent)
    if parent_median == 0:
        raise ValueError("metric median is 0; bounds are relative")
    q1, _, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(parent_median)
    loss = -improvement(parent_median, statistics.median(change),
                        better) / abs(parent_median)
    all_better = all(improvement(p, c, better) > 0
                     for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if loss > bound else "no worse"


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns its parsed JSON result."""
    cmd = [sys.executable, os.path.join("nbbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s: %s failed (exit %d)"
                           % (checkout, " ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--claim", required=True,
                        help="end-to-end metric the change claims")
    parser.add_argument("--claim-workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim not in metrics:
        parser.error("unknown end-to-end metric " + args.claim)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.claim_workload not in workloads:
        parser.error("unknown workload " + args.claim_workload)
    seconds = bench["run_seconds"]

    values = {}  # (side, workload, metric) -> list, one per pair
    failed = {"parent": 0, "change": 0}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, seed, seconds)
                failed[side] += result["failed"]
                for name in metrics:
                    values.setdefault((side, workload, name), []).append(
                        result["metrics"][name]["value"])
                print("pair %d %s %s: %s" % (
                    i, workload, side,
                    json.dumps({n: result["metrics"][n]["value"]
                                for n in metrics})), file=sys.stderr)

    ok = True
    for workload in workloads:
        for name, metric in metrics.items():
            parent = values[("parent", workload, name)]
            change = values[("change", workload, name)]
            pq = quartiles(parent)
            cq = quartiles(change)
            line = ("%-16s %-14s parent %.6g [%.6g, %.6g]  "
                    "change %.6g [%.6g, %.6g]  " % (
                        workload, name, pq[1], pq[0], pq[2],
                        cq[1], cq[0], cq[2]))
            if name == args.claim and workload == args.claim_workload:
                c = claim(parent, change, metric["better"])
                ok = ok and c["met"]
                line += "CLAIM %s (won %d/%d, median gain %.6g vs " \
                        "parent IQR %.6g)" % (
                            "met" if c["met"] else "not met",
                            c["wins"], c["pairs"], c["median_gain"],
                            c["parent_iqr"])
            else:
                v = verdict(parent, change, metric["better"],
                            metric["bound"])
                ok = ok and v != "worse"
                line += v
            print(line)
    print("failed operations: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    if failed["change"] > failed["parent"]:
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
