#!/usr/bin/env python3
"""Alternating parent/change runs of the workload benchmark, with verdicts.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        [--workload W] [--pairs N] [--seed S]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a
`git archive` of each commit unpacked in its own directory, or the working
tree for the change).  For each workload, every pair runs
`nestbench/run.py --workload W --seed S` once in each checkout for
BENCHMARK.json's `run_seconds`, the side that goes first alternating from
pair to pair.  The script reads
`nestbench/` and BENCHMARK.json and never writes to either.

Per workload and end-to-end metric it prints each side's median and
quartiles, the change's win fraction (pairs where it is strictly better),
the relative median gain and a verdict against the metric's BENCHMARK.json
bound, then every run's value:

    improved    the change wins at least 9 pairs in 10 and its median is
                better by more than the parent's interquartile range
    regressed   the change's median is worse by more than the bound, and
                either the parent's relative interquartile range is within
                the bound, or every run of the change is worse than every
                run of the parent, or the median is worse by more than the
                bound plus that range
    unresolved  the parent's interquartile range exceeds the bound, so a
                change within it cannot be told from noise (unless every
                run of the change is better than every run of the parent)
    unchanged   otherwise

It exits 1 if any metric regressed or any run had a failed statement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    """One nestbench run in checkout [root]; returns its result object."""
    cmd = [sys.executable, os.path.join("nestbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench_pairs: {workload} failed in {root}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, parent, change):
    """(win fraction, relative median change, verdict) for one metric."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    rel = gain / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    bound = metric["bound"]
    if win_frac >= 0.9 and gain > p3 - p1:
        return win_frac, rel, "improved"
    every_run_better = (min(sign * c for c in change)
                        > max(sign * p for p in parent))
    every_run_worse = (max(sign * c for c in change)
                       < min(sign * p for p in parent))
    if rel < -bound and (spread <= bound or every_run_worse
                         or rel < -(bound + spread)):
        return win_frac, rel, "regressed"
    if spread > bound and not every_run_better:
        return win_frac, rel, "unresolved"
    return win_frac, rel, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    spec = load_spec(args.parent)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"bench_pairs: unknown workload {args.workload}; "
                 f"one of {', '.join(names)}")
    workloads = names if args.workload == "all" else [args.workload]
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    bad = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.seed,
                                           seconds))
            print(f"{workload}: pair {k + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}, "
              f"{seconds:g} s, failed parent {failed['parent']} "
              f"change {failed['change']}")
        print(f"  {'metric':18} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'gain':>8} {'wins':>5}  verdict")
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            win_frac, rel, v = verdict(m, values["parent"], values["change"])
            cols = {side: "/".join(f"{x:.4g}" for x in quartiles(vs))
                    for side, vs in values.items()}
            print(f"  {m['name']:18} {cols['parent']:>30} {cols['change']:>30} "
                  f"{rel:+8.1%} {win_frac:5.0%}  {v}")
            bad = bad or v == "regressed"
        print("  runs, in pair order (parent | change):")
        for m in spec["end_to_end"]:
            values = {side: " ".join(f"{r['metrics'][m['name']]['value']:.4g}"
                                     for r in rs)
                      for side, rs in runs.items()}
            print(f"    {m['name']:18} {values['parent']} | {values['change']}")
        bad = bad or failed["change"] > 0
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
