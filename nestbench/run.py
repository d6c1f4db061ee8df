#!/usr/bin/env python3
"""Build and run the nestsql workload benchmark (see nestbench/README.md).

    python3 nestbench/run.py --workload fit --seed 42 --seconds 10 --trace 0
    python3 nestbench/run.py                       # every workload, one table
    python3 nestbench/run.py --trace 1             # per-layer metrics + spans
    python3 nestbench/run.py --repeat 10           # spread of each metric
    python3 nestbench/run.py --smoke               # small, checks outputs only

The program is built from source with dune into .bench_build/ (release
profile) and run once per workload, each in its own process.  The last
line of standard output is one JSON object: the workload's result for a
single run, or the results by workload otherwise.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "nestbench", "nestbench.exe")
NESTSQL = os.path.join(BUILD_DIR, "default", "bin", "nestsql.exe")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./nestbench/nestbench.exe",
           "./bin/nestsql.exe"]
    # dune's progress goes to stderr so stdout stays the results
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("nestbench: build failed")


def run_once(workload, seed, seconds, trace, scale=1.0):
    """One workload in its own process; returns (stdout lines, result)."""
    cmd = [os.path.join(ROOT, BENCH_EXE), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale),
           "--nestsql", NESTSQL]
    # its own process group, so stopping it also stops the server it spawned
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        sys.exit(f"nestbench: {workload} timed out")
    finally:
        # whatever the group still holds, such as a server left by a crash
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.exit(f"nestbench: {workload} exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def schema_errors(spec, result, trace):
    """Problems with one result's shape against BENCHMARK.json."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed is not a count")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value}")
    return errors


def spread_report(spec, workload, results, trace):
    """Median, quartiles and spreads of each metric over repeated runs."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':30} {'median':>14} {'iqr/med':>8} {'range/med':>9} "
          f"{'bound':>6}")
    for m in wanted:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        rel = (lambda x: abs(x) / abs(med)) if med else (lambda x: 0.0)
        bound = m.get("bound")
        mark = ""
        if bound is not None and m["name"] != "setup_s":
            mark = "ok" if rel(q3 - q1) < bound / 3 else "WIDE"
        print(f"  {m['name']:30} {med:14.4f} {rel(q3 - q1):8.4f} "
              f"{rel(max(values) - min(values)):9.4f} "
              f"{'' if bound is None else bound:>6} {mark} {m['unit']}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds SEED, SEED+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/10 scale for half a second, "
                         "traced and untraced; checks outputs and schema")
    args = ap.parse_args()
    # exiting runs run_once's clean-up, which stops the running workload
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: sys.exit(128 + signum))

    build()
    if args.smoke:
        failures = 0
        for workload in names:
            for trace in (0, 1):
                _, result = run_once(workload, args.seed, 0.5, trace, scale=0.1)
                errors = schema_errors(spec, result, trace)
                if not result.get("correct") or result.get("failed"):
                    errors.append(f"{result.get('failed')} wrong or failed")
                failures += len(errors)
                print(f"{workload} trace={trace}: "
                      f"{'ok' if not errors else '; '.join(errors)}")
        if failures:
            sys.exit("nestbench: smoke run failed")
        print(json.dumps({"smoke": "ok"}))
        return

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        runs = []
        for k in range(args.repeat):
            lines, result = run_once(workload, args.seed + k, args.seconds,
                                     args.trace)
            errors = schema_errors(spec, result, args.trace)
            if errors:
                print("\n".join(lines), file=sys.stderr)
                sys.exit(f"nestbench: {workload}: {'; '.join(errors)}")
            if args.repeat == 1:
                print("\n".join(lines))
            runs.append(result)
        if args.repeat > 1:
            spread_report(spec, workload, runs, args.trace)
        results[workload] = runs
    if len(workloads) == 1 and args.repeat == 1:
        print(json.dumps(results[workloads[0]][0]))
    else:
        print(json.dumps(results))


if __name__ == "__main__":
    main()
