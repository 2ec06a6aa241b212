#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a trajectory point.

Runs every workload BENCHMARK.json lists, for its run_seconds, once per
seed 1-10 with tracing off and once (seed 1) with tracing on, from the
repository root, then prints a Markdown report: for each metric its median, quartiles and run count across the seeds, the spread
(IQR over median) of every end-to-end metric next to its bound in
BENCHMARK.json, and the traced run's per-layer values.

    python3 perfbench/collect.py --save a.json > point.md
    python3 perfbench/collect.py --compare a.json > again.md

With --compare, a second set of runs is checked against a saved one:
every sim-clock value must be identical seed for seed, and every host
metric's median may be worse by at most its bound (0.25 where
BENCHMARK.json names none). The exit status is 1 if either fails.

Quartiles use statistics.quantiles(n=4), the rule the bounds are judged by.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

DEFAULT_BOUND = 0.25
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(command, workload, seed, seconds, trace):
    """One invocation: its metric rows by name, and its report notes."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if p.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    rows = {}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind in ("e2e", "layer"):
            f = rest.split()
            rows[f[0]] = {"clock": f[1], "unit": f[2], "better": f[3],
                          "median": float(f[4].split("=")[1]), "n": int(f[7].split("=")[1])}
    notes = [l for l in lines if l.startswith("# ") and not l.startswith("# env")]
    return rows, notes


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def worse_by(old, new, better):
    """Relative worsening of `new` against `old` (negative when better)."""
    if old == 0:
        return 0.0
    return (old - new) / old if better == "higher" else (new - old) / old


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def compare(prev, cur, bounds):
    drift, worse_list = [], []
    print("## Comparison with the saved set\n")
    print("| workload | metric | saved median | median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for w, runs in cur.items():
        for seed, rows in runs.items():
            for name, r in rows.items():
                old = prev[w][seed][name]["median"]
                if r["clock"] == "sim" and not same(old, r["median"]):
                    drift.append(f"{w} seed {seed} {name}: {old!r} vs {r['median']!r}")
        for name, r in next(iter(runs.values())).items():
            if r["clock"] != "host":
                continue
            old_med = statistics.median(prev[w][s][name]["median"] for s in runs)
            new_med = statistics.median(runs[s][name]["median"] for s in runs)
            worse = worse_by(old_med, new_med, r["better"])
            bound = bounds.get(name, DEFAULT_BOUND)
            if worse > bound:
                worse_list.append(f"{w} {name}: worse by {worse:.4f} > {bound}")
            print(f"| {w} | {name} | {old_med:.6g} | {new_med:.6g} | {worse:.4f} | {bound} |")
    print()
    for f in drift + worse_list:
        print(f"FAILED: {f}")
    if not drift:
        print("Every sim-clock value is identical seed for seed.")
    return not (drift or worse_list)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"# Trajectory point: {len(SEEDS)} seeds x {seconds} s per run\n")
    raw = {}
    for w in workloads:
        raw[w] = {str(s): run(bench["command"], w, s, seconds, 0)[0] for s in SEEDS}
        print(f"## {w}\n")
        print("| metric | clock | unit | better | median | q1 | q3 | runs | spread | bound |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        first = next(iter(raw[w].values()))
        for name, r in first.items():
            med, q1, q3 = summary([rows[name]["median"] for rows in raw[w].values()])
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {r['clock']} | {r['unit']} | {r['better']} | {med:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {len(raw[w])} | {spread:.4f} | {bounds.get(name, '')} |")
        rows, notes = run(bench["command"], w, TRACE_SEED, seconds, 1)
        print(f"\nTraced run, seed {TRACE_SEED} (host values: median over traced repetitions):\n")
        print("| layer | clock | unit | value | reps |")
        print("|---|---|---|---|---|")
        for name, r in rows.items():
            if "." in name:
                print(f"| {name} | {r['clock']} | {r['unit']} | {r['median']:.6g} | {r['n']} |")
        print()
        for n in notes:
            print(f"    {n}")
        print()
        sys.stdout.flush()

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f)
    if args.compare:
        with open(args.compare) as f:
            prev = json.load(f)
        if not compare(prev, raw, bounds):
            raise SystemExit(1)


if __name__ == "__main__":
    main()
