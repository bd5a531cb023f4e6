#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the checkout root:

    python3 perfbench/steadiness.py --seeds 1-10 --json set1.json
    python3 perfbench/steadiness.py --seeds 1-10 --json set2.json --against set1.json

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
BENCHMARK.json run length, then prints, per workload and metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound and the target of a third of it.  With --against, it also
prints each median's change from the earlier set, in the metric's "worse"
direction.

Exits 1 if a run fails its correctness gate, a spread exceeds its metric's
bound, ft_overhead_pct differs between any two runs of a
workload (it does not depend on the seed), or, with --against, a simulated
metric differs from the earlier set's run of the same seed or a median is
worse than the earlier set's by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SIMULATED = ("sdc_coverage", "ft_overhead_pct")
SEED_INDEPENDENT = ("ft_overhead_pct",)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def worse_by(metric, before, after):
    """Relative change from `before` to `after` in the metric's worse direction."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="also write every run's metrics to this file")
    ap.add_argument("--against", help="an earlier set's --json file to compare with")
    args = ap.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    ok = True

    def fail(msg):
        nonlocal ok
        print(msg)
        ok = False

    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or not result or not result["correct"] or result["failed"]:
                fail(f"{workload} seed {seed}: correctness gate failed")
            if result:
                runs.append({"seed": seed, **result})
        record[workload] = runs
        if len(runs) < 2:
            fail(f"{workload}: too few runs to measure a spread")
            continue

        def values(name, rs=runs):
            return [r["metrics"][name]["value"] for r in rs]

        for name in SEED_INDEPENDENT:
            if len(set(values(name))) > 1:
                fail(f"{workload}: {name} differs between runs: {sorted(set(values(name)))}")
        before = {r["seed"]: r for r in earlier.get(workload, [])}
        for r in runs:
            prev = before.get(r["seed"])
            for name in SIMULATED:
                if prev and prev["metrics"][name]["value"] != r["metrics"][name]["value"]:
                    fail(f"{workload} seed {r['seed']}: {name} differs from the earlier set")

        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6} {'target':>7}"
              + (f" {'earlier':>14} {'worse by':>9}" if len(before) >= 2 else ""))
        for m in spec["end_to_end"]:
            med, s = spread(values(m["name"]))
            bound = m["bound"]
            flag = "" if s <= bound / 3 else (" >target" if s <= bound else " >BOUND")
            if s > bound:
                ok = False
            line = f"  {m['name']:<18} {med:>14.6g} {s:>8.4f} {bound:>6.3f} {bound / 3:>7.4f}"
            if len(before) >= 2:
                prev_med = statistics.median(values(m["name"], list(before.values())))
                w = worse_by(m, prev_med, med)
                line += f" {prev_med:>14.6g} {w:>+9.4f}"
                if w > bound:
                    ok = False
                    flag += " >BOUND vs earlier"
            print(line + flag)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
