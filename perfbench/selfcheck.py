#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size.  Run from the checkout root:

    python3 perfbench/selfcheck.py

For every workload, traced and untraced, at tiny scale (--tiny):
  * every metric BENCHMARK.json names is printed with its unit, and the
    correctness gate passes with 0 failed trials;
  * a tampered expected outcome (--tamper) trips the gate;
  * a different --seed generates different faults (the harness logs a digest
    of its generated inputs), and a held-out seed passes the same checks.
Finally, a directory holding only BENCHMARK.json and perfbench/ must make
run.py exit nonzero without printing a result.  Exits 1 on any failure.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SEEDS = (1, 977)  # 977 is held out: never used while tuning the benchmark


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = re.search(r"inputs digest ([0-9a-f]+)", done.stderr)
    return done.returncode, result, digest.group(1) if digest else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for seed in SEEDS:
                tag = f"{w} trace={trace} seed={seed}"
                code, res, digest = run(["--workload", w, "--seed", str(seed), "--seconds", "1",
                                         "--trace", str(trace), "--tiny"])
                expect(code == 0 and res and res["correct"] and res["failed"] == 0
                       and res["attempted"] > 0, f"{tag}: gate passes")
                metrics = res["metrics"] if res else {}
                missing = [m["name"] for m in spec[key]
                           if metrics.get(m["name"], {}).get("unit") != m["unit"]]
                expect(not missing, f"{tag}: every metric printed with its unit {missing or ''}")
                if trace == 0:
                    digests[seed] = digest
            code, res, _ = run(["--workload", w, "--seed", "1", "--seconds", "1",
                                "--trace", str(trace), "--tiny", "--tamper"])
            expect(code != 0 and res and not res["correct"] and res["failed"] > 0,
                   f"{w} trace={trace}: tampered expected outcome trips the gate")
        expect(None not in digests.values() and len(set(digests.values())) == len(SEEDS),
               f"{w}: the seed changes the generated faults")

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, res, _ = run(["--workload", "fift-small", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None, "benchmark-only directory: nonzero exit, no result")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
