#!/usr/bin/env python3
"""SWIFI trial benchmark runner.

Run from the root of a hauberk checkout:

    python3 perfbench/run.py --workload fift-small --seed 1 --seconds 20 --trace 0

Builds the libraries and the harness (perfbench/CMakeLists.txt) under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs one workload,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass and
reports the per-layer metrics derived from its span file.  Exit status is 0
only when the correctness gate passed.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fift-small", "fi-tiny-durable", "memfault-ecc")
RUN_TIMEOUT_S = 170

# Outcome enum values (swifi/fault.hpp); part of the result-log format.
FAILURE, MASKED, NOT_ACTIVATED = 0, 1, 5
# Spans that time a whole untraced loop or campaign call: their inside is not
# traced, so they are benchmark-level measurements, not layer self time.
OPAQUE = ("bench.service_run", "bench.reference_loop")
# The phase spans must cover their trial: a traced run fails when they leave
# a larger share of trial time unaccounted for (at most 0.005 in every
# workload's seed-1 runs, full and self-check size, on a 4-vCPU Xeon VM).
MAX_UNACCOUNTED = 0.02


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the harness; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no hauberk sources under {root}/src; run from a checkout root")
        return None
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / build_root / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_trials"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed")
            return None
    return build_dir / "perfbench_trials"


# ---------------------------------------------------------------------------
# Traced-run summary
# ---------------------------------------------------------------------------

def read_spans(path):
    spans, counters = {}, []
    with open(path, encoding="ascii") as f:
        for line in f:
            parts = line.split()
            if parts[0] == "S":
                sid, parent, prog, trial = map(int, parts[1:5])
                spans[sid] = {"parent": parent, "prog": prog, "trial": trial,
                              "name": parts[5], "start": int(parts[6]),
                              "end": int(parts[7])}
            elif parts[0] == "C":
                counters.append((int(parts[1]), int(parts[2]), parts[3],
                                 float(parts[4])))
    return spans, counters


def pct(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)] if s else 0.0


def summarize(spans, counters):
    """Per-layer metrics from one traced run.  Returns (metrics, problems)."""
    problems = []
    dur = {sid: s["end"] - s["start"] for sid, s in spans.items()}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, s in spans.items():
        by_name[s["name"]].append(sid)
        children[s["parent"]].append(sid)
    cnt = defaultdict(list)
    for prog, trial, name, value in counters:
        cnt[name].append((prog, trial, value))

    def us(sids):
        return [dur[i] / 1e3 for i in sids]

    def total_ms(name):
        return sum(dur[i] for i in by_name[name]) / 1e6

    def per_program_median_ms(name):
        groups = defaultdict(list)
        for i in by_name[name]:
            groups[spans[i]["prog"]].append(dur[i])
        return sum(statistics.median(v) for v in groups.values()) / 1e6

    def csum(name):
        return sum(v for _, _, v in cnt[name])

    def cmean(name):
        vals = [v for _, _, v in cnt[name]]
        return sum(vals) / len(vals) if vals else 0.0

    # Phase spans must nest inside their trial and cover it.
    trials = by_name["swifi.trial"]
    trial_ns = sum(dur[i] for i in trials)
    phase_ns = 0
    for t in trials:
        for c in children[t]:
            if spans[c]["start"] < spans[t]["start"] or spans[c]["end"] > spans[t]["end"]:
                problems.append(f"span {spans[c]['name']} escapes its trial")
            phase_ns += dur[c]
    if not trials:
        problems.append("no trial spans")
    unaccounted = 1.0 - phase_ns / max(1, trial_ns)
    if unaccounted > MAX_UNACCOUNTED:
        problems.append(f"phase spans leave {unaccounted:.3f} of trial time unaccounted for")

    hang = {(p, t): v for p, t, v in cnt["swifi.hang"]}
    hang_ns = sum(dur[i] for i in trials
                  if hang.get((spans[i]["prog"], spans[i]["trial"]), 0) > 0)
    outcomes = [v for _, _, v in cnt["swifi.outcome"]]
    n_out = max(1, len(outcomes))

    def frac(code):
        return sum(1 for v in outcomes if v == code) / n_out

    launches = by_name["gpusim.launch"]
    launch_ns = sum(dur[i] for i in launches)
    ref_rate = csum("swifi.reference_trials") / max(1e-9, total_ms("bench.reference_loop") / 1e3)
    svc_rate = csum("swifi.service_trials") / max(1e-9, total_ms("bench.service_run") / 1e3)
    workers = cmean("swifi.workers") or 1.0
    hits, misses = csum("hauberk.analysis_hits"), csum("hauberk.analysis_misses")

    # Self time: a span's duration minus what its traced children cover,
    # summed per layer (the name's first component).
    self_ms = defaultdict(float)
    for sid, s in spans.items():
        covered = sum(dur[c] for c in children[sid])
        layer = "bench" if s["name"] in OPAQUE else s["name"].split(".")[0]
        self_ms[layer] += (dur[sid] - covered) / 1e6

    m = {
        "swifi.trial_us_p50": (pct(us(trials), 50), "us"),
        "swifi.trial_us_p99": (pct(us(trials), 99), "us"),
        "gpusim.launch_us_p50": (pct(us(launches), 50), "us"),
        "gpusim.launch_us_p99": (pct(us(launches), 99), "us"),
        "gpusim.launch_share": (launch_ns / max(1, trial_ns), "fraction"),
        "gpusim.sim_instr_per_trial": (cmean("gpusim.instructions"), "count"),
        "gpusim.sim_minstr_per_s": (csum("gpusim.instructions") / max(1, launch_ns) * 1e3,
                                    "Minstr/s"),
        "swifi.masked_frac": (frac(MASKED), "fraction"),
        "swifi.failure_frac": (frac(FAILURE), "fraction"),
        "swifi.hang_frac": (cmean("swifi.hang"), "fraction"),
        "swifi.not_activated_frac": (frac(NOT_ACTIVATED), "fraction"),
        "swifi.hang_time_share": (hang_ns / max(1, trial_ns), "fraction"),
        "gpusim.fift_ft_time_ratio": (per_program_median_ms("gpusim.fift_launch") /
                                      max(1e-12, per_program_median_ms("gpusim.ft_launch")),
                                      "ratio"),
        "gpusim.fift_ft_instr_ratio": (csum("gpusim.fift_instructions") /
                                       max(1.0, csum("gpusim.ft_instructions")), "ratio"),
        "swifi.stage_us_p50": (pct(us(by_name["swifi.stage"]), 50), "us"),
        "swifi.readout_us_p50": (pct(us(by_name["swifi.readout"]), 50), "us"),
        "swifi.service_efficiency": (svc_rate / max(1e-9, workers * ref_rate), "ratio"),
        "swifi.context_share": (total_ms("swifi.worker_context") /
                                max(1e-9, total_ms("bench.service_run")), "fraction"),
        "swifi.checkpoint_save_us_p50": (pct(us(by_name["swifi.checkpoint_save"]), 50), "us"),
        "swifi.checkpoint_load_us": (pct(us(by_name["swifi.checkpoint_load"]), 50), "us"),
        "swifi.checkpoint_bytes": (cmean("swifi.checkpoint_bytes"), "bytes"),
        "swifi.resultlog_bytes_per_trial": (cmean("swifi.resultlog_bytes_per_trial"), "bytes"),
        "workloads.job_setup_us_p50": (pct(us(by_name["workloads.job_setup"]), 50), "us"),
        "workloads.used_words": (csum("workloads.used_words"), "count"),
        "gpusim.ecc_corrected_per_trial": (cmean("gpusim.ecc_corrected"), "count"),
        "hauberk.translate_ms": (total_ms("hauberk.translate"), "ms"),
        "hauberk.analysis_cache_hit_rate": (hits / max(1.0, hits + misses), "fraction"),
        "hauberk.profile_ms": (total_ms("hauberk.profile"), "ms"),
        "hauberk.control_block_ms": (per_program_median_ms("hauberk.control_block"), "ms"),
        "workloads.dataset_ms": (total_ms("workloads.dataset"), "ms"),
        "swifi.golden_ms": (total_ms("swifi.golden"), "ms"),
        "swifi.plan_faults_ms": (total_ms("swifi.plan_faults"), "ms"),
        "kir.decode_ms": (per_program_median_ms("kir.decode"), "ms"),
        "kir.compile_threaded_ms": (per_program_median_ms("kir.compile_threaded"), "ms"),
        "gpusim.cold_launch_ms": (total_ms("gpusim.cold_launch"), "ms"),
        "gpusim.device_init_ms": (pct(us(by_name["gpusim.device_init"]), 50) / 1e3, "ms"),
        "gpusim.plan_cache_hits": (csum("gpusim.plan_cache_hits"), "count"),
        "gpusim.plan_cache_misses": (csum("gpusim.plan_cache_misses"), "count"),
        "trace.unaccounted_frac": (unaccounted, "fraction"),
        "trace.overhead_frac": (total_ms("bench.traced_loop") /
                                max(1e-9, total_ms("bench.reference_loop")) - 1.0, "fraction"),
        "trace.spans": (float(len(spans)), "count"),
    }
    for layer in ("workloads", "hauberk", "kir", "gpusim", "swifi", "bench"):
        m[f"{layer}.self_ms"] = (self_ms[layer], "ms")
    return m, problems


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check size: tiny scale, a handful of trials")
    ap.add_argument("--tamper", action="store_true",
                    help="flip one expected outcome (the gate must trip)")
    args = ap.parse_args()

    root = Path.cwd()
    binary = build(root)
    if binary is None:
        return 2
    run_dir = binary.parent / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={run_dir}"]
        if args.tiny:
            cmd.append("--tiny")
        if args.tamper:
            cmd.append("--tamper=1")
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log(f"harness exceeded {RUN_TIMEOUT_S} s")
            return 1
        lines = done.stdout.strip().splitlines()
        if not lines:
            log(f"harness printed no result (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        if args.trace:
            spans, counters = read_spans(run_dir / "spans.txt")
            metrics, problems = summarize(spans, counters)
            for p in problems:
                log(p)
            result["correct"] = bool(result["correct"]) and not problems
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
