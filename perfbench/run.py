#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark (and the library, from this checkout's sources) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
workload W in a fresh process. With --trace 0 it also starts the binary
SETUP_SAMPLES more times in set-up-only mode and reports the median
set-up time of all those processes. Every output line of the benchmark
is passed through; the last line printed is the JSON result. Exits
non-zero, without a result line, when the build fails, and non-zero when
any check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("realworld-x4", "diy-stream", "served-sim")
# Fresh set-up-only processes per untraced run, besides the measured one.
SETUP_SAMPLES = 50
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds campaign_bench; returns its path or None."""
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "Makefile")):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", out, "--target", "campaign_bench",
                       "-j", jobs]):
        try:
            res = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed: %s" % e)
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(step))
            return None
    binary = os.path.join(out, "campaign_bench")
    return binary if os.path.exists(binary) else None


def run_bench(binary, args):
    """Runs the binary; returns (exit code, output lines, result dict)."""
    try:
        res = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % " ".join(args))
        return 1, [], None
    if res.stderr:
        log(res.stderr.rstrip())
    lines = res.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    return res.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora, for the benchmark's smoke test")
    a = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if not binary:
        return 1
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--out-dir", run_dir] + (["--smoke"] if a.smoke else [])

    setup = []
    failed_setups = 0
    if a.trace == 0:
        for _ in range(SETUP_SAMPLES):
            code, _, res = run_bench(binary, args + ["--setup-only"])
            if code != 0 or not res or not res.get("correct"):
                failed_setups += 1
                continue
            setup.append(res["metrics"]["setup_s"]["value"])

    code, lines, res = run_bench(binary, args)
    for line in lines:
        print(line)
    if res is None:
        log("perfbench: the benchmark printed no result")
        return 1
    if a.trace == 0 and "setup_s" in res["metrics"]:
        setup.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setup)
        print("diag setup_s_samples %d" % len(setup))
    if failed_setups:
        print("FAIL %d set-up-only runs failed" % failed_setups)
        res["correct"] = False
        res["attempted"] += SETUP_SAMPLES
        res["failed"] += failed_setups
    print(json.dumps(res), flush=True)
    return 0 if code == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
