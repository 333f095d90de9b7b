#!/usr/bin/env python3
"""Smoke test of the campaign benchmark: every workload at tiny sizes.

    python3 perfbench/smoke_test.py

Runs each workload through run.py with --smoke --seconds 1 (tiny corpora,
a few seconds per run), untraced and traced, and checks that:

  - every run exits 0, reports correct and has no failed unit;
  - an untraced run emits exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly the per_layer metrics, each
    with its unit, in the printed lines and in the JSON result;
  - every check the workload is meant to run ran over at least one item;
  - two traced runs at one seed give identical counts (the sim.* counts
    and ratios, compiler.asm_insts and litmus.dedupe_share);
  - diy-stream and served-sim pass every check at a second seed.

Exits non-zero on the first problem, naming it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON = {"no_error", "no_timeout", "all_units_answered", "unit_count",
          "digest_across_passes"}
CHECKS = {
    "realworld-x4": COMMON | {"digest_one_lane", "no_positive",
                              "rc11_contract", "unit_ids"},
    "diy-stream": COMMON | {"digest_one_lane", "unit_ids"},
    "served-sim": COMMON | {"served_equals_local", "dedupe_count",
                            "journal_complete", "journal_readable",
                            "served_setup",
                            "served_report", "served_worker",
                            "served_no_requeues", "unit_ids"},
}
TRACED_CHECKS = {
    "realworld-x4": {"digest_traced_mirror"},
    "diy-stream": {"digest_traced_mirror"},
    "served-sim": {"digest_traced_mirror", "unit_wire_round_trip",
                   "result_wire_round_trip", "side_journal_append",
                   "side_journal", "canon"},
}
# Durations and shares derived from time are left out of the exactness
# check; these are pure counts of work.
NON_COUNTS = {"sim.source_us", "sim.target_us", "sim.lower_c_us",
              "sim.us_per_co_candidate"}


def fail(msg):
    print("smoke_test: FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    what = "%s seed %d trace %d" % (workload, seed, trace)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        print(res.stdout + res.stderr)
        fail("%s exited %d" % (what, res.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        print(res.stdout)
        fail("%s reports a failure" % what)
    printed = {}
    checks = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = parts[3]
        elif parts[0] == "check":
            checks[parts[1]] = int(parts[2])
    return what, result, printed, checks


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(CHECKS):
        fail("BENCHMARK.json workloads %s" % names)

    plan = [(w, 1, t) for w in names for t in (0, 1)]
    plan += [("realworld-x4", 1, 1)]  # Exactness needs a second trace.
    plan += [(w, 1, 1) for w in ("diy-stream", "served-sim")]
    plan += [(w, 2, t) for w in ("diy-stream", "served-sim") for t in (0, 1)]
    traced = {}
    for workload, seed, trace in plan:
        what, result, printed, checks = run(workload, seed, trace)
        want = expected[trace]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("%s: metrics %s, expected %s" % (what, sorted(got),
                                                  sorted(want)))
        if printed != want:
            fail("%s: printed metric lines disagree with BENCHMARK.json"
                 % what)
        need = CHECKS[workload] | (TRACED_CHECKS[workload] if trace else
                                   set())
        missing = sorted(c for c in need if checks.get(c, 0) < 1)
        if missing:
            fail("%s: checks that did not run: %s" % (what, missing))
        if trace:
            counts = {k: v["value"] for k, v in result["metrics"].items()
                      if k not in NON_COUNTS and
                      (k.startswith("sim.") or
                       k in ("compiler.asm_insts", "litmus.dedupe_share"))}
            key = (workload, seed)
            if key in traced and traced[key] != counts:
                diff = sorted(k for k in counts if counts[k] != traced[key][k])
                fail("%s: counts differ between two runs: %s" % (what, diff))
            traced[key] = counts
        print("smoke_test: ok: %s (%d metrics, %d checks)"
              % (what, len(got), len(checks)))
    print("smoke_test: all runs passed")


if __name__ == "__main__":
    main()
