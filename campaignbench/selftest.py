#!/usr/bin/env python3
"""Tiny-size self-test of the campaign benchmark.

    python3 campaignbench/selftest.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json at a
tiny case count through run.py, once untraced and once traced, and asserts
that each run
  * ends with a result line whose metrics are exactly the BENCHMARK.json
    end-to-end (untraced) or per-layer (traced) metrics, each with its unit;
  * is correct, with no failed case;
  * evaluated every output check at least once, and none failed;
  * printed the deterministic lines (bugs_found, conf_pass_share) and the
    counter-agreement table where the workload has them.
Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_CASES = {"hunt": 128, "exec": 16, "assure": 64}
CAMPAIGN_CHECKS = ["completed", "digest_reference", "bugs_found_reference",
                   "zero_unclassified", "outcomes_sum", "no_engine_error"]
E2E_CHECKS = CAMPAIGN_CHECKS + ["digest_stable"]
TRACE_CHECKS = CAMPAIGN_CHECKS + ["cases_recorded", "accepted_matches",
                                  "load_matches_verify"]
AGREEMENT_COUNTERS = ["metamorph_variants", "decode_cache_hits", "decode_cache_misses"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--cases", str(TINY_CASES[workload])]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    return done.returncode, done.stdout.decode(errors="replace").splitlines()


def check_kinds(lines):
    """check <kind> evaluated <n> failed <m> lines -> {kind: (n, m)}."""
    kinds = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 6 and parts[0] == "check" and parts[2] == "evaluated":
            kinds[parts[1]] = (int(parts[3]), int(parts[5]))
    return kinds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section, checks in ((0, "end_to_end", E2E_CHECKS),
                                       (1, "per_layer", TRACE_CHECKS)):
            label = "%s trace=%d" % (workload, trace)
            code, lines = run(workload, trace)
            if code != 0 or not lines:
                errors.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: result not correct: %s" % (label, lines[-1][:200]))
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                errors.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                              "units %s" % (label, sorted(set(want) - set(got)),
                                            sorted(set(got) - set(want)),
                                            sorted(n for n in want if n in got and
                                                   got[n] != want[n])))
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    errors.append("%s: %s has no numeric value" % (label, name))
            kinds = check_kinds(lines)
            if trace == 1 and workload == "assure":
                checks = checks + ["checkpoint_loads"]
            for kind in checks:
                evaluated, failed = kinds.get(kind, (0, 0))
                if evaluated == 0 or failed != 0:
                    errors.append("%s: check %s evaluated %d, failed %d" %
                                  (label, kind, evaluated, failed))
            text = "\n".join(lines)
            if trace == 0 and workload in ("hunt", "assure") and "metric bugs_found" not in text:
                errors.append("%s: no bugs_found line" % label)
            if trace == 0 and workload == "assure" and "metric conf_pass_share" not in text:
                errors.append("%s: no conf_pass_share line" % label)
            if workload == "assure":
                for counter in AGREEMENT_COUNTERS:
                    if "agree " + counter not in text:
                        errors.append("%s: no agreement line for %s" % (label, counter))
            print("selftest: %-14s %d metrics, %d check kinds" % (label, len(got), len(kinds)))
    for error in errors:
        print("selftest: FAIL " + error)
    print("selftest: %s" % ("FAIL" if errors else "pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
