#!/usr/bin/env python3
"""Short self-test of the Cubie-Bench binary (scale 32, one-second runs).

    python3 cubiebench/selftest.py <path to cubiebench binary>

Checks that:
  * every workload's untraced run prints every end-to-end metric named in
    BENCHMARK.json, with its unit and a finite value, and passes its checks;
  * the traced run prints every per-layer metric the same way;
  * a perturbed suite digest and a damaged DiskCache file (injected through
    DiskCache::inject_fault) each count as a failed operation (exit 1,
    "correct": false), not as a silent recompute;
  * no per-run work directory is left behind.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCALE = "32"


def run(binary, work, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE,
           "--digest-file", os.path.join(HERE, "suite_records.digest"),
           "--work-dir", work] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check_metrics(label, result, wanted):
    errors = []
    got = result["metrics"]
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            errors.append("%s: metric %s missing" % (label, m["name"]))
        elif v.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, want %r"
                          % (label, m["name"], v.get("unit"), m["unit"]))
        elif not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            errors.append("%s: %s is not a finite number" % (label, m["name"]))
    return errors


def main(binary):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = os.path.abspath(binary)
    os.chdir(os.path.dirname(binary))
    work = "selftest-work"  # relative: keeps the socket path short
    errors = []

    for workload in [w["name"] for w in spec["workloads"]]:
        rc, result, err = run(binary, work, workload, 0)
        if rc != 0 or not result or not result["correct"]:
            errors.append("%s: rc %d, result %r\n%s" % (workload, rc, result, err))
            continue
        errors += check_metrics(workload, result, spec["end_to_end"])

    rc, result, err = run(binary, work, "suite", 1)
    if rc != 0 or not result or not result["correct"]:
        errors.append("traced: rc %d, result %r\n%s" % (rc, result, err))
    else:
        errors += check_metrics("traced", result, spec["per_layer"])

    for workload, flag in (("suite", "--perturb-digest"),
                           ("warm", "--inject-fault")):
        rc, result, err = run(binary, work, workload, 0, flag)
        if rc != 1 or not result or result["correct"] or \
                result["failed"] < 1 or result["attempted"] < result["failed"]:
            errors.append("%s %s: want exit 1 with a failed operation, got "
                          "rc %d, result %r" % (workload, flag, rc, result))

    left = [d for d in os.listdir(work) if d.startswith("run-")]
    if left:
        errors.append("per-run directories left behind: %s" % left)

    for e in errors:
        print("selftest: FAIL: " + e)
    print("selftest: %s" % ("ok" if not errors else "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
