#!/usr/bin/env python3
"""Exact-count gate over the flexbench traced runs.

    python3 ci/check_flexbench_counts.py

Runs, from the repository root, for each workload W listed in
ci/flexbench_counts.json:

    python3 flexbench/run.py --workload W --seed 1 --seconds 1 --trace 1

A traced run replays a fixed prefix of the seeded op stream, so every
per-layer metric whose unit is `count` or `bytes` (plan passes, tuples
created, candidates probed, IR calls, document decodes, decoded bytes,
...) repeats exactly on any machine. Wall times are never compared.

The gate fails unless every run reports `correct: true` and `failed: 0`
and every count/bytes metric equals its committed value. On a mismatch
it prints the differing names and the fresh counts of every workload as
JSON; after an intended change to the engine's work, review the diff
and commit that JSON as ci/flexbench_counts.json.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS_FILE = ROOT / "ci" / "flexbench_counts.json"
GATED_UNITS = {"count", "bytes"}


def traced_run(workload):
    """Returns (report, error) for one traced run of `workload`."""
    cmd = [sys.executable, "flexbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, f"run.py exited {proc.returncode} without a report"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as err:
        return None, f"unparseable report line: {err}"


def main():
    expected = json.loads(COUNTS_FILE.read_text())
    fresh = {}
    failures = []
    for workload, want in expected.items():
        report, error = traced_run(workload)
        if error is not None:
            failures.append(f"{workload}: {error}")
            continue
        if report.get("correct") is not True or report.get("failed") != 0:
            failures.append(f"{workload}: correct={report.get('correct')} "
                            f"failed={report.get('failed')}")
        got = {name: m["value"] for name, m in report["metrics"].items()
               if m["unit"] in GATED_UNITS}
        fresh[workload] = got
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                failures.append(f"{workload}: {name} expected "
                                f"{want.get(name)} got {got.get(name)}")
        print(f"{workload}: {len(got)} counts checked", flush=True)
    if failures:
        print("FAIL: traced counts differ from ci/flexbench_counts.json:")
        for line in failures:
            print(f"  {line}")
        print("fresh counts:")
        print(json.dumps(fresh, indent=2, sort_keys=True))
        return 1
    print("OK: every traced count matches ci/flexbench_counts.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
