#!/usr/bin/env python3
"""Compare a perf_smoke BENCH_topk.json against the committed baseline.

Usage: bench_compare.py [--strict] CURRENT.json [BASELINE.json]

Wall-clock on shared CI runners is noisy, so by default a regression
WARNS and never fails the job: every finding is printed as a GitHub
Actions `::warning::` annotation and the exit status is always 0.

With --strict, any finding (or an unreadable input file) exits nonzero
so the step itself turns red. CI runs the strict mode inside a
`continue-on-error: true` step: the red ✗ is visible on the check run
as an early-warning signal, but the job — and the merge — still passes.
Flip off continue-on-error once the runner pool is quiet enough to
trust the numbers.

The committed baseline (ci/bench_baseline.json) was recorded on a quiet
1-core box; refresh it after intentional perf changes with:

    ./build/bench/perf_smoke --out ci/bench_baseline.json

Checked fields (threshold: >20% worse than baseline):
  - cold.elapsed_ms / warm.elapsed_ms  (wall time per run)
  - reference.elapsed_ms               (the uncached run)
  - packed_cold.elapsed_ms / packed_warm.elapsed_ms
                                       (mmap-backed storage engine)
  - packed_open_ms                     (packed-corpus open cost,
                                       O(directories) by design)
  - packed_resident_bytes              (decoded-bytes proxy: buffer
                                       pools + materialized documents)
  - warm_hit_rate                      (cache effectiveness, lower = worse)
Counter fields are byte-deterministic and covered by tests, not here.
"""

import json
import os
import sys

THRESHOLD = 0.20


def warn(msg: str) -> None:
    # GitHub Actions annotation; plain stderr everywhere else.
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::warning title=bench_compare::{msg}")
    else:
        print(f"warning: {msg}", file=sys.stderr)


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--strict"]
    strict = "--strict" in argv[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    current_path = args[0]
    baseline_path = (
        args[1]
        if len(args) > 1
        else os.path.join(os.path.dirname(__file__), "bench_baseline.json")
    )
    try:
        with open(current_path) as f:
            current = json.load(f)
    except (OSError, ValueError) as e:
        warn(f"cannot read current bench result {current_path}: {e}")
        return 1 if strict else 0
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        warn(f"cannot read baseline {baseline_path}: {e}")
        return 1 if strict else 0

    findings = 0
    for run in ("cold", "warm", "reference", "packed_cold", "packed_warm"):
        base = baseline.get(run, {}).get("elapsed_ms")
        cur = current.get(run, {}).get("elapsed_ms")
        if not base or cur is None:
            continue
        ratio = cur / base
        if ratio > 1.0 + THRESHOLD:
            warn(
                f"{run} run wall time regressed {ratio:.2f}x "
                f"({base:.2f}ms -> {cur:.2f}ms, threshold +{THRESHOLD:.0%})"
            )
            findings += 1

    # Scalar "bigger is worse" fields from the packed storage engine.
    for field, unit in (("packed_open_ms", "ms"),
                        ("packed_resident_bytes", "bytes")):
        base = baseline.get(field)
        cur = current.get(field)
        if not base or cur is None:
            continue
        ratio = cur / base
        if ratio > 1.0 + THRESHOLD:
            warn(
                f"{field} regressed {ratio:.2f}x "
                f"({base:.2f}{unit} -> {cur:.2f}{unit}, "
                f"threshold +{THRESHOLD:.0%})"
            )
            findings += 1

    base_hit = baseline.get("warm_hit_rate")
    cur_hit = current.get("warm_hit_rate")
    if base_hit and cur_hit is not None:
        if cur_hit < base_hit * (1.0 - THRESHOLD):
            warn(
                f"warm cache hit rate dropped {base_hit:.3f} -> {cur_hit:.3f} "
                f"(threshold -{THRESHOLD:.0%})"
            )
            findings += 1

    if findings == 0:
        print(f"bench_compare: OK ({current_path} vs {baseline_path})")
        return 0
    if strict:
        print(f"bench_compare: {findings} regression(s) — failing (--strict)")
        return 1
    print(f"bench_compare: {findings} warning(s) — not failing the job")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
