#!/usr/bin/env python3
"""Runs one FleXPath benchmark workload and prints its metrics.

    python3 flexbench/run.py --workload paper_1mb --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
engine and the flexbench binary under .bench_build/ (or $CARGO_TARGET_DIR);
later runs only re-check the build. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of the separate traced run. The
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, without that line, when the build or the run fails, and
exits 1 after printing it when any answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402

RUN_TIMEOUT_S = 170
INPUT_CACHE_BYTES = 600 << 20
# Per-layer times of the set-up, not of an op: no share of the facade.
SETUP_METRICS = {"xml.parse_ms", "stats.build_ms", "storage.pack_ms"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the flexbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"engine sources not found under {ROOT}")
    cmake_dir = build_dir() / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "flexbench"


def prune_work_dir(work_dir):
    """Removes packed files a killed run left behind, and keeps the cached
    generated documents under INPUT_CACHE_BYTES, oldest out first."""
    for stale in work_dir.glob("packed-*.fxp"):
        stale.unlink()
    files = sorted((work_dir / "inputs").glob("*.xml"), key=lambda p: p.stat().st_mtime)
    total = sum(p.stat().st_size for p in files)
    for path in files:
        if total <= INPUT_CACHE_BYTES:
            break
        total -= path.stat().st_size
        path.unlink()


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(binary, args):
    work_dir = build_dir() / "flexbench"
    prune_work_dir(work_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"flexbench exited {proc.returncode} without output")
    return proc.returncode, json.loads(lines[-1])


def report_e2e(raw, units):
    metrics, diag = benchstats.e2e_metrics(raw)
    print(f"workload {raw['workload']}: {diag['samples']} ops, tail = "
          f"p{diag['tail_percentile']:.2f} with {diag['tail_samples_beyond']} "
          f"samples beyond it")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:12.4f} {units[name]}")
    print(f"  host.calib_ms {diag['host.calib_ms']:.4f} (IQR/median "
          f"{diag['host.calib_spread']:.3f}), host.raw_throughput_qps "
          f"{diag['host.raw_throughput_qps']:.2f}, host.raw_latency_p50_ms "
          f"{diag['host.raw_latency_p50_ms']:.4f}")
    print(f"  answers/op {diag['answers_per_op']:.1f}, shape repeats "
          f"{diag['shape_repeat_ratio']:.3f}, exact repeats "
          f"{diag['exact_repeat_ratio']:.3f}")
    failed = raw["errors"] + raw["mismatches"]
    return failed, {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}


def report_trace(raw, units):
    facade = raw["facade_ms_per_op"]
    print(f"workload {raw['workload']}: traced {raw['attempted']:.0f} ops, "
          f"facade {facade:.3f} ms/op; replay/facade pass mismatches "
          f"{raw['replay_mismatches']:.0f}")
    for name, value in raw["metrics"].items():
        per_op_time = name.endswith("_ms") and name not in SETUP_METRICS \
            and not name.startswith("host.")
        share = f"{100 * value / facade:6.1f}% of facade" if per_op_time and facade > 0 else ""
        print(f"  {name:<30} {value:14.4f} {units[name]:<6} {share}")
    missing = set(units) - set(raw["metrics"])
    if missing:
        raise RuntimeError(f"traced run did not report {sorted(missing)}")
    return int(raw["failed"]), {name: {"value": raw["metrics"][name], "unit": unit}
                                for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        e2e_units, layer_units = metric_units()
        code, raw = run_binary(binary, args)
        if args.trace:
            failed, metrics = report_trace(raw, layer_units)
        else:
            failed, metrics = report_e2e(raw, e2e_units)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"run.py: {err}")
        return 2
    attempted = int(raw["attempted"])
    correct = failed == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
