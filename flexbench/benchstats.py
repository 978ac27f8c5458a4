"""Arithmetic of the FleXPath benchmark: calibration, percentiles, metrics.

Pure functions over the raw JSON the flexbench binary prints, so every rule
here is unit-tested without building the engine (tests/test_benchstats.py).
"""

import math
import statistics

TAIL_BEYOND = 10  # The tail percentile keeps at least this many samples beyond it.
PRIOR_OPS = 100_000  # Pseudo-ops of the failed_ops_ratio prior.


def pass_factor(reference_ms, kernel_before_ms, kernel_after_ms):
    """Scale factor for everything timed between two probe runs.

    The probe ran `kernel_before_ms` just before and `kernel_after_ms` just
    after the timed work; their geometric mean is the host's speed during
    it. Times multiplied by the factor read as if the host had run the
    probe in `reference_ms`.
    """
    return reference_ms / math.sqrt(kernel_before_ms * kernel_after_ms)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (percentile, value, samples_beyond). With n sorted samples that
    is the (beyond+1)-th largest, at percentile 100*(n-beyond)/n. With too
    few samples for any such percentile it falls back to the maximum, and
    samples_beyond reports the shortfall honestly (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def failed_ops_ratio(failed, attempted):
    """Failures per op, smoothed by a prior of one failure in PRIOR_OPS ops.

    The prior keeps a clean run above 0 (it reads ~1/PRIOR_OPS) and, being
    much larger than any run's op count, keeps that clean value nearly
    independent of how many ops the run completed; a single real failure
    doubles it.
    """
    return (failed + 1) / (attempted + PRIOR_OPS)


def iqr_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def e2e_metrics(raw):
    """The end-to-end metrics of one untimed-verified run.

    Returns (metrics, diagnostics): metrics maps each end-to-end metric name
    to its calibrated value; diagnostics holds the raw host.* values and the
    tail percentile's definition for the human-readable summary.
    """
    ref = raw["reference_kernel_ms"]
    passes = raw["passes"]
    factors = [pass_factor(ref, kb, ka) for kb, ka, _, _, _ in passes]
    op_ms = raw["op_ms"]
    calibrated = [ms * factors[int(p)] for ms, p in zip(op_ms, raw["op_pass"])]
    ops = sum(p[4] for p in passes)
    timed_s = sum(wall * f for (_, _, wall, _, _), f in zip(passes, factors)) / 1e3
    cpu_ms = sum(cpu * f for (_, _, _, cpu, _), f in zip(passes, factors))
    setup_s = [total_ms * pass_factor(ref, kb, ka) / 1e3
               for total_ms, kb, ka in raw["setup"]]
    percentile, tail_ms, beyond = tail(calibrated)
    failed = raw["errors"] + raw["mismatches"]
    metrics = {
        "latency_p50_ms": statistics.median(calibrated),
        "latency_tail_ms": tail_ms,
        "throughput_qps": ops / timed_s,
        "cpu_ms_per_query": cpu_ms / ops,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_ops_ratio": failed_ops_ratio(failed, raw["attempted"]),
    }
    kernels = [k for p in passes for k in p[:2]]
    raw_wall_s = sum(p[2] for p in passes) / 1e3
    diagnostics = {
        "host.calib_ms": statistics.median(kernels),
        "host.calib_spread": iqr_spread(kernels) if len(kernels) >= 2 else 0.0,
        "host.raw_throughput_qps": ops / raw_wall_s,
        "host.raw_latency_p50_ms": statistics.median(op_ms),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "samples": len(calibrated),
        "answers_per_op": raw["answers_per_op"],
        "shape_repeat_ratio": raw["shape_repeat_ratio"],
        "exact_repeat_ratio": raw["exact_repeat_ratio"],
    }
    return metrics, diagnostics
