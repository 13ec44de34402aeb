"""End-to-end metrics from per-job latencies, and run-to-run summaries."""

from __future__ import annotations

import math
import statistics

INF = float("inf")


def percentile(values, q):
    """Nearest-rank percentile (0 < q <= 1).  A failed job is recorded as
    inf, so it ranks as infinitely slow: fixing a failure can only lower a
    percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def end_to_end(times_s, ok):
    """Metrics of one run from every job execution: times_s[k] is the wall
    time of execution k in seconds, ok[k] whether it returned rather than
    raising a documented math error.  A failed job ranks as infinitely slow,
    but its time still counts as busy time."""
    succeeded = sum(ok)
    ranked = [t if good else INF for t, good in zip(times_s, ok)]
    return {
        "jobs_per_s": succeeded / sum(times_s),
        "latency_p50_ms": percentile(ranked, 0.5) * 1e3,
        "latency_p90_ms": percentile(ranked, 0.9) * 1e3,
        "ok_share": succeeded / len(ok),
        "attempted": len(ok),
        "failed": len(ok) - succeeded,
    }


def spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else math.inf
