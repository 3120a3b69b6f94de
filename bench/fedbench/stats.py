"""Order statistics for timing samples, with the sample-count rule.

A percentile is only as good as the samples beyond it: the benchmark reports
a median and a high percentile, states the sample count beside them, and
names the highest percentile that has at least MIN_SAMPLES_BEYOND samples
above it.
"""

from __future__ import annotations

import math

MIN_SAMPLES_BEYOND = 10
CANDIDATE_PERCENTILES = (50, 75, 90, 95, 99)


def percentile(values, p: float) -> float:
    """p-th percentile (0..100), interpolating linearly between closest ranks.

    Same rule as numpy's default and `statistics.quantiles(method="inclusive")`.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return n - math.ceil(n * p / 100.0)


def samples_needed(p: float) -> int:
    """Fewest samples with MIN_SAMPLES_BEYOND of them above the p-th
    percentile."""
    if not 0.0 <= p < 100.0:
        raise ValueError(f"percentile {p} outside [0, 100)")
    n = MIN_SAMPLES_BEYOND
    while samples_beyond(n, p) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def highest_supported_percentile(n: int) -> int | None:
    """Highest candidate percentile with MIN_SAMPLES_BEYOND samples above it."""
    ok = [p for p in CANDIDATE_PERCENTILES
          if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND]
    return max(ok) if ok else None


def timing_summary(samples, high: int, scale: float = 1.0) -> dict:
    """Median and `high`-th percentile of `samples` times `scale`, with the
    sample count, the count beyond the high percentile, and the highest
    percentile the sample-count rule supports."""
    n = len(samples)
    return {
        "p50": percentile(samples, 50) * scale,
        f"p{high}": percentile(samples, high) * scale,
        "n": n,
        f"beyond_p{high}": samples_beyond(n, high),
        "highest_supported_percentile": highest_supported_percentile(n),
    }
