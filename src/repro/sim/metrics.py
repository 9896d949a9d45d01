"""Latency statistics for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LatencyStats", "percentile", "summarize"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (seconds).

    Every field is required: ``p99`` used to default to ``0.0``, which let
    any call site constructing the dataclass directly (rather than via
    :func:`summarize`) silently report a zero tail. Construct through
    :func:`summarize` unless you genuinely have all the moments in hand.
    """

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    stddev: float

    def mean_ms(self) -> float:
        """Mean in milliseconds (what the paper's Table 3 reports)."""
        return self.mean * 1000.0

    def p95_ms(self) -> float:
        """95th percentile in milliseconds (what the scenario reports quote)."""
        return self.p95 * 1000.0

    def p99_ms(self) -> float:
        """99th percentile in milliseconds (the tail the load reports quote)."""
        return self.p99 * 1000.0

    def overhead_vs(self, baseline: "LatencyStats") -> float | None:
        """Percentage increase of this mean over a baseline mean.

        A zero-mean baseline makes the ratio undefined; ``None`` is returned
        rather than ``float("inf")`` because reports embed this value in JSON,
        and ``json.dumps`` renders infinity as the bare word ``Infinity`` —
        which is not valid JSON and breaks every strict parser downstream.
        """
        if baseline.mean == 0:
            return None
        return (self.mean - baseline.mean) / baseline.mean * 100.0

    def to_dict(self) -> dict:
        """Plain-data form for scenario reports and experiment write-ups."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "stddev": self.stddev,
        }


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted sample list.

    With ``n`` samples, the ``fraction`` percentile (``fraction`` in
    ``[0, 1]``) is the value at rank ``ceil(fraction * n)`` (1-based, at
    least 1) — so a single sample is every percentile, and small samples
    report an actual observed value rather than an interpolation.
    """
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def summarize(samples: list[float]) -> LatencyStats:
    """Compute summary statistics over latency samples."""
    if not samples:
        raise ValueError("cannot summarize zero samples")
    ordered = sorted(samples)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((s - mean) ** 2 for s in ordered) / count
    return LatencyStats(
        count=count,
        mean=mean,
        median=percentile(ordered, 0.5),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        minimum=ordered[0],
        maximum=ordered[-1],
        stddev=math.sqrt(variance),
    )
