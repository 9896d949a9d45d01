"""Latency statistics and the run totals every harness report carries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LatencyStats", "RunTotals", "percentile", "summarize"]


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


@dataclass(kw_only=True)
class RunTotals:
    """The totals every run report carries, whatever harness produced it.

    The scenario runner's ``ScenarioReport`` extends it, the load harness's
    ``WorkloadReport`` extends that, and :meth:`record` fills it the same
    way from one finished op loop — a parallel run's too.
    """

    succeeded: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (op index, error type name)
    retries: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    max_in_flight: int = 0
    # Per-shard high-water mark of requests queued behind the serial service
    # queues (max over the shard's domains). Only a concurrent run with a
    # non-zero service time can push it above 1.
    shard_queue_depth: dict = field(default_factory=dict)  # shard -> depth
    autoscale_decisions: list = field(default_factory=list)  # decision dicts
    final_shards: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of operations that completed end to end."""
        attempted = self.succeeded + self.failed
        if attempted == 0:
            return 0.0
        return self.succeeded / attempted

    def record(self, ctx, run) -> None:
        """Fill the totals from ``run`` (an ``OpRun``) and its context.

        Call it while the plane is still routed. The transport counters and
        the queue depth are read only when ``ctx`` has a simulated network:
        a parallel run's executor has neither, so it reports no messages
        and no queue depth.
        """
        plane = ctx.plane
        self.failures = run.failures
        self.failed = len(self.failures)
        self.succeeded = len(run.results) - self.failed
        self.max_in_flight = run.max_in_flight
        self.retries = plane.rpc_retry_total()
        self.final_shards = plane.ring.shard_count
        if ctx.autoscaler is not None:
            self.autoscale_decisions = [decision.to_dict() for decision
                                        in ctx.autoscaler.decisions]
        if ctx.network is not None:
            stats = ctx.network.stats
            self.messages_sent = stats.messages_sent
            self.messages_delivered = stats.messages_delivered
            self.messages_dropped = stats.messages_dropped
            self.messages_duplicated = stats.messages_duplicated
            self.shard_queue_depth = plane.max_queue_depth_per_shard()

    def network_line(self) -> str:
        """The ``network:`` line of a text report."""
        return (f"  network: sent={self.messages_sent} "
                f"delivered={self.messages_delivered} "
                f"dropped={self.messages_dropped} "
                f"duplicated={self.messages_duplicated}")

    def queue_depth_lines(self) -> list[str]:
        """The ``max queue depth:`` line, when any shard queued a request."""
        if not any(self.shard_queue_depth.values()):
            return []
        depths = " ".join(f"s{shard}:{depth}" for shard, depth
                          in sorted(self.shard_queue_depth.items()))
        return [f"  max queue depth: {depths}"]

    def totals_dict(self) -> dict:
        """The plain-data keys both reports emit from these totals."""
        return {
            "succeeded": self.succeeded,
            "failed": self.failed,
            "retries": self.retries,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "max_in_flight": self.max_in_flight,
            "shard_queue_depth": {shard: depth for shard, depth
                                  in sorted(self.shard_queue_depth.items())},
            "autoscale_decisions": list(self.autoscale_decisions),
            "final_shards": self.final_shards,
        }
