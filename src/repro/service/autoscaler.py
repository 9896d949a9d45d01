"""Metrics-driven elasticity: watch the shards, resize the plane, prove it.

The :class:`Autoscaler` closes the loop the operator would otherwise close
by hand: it samples per-shard signals (windowed p99 latency from the
workload, instantaneous service-queue depth from the shards' own RPC
servers), debounces them through breach/clear streaks, and issues
:meth:`ShardedService.reshard` calls — growing under sustained overload,
shrinking once the fleet is provably idle.

Firing is deliberately harder than holding:

* **Hysteresis.** A grow needs ``breach_streak`` *consecutive* overloaded
  samples; a shrink needs ``clear_streak`` consecutive calm ones. Samples in
  the band between the high and low thresholds reset both streaks, so a
  workload hovering near a threshold holds instead of flapping.
* **Operator gates** (:mod:`repro.service.gates`). Every decision passes the
  heartbeat gate (no reshard into a partition) and the cooldown gate (the
  previous transition must settle first) before a record moves — and a
  reconciliation census afterwards proves no record was lost or became
  authoritative on two shards.

Every sample, decision, refusal, and census verdict is recorded, so a
scenario can assert not just "it scaled" but *why* it scaled, why it held,
and that the move was clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ReshardError
from repro.service.gates import (
    CooldownGate,
    GateResult,
    HeartbeatGate,
    ReconciliationGate,
)
from repro.sim.metrics import percentile as nearest_rank

__all__ = ["AutoscalerPolicy", "MetricsSample", "AutoscaleDecision",
           "Autoscaler", "percentile"]


def percentile(values, fraction: float) -> float | None:
    """The ``fraction`` percentile of ``values`` (nearest-rank, see
    :func:`repro.sim.metrics.percentile`), or ``None`` for an empty window —
    the autoscaler treats "no completed requests" as silence, not as zero
    latency."""
    ordered = sorted(values)
    return nearest_rank(ordered, fraction) if ordered else None


@dataclass(frozen=True)
class AutoscalerPolicy:
    """The knobs: thresholds, hysteresis, bounds, and pacing.

    Latency thresholds are windowed p99 in simulated seconds; queue
    thresholds are instantaneous per-shard service-queue depth. The low
    thresholds must sit strictly below the high ones — the gap is the
    hysteresis band that prevents flapping.
    """

    p99_high_s: float = 0.5       # grow when windowed p99 reaches this
    queue_high: int = 16          # ... or any shard's queue is this deep
    p99_low_s: float = 0.05       # shrink only when p99 is at/below this
    queue_low: int = 1            # ... and every queue is at/below this
    min_shards: int = 1
    max_shards: int = 8
    grow_factor: float = 2.0      # target = ceil(shards * grow_factor)
    shrink_factor: float = 2.0    # target = floor(shards / shrink_factor)
    cooldown_s: float = 5.0       # minimum settle time between transitions
    breach_streak: int = 2        # consecutive overloaded samples to grow
    clear_streak: int = 4         # consecutive calm samples to shrink
    sample_interval_s: float = 0.25

    def __post_init__(self):
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if not self.p99_low_s < self.p99_high_s:
            raise ValueError("p99_low_s must sit below p99_high_s")
        if not self.queue_low < self.queue_high:
            raise ValueError("queue_low must sit below queue_high")
        if self.grow_factor <= 1.0 or self.shrink_factor <= 1.0:
            raise ValueError("grow/shrink factors must exceed 1.0")
        if self.breach_streak < 1 or self.clear_streak < 1:
            raise ValueError("streaks must be at least 1 sample")
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")


@dataclass(frozen=True)
class MetricsSample:
    """One observation of the plane: when, how slow, how deep, how wide."""

    time_s: float
    p99_s: float | None           # None: no requests completed in the window
    queue_depth: int              # max instantaneous depth across shards
    shard_count: int              # committed ring coverage (draining excluded)


@dataclass
class AutoscaleDecision:
    """What the autoscaler did (or refused to do) at one sample point."""

    time_s: float
    action: str                   # "grow" | "shrink" | "hold"
    from_shards: int
    to_shards: int
    reason: str
    gated_by: GateResult | None = None      # the gate that refused, if any
    reconciliation: GateResult | None = None
    report: object = None         # ReshardReport when the transition ran
    sample: MetricsSample | None = None

    @property
    def fired(self) -> bool:
        """Whether a transition actually committed."""
        return self.action in ("grow", "shrink") and self.report is not None

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "action": self.action,
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "reason": self.reason,
            "fired": self.fired,
            "gated_by": (self.gated_by.gate
                         if self.gated_by is not None else None),
            "reconciled": (self.reconciliation.allowed
                           if self.reconciliation is not None else None),
        }


class Autoscaler:
    """Watches a :class:`ShardedService` and resizes it through its gates.

    Drive it by calling :meth:`observe` at a steady cadence (the workload
    driver runs it as a peer event-loop task every
    ``policy.sample_interval_s``), passing the windowed p99 the caller
    computed from completed requests; queue depth is probed live from the
    shards. Everything observed and decided accumulates on
    :attr:`samples` and :attr:`decisions`.
    """

    def __init__(self, plane, policy: AutoscalerPolicy | None = None):
        self.plane = plane
        self.policy = policy or AutoscalerPolicy()
        self.heartbeat = HeartbeatGate()
        self.cooldown = CooldownGate(self.policy.cooldown_s)
        self.reconciliation = ReconciliationGate()
        self.samples: list[MetricsSample] = []
        self.decisions: list[AutoscaleDecision] = []
        self.reshard_reports: list = []
        self._breach = 0
        self._calm = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def sample(self, p99_s: float | None = None) -> MetricsSample:
        """Snapshot the plane now; ``p99_s`` is the caller's latency window."""
        depths = self.plane.queue_depth_per_shard()
        return MetricsSample(
            time_s=self.plane.clock.now(),
            p99_s=p99_s,
            queue_depth=max(depths.values()) if depths else 0,
            shard_count=self.plane.ring.shard_count,
        )

    def observe(self, p99_s: float | None = None) -> AutoscaleDecision:
        """Take one sample, update hysteresis, and maybe reshard.

        Returns the decision made at this sample — ``hold`` (with the
        reason), a gated non-action (with the refusing gate's evidence), or
        a fired transition (with its :class:`ReshardReport` and the
        post-move reconciliation verdict).
        """
        policy = self.policy
        sample = self.sample(p99_s)
        self.samples.append(sample)
        shards = sample.shard_count

        overloaded = ((sample.p99_s is not None
                       and sample.p99_s >= policy.p99_high_s)
                      or sample.queue_depth >= policy.queue_high)
        calm = ((sample.p99_s is None or sample.p99_s <= policy.p99_low_s)
                and sample.queue_depth <= policy.queue_low)
        if overloaded:
            self._breach += 1
            self._calm = 0
        elif calm:
            self._calm += 1
            self._breach = 0
        else:
            # In the hysteresis band: neither streak may grow.
            self._breach = 0
            self._calm = 0

        action, target, reason = "hold", shards, (
            f"breach {self._breach}/{policy.breach_streak}, "
            f"calm {self._calm}/{policy.clear_streak}")
        if self._breach >= policy.breach_streak and shards < policy.max_shards:
            action = "grow"
            target = min(policy.max_shards,
                         math.ceil(shards * policy.grow_factor))
            reason = (f"overloaded for {self._breach} consecutive samples "
                      f"(p99={sample.p99_s}, queue={sample.queue_depth})")
        elif self._calm >= policy.clear_streak and shards > policy.min_shards:
            action = "shrink"
            target = max(policy.min_shards,
                         math.floor(shards / policy.shrink_factor))
            reason = (f"calm for {self._calm} consecutive samples "
                      f"(p99={sample.p99_s}, queue={sample.queue_depth})")

        decision = AutoscaleDecision(
            time_s=sample.time_s, action=action, from_shards=shards,
            to_shards=target, reason=reason, sample=sample)
        if action == "hold" or target == shards:
            self.decisions.append(decision)
            return decision

        # Gate pipeline: a refusal records its evidence and keeps the streak,
        # so the decision can fire at the next sample once the gate clears.
        for gate in (self.heartbeat, self.cooldown):
            verdict = gate.check(self.plane)
            if not verdict.allowed:
                decision.gated_by = verdict
                self.decisions.append(decision)
                return decision

        decision.report = self._fire(decision)
        self._breach = 0
        self._calm = 0
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Transition
    # ------------------------------------------------------------------
    def _fire(self, decision: AutoscaleDecision):
        """Run the gated transition: census, reshard, census, reconcile.

        A census that fails (a shard cannot enumerate its keys) refuses the
        decision through the reconciliation gate; before the move, nothing
        moves.
        """
        plane = self.plane
        before = self._census(decision)
        if before is None:
            return None
        report = None
        try:
            if plane.draining_shards():
                # A previous shrink is still draining; retry its leftovers
                # instead of stacking a new transition on top.
                drain = plane.finish_reshard()
                self.reshard_reports.append(drain)
                if plane.draining_shards():
                    decision.gated_by = GateResult(
                        "drain", False,
                        "previous shrink still draining after retry")
                    return None
            report = plane.reshard(decision.to_shards)
        except ReshardError as exc:
            # A faulted transition still committed its epoch (the coordinator
            # pins what could not move); surface its partial report.
            report = getattr(exc, "report", None)
            decision.reason += f"; transition faulted: {exc}"
        self.cooldown.record(plane.clock.now())
        if report is not None:
            self.reshard_reports.append(report)
        after = self._census(decision)
        decision.reconciliation = (decision.gated_by if after is None else
                                   self.reconciliation.verify(before, after))
        return report

    def _census(self, decision: AutoscaleDecision) -> dict | None:
        """The reconciliation census, or ``None`` with the decision refused
        when a shard cannot answer it."""
        try:
            return self.reconciliation.census(self.plane)
        except ReshardError as exc:
            decision.gated_by = GateResult(self.reconciliation.name, False,
                                           f"census failed: {exc}")
            return None
