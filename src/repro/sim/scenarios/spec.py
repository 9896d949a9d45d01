"""Scenario declarations and per-scenario reports.

A :class:`Scenario` is declarative: it names an application, a workload size,
a seed, a fault plan (rules + events), and the expected outcome (how much
liveness may be lost, whether the end-of-run audit should pass, which kinds of
misbehavior evidence it must produce). The runner turns it into a
:class:`ScenarioReport` of liveness/latency metrics and safety-invariant
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.coverage import cell_id
from repro.sim.metrics import LatencyStats, RunTotals

__all__ = ["Scenario", "InvariantResult", "ScenarioReport"]

APPS = ("keybackup", "threshold_sign", "prio", "odoh")


@dataclass(frozen=True)
class Scenario:
    """One declarative fault-injection scenario.

    Attributes:
        name: unique scenario identifier (used in reports and test ids).
        app: one of ``keybackup``, ``threshold_sign``, ``prio``, ``odoh``.
        ops: number of workload operations to drive.
        shards: service-plane shards the app is deployed across (1 = the
            classic single-deployment layout; a :class:`~repro.sim.faults.
            ReshardService` event can grow it mid-run).
        seed: master seed for workload and fault randomness.
        rules: probabilistic :class:`~repro.sim.faults.FaultRule` instances.
        events: scheduled :class:`~repro.sim.faults.ScheduledEvent` instances.
        rpc_attempts: send attempts per RPC (retransmissions ride on
            at-most-once servers, so retries are safe).
        min_success_rate: the liveness floor the scenario must still reach.
        expect_audit_ok: whether the end-of-run audit should pass.
        expect_detection_kinds: evidence kinds the audit must produce (e.g.
            ``("unpublished-code",)`` for a malicious-update scenario).
        concurrent: drive ops as overlapping tasks on the discrete-event
            loop (Poisson arrivals at ``arrival_rate``) instead of one at a
            time — scheduled events then fire while earlier ops are
            genuinely in flight.
        arrival_rate: mean op arrivals per simulated second in concurrent
            mode (required > 0 when ``concurrent=True``).
        arrival_phases: optional load shape for concurrent scenarios — a
            tuple of ``(start_op, rate)`` pairs with ascending start ops.
            Arrivals before the first phase use ``arrival_rate``; from each
            phase's start op onward, its rate applies (one phase models a
            flash crowd, several model a diurnal wave).
        service_time: simulated seconds each trust domain spends per
            request (0 = infinitely fast servers); concurrent scenarios
            need it non-zero for queueing to be observable.
        regions: optional multi-region placement — shard ``i`` lives in
            ``regions[i % len(regions)]`` and cross-region traffic pays the
            geo WAN latency map (:func:`repro.net.latency.geo_profile`).
            Empty = the classic single-region LAN layout.
        description: one line for reports and the docs.
    """

    name: str
    app: str
    ops: int = 10
    shards: int = 1
    seed: int = 2022
    rules: tuple = ()
    events: tuple = ()
    rpc_attempts: int = 3
    min_success_rate: float = 1.0
    expect_audit_ok: bool = True
    expect_detection_kinds: tuple = ()
    concurrent: bool = False
    arrival_rate: float = 0.0
    arrival_phases: tuple = ()
    service_time: float = 0.0
    regions: tuple = ()
    description: str = ""

    @property
    def layout(self) -> str:
        """Coverage-model region layout: ``geo`` when regions are set."""
        return "geo" if self.regions else "single"

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown scenario app {self.app!r} (expected one of {APPS})")
        if self.ops < 1:
            raise ValueError("a scenario needs at least one operation")
        if self.shards < 1:
            raise ValueError("a scenario needs at least one shard")
        if not 0.0 <= self.min_success_rate <= 1.0:
            raise ValueError("min_success_rate must be within [0, 1]")
        if self.concurrent and self.arrival_rate <= 0:
            raise ValueError("a concurrent scenario needs a positive arrival_rate")
        if self.service_time < 0:
            raise ValueError("service_time cannot be negative")
        if self.regions:
            from repro.net.latency import GEO_REGIONS

            unknown = [region for region in self.regions
                       if region not in GEO_REGIONS]
            if unknown:
                raise ValueError(f"unknown regions {unknown} (the geo map "
                                 f"names {GEO_REGIONS})")
            if len(set(self.regions)) < 2:
                raise ValueError("a geo scenario needs at least two distinct "
                                 "regions (omit regions for single-region)")
        if self.arrival_phases:
            if not self.concurrent:
                raise ValueError("arrival_phases only shape concurrent scenarios")
            previous = -1
            for start_op, rate in self.arrival_phases:
                if not 0 <= start_op < self.ops:
                    raise ValueError(f"phase start op {start_op} falls outside "
                                     "the scenario")
                if start_op <= previous:
                    raise ValueError("phase start ops must be ascending")
                if rate <= 0:
                    raise ValueError("every phase rate must be positive")
                previous = start_op


@dataclass(frozen=True)
class InvariantResult:
    """Verdict for one safety invariant checked after a scenario run."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioReport(RunTotals):
    """Everything one scenario run produced (the shared totals come from
    :class:`~repro.sim.metrics.RunTotals`)."""

    scenario: Scenario
    duplicates_answered: int = 0
    sim_elapsed_s: float = 0.0
    latency: LatencyStats | None = None  # every op, failed ones included
    audit_ok: bool = True
    detected_kinds: tuple = ()
    invariants: list = field(default_factory=list)
    reshards: list = field(default_factory=list)  # ReshardReport per epoch
    # Epoch-bundle verdicts from mid-run AuditEpoch probes: one dict per
    # bundle per probe (op/index/fetched/ok/failing/forged), fetched over
    # the simulated network by the standalone auditor.
    epoch_audits: list = field(default_factory=list)
    # In flight when the last committed epoch transition fired.
    in_flight_at_reshard: int = 0
    # Pairwise coverage cells this run touched (see repro.sim.coverage).
    coverage_cells: frozenset = frozenset()

    @property
    def ops(self) -> int:
        """Total operations attempted."""
        return self.succeeded + self.failed

    @property
    def all_invariants_ok(self) -> bool:
        """Whether every checked safety invariant held."""
        return all(result.ok for result in self.invariants)

    @property
    def liveness_ok(self) -> bool:
        """Whether the success rate met the scenario's declared floor."""
        return self.success_rate >= self.scenario.min_success_rate - 1e-9

    def format(self) -> str:
        """A deterministic multi-line text report (what the sweep prints)."""
        plane = (f"{self.scenario.app}, {self.scenario.shards} shards"
                 if self.scenario.shards > 1 else self.scenario.app)
        lines = [f"scenario {self.scenario.name} [{plane}]"]
        if self.scenario.description:
            lines.append(f"  {self.scenario.description}")
        lines.append(
            f"  ops: {self.ops} ok={self.succeeded} failed={self.failed} "
            f"success={self.success_rate * 100:.1f}% (floor {self.scenario.min_success_rate * 100:.1f}%) "
            f"retries={self.retries}"
        )
        lines.append(f"{self.network_line()} "
                     f"dedup-answers={self.duplicates_answered}")
        if self.latency is not None:
            lines.append(
                f"  latency: mean={self.latency.mean_ms():.3f} ms "
                f"p95={self.latency.p95_ms():.3f} ms "
                f"sim-elapsed={self.sim_elapsed_s * 1000:.1f} ms"
            )
        for reshard in self.reshards:
            lines.append(
                f"  reshard: {reshard.old_shard_count} -> "
                f"{reshard.new_shard_count} shards (epoch {reshard.epoch}), "
                f"{reshard.migrated_keys} keys / {reshard.records_moved} records "
                f"moved, {reshard.pending} pinned"
            )
        if self.scenario.concurrent:
            lines.append(
                f"  in-flight: max={self.max_in_flight}"
                + (f" (at reshard: {self.in_flight_at_reshard})"
                   if self.reshards else "")
            )
        lines.extend(self.queue_depth_lines())
        if self.autoscale_decisions:
            fired = [d for d in self.autoscale_decisions if d.get("fired")]
            gated = [d for d in self.autoscale_decisions if d.get("gated_by")]
            lines.append(
                f"  autoscale: {len(self.autoscale_decisions)} decisions, "
                f"{len(fired)} fired, {len(gated)} gated; "
                f"final shards={self.final_shards}"
            )
        if self.epoch_audits:
            fetched = [audit for audit in self.epoch_audits if audit["fetched"]]
            verified = [audit for audit in fetched if audit["ok"]]
            lines.append(
                f"  epoch-audit: {len(self.epoch_audits)} bundle fetch(es), "
                f"{len(fetched)} fetched, {len(verified)} verified"
            )
        audit_text = "ok" if self.audit_ok else "FAILED (misbehavior flagged)"
        detected = ", ".join(sorted(self.detected_kinds)) or "none"
        lines.append(f"  audit: {audit_text}; evidence kinds: {detected}")
        for result in self.invariants:
            verdict = "PASS" if result.ok else "FAIL"
            suffix = f" — {result.detail}" if result.detail else ""
            lines.append(f"  invariant {result.name}: {verdict}{suffix}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-data form for experiment write-ups."""
        return {
            **self.totals_dict(),
            "name": self.scenario.name,
            "app": self.scenario.app,
            "ops": self.ops,
            "messages_delivered": self.messages_delivered,
            "messages_duplicated": self.messages_duplicated,
            "sim_elapsed_s": self.sim_elapsed_s,
            "latency": self.latency.to_dict() if self.latency else None,
            "audit_ok": self.audit_ok,
            "detected_kinds": sorted(self.detected_kinds),
            "invariants": {result.name: result.ok for result in self.invariants},
            "shards": self.scenario.shards,
            "reshards": [reshard.to_dict() for reshard in self.reshards],
            "concurrent": self.scenario.concurrent,
            "in_flight_at_reshard": self.in_flight_at_reshard,
            "epoch_audits": list(self.epoch_audits),
            "regions": list(self.scenario.regions),
            "coverage_cells": sorted(cell_id(cell)
                                     for cell in self.coverage_cells),
        }
