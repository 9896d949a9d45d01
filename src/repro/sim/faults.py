"""Composable fault plans for the scenario engine.

A :class:`FaultPlan` bundles the two kinds of adversarial network behavior the
scenario engine injects:

* **probabilistic rules** — seeded, per-message decisions (drop, delay,
  reorder, duplicate) installed as a fault hook on the simulated
  :class:`~repro.net.transport.Network`'s send path;
* **scheduled events** — point-in-time actions applied at operation
  boundaries by the :class:`~repro.sim.scenarios.runner.ScenarioRunner`: link
  partitions and heals, party crash and recovery, TEE compromise, and a
  malicious developer pushing an unannounced update.

Everything is driven by a single seed so a scenario replays identically,
faults included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.transport import FaultDecision, Message, Network

__all__ = [
    "FaultRule",
    "DropFault",
    "DelayFault",
    "ReorderFault",
    "DuplicateFault",
    "ScheduledEvent",
    "PartitionLink",
    "HealLink",
    "CrashParty",
    "RecoverParty",
    "CompromiseDomain",
    "UnannouncedUpdate",
    "ReshardService",
    "ShrinkService",
    "FinishReshard",
    "AutoscaleEnabled",
    "AuditNow",
    "AuditEpoch",
    "ForgeEpochDigest",
    "FaultPlan",
]


def _link_matches(message: Message, source: str | None, destination: str | None) -> bool:
    if source is not None and message.source != source:
        return False
    if destination is not None and message.destination != destination:
        return False
    return True


@dataclass(frozen=True)
class FaultRule:
    """Base class for probabilistic per-message fault rules.

    Attributes:
        probability: chance in ``[0, 1]`` that the rule fires for a message.
        source / destination: optional exact-match link filter; ``None``
            matches any address.
    """

    probability: float = 1.0
    source: str | None = None
    destination: str | None = None

    #: Coverage-model fault kind; subclasses override (plain class attribute,
    #: not a dataclass field, so it never appears in constructor signatures).
    kind = ""

    def decide(self, message: Message, rng: random.Random) -> FaultDecision | None:
        """Return the decision for ``message``, or ``None`` when not firing.

        The RNG draw happens for every matching message regardless of outcome,
        which keeps the random stream (and therefore the whole scenario)
        deterministic under a fixed seed.
        """
        if not _link_matches(message, self.source, self.destination):
            return None
        if rng.random() >= self.probability:
            return None
        return self._fire(rng)

    def _fire(self, rng: random.Random) -> FaultDecision:
        raise NotImplementedError


@dataclass(frozen=True)
class DropFault(FaultRule):
    """Lose matching messages with the given probability."""

    kind = "drop"

    def _fire(self, rng: random.Random) -> FaultDecision:
        return FaultDecision(drop=True)


@dataclass(frozen=True)
class DelayFault(FaultRule):
    """Add a fixed extra delay (plus optional uniform jitter) to matching messages."""

    kind = "delay"

    delay_s: float = 0.01
    jitter_s: float = 0.0

    def _fire(self, rng: random.Random) -> FaultDecision:
        extra = self.delay_s
        if self.jitter_s > 0:
            extra += rng.uniform(0.0, self.jitter_s)
        return FaultDecision(extra_delay=extra)


@dataclass(frozen=True)
class ReorderFault(FaultRule):
    """Reorder matching messages by delaying them a random amount.

    Under the transport's delivery-time ordering, a message pushed up to
    ``max_delay_s`` into the future is overtaken by everything lighter — the
    classic adversarial reordering.
    """

    kind = "reorder"

    max_delay_s: float = 0.05

    def _fire(self, rng: random.Random) -> FaultDecision:
        return FaultDecision(extra_delay=rng.uniform(0.0, self.max_delay_s))


@dataclass(frozen=True)
class DuplicateFault(FaultRule):
    """Deliver matching messages more than once."""

    kind = "duplicate"

    copies: int = 1

    def _fire(self, rng: random.Random) -> FaultDecision:
        return FaultDecision(duplicates=self.copies)


# ---------------------------------------------------------------------------
# Scheduled events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledEvent:
    """Base class for events applied at an operation boundary.

    Attributes:
        at_op: zero-based workload operation index *before* which the event
            fires.
    """

    at_op: int = 0

    def apply(self, ctx):
        """Apply the event to a scenario context (see ``ScenarioContext``).

        Whatever it returns (a reshard's outcome, say) the op loop keeps in
        its record of fired events.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PartitionLink(ScheduledEvent):
    """Cut the (symmetric) link between two parties.

    Parties are named either ``"client"`` or ``"domain:<index>"``.
    """

    a: str = "client"
    b: str = "domain:0"

    def apply(self, ctx) -> None:
        ctx.network.partition(ctx.resolve(self.a), ctx.resolve(self.b))


@dataclass(frozen=True)
class HealLink(ScheduledEvent):
    """Remove a previously installed partition."""

    a: str = "client"
    b: str = "domain:0"

    def apply(self, ctx) -> None:
        ctx.network.heal(ctx.resolve(self.a), ctx.resolve(self.b))


@dataclass(frozen=True)
class CrashParty(ScheduledEvent):
    """Crash a party: traffic addressed to it is lost until it recovers."""

    party: str = "domain:0"

    def apply(self, ctx) -> None:
        ctx.network.crash(ctx.resolve(self.party))


@dataclass(frozen=True)
class RecoverParty(ScheduledEvent):
    """Bring a crashed party back online."""

    party: str = "domain:0"

    def apply(self, ctx) -> None:
        ctx.network.recover(ctx.resolve(self.party))


@dataclass(frozen=True)
class CompromiseDomain(ScheduledEvent):
    """Exploit one trust domain's TEE (schedule-driven compromise).

    ``shard_index`` selects which shard's domain falls on a sharded service
    (0, the primary, is the single-deployment behavior).
    """

    domain_index: int = 1
    shard_index: int = 0

    def apply(self, ctx) -> None:
        ctx.compromise(self.domain_index, shard_index=self.shard_index)


@dataclass(frozen=True)
class UnannouncedUpdate(ScheduledEvent):
    """A malicious developer pushes a signed but unpublished update to one domain.

    The update is correctly signed (the attacker holds the developer key) and
    carries the next sequence number, so the framework accepts it — but its
    source never appears in the public registry or release log, which is
    exactly what auditors must catch.
    """

    domain_index: int = 1
    version_suffix: str = "+unannounced"

    def apply(self, ctx) -> None:
        ctx.push_unannounced_update(self.domain_index, self.version_suffix)


@dataclass(frozen=True)
class ReshardService(ScheduledEvent):
    """Resize the service to ``shards`` shards, live, at an operation boundary.

    The epoch transition of :mod:`repro.service.reshard`, in either
    direction: a grow synthesizes new shards from the spec, a shrink
    evacuates and detaches the retiring ones; moved keys' state migrates
    over the (possibly faulty) simulated network, and the ring flips. Keys
    whose migration the network defeats stay pinned to their old shard —
    routed correctly — and can be drained later by :class:`FinishReshard`.
    """

    shards: int = 4

    def apply(self, ctx):
        """Returns ``(report, error)`` from :meth:`ScenarioContext.reshard`."""
        return ctx.reshard(self.shards)


@dataclass(frozen=True)
class ShrinkService(ReshardService):
    """Shrink the service to ``shards`` shards, live (evacuate → retire).

    Behaviorally :class:`ReshardService` pointed downward — the separate
    name keeps scenario declarations self-documenting and lets a retiring
    shard's evacuation be targeted by link faults laid down in advance.
    """

    shards: int = 2


@dataclass(frozen=True)
class FinishReshard(ScheduledEvent):
    """Drain a previous reshard's pinned keys (after the fault healed);
    a shrink's still-draining shards detach once the drain empties them."""

    def apply(self, ctx):
        return ctx.finish_reshard()


@dataclass(frozen=True)
class AutoscaleEnabled(ScheduledEvent):
    """Hand the shard count to the metrics-driven autoscaler, mid-run.

    From this operation boundary on, a monitor task samples windowed p99
    latency and live queue depth at the policy's cadence and grows or
    shrinks the plane through the operator gates
    (:mod:`repro.service.gates`). ``policy`` is a
    :class:`~repro.service.autoscaler.AutoscalerPolicy`; ``None`` uses the
    defaults. Only meaningful in concurrent scenarios — there is no load to
    observe between serial ops.
    """

    policy: object = None

    def apply(self, ctx) -> None:
        ctx.enable_autoscaler(self.policy)


@dataclass(frozen=True)
class AuditNow(ScheduledEvent):
    """Run a full transparency audit mid-run, at an operation boundary.

    The end-of-run audit always happens; this event additionally probes the
    fleet *while* scheduled faults are still live — the paper's auditors are
    continuous, not post-hoc — so a compromise or partition can be observed
    (or masked) by an audit that races the fault. The mid-run verdict and
    evidence are folded into the report's detected kinds; only the end-of-run
    audit decides ``audit_ok``.
    """

    def apply(self, ctx) -> None:
        ctx.audit_now()


@dataclass(frozen=True)
class AuditEpoch(ScheduledEvent):
    """Fetch and verify every published epoch bundle, over the network.

    Unlike :class:`AuditNow` (an in-process probe of the fleet), this drives
    the standalone :class:`~repro.transparency.auditor.AuditorService` the
    way a real third party would: each :class:`~repro.transparency.epochs.
    EpochArtifact` is fetched from the coordinator's bundle endpoint over
    the simulated (possibly faulty) network and verified from the artifact
    alone. A bundle the network withholds is recorded as unfetched, not a
    crash — the end-of-run invariant still verifies everything in-process.
    """

    def apply(self, ctx) -> None:
        ctx.audit_epochs()


@dataclass(frozen=True)
class ForgeEpochDigest(ScheduledEvent):
    """A compromised coordinator rewrites a migrator digest and republishes.

    The forged bundle carries the coordinator's genuine signature (the
    attacker *is* the coordinator) and is appended to the log like any
    honest epoch — so signature and inclusion checks pass, and only the
    auditor's digest-conservation check can catch the lie.
    """

    def apply(self, ctx):
        """Returns the error text when there was no digest to forge."""
        return ctx.forge_epoch()


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class FaultPlan:
    """A seeded composition of probabilistic rules and scheduled events."""

    def __init__(self, rules: tuple | list = (), events: tuple | list = (),
                 seed: int = 0):
        self.rules = tuple(rules)
        self.events = tuple(sorted(events, key=lambda e: e.at_op))
        self._rng = random.Random(seed)

    def install(self, network: Network, recorder=None) -> None:
        """Install one fault hook per rule; the network composes their decisions.

        ``recorder`` (a :class:`~repro.sim.coverage.CoverageRecorder`) is told
        about every rule that actually fires on a message, which is what turns
        a probabilistic rule into observed coverage rather than assumed
        coverage.
        """
        for rule in self.rules:
            def hook(message, _rule=rule):
                decision = _rule.decide(message, self._rng)
                if decision is not None and recorder is not None:
                    recorder.note_rule(_rule)
                return decision

            network.add_fault_hook(hook)

    def events_at(self, op_index: int) -> list[ScheduledEvent]:
        """The scheduled events that fire before operation ``op_index``."""
        return [event for event in self.events if event.at_op == op_index]
