"""Operator gates: the checks a careful operator makes around a reshard.

An autoscaler that can resize a live service is only trustworthy if firing
is *harder* than holding. Every scaling decision therefore runs a gate
pipeline before a single record moves:

* :class:`HeartbeatGate` — is every attached shard domain reachable? A
  reshard launched into a partition would fail mid-evacuation and leave keys
  pinned; better to hold until the fleet answers.
* :class:`CooldownGate` — did the previous transition settle? Resharding
  moves ~1/N of the keyspace; doing it twice in quick succession (flapping)
  pays the migration tax with no steady state in between.

and a :class:`ReconciliationGate` after the move: re-census every record and
refuse to call the transition clean unless nothing was lost and nothing
became authoritative on two shards.

Gates return evidence, not bare booleans — a refused decision records *which*
gate refused and why, so scenarios can distinguish "held by policy" from
"held by hysteresis" and the operator can audit every non-action.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GateResult", "HeartbeatGate", "CooldownGate", "ReconciliationGate"]


@dataclass(frozen=True)
class GateResult:
    """One gate's verdict on one decision: who ruled, what, and why."""

    gate: str
    allowed: bool
    reason: str


class HeartbeatGate:
    """Refuses to reshard while any attached shard domain is unreachable.

    Liveness comes from the simulated network's own crash registry
    (:meth:`repro.net.transport.Network.is_down`) — the same signal a
    production control plane would take from missed heartbeats.
    """

    name = "heartbeat"

    def check(self, plane) -> GateResult:
        network = plane.transport
        down = [
            domain.domain_id
            for shard in plane.shards
            for domain in shard.domains
            if network.is_down(domain.domain_id)
        ]
        if down:
            return GateResult(
                self.name, False,
                f"{len(down)} domain(s) unreachable: {sorted(down)}")
        return GateResult(self.name, True, "every shard domain is reachable")


class CooldownGate:
    """Refuses a reshard within ``cooldown_s`` of the previous transition.

    The gate is told about every committed transition via :meth:`record`
    (the autoscaler calls it; operator-initiated reshards can too) and
    measures elapsed simulated time against the plane's own clock.
    """

    name = "cooldown"

    def __init__(self, cooldown_s: float):
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.cooldown_s = cooldown_s
        self._last_transition_at: float | None = None

    def record(self, now: float) -> None:
        """Note that a transition committed at simulated time ``now``."""
        self._last_transition_at = now

    def check(self, plane) -> GateResult:
        if self._last_transition_at is None:
            return GateResult(self.name, True, "no previous transition")
        elapsed = plane.clock.now() - self._last_transition_at
        if elapsed < self.cooldown_s:
            return GateResult(
                self.name, False,
                f"last transition {elapsed:.3f}s ago, cooling down for "
                f"{self.cooldown_s:.3f}s")
        return GateResult(self.name, True,
                          f"last transition {elapsed:.3f}s ago")


class ReconciliationGate:
    """Post-move census: every record survived, none became double-owned.

    :meth:`census` snapshots which shard(s) hold each key — asked of the
    shards themselves through the app's migrator, exactly as the reshard
    planner does. :meth:`verify` diffs two snapshots: a key present before
    and absent after was *lost*; a key on two shards after is *duplicated*
    (two authoritative owners — the split-brain the epoch protocol exists to
    prevent). Keys written between the snapshots (present only after) are
    legitimate new arrivals and pass.
    """

    name = "reconciliation"

    def census(self, plane) -> dict:
        """Map each key to the sorted list of shard indices holding it."""
        migrator = plane.migrator
        if migrator is None:
            return {}
        holders: dict = {}
        for shard_index in range(len(plane.shards)):
            for key in migrator.shard_keys(plane, shard_index):
                holders.setdefault(key, []).append(shard_index)
        return {key: sorted(shards) for key, shards in holders.items()}

    def verify(self, before: dict, after: dict) -> GateResult:
        lost = sorted(key for key in before if key not in after)
        duplicated = sorted(key for key, shards in after.items()
                            if len(shards) > 1)
        if lost or duplicated:
            return GateResult(
                self.name, False,
                f"census mismatch: {len(lost)} record(s) lost {lost[:5]}, "
                f"{len(duplicated)} double-owned {duplicated[:5]}")
        return GateResult(
            self.name, True,
            f"{len(after)} records reconciled, none lost or double-owned")
