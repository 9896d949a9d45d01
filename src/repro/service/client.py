"""The unified client session facade.

Every app client used to hand-roll the same glue: build an
:class:`~repro.core.client.AuditingClient`, remember whether this session has
audited yet, audit before (or on first) use, and scatter keyed waves that
ride the at-most-once RPC layer and ride out a live reshard. Failover across
domains is each app flow's own business: a wave's failed calls come back as
exception instances, and the flow asks further candidates in a later wave.
:class:`ServiceClient` is that glue once, against the sharded service plane,
so the four application clients shrink to the crypto and data-shaping that is
genuinely theirs.
"""

from __future__ import annotations

from repro.core.client import AuditingClient
from repro.errors import KeyMigratingError, ServiceSpecError
from repro.net.eventloop import Park, Sleep

__all__ = ["ServiceClient"]

AUDIT_POLICIES = ("always", "once", "never")

# How many times one wave retries calls that hit a mid-migration key when
# nothing can wake it when the key is released (a synchronous caller, or an
# event loop with nothing else left to run), and how long (simulated
# seconds) it sleeps between tries. Inside an event loop a wave parks until
# the key is released instead, however long the transition takes.
MIGRATION_RETRIES = 4
MIGRATION_RETRY_DELAY = 0.002


class ServiceClient:
    """A client session against a sharded service plane.

    Args:
        plane: the :class:`~repro.service.ShardedService` to talk to.
        audit_policy: when :meth:`checkpoint` audits — ``"always"`` re-audits
            at every checkpoint (key backup's paranoia: verify before every
            operation that touches secrets), ``"once"`` audits on the first
            checkpoint of the session, ``"never"`` disables auditing (test
            harnesses, workload drivers).

    Audits go through :attr:`auditing_client`, built from the plane's shared
    vendor registry, which checks each shard against its declared package
    layout.
    """

    def __init__(self, plane, audit_policy: str = "always"):
        if audit_policy not in AUDIT_POLICIES:
            raise ServiceSpecError(
                f"unknown audit policy {audit_policy!r} (expected one of "
                f"{AUDIT_POLICIES})"
            )
        self.plane = plane
        self.audit_policy = audit_policy
        self.auditing_client = AuditingClient(plane.vendor_registry)
        self._audited = False

    # ------------------------------------------------------------------
    # Audit-before-use
    # ------------------------------------------------------------------
    def audit(self) -> list:
        """Audit every shard; raises on any misbehavior, returns the reports.

        Each shard is a complete deployment, so each gets the full treatment:
        attestation against vendor roots, digest-log verification,
        agreement among domains bound to the same package, and the
        release-registry cross-check.
        """
        reports = [self.auditing_client.audit_or_raise(shard)
                   for shard in self.plane.shards]
        self._audited = True
        return reports

    def audit_compat(self):
        """Audit, returning the pre-plane shape legacy callers expect.

        A single-shard service yields its one report (exactly what the
        pre-redesign per-app ``audit()`` returned); a sharded one yields the
        list of per-shard reports. App adapters delegate here so the unwrap
        convention lives in one place.
        """
        reports = self.audit()
        return reports[0] if len(reports) == 1 else reports

    def audit_shard(self, shard_index: int):
        """Audit one shard only; raises on misbehavior, returns its report."""
        report = self.auditing_client.audit_or_raise(self.plane.shards[shard_index])
        return report

    def checkpoint(self, key=None) -> None:
        """Apply the session's audit policy at an operation boundary.

        App clients call this at the top of every public operation; whether
        an audit actually runs is the policy's decision. For a keyed
        operation, pass the routing ``key``: under the ``"always"`` policy
        only the shard the operation touches is re-audited (auditing the
        whole fleet before every single-shard request would multiply the
        legacy per-op cost by the shard count). A keyless checkpoint — batch
        operations that span shards, or the first audit of a ``"once"``
        session — covers the full fleet.
        """
        if self.audit_policy == "always":
            if key is None:
                self.audit()
            else:
                self.audit_shard(self.plane.shard_for(key))
        elif self.audit_policy == "once" and not self._audited:
            self.audit()

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def scatter_wave(self, calls, timeout: float = 0.25):
        """Keyed scatter/gather as a task generator; returns one outcome per call.

        ``calls`` are ``(key, domain_index, entry, params)`` tuples, routed as
        :meth:`ShardedService.begin_scatter` routes them, so epoch overrides
        after a reshard are honoured on every wave. Calls that resolve to
        :class:`~repro.errors.KeyMigratingError` park until the plane's
        routing next changes (:attr:`ShardedService.routes_changed`: the
        plan, a wave's hand-off, the commit or abort) and are then routed
        again, parking anew while still refused. A live reshard therefore
        costs an op on a key in motion the wait until its records land,
        never a failed call. No per-RPC ``timeout`` bounds that wait. Where
        nothing can wake the park (under :func:`~repro.net.eventloop.drive`,
        no transition moves on while the caller waits) the calls back off
        instead, up to
        :data:`MIGRATION_RETRIES` times. Every other failure comes back as
        its exception instance. Run it with
        :func:`~repro.net.eventloop.drive` or as (part of) an
        :class:`~repro.net.eventloop.EventLoop` task.
        """
        calls = list(calls)
        outcomes: list = [None] * len(calls)
        slots = list(range(len(calls)))
        backoffs = 0
        while True:
            results = yield from self.plane.begin_scatter(
                [calls[slot] for slot in slots]).wait_event(timeout=timeout)
            moving: list[int] = []
            for slot, result in zip(slots, results):
                outcomes[slot] = result
                if isinstance(result, KeyMigratingError):
                    moving.append(slot)
            if not moving:
                return outcomes
            released = self.plane.routes_changed
            woke = (yield Park(released)) if released is not None else "idle"
            if woke != "signalled":
                if backoffs == MIGRATION_RETRIES:
                    return outcomes
                backoffs += 1
                yield Sleep(MIGRATION_RETRY_DELAY)
            slots = moving
