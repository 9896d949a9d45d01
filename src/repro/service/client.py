"""The unified client session facade.

Every app client used to hand-roll the same glue: build an
:class:`~repro.core.client.AuditingClient`, remember whether this session has
audited yet, audit before (or on first) use, invoke with retries riding the
at-most-once RPC layer, walk domains for failover, scatter keyed batches that
ride out a live reshard.
:class:`ServiceClient` is that glue once, against the sharded service plane,
so the four application clients shrink to the crypto and data-shaping that is
genuinely theirs.
"""

from __future__ import annotations

from typing import Callable

from repro.core.client import AuditingClient
from repro.errors import KeyMigratingError, ReproError, ServiceSpecError
from repro.net.eventloop import Sleep
from repro.service.sharded import ShardedService

__all__ = ["ServiceClient"]

AUDIT_POLICIES = ("always", "once", "never")

# How many times one wave retries calls that hit a mid-migration key, and how
# long (simulated seconds) it sleeps between tries. Bounded: a key pinned by
# a *failed* migration routes fine via its epoch override, so only an actual
# in-progress epoch transition ever costs a retry.
MIGRATION_RETRIES = 4
MIGRATION_RETRY_DELAY = 0.002


class ServiceClient:
    """A client session against a sharded service plane.

    Args:
        plane: the :class:`~repro.service.ShardedService` to talk to (or a
            bare :class:`~repro.core.deployment.Deployment`, which is adopted
            as a single-shard plane).
        audit_policy: when :meth:`checkpoint` audits — ``"always"`` re-audits
            at every checkpoint (key backup's paranoia: verify before every
            operation that touches secrets), ``"once"`` audits on the first
            checkpoint of the session, ``"never"`` disables auditing (test
            harnesses, workload drivers).
        auditing_client: override the auditing client (defaults to one built
            from the plane's shared vendor registry).
        audit_fn: override what an audit *does* — e.g. ODoH audits each
            domain individually because proxy and resolver run different
            published applications. Must raise on failure.
    """

    def __init__(self, plane, audit_policy: str = "always",
                 auditing_client: AuditingClient | None = None,
                 audit_fn: Callable | None = None):
        if not isinstance(plane, ShardedService):
            plane = ShardedService.adopt(plane)
        if audit_policy not in AUDIT_POLICIES:
            raise ServiceSpecError(
                f"unknown audit policy {audit_policy!r} (expected one of "
                f"{AUDIT_POLICIES})"
            )
        self.plane = plane
        self.audit_policy = audit_policy
        self.auditing_client = auditing_client or AuditingClient(plane.vendor_registry)
        self._audit_fn = audit_fn
        self._audited = False

    # ------------------------------------------------------------------
    # Audit-before-use
    # ------------------------------------------------------------------
    def audit(self) -> list:
        """Audit every shard; raises on any misbehavior, returns the reports.

        Each shard is a complete deployment, so each gets the full treatment:
        attestation against vendor roots, digest-log verification,
        cross-domain agreement, and the release-registry cross-check.
        """
        if self._audit_fn is not None:
            result = self._audit_fn()
            self._audited = True
            return result
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
            if key is None or self._audit_fn is not None:
                self.audit()
            else:
                self.audit_shard(self.plane.shard_for(key))
        elif self.audit_policy == "once" and not self._audited:
            self.audit()

    # ------------------------------------------------------------------
    # Invocation (thin, key-routed passthroughs)
    # ------------------------------------------------------------------
    def invoke(self, key, domain_index: int, entry: str, params) -> dict:
        """Invoke on ``key``'s shard (no implicit audit — see checkpoint)."""
        return self.plane.invoke(key, domain_index, entry, params)

    def scatter_wave(self, calls, timeout: float = 0.25):
        """Keyed scatter/gather as a task generator; returns one outcome per call.

        ``calls`` are ``(key, domain_index, entry, params)`` tuples, routed as
        :meth:`ShardedService.begin_scatter` routes them, so epoch overrides
        after a reshard are honoured on every wave. Calls that resolve to
        :class:`~repro.errors.KeyMigratingError` are retried together, after
        a short simulated back-off, up to :data:`MIGRATION_RETRIES` times, so
        a live reshard costs an availability blip rather than a failed call.
        Every other failure comes back as its exception instance. Run it with
        :func:`~repro.net.eventloop.drive` or as (part of) an
        :class:`~repro.net.eventloop.EventLoop` task.
        """
        calls = list(calls)
        outcomes: list = [None] * len(calls)
        slots = list(range(len(calls)))
        for round_index in range(MIGRATION_RETRIES + 1):
            results = yield from self.plane.begin_scatter(
                [calls[slot] for slot in slots]).wait_event(timeout=timeout)
            retry_slots: list[int] = []
            for slot, result in zip(slots, results):
                if (isinstance(result, KeyMigratingError)
                        and round_index < MIGRATION_RETRIES):
                    retry_slots.append(slot)
                else:
                    outcomes[slot] = result
            if not retry_slots:
                break
            slots = retry_slots
            yield Sleep(MIGRATION_RETRY_DELAY)
        return outcomes

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def invoke_failover(self, key, domain_indices, entry: str, params,
                        need: int = 1,
                        accept: Callable[[dict], bool] | None = None) -> list:
        """Walk domains on ``key``'s shard until ``need`` answers are in hand.

        Unreachable or refusing domains (any :class:`~repro.errors.ReproError`)
        are skipped; a result for which ``accept`` returns false is skipped
        too. Returns up to ``need`` ``(domain_index, result)`` pairs — the
        caller decides whether fewer than ``need`` is an error. This is the
        shared shape of "recover from any threshold of domains" and "collect
        a signing quorum from whichever signers answer".
        """
        deployment = self.plane.deployment_for(key)
        collected = []
        for domain_index in domain_indices:
            try:
                result = deployment.invoke(domain_index, entry, params)
            except ReproError:
                continue  # crashed, partitioned, or refusing domain
            if accept is not None and not accept(result):
                continue
            collected.append((domain_index, result))
            if len(collected) == need:
                break
        return collected
