"""The app shell: what every application's deployment and client share.

An application is its :class:`~repro.service.ServiceSpec`, its
:class:`~repro.service.ShardMigrator`, its crypto and its flows; the rest is
the same for all four and lives here once. :class:`AppService` is the
operator side (plane synthesis, migrator, the legacy ``deployment`` handle,
``num_shards`` and ``reshard``), :class:`AppClient` the user side (the
:class:`~repro.service.ServiceClient` session, ``audit()`` and the
checkpointed runner every synchronous client call goes through).
"""

from __future__ import annotations

from repro.net.eventloop import drive
from repro.service.client import ServiceClient

__all__ = ["AppService", "AppClient"]


class AppService:
    """The operator side of an application: one spec, synthesized once.

    A subclass builds its developer identity and its spec (both draw from
    the deterministic RNG, in that order) and then calls this constructor;
    whatever it provisions after synthesis comes after.
    """

    def __init__(self, developer, spec, migrator):
        self.developer = developer
        self.spec = spec
        self.plane = spec.synthesize(developer)
        self.plane.migrator = migrator
        # Legacy surface: shard 0's deployment, exactly what pre-service-plane
        # code (tests, scenario drivers, examples) held as `.deployment`.
        self.deployment = self.plane.primary

    @property
    def num_shards(self) -> int:
        """Number of shards carrying the app's keyspace."""
        return self.plane.num_shards

    def reshard(self, new_shard_count: int):
        """Resize the service to ``new_shard_count`` shards, live.

        The app's migrator moves or provisions state across the epoch
        transition; see :mod:`repro.service.reshard` for the fault semantics.
        """
        return self.plane.reshard(new_shard_count)


class AppClient:
    """The user side of an application: a session over its service plane.

    ``audit_policy`` is the app's own constant (see
    :class:`~repro.service.ServiceClient`); ``audit_before_use=False`` turns
    auditing off (test harnesses, workload drivers).
    """

    audit_policy: str  # set by each app

    def __init__(self, service, audit_before_use: bool = True):
        self.service = service
        self.session = ServiceClient(
            service.plane,
            audit_policy=self.audit_policy if audit_before_use else "never",
        )
        self.auditing_client = self.session.auditing_client
        self.audit_before_use = audit_before_use

    def audit(self):
        """Audit every shard; raises :class:`~repro.errors.MisbehaviorDetected`
        on any misbehavior.

        A single-shard service returns its one report (the pre-plane shape),
        a sharded one the list of per-shard reports.
        """
        reports = self.session.audit()
        return reports[0] if len(reports) == 1 else reports

    def _run(self, flow, key=None):
        """Run ``flow`` to completion after the session's audit checkpoint.

        ``key`` is the routing key of a single-key call (only its shard is
        re-audited under the ``"always"`` policy); a batch passes none.
        """
        self.session.checkpoint(key)
        return drive(flow, self.service.plane.clock)
