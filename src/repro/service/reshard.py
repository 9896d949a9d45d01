"""Epoch-based live resharding: resize a running service without losing a key.

The consistent-hash ring (:mod:`repro.service.ring`) has always *advertised*
stability under resharding; this module is the machinery that cashes the
claim in on a live service — in both directions. A reshard is one epoch
transition:

0. **Quiesce.** The plane opens the transition toward the resized ring
   (the barrier): from here until the plan (or rollback) keyed routing
   fails safely with :class:`~repro.errors.KeyMigratingError` for every key
   whose owner changes, keys no enumeration has seen included, instead of
   guessing an owner. The plan then waits for the requests already in
   flight (:func:`~repro.net.eventloop.settle`), so enumeration sees every
   write accepted before the transition began.
1. **Synthesize** (grow only). The new shards are built from the same
   :class:`~repro.service.ServiceSpec` as the originals — measured enclaves,
   published packages, the shared clock and vendor roots — and joined to the
   plane's network wiring and service time. A shrink synthesizes nothing;
   its targets are the surviving shards.
2. **Plan.** The application's :class:`ShardMigrator` enumerates the keys each
   old shard actually holds; diffing the old ring against the resized ring
   yields the minimal moved-key set (~``1 - N/M`` of the keyspace for a
   ``N → M`` grow, exactly the retiring shards' keys — ~``k/N`` — for a
   ``N → N-k`` shrink; everything else never moves). From the plan on the
   transition always commits, so the plane narrows the refusal to the
   enumerated moving keys (:meth:`ShardedService.begin_epoch`): every other
   key without an override routes to its owner under the resized ring at
   once. That is safe because no write reached an old owner after the
   barrier, and enumeration saw every write before it.
3. **Migrate.** :meth:`ShardMigrator.migrate` copies records source →
   target over the simulated network (so packet loss, partitions, and
   crashes hit migration traffic exactly as they hit request traffic),
   verifies the copy, hands the copied keys off to the target
   (:meth:`ShardedService.hand_off`: routed there from now on), and only
   then deletes the source records — wave by wave, each wave carrying at
   most the migrator's ``keys_per_wave`` keys, so a moving key is refused
   only until its own wave lands, and a key whose copy failed is never
   handed off. Every ``(source, target)`` group migrates at once:
   ``migrate`` is a task generator, and
   :func:`~repro.net.eventloop.drive_all` puts each step's wave of every
   group on the wire before pumping the network, so the shards' service
   queues work side by side instead of group after group.
4. **Verify** (shrink only). Each retiring shard is re-enumerated after the
   evacuation: any key the migrator left behind — or never reported — is
   pinned rather than released, so a record can be stranded on a shard about
   to retire only with an override still routing to it.
5. **Commit, then retire.** The plane flips to the resized ring, bumps its
   epoch and drops the hand-offs (the ring now routes those keys). Keys
   whose records could not be moved (crashed source, partitioned target)
   are released only here, pinned to the shard that still holds them via
   *epoch overrides* — routed correctly, never silently misrouted — until
   :meth:`ShardedService.finish_reshard` drains them after the fault heals.
   A retiring shard that evacuated cleanly is detached on the spot (its
   queues and service model leave the plane with it); one still holding
   pinned or stale records stays attached as a *draining* shard and is
   detached by ``finish_reshard`` once empty.

``finish_reshard`` runs the same migrate, evacuate, retire and publish
steps (see :class:`ReshardCoordinator`).

A transition is one synchronous call, :meth:`ShardedService.reshard`,
whoever makes it. Fired inside a running
:class:`~repro.net.eventloop.EventLoop` (an op's event, the autoscaler's
sample) it does not stop the world: every wait above — the quiesce barrier,
the enumeration, the migration groups, the cleanup — pumps that loop
(:func:`~repro.net.eventloop.live`), so arrivals start on time and ops on
keys that stay run to completion meanwhile. An op on a refused key parks
until :attr:`ShardedService.routes_changed` fires — at the plan, at each
wave's hand-off, and at the commit or rollback — then routes again, and
parks anew while its key is still in motion; no timeout bounds that wait.
So a key no shard holds waits at most until the plan, an enumerated key
until its wave lands. Without a loop every wait pumps the network to idle,
as a serial run always has.

The invariant the scenario matrix pins: across the epoch boundary, in either
direction, no record is lost and no record ends up authoritative on two
shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidReshardError, ReshardError
from repro.net.eventloop import drive_all, settle
from repro.service.ring import RingDiff

__all__ = ["MigrationOutcome", "ShardMigrator", "ReshardReport",
           "ReshardCoordinator"]


@dataclass
class MigrationOutcome:
    """What one source→target migration batch achieved.

    ``moved`` keys are fully present on the target, which is now their
    authoritative home; ``failed`` keys remain fully on the source (partial
    target copies cleaned up best-effort) with the error that stopped them.
    ``stale`` keys are a subset of ``moved`` whose *source* cleanup is
    incomplete (e.g. a delete lost in flight after the copy verified): the
    target is authoritative, but leftover source records await
    :meth:`ShardMigrator.cleanup` — they must never be reported ``failed``,
    because pinning them to a partially deleted source could strand them
    below the app's recovery threshold.
    """

    moved: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # key -> error string
    stale: list = field(default_factory=list)  # moved keys w/ source leftovers
    records_moved: int = 0


class ShardMigrator:
    """How an application's per-shard state follows its keys across epochs.

    The base class models a *stateless* (or fully replicated) service: no
    keys to enumerate, nothing to move — correct for threshold signing,
    where every shard holds the same signer group. Stateful apps override
    :meth:`shard_keys` and the :meth:`export` / :meth:`load` /
    :meth:`remove` hooks that :meth:`migrate` runs; apps that must prepare
    fresh shards (install key shares, push configuration) override
    :meth:`provision`.

    ``migrate``, ``cleanup`` and the three hooks are task generators over
    :class:`~repro.net.eventloop.WaitBatch` (each wave is
    ``yield from plane.begin_scatter_to_shards(calls).wait_event()``), so the
    coordinator runs every group of a transition side by side with
    :func:`~repro.net.eventloop.drive_all`.

    ``keys_per_wave`` bounds how many keys one migration wave carries
    (``None``: a group's keys go in one wave). An app whose hooks send one
    call per key bounds it, so no wave holds a shard's service queue long
    enough to stall the live ops behind it.
    """

    keys_per_wave: int | None = None

    def provision(self, plane, new_shard_indices: list[int]) -> None:
        """App-level setup of freshly synthesized shards (packages are
        already installed; this is for key material, configuration, ...)."""

    def shard_keys(self, plane, shard_index: int) -> list:
        """The routing keys whose state currently lives on ``shard_index``."""
        return []

    def export(self, plane, shard_index: int, keys: list):
        """Read ``keys``' records off ``shard_index``: a task generator
        returning ``({key: [records]}, {key: error})``."""
        yield from ()
        return {key: [] for key in keys}, {}

    def load(self, plane, shard_index: int, records: dict):
        """Write exported records onto ``shard_index``: a task generator
        returning ``{key: error}`` for keys whose copy may be incomplete."""
        yield from ()
        return {}

    def remove(self, plane, shard_index: int, keys: list):
        """Delete ``keys``' records from ``shard_index``: a task generator
        returning the keys whose records may remain after the app's own
        retries."""
        yield from ()
        return []

    def migrate(self, plane, source: int, target: int, keys: list):
        """Move ``keys``' records from shard ``source`` to shard ``target``,
        copy-then-delete, in waves of at most :attr:`keys_per_wave` keys; a
        task generator returning a :class:`MigrationOutcome`.

        A wave's key is ``moved`` once loaded on the target (a failed
        load's target copy is removed again — the source stays
        authoritative). The moved keys are then handed off
        (:meth:`ShardedService.hand_off`: routed to the target from here
        on) and only after that removed from the source; a key whose source
        copy survives removal is ``stale`` (see :class:`MigrationOutcome`).
        """
        outcome = MigrationOutcome()
        step = self.keys_per_wave or len(keys) or 1
        for start in range(0, len(keys), step):
            wave = keys[start:start + step]
            exported, failed = yield from self.export(plane, source, wave)
            load_failed = ((yield from self.load(plane, target, exported))
                           if exported else {})
            yield from self.remove(plane, target, sorted(load_failed))
            failed.update(load_failed)
            moved = [key for key in sorted(exported) if key not in load_failed]
            plane.hand_off(moved, target)
            outcome.stale += yield from self.remove(plane, source, moved)
            outcome.moved += moved
            outcome.failed.update(failed)
            outcome.records_moved += sum(len(exported[key]) for key in moved)
        return outcome

    def cleanup(self, plane, shard_index: int, keys: list):
        """Remove a migration's ``stale`` leftovers from ``shard_index``: a
        task generator returning the keys actually cleaned (the rest stay
        queued)."""
        leftover = set((yield from self.remove(plane, shard_index, list(keys))))
        return [key for key in keys if key not in leftover]

    def residue(self, plane, shard_index: int) -> int:
        """Records on ``shard_index`` that no routing key addresses.

        Keyed migration only moves state reachable through
        :meth:`shard_keys`; services that accumulate *unkeyed* state (an
        additive aggregate, say) report it here so a shrink knows a retiring
        shard is not yet empty. A nonzero residue after :meth:`evacuate`
        keeps the shard attached and draining instead of detaching it blind.
        """
        return 0

    def evacuate(self, plane, source: int, target: int) -> int:
        """Fold ``source``'s unkeyed residue into surviving shard ``target``.

        Called once per retiring shard during a shrink, and again by
        ``finish_reshard`` while the shard drains. Must be copy-then-delete
        and idempotent under end-to-end retries: the residue may only
        disappear from ``source`` once ``target`` provably holds it, and a
        retried fold must never double-count. Returns records moved.
        """
        return 0


@dataclass
class ReshardReport:
    """Everything one epoch transition produced."""

    service: str
    old_shard_count: int
    new_shard_count: int
    epoch: int
    diff: RingDiff | None = None
    provisioned: list = field(default_factory=list)  # new shard names (grow)
    retired: list = field(default_factory=list)  # detached shard names (shrink)
    draining: list = field(default_factory=list)  # retiring shards still pinned
    migrated_keys: int = 0
    records_moved: int = 0
    failed_keys: dict = field(default_factory=dict)  # key -> error string
    stale_keys: list = field(default_factory=list)  # moved, source cleanup pending
    sim_seconds: float = 0.0
    # Sim time from the quiesce barrier to the plan (when keys not in
    # motion are released) and to the last hand-off (0.0: none).
    plan_sim_seconds: float = 0.0
    handoff_sim_seconds: float = 0.0
    bundle = None  # EpochArtifact when the plane carries an epoch_publisher

    @property
    def ok(self) -> bool:
        """Whether every moved key's state fully reached its new owner,
        with nothing pinned and no source leftovers awaiting cleanup."""
        return not self.failed_keys and not self.stale_keys

    @property
    def pending(self) -> int:
        """Keys left pinned to their old shard by epoch overrides."""
        return len(self.failed_keys)

    def format(self) -> str:
        """A deterministic one-paragraph text summary."""
        moved_fraction = self.diff.moved_fraction if self.diff else 0.0
        lines = [
            f"reshard {self.service}: {self.old_shard_count} -> "
            f"{self.new_shard_count} shards (epoch {self.epoch})",
            f"  keys: {self.diff.total_keys if self.diff else 0} total, "
            f"{self.diff.moved_count if self.diff else 0} owners changed "
            f"({moved_fraction * 100:.1f}%)",
            f"  migrated: {self.migrated_keys} keys / {self.records_moved} records "
            f"in {self.sim_seconds * 1000:.1f} ms sim",
            f"  released: plan at {self.plan_sim_seconds * 1000:.1f} ms, last "
            f"hand-off at {self.handoff_sim_seconds * 1000:.1f} ms sim",
        ]
        if self.retired:
            lines.append(f"  retired shards detached: {sorted(self.retired)}")
        if self.draining:
            lines.append(f"  retiring shards still draining: {sorted(self.draining)}")
        if self.failed_keys:
            lines.append(f"  pinned to old shards: {sorted(self.failed_keys)}")
        if self.stale_keys:
            lines.append(f"  source cleanup pending: {sorted(self.stale_keys)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-data form for reports and the benchmark JSON."""
        return {
            "service": self.service,
            "old_shard_count": self.old_shard_count,
            "new_shard_count": self.new_shard_count,
            "epoch": self.epoch,
            "keys_total": self.diff.total_keys if self.diff else 0,
            "keys_moved": self.diff.moved_count if self.diff else 0,
            "migrated_keys": self.migrated_keys,
            "records_moved": self.records_moved,
            "failed_keys": len(self.failed_keys),
            "stale_keys": len(self.stale_keys),
            "retired": list(self.retired),
            "draining": list(self.draining),
            "sim_seconds": self.sim_seconds,
            "plan_sim_seconds": self.plan_sim_seconds,
            "handoff_sim_seconds": self.handoff_sim_seconds,
        }


class ReshardCoordinator:
    """Drives one epoch transition on a :class:`ShardedService`.

    :meth:`reshard` and :meth:`finish` differ only in how they plan and
    commit; both then run the same migrate, evacuate, retire and publish
    steps.
    """

    def __init__(self, plane):
        self.plane = plane
        self.migrator = plane.migrator or ShardMigrator()

    def reshard(self, new_shard_count: int) -> ReshardReport:
        """Resize the plane to ``new_shard_count`` shards; see the module doc.

        ``new_shard_count`` above the current count grows (synthesize →
        plan → migrate → commit); below it shrinks (plan → evacuate →
        verify → commit → retire). Degenerate requests raise
        :class:`~repro.errors.InvalidReshardError` before any shard is
        synthesized or any record moves.
        """
        plane = self.plane
        migrator = self.migrator
        old_count = len(plane.shards)
        if new_shard_count < 1:
            raise InvalidReshardError(
                f"cannot reshard to {new_shard_count} shards: a service "
                "keeps at least one shard (shrinking to zero would orphan "
                "every record)"
            )
        if new_shard_count == old_count:
            raise InvalidReshardError(
                f"the service already has {old_count} shards; a reshard "
                "must change the shard count"
            )
        if plane.draining_shards():
            raise InvalidReshardError(
                f"shards {plane.draining_shards()} are still draining from a "
                "previous shrink; call finish_reshard() before resharding "
                "again"
            )
        # Quiesce barrier. From here to commit (or rollback) every key whose
        # owner changes under the resized ring fails safely as
        # KeyMigratingError, so no new write can reach a moving key's old
        # owner, fresh keys included. Writes already on the wire would be
        # invisible to the key enumeration below and their records could be
        # stranded on a pre-reshard shard, so the plan waits for them:
        # inside a running event loop by pumping it until every message in
        # flight now has arrived (ops on keys that stay run on meanwhile),
        # otherwise by draining the network.
        new_ring = plane.ring.resize(new_shard_count)
        plane.begin_transition(new_ring)
        if not settle(plane.transport):
            plane.transport.run_until_idle()
        started = plane.clock.now()
        report = ReshardReport(
            service=plane.spec.name,
            old_shard_count=old_count,
            new_shard_count=new_shard_count,
            epoch=plane.epoch + 1,
        )
        growing = new_shard_count > old_count
        new_indices = list(range(old_count, new_shard_count)) if growing else []
        retiring = [] if growing else list(range(new_shard_count, old_count))
        try:
            # 1. Synthesize and wire up the new shards (grow only — a
            # shrink's targets are the surviving shards, which already
            # exist). New shards stay invisible to keyed routing until
            # commit. A shard left over from an aborted attempt or an
            # earlier shrink is reused — its endpoints are already on the
            # network, so synthesizing a twin would collide on addresses.
            if growing:
                developer = plane.primary.developer
                vendors = plane.primary.vendors
                for shard_index in new_indices:
                    deployment = plane._spare_shards.pop(shard_index, None)
                    if deployment is None:
                        deployment = plane.spec.synthesize_shard(
                            shard_index, developer, plane.network, vendors)
                    plane.attach_shard(deployment)
                    report.provisioned.append(deployment.name)
                migrator.provision(plane, new_indices)

            # 2. Plan: where every key's state lives now vs the resized
            # ring. Enumeration asks the shards themselves (over the network
            # when routed), so the plan reflects reality, including keys
            # pinned by a previous epoch's overrides. For a shrink the moved
            # set is exactly the retiring shards' keys (plus any pinned key
            # whose override no longer matches its ring owner): surviving
            # arcs are unchanged, so nothing moves between survivors.
            owned: dict = {}
            for shard_index in range(old_count):
                for key in migrator.shard_keys(plane, shard_index):
                    owned[key] = shard_index
            report.diff = plane.ring.diff(new_ring, owned.keys())
            moves: dict[tuple[int, int], list] = {}
            for key, source in owned.items():
                target = new_ring.shard_for(key)
                if target != source:
                    moves.setdefault((source, target), []).append(key)
        except ReshardError:
            self._rollback(old_count)
            raise
        except Exception as exc:
            self._rollback(old_count)
            raise ReshardError(f"reshard planning failed: {exc}") from exc

        # 3. Migrate. Once any record may have moved there is no going
        # back: even if the migrator crashes, the transition must commit so
        # every key keeps routing to whichever shard actually holds its
        # records — processed keys to their new owner, everything else
        # pinned to its source. Because it always commits from here, the
        # plan releases every key not in motion; a moving key fails safely
        # until its wave is handed off (or the commit).
        plane.begin_epoch([key for keys in moves.values() for key in keys])
        report.plan_sim_seconds = plane.clock.now() - started
        moved_keys, unmigrated, migration_error = self._migrate(moves, report)

        # 3b. Fold unkeyed residue off the retiring shards. A shard whose
        # residue cannot be proven gone stays attached to drain and is
        # retried by finish_reshard(); the error itself is not raised.
        undrained, _ = self._evacuate(retiring, new_shard_count, report)

        # 4. Verify (shrink only): re-enumerate each retiring shard after
        # the evacuation. A record the migrator left behind without reporting
        # it — or one enumeration missed at plan time — must be pinned, not
        # released: a retiring shard may only lose its last route once it is
        # provably empty. Leftovers of keys already reported ``moved`` are
        # the expected ``stale`` source remnants (the target is
        # authoritative; cleanup comes later). A shard whose enumeration
        # itself fails (e.g. every domain crashed) cannot be proven empty
        # and is kept attached to drain.
        for shard_index in retiring:
            try:
                leftovers = migrator.shard_keys(plane, shard_index)
            except Exception:
                undrained.add(shard_index)
                continue
            for key in leftovers:
                if key in moved_keys or key in unmigrated:
                    continue
                report.failed_keys[key] = (
                    "evacuation verification found records still on the "
                    "retiring shard")
                unmigrated[key] = shard_index

        # 5. Commit the epoch; stale overrides for keys that moved are
        # dropped, failures stay pinned to the shard holding their records.
        # Then retire every retiring shard that evacuated cleanly.
        plane.commit_epoch(new_ring, unmigrated=unmigrated)
        for key in owned:
            if key not in unmigrated:
                plane.clear_override(key)
        self._retire(retiring, undrained, report)
        report.epoch = plane.epoch
        report.sim_seconds = plane.clock.now() - started
        report.handoff_sim_seconds = self._handoff_seconds(started)
        # Epoch transparency: the commit happened (even on a faulted
        # migration the epoch flips with the leftovers pinned), so the
        # bundle must be published either way — an epoch without an
        # artifact is exactly what the auditor exists to prevent.
        self._publish(report, "reshard", moves, moved_keys)
        if migration_error is not None:
            error = ReshardError(
                f"migration failed after moving {len(moved_keys)} keys "
                f"({len(unmigrated)} pinned to their old shards; the epoch "
                f"committed — finish_reshard() retries them): {migration_error}"
            )
            error.report = report
            raise error from migration_error
        return report

    def finish(self) -> ReshardReport:
        """Drain a faulted reshard's leftovers, now that the fault healed.

        Two queues: epoch *overrides* (keys whose records never moved —
        re-migrated to their ring owner) and *stale* source records (keys
        that moved but whose source cleanup was lost in flight — cleaned
        up in place). Keys that remain stuck stay queued for the next call.
        Draining shards a shrink left behind are detached once the drain
        empties them — the deferred retire step.
        """
        plane = self.plane
        # Pinned keys whose ring owner differs fail safely until the drain
        # ends; inside a running event loop the drain first waits for the
        # writes already on the wire to them (a synchronous caller has none
        # a drain could miss).
        plane.begin_transition(plane.ring)
        settle(plane.transport)
        try:
            return self._finish()
        finally:
            plane.end_transition()

    def _finish(self) -> ReshardReport:
        plane = self.plane
        started = plane.clock.now()
        report = ReshardReport(
            service=plane.spec.name,
            old_shard_count=len(plane.shards),
            new_shard_count=len(plane.shards),
            epoch=plane.epoch,
        )
        pending = plane.pending_migrations()
        moves: dict[tuple[int, int], list] = {}
        moved_triples = []
        for key, source in pending:
            target = plane.ring.shard_for(key)
            if target == source:
                plane.clear_override(key)
                continue
            moves.setdefault((source, target), []).append(key)
            moved_triples.append((key, source, target))
        report.diff = RingDiff(total_keys=len(pending),
                               moved=tuple(moved_triples))
        moved_keys, _, migrate_error = self._migrate(moves, report)
        for key in moved_keys:
            plane.clear_override(key)
        cleanup_error: Exception | None = None
        cleanups: dict[int, list] = {}
        for key, source in plane.pending_cleanups():
            cleanups.setdefault(source, []).append(key)
        for cleaned in drive_all(
                self._hook(self.migrator.cleanup, plane, source, keys)
                for source, keys in sorted(cleanups.items())):
            if isinstance(cleaned, Exception):
                cleanup_error = cleaned
                continue
            for key in cleaned:
                plane.clear_stale(key)
        # Unkeyed residue a faulted shrink left behind is retried the same
        # way (the evacuate protocol is idempotent, so a fold torn mid-way
        # resumes without double-counting); then the deferred retire.
        undrained, evacuate_error = self._evacuate(
            plane.draining_shards(), plane.ring.shard_count, report)
        self._retire(plane.draining_shards(), undrained, report)
        report.new_shard_count = len(plane.shards)
        report.sim_seconds = plane.clock.now() - started
        report.handoff_sim_seconds = self._handoff_seconds(started)
        # A drain pass is an epoch-relevant action too: pinned keys moved to
        # their ring owners and draining shards may have detached, so it
        # publishes its own bundle (kind="drain", ring width unchanged).
        if (report.migrated_keys or report.records_moved
                or report.retired or report.stale_keys):
            self._publish(report, "drain", moves, moved_keys)
        drain_error = evacuate_error or cleanup_error or migrate_error
        if drain_error is not None:
            error = ReshardError(f"drain failed: {drain_error}")
            error.report = report
            raise error from drain_error
        return report

    def _migrate(self, moves: dict, report: ReshardReport):
        """Migrate every ``(source, target)`` group at once; returns
        ``(moved keys, {unmoved key: source}, first error)``.

        The groups' waves go on the wire together, so the shards serve their
        slices of the transition concurrently in simulated time. A group
        whose ``migrate`` raises fails alone. A key reported neither
        moved nor failed is unmoved too: releasing it would strand its
        records on the source with nothing pinning them there.
        """
        plane = self.plane
        moved_keys: set = set()
        unmoved: dict = {}
        first_error: Exception | None = None
        groups = sorted(moves.items())
        outcomes = drive_all(
            self._hook(self.migrator.migrate, plane, source, target, keys)
            for (source, target), keys in groups)
        for ((source, target), keys), outcome in zip(groups, outcomes):
            if isinstance(outcome, Exception):
                first_error = first_error or outcome
                # Keys a wave handed off before the crash route to the
                # target, which may have taken writes since: they count as
                # moved, with their source copies queued for cleanup.
                landed = [key for key in keys
                          if plane.handed_off(key) == target]
                outcome = MigrationOutcome(moved=landed, stale=landed, failed={
                    key: f"migration interrupted: {outcome}"
                    for key in keys if key not in landed})
            moved_keys.update(outcome.moved)
            report.migrated_keys += len(outcome.moved)
            report.records_moved += outcome.records_moved
            for key in outcome.stale:
                plane.mark_stale(key, source)
                report.stale_keys.append(key)
            failed = dict(outcome.failed)
            for key in keys:
                if key not in moved_keys and key not in failed:
                    failed[key] = "migrator reported no outcome for this key"
            for key, error in failed.items():
                report.failed_keys[key] = error
                unmoved[key] = source
        return moved_keys, unmoved, first_error

    def _handoff_seconds(self, started: float) -> float:
        """Sim time from ``started`` to this transition's last hand-off."""
        handed_off_at = self.plane._last_handoff_at
        return 0.0 if handed_off_at is None else handed_off_at - started

    @staticmethod
    def _hook(hook, *args):
        """``hook(*args)`` as a task generator, so a hook that raises as it
        is called fails its own group, as one that raises mid-wave does."""
        return (yield from hook(*args))

    def _evacuate(self, shards: list, width: int, report: ReshardReport):
        """Fold each shard's unkeyed residue (state no key addresses, which
        the keyed plan never sees) into survivor ``shard % width``; returns
        ``(shards not proven empty, first error)``."""
        plane = self.plane
        undrained: set[int] = set()
        first_error: Exception | None = None
        for shard_index in shards:
            try:
                if self.migrator.residue(plane, shard_index):
                    report.records_moved += self.migrator.evacuate(
                        plane, shard_index, shard_index % width)
                if self.migrator.residue(plane, shard_index):
                    undrained.add(shard_index)
            except Exception as exc:
                first_error = first_error or exc
                undrained.add(shard_index)
        return undrained, first_error

    def _retire(self, leaving: list, undrained: set, report: ReshardReport) -> None:
        """Detach ``leaving`` shards tail-first, stopping at the first one
        still pinned, stale or undrained — detaching an inner index would
        renumber the shards behind it under every pinned override."""
        plane = self.plane
        pinned = {shard for _, shard in plane.pending_migrations()}
        stale = {shard for _, shard in plane.pending_cleanups()}
        for shard_index in sorted(leaving, reverse=True):
            if (shard_index != len(plane.shards) - 1
                    or shard_index in pinned or shard_index in stale
                    or shard_index in undrained):
                break
            report.retired.append(plane.detach_shard(shard_index).name)
        report.draining = [plane.shards[index].name
                           for index in plane.draining_shards()]

    def _publish(self, report: ReshardReport, kind: str, moves: dict,
                 moved_keys: set) -> None:
        """Sign this transition's epoch bundle when the plane publishes."""
        if self.plane.epoch_publisher is not None:
            report.bundle = self.plane.epoch_publisher.publish_epoch(
                self.plane, report, moves=moves, moved_keys=moved_keys,
                kind=kind)

    def _rollback(self, old_count: int) -> None:
        """Abandon a transition that has not moved any records yet.

        The old ring and shard list come back; shards already synthesized
        are parked for reuse — their endpoints are registered on the
        network, so a retry must reattach these exact objects.
        """
        plane = self.plane
        for offset, deployment in enumerate(plane.shards[old_count:]):
            plane._spare_shards[old_count + offset] = deployment
        del plane.shards[old_count:]
        plane.end_transition()
