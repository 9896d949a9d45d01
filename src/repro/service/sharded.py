"""The sharded service plane: N deployments behind one routing surface.

A :class:`ShardedService` owns one :class:`~repro.core.deployment.Deployment`
per shard and presents them as a single service:

* **Keyed routing.** Every request carries a key (user id, query name,
  message digest, ...); the consistent-hash ring maps the key to the shard
  that owns it, so any client, anywhere, agrees on placement.
* **Scatter/gather batches.** :meth:`scatter` groups a batch by
  ``(shard, domain)``, *begins* every group's RPC batch before pumping the
  network once, then gathers. Because all payloads are on the wire before the
  first delivery, the shards' round trips and service time overlap in
  simulated time — pump between sends and the shards serialize again, and a
  4-shard deployment measures like 1 (see docs/architecture.md for the
  capacity model).
* **One audit surface.** All shards share a clock and a vendor registry, so
  :class:`repro.service.ServiceClient` can attest and cross-check the whole
  fleet the way :class:`~repro.core.client.AuditingClient` audits one
  deployment.

The plane deliberately reuses the single-deployment machinery — each shard is
a complete, independently auditable deployment — so everything that holds for
one deployment (at-most-once RPC, fault injection, update auditing) holds per
shard with no new protocol.
"""

from __future__ import annotations

from repro.core.deployment import Deployment
from repro.errors import KeyMigratingError, ReshardError, ServiceSpecError
from repro.net.eventloop import Signal, drive, live
from repro.net.transport import Network
from repro.service.ring import HashRing

__all__ = ["ShardedService", "PendingScatter"]


class PendingScatter:
    """An in-flight scatter begun by :meth:`ShardedService.begin_scatter`.

    Every group's batch payload is already on the wire. :meth:`wait_event`
    gathers as a task generator, waiting on each group's batch without
    draining the network, so inside an event loop *other* tasks' scatters
    stay concurrently in flight; :meth:`collect` runs the same generator
    synchronously. Calls whose keys were caught mid-migration are
    pre-resolved to their :class:`~repro.errors.KeyMigratingError`.
    """

    def __init__(self, size: int, groups: dict, handles: dict,
                 premapped: dict | None = None):
        self._size = size
        self._groups = groups      # (shard, domain) -> [(position, entry, params)]
        self._handles = handles    # (shard, domain) -> PendingInvokeBatch
        self._premapped = premapped or {}  # position -> outcome

    def collect(self) -> list:
        """Gather every call's outcome, in call order (pumps the network)."""
        return drive(self.wait_event())

    def wait_event(self, timeout: float = 0.25):
        """Gather every call's outcome, in call order, as a task generator.

        Waits on each shard group's in-flight batch in turn. A later group's
        responses that land while the task is blocked on an earlier group are
        decoded once on delivery and held, by request id, in the client
        endpoint's :class:`~repro.net.rpc.ResponseDemux`; the later group
        claims them when its wait registers. Waiting group-by-group therefore
        loses no concurrency and decodes nothing twice.
        """
        outcomes: list = [None] * self._size
        for position, outcome in self._premapped.items():
            outcomes[position] = outcome
        for group_key, group in self._groups.items():
            results = yield from self._handles[group_key].wait_event(
                timeout=timeout)
            for (position, _, _), outcome in zip(group, results):
                outcomes[position] = outcome
        return outcomes


class ShardedService:
    """N shard deployments routed by a consistent-hash ring.

    Built by :meth:`repro.service.ServiceSpec.synthesize`.
    """

    def __init__(self, spec, shards: list[Deployment], ring: HashRing, clock):
        if not shards:
            raise ServiceSpecError("a sharded service needs at least one shard")
        if ring.shard_count != len(shards):
            raise ServiceSpecError(
                f"ring covers {ring.shard_count} shards but {len(shards)} exist"
            )
        self.spec = spec
        self.shards = list(shards)
        self.ring = ring
        self.clock = clock
        self.client_address: str | None = None
        # --- epoch state (live resharding; see repro.service.reshard) ------
        # ``epoch`` counts committed reshards. From a transition's barrier
        # (``begin_transition``) to its plan (``begin_epoch``), every key
        # whose owner differs under ``_next_ring`` has no authoritative
        # owner and keyed routing fails safely. From the plan to the commit
        # only the enumerated ``_moving`` set does, and a moving key whose
        # wave has landed routes to its target (``_handoffs``).
        # ``routes_changed`` fires at the plan, at each hand-off and at the
        # commit or abort, waking every call parked on a refused key, and
        # is replaced by a fresh signal each time until the transition
        # ends. After commit, ``_overrides`` pins any key whose records
        # could not be moved (source crashed, link partitioned, ...) to the
        # shard that still holds them — routed correctly, never silently
        # misrouted. ``migrator`` is the app-provided state mover.
        self.epoch = 0
        self.migrator = None
        # When set (repro.transparency.epochs.EpochPublisher), every epoch
        # commit — and every finish_reshard drain pass — signs a
        # self-contained transparency bundle and appends it to the
        # publisher's epoch log for standalone auditors to verify.
        self.epoch_publisher = None
        self._moving: frozenset[bytes] | None = None  # None until the plan
        self._next_ring: HashRing | None = None
        self._handoffs: dict[bytes, int] = {}  # key bytes -> target shard
        self._last_handoff_at: float | None = None
        self.routes_changed: Signal | None = None
        # canonical key bytes -> (shard index still holding the records,
        # the key in its original form, for retrying the move later)
        self._overrides: dict[bytes, tuple[int, object]] = {}
        # Moved keys whose *source* still holds leftover records (a delete
        # lost in flight after the copy verified): the ring owner is
        # authoritative, these only await cleanup on finish_reshard().
        self._stale: dict[bytes, tuple[int, object]] = {}
        # Shards synthesized by an aborted reshard, kept for reuse — their
        # network endpoints are already registered, so a retry must get the
        # same deployment objects back rather than synthesizing twins.
        self._spare_shards: dict[int, Deployment] = {}
        # The plane's own fault-free network, every shard's home (the spec
        # builds them all on it), and the transport the shards are routed
        # over now: that network until route_via_network picks another.
        self.network: Network = self.primary.network
        self.transport = self.network
        self._route_attempts = 1
        self._latency_map = None  # LatencyMap applied while routed (geo/WAN)
        # The last per-request service time set, replayed onto shards grown
        # later (None: no service model).
        self._service_time: float | None = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def primary(self) -> Deployment:
        """Shard 0's deployment — what legacy single-deployment code holds."""
        return self.shards[0]

    @property
    def num_shards(self) -> int:
        """How many shards are attached (draining shards of a shrink included)."""
        return len(self.shards)

    def draining_shards(self) -> list[int]:
        """Shard indices beyond the committed ring's coverage.

        Non-empty only after a shrink whose evacuation was defeated for some
        keys: those shards are out of the ring but still hold pinned records
        (epoch overrides) or stale leftovers, so they stay attached — routed,
        served, audited — until :meth:`finish_reshard` drains and detaches
        them.
        """
        return list(range(self.ring.shard_count, len(self.shards)))

    @property
    def domains_per_shard(self) -> int:
        """Trust domains in each shard's deployment."""
        return len(self.primary.domains)

    @property
    def vendor_registry(self):
        """The hardware-vendor registry shared by every shard."""
        return self.primary.vendor_registry

    def shard_for(self, key) -> int:
        """The shard index owning ``key`` under the current epoch.

        During a transition, a key whose records are in motion has no
        authoritative owner and routing raises
        :class:`~repro.errors.KeyMigratingError` (fail safely — never serve
        from the wrong shard): from the barrier to the plan every key whose
        owner changes, from the plan on only the enumerated moving keys
        whose wave has not been handed off yet. After a reshard
        commits, keys whose records could not be moved keep routing to the
        shard that still holds them until :meth:`finish_reshard` drains them.
        """
        owner = self._route(key)
        if isinstance(owner, KeyMigratingError):
            raise owner
        return owner

    def _route(self, key):
        """:meth:`shard_for` returning, not raising, the refusal of a moving
        key (a raised one would tie the scatter's frames into a cycle)."""
        key_bytes = HashRing._key_bytes(key)
        override = self._overrides.get(key_bytes)
        if self.routes_changed is None:
            return override[0] if override is not None else self.ring.shard_for(key)
        target = self._handoffs.get(key_bytes)
        if target is not None:
            return target
        moving, next_ring = self._moving, self._next_ring
        if moving is None or key_bytes not in moving:
            if moving is not None and override is None:
                # Planned: a key outside the moving set lives where the
                # resized ring puts it (since the barrier no write reached
                # an old owner, and enumeration saw every earlier one).
                return (next_ring or self.ring).shard_for(key)
            owner = override[0] if override is not None else self.ring.shard_for(key)
            if next_ring is None or next_ring.shard_for(key) == owner:
                return owner
        return KeyMigratingError(
            f"key {key!r} is mid-migration in the epoch-{self.epoch + 1} "
            "reshard; retry after its records land on the new owner")

    def deployment_for(self, key) -> Deployment:
        """The shard deployment owning ``key``."""
        return self.shards[self.shard_for(key)]

    @property
    def pending_migration_keys(self) -> int:
        """Keys still served from their pre-reshard shard (epoch overrides)."""
        return len(self._overrides)

    def pending_migrations(self) -> list[tuple[object, int]]:
        """Every pinned key with the shard index still holding its records."""
        return [(key, shard_index)
                for shard_index, key in self._overrides.values()]

    def pending_cleanups(self) -> list[tuple[object, int]]:
        """Moved keys with leftover source records awaiting cleanup."""
        return [(key, shard_index)
                for shard_index, key in self._stale.values()]

    def mark_stale(self, key, shard_index: int) -> None:
        """Queue a moved key's leftover source records for later cleanup."""
        self._stale[HashRing._key_bytes(key)] = (shard_index, key)

    def clear_stale(self, key) -> None:
        """Drop a key's cleanup entry (its source leftovers are gone)."""
        self._stale.pop(HashRing._key_bytes(key), None)

    # ------------------------------------------------------------------
    # Keyed invocation
    # ------------------------------------------------------------------
    def invoke(self, key, domain_index: int, entry: str, params) -> dict:
        """Invoke the application on ``key``'s shard, one trust domain."""
        return self.deployment_for(key).invoke(domain_index, entry, params)

    def invoke_on_shard(self, shard_index: int, domain_index: int,
                        entry: str, params) -> dict:
        """Invoke on an explicitly chosen shard (operator-side paths)."""
        return self.shards[shard_index].invoke(domain_index, entry, params)

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def scatter(self, calls) -> list:
        """Run a keyed batch across shards; outcomes come back in call order.

        ``calls`` is a sequence of ``(key, domain_index, entry, params)``
        tuples. Calls are grouped by the shard their key routes to (and the
        domain they target); every group's batch is *begun* — payload on the
        wire — before any group is collected, so all shards serve their slice
        of the batch concurrently in simulated time. Failures are isolated
        per call, exactly as :meth:`Deployment.invoke_batch` reports them —
        including a key caught mid-migration, which fails only its own call
        with :class:`~repro.errors.KeyMigratingError`.
        """
        return self.begin_scatter(calls).collect()

    def begin_scatter(self, calls) -> PendingScatter:
        """Route, group, and *send* a keyed batch; return the in-flight handle.

        The split-phase form of :meth:`scatter`: every shard group's payload
        is on the wire when this returns, and nothing has been delivered.
        Gather with :meth:`PendingScatter.collect` (synchronous pump) or
        :meth:`PendingScatter.wait_event` (inside an event loop, leaving the
        network to other tasks). Keys caught mid-migration resolve to their
        :class:`~repro.errors.KeyMigratingError` without failing the rest.

        Each distinct key is routed once per call of this method (a wave
        usually carries one call per trust domain for every key); a key
        caught mid-migration is not cached, so each of its calls gets its
        own error.
        """
        calls = list(calls)
        premapped: dict[int, object] = {}
        groups: dict[tuple[int, int], list[tuple[int, str, dict]]] = {}
        routes: dict[bytes, int] = {}
        for position, (key, domain_index, entry, params) in enumerate(calls):
            key_bytes = HashRing._key_bytes(key)
            shard_index = routes.get(key_bytes)
            if shard_index is None:
                shard_index = self._route(key)
                if isinstance(shard_index, KeyMigratingError):
                    premapped[position] = shard_index
                    continue
                routes[key_bytes] = shard_index
            groups.setdefault((shard_index, domain_index), []).append(
                (position, entry, params)
            )
        return PendingScatter(len(calls), groups,
                              self._begin_groups(groups), premapped)

    def scatter_to_shards(self, calls) -> list:
        """Scatter with explicit shard indices instead of routing keys.

        ``calls`` is a sequence of ``(shard_index, domain_index, entry,
        params)`` tuples — for callers that already resolved placement (e.g.
        the ODoH client routes by query name *before* encrypting, so the
        operator never needs the plaintext name to pick a shard).
        """
        return self.begin_scatter_to_shards(calls).collect()

    def begin_scatter_to_shards(self, calls) -> PendingScatter:
        """Split-phase :meth:`scatter_to_shards`; see :meth:`begin_scatter`."""
        calls = list(calls)
        groups: dict[tuple[int, int], list[tuple[int, str, dict]]] = {}
        for position, (shard_index, domain_index, entry, params) in enumerate(calls):
            if not 0 <= shard_index < len(self.shards):
                raise ServiceSpecError(
                    f"call {position} targets shard {shard_index}, but the "
                    f"service has {len(self.shards)} shard(s)"
                )
            groups.setdefault((shard_index, domain_index), []).append(
                (position, entry, params)
            )
        return PendingScatter(len(calls), groups, self._begin_groups(groups))

    def _begin_groups(self, groups: dict) -> dict:
        # Send phase: every group's payload goes on the wire before any
        # delivery happens. This ordering is the whole point — see the module
        # docstring and docs/architecture.md ("scatter before pump"). The
        # gather phase lives on the PendingScatter: its first collect pumps
        # the shared network to idle, or wait_event defers to the event loop.
        handles = {}
        for (shard_index, domain_index), group in groups.items():
            handles[(shard_index, domain_index)] = (
                self.shards[shard_index].begin_invoke_batch(
                    domain_index,
                    [(entry, params) for _, entry, params in group],
                )
            )
        return handles

    # ------------------------------------------------------------------
    # Networking and capacity
    # ------------------------------------------------------------------
    def route_via_network(self, network: Network, attempts: int = 3) -> dict:
        """Route every shard's invokes over ``network``; returns all servers.

        Shard deployments get distinct client endpoints
        (``<shard-name>-client``), so their in-flight batches never share an
        inbox. ``self.client_address`` is the primary shard's, matching the
        single-deployment attribute legacy callers read. ``network`` may be
        a parallel executor (:mod:`repro.service.parallel`), whose workers own
        shard state no reshard can migrate.
        """
        servers: dict = {}
        for shard in self.shards:
            servers.update(shard.route_via_network(network, attempts=attempts))
        self.client_address = self.primary.client_address
        # Remember the wiring so shards added by a live reshard can join the
        # same transport with the same retry budget.
        self.transport = network
        self._route_attempts = attempts
        return servers

    def unroute(self) -> None:
        """Route every shard back over the plane's own network.

        Shards grown by a later reshard join that network too, like the rest
        of the plane. Shards parked by an aborted reshard are unrouted as
        well — reattaching one later must give it the same footing as the
        live fleet.
        """
        for shard in self.shards:
            shard.unroute()
        for deployment in self._spare_shards.values():
            deployment.unroute()
        self.transport = self.network
        self._route_attempts = 1
        self._latency_map = None

    def region_of(self, shard_index: int) -> str | None:
        """The named region shard ``shard_index`` is placed in, per the spec's
        ``regions`` rotation; ``None`` for single-region planes."""
        return self.spec.shard_region(shard_index)

    def _address_regions(self, shard_index: int) -> dict[str, str]:
        # Where each of one shard's addresses physically sits: the domains'
        # RPC endpoints live in the shard's region, but the shard's client
        # endpoint is the *coordinator's* stub for talking to it — the
        # coordinator (and the external client) sit in the primary region
        # (``spec.regions[0]``), so every RPC to a remote-region shard pays
        # the cross-region cost on its own client→domain link.
        shard = self.shards[shard_index]
        region = self.region_of(shard_index)
        primary = self.spec.regions[0]
        addresses = {domain.domain_id: region for domain in shard.domains}
        addresses[f"{shard.name}-client"] = primary
        return addresses

    def apply_latency_map(self, network: Network, latency_map) -> None:
        """Charge cross-region links per a :class:`~repro.net.latency.LatencyMap`.

        The coordinator and every client stub sit in the primary region
        (``spec.regions[0]``); each shard's trust domains sit in the region
        the spec's rotation places them in. Every address pair the map puts
        in different regions gets its (directed, possibly asymmetric) model
        installed on the network — so RPCs to a remote-region shard, and
        migration traffic through it, run at WAN speed, while same-region
        traffic keeps the network's default. Remembered so shards grown by a
        live reshard join the same geography (:meth:`attach_shard`).
        """
        if not self.spec.regions:
            raise ServiceSpecError(
                "apply_latency_map needs a spec with named regions")
        self._latency_map = latency_map
        for shard_index in range(len(self.shards)):
            self._wire_shard_regions(network, shard_index)

    def _wire_shard_regions(self, network: Network, shard_index: int) -> None:
        latency_map = self._latency_map
        if latency_map is None:
            return
        addresses = self._address_regions(shard_index)
        for other_index in range(len(self.shards)):
            if other_index == shard_index:
                others = addresses
            else:
                others = self._address_regions(other_index)
            for address, region in addresses.items():
                for other, other_region in others.items():
                    if address == other or region == other_region:
                        continue
                    network.set_link_latency(
                        address, other,
                        latency_map.model_for(region, other_region),
                        symmetric=False)
                    network.set_link_latency(
                        other, address,
                        latency_map.model_for(other_region, region),
                        symmetric=False)

    def rpc_retry_total(self) -> int:
        """Total RPC retransmissions across all shards on the current
        transport."""
        return sum(shard.rpc_retry_total() for shard in self.shards)

    def duplicates_answered_total(self) -> int:
        """Duplicates deduplicated by every shard's at-most-once servers on
        the current transport (shards grown by a mid-run reshard included)."""
        return sum(shard.duplicates_answered_total() for shard in self.shards)

    def max_queue_depth_per_shard(self) -> dict[int, int]:
        """High-water service-queue depth per shard (max over its domains)
        on the current transport.

        Zero for a shard that never had a service model installed — depth is
        only observable where a serial queue actually exists.
        """
        depths: dict[int, int] = {}
        for shard_index, shard in enumerate(self.shards):
            per_domain = shard.max_queue_depths()
            depths[shard_index] = max(per_domain) if per_domain else 0
        return depths

    def queue_depth_per_shard(self) -> dict[int, int]:
        """Instantaneous service-queue depth per shard (max over its domains).

        The live counterpart of :meth:`max_queue_depth_per_shard` — it falls
        back to zero when load subsides, which is what the autoscaler's
        scale-down signal needs (a high-water mark only ratchets up).
        """
        depths: dict[int, int] = {}
        for shard_index, shard in enumerate(self.shards):
            per_domain = shard.queue_depths()
            depths[shard_index] = max(per_domain) if per_domain else 0
        return depths

    @property
    def is_migrating(self) -> bool:
        """Whether an epoch transition is in flight."""
        return self.routes_changed is not None

    def set_service_time(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated service time per request on every
        shard's domains (a serial queue each), shards grown later included."""
        if seconds < 0:
            raise ServiceSpecError("service time cannot be negative")
        self._service_time = seconds
        for shard in self.shards:
            shard.set_service_time(seconds)

    # ------------------------------------------------------------------
    # Live resharding (epoch-based; see repro.service.reshard)
    # ------------------------------------------------------------------
    def reshard(self, new_shard_count: int):
        """Resize the service to ``new_shard_count`` shards, live.

        A grow synthesizes the new shards from the :class:`ServiceSpec`; a
        shrink evacuates the retiring shards and detaches them. Either way,
        every moved key's state travels through the app's :attr:`migrator`
        (over the simulated network when routed) and a new epoch commits.
        Returns the :class:`~repro.service.reshard.ReshardReport`. Raises
        :class:`~repro.errors.InvalidReshardError` — before anything moves —
        for a degenerate transition (``n < 1`` or ``n`` equal to the current
        count).

        Called from inside a running event loop (an op's event, the
        autoscaler), the transition does not stop the world: its waits pump
        the loop (:func:`~repro.net.eventloop.live`), so ops on keys that
        stay run on, and an op on a key whose owner changes parks only
        while that key's records are in motion: a key no shard holds until
        the plan, an enumerated one until its migration wave is handed off
        (:meth:`hand_off`), one whose copy failed until the commit.
        """
        from repro.service.reshard import ReshardCoordinator

        with live(self.transport):
            return ReshardCoordinator(self).reshard(new_shard_count)

    def finish_reshard(self):
        """Retry the migration of any keys still pinned to their old shard.

        After a reshard that ran under faults (crashed source, partitioned
        target), some keys stay routed to their pre-reshard shard via epoch
        overrides — correct, but not yet rebalanced. Call this once the fault
        heals to drain them. Returns the :class:`ReshardReport` of the drain.
        Like :meth:`reshard`, it runs live inside an event loop.
        """
        from repro.service.reshard import ReshardCoordinator

        with live(self.transport):
            return ReshardCoordinator(self).finish()

    def attach_shard(self, deployment: Deployment) -> None:
        """Join a freshly synthesized shard to the plane's wiring.

        Used by the reshard coordinator: the shard is appended, routed over
        the plane's current transport, and given the plane's service time.
        Keyed routing does *not* see it until the coordinator commits the new
        ring.
        """
        self.shards.append(deployment)
        if self._service_time is not None:
            deployment.set_service_time(self._service_time)
        deployment.route_via_network(self.transport,
                                     attempts=self._route_attempts)
        # A grown shard joins the fleet's geography: its links to every
        # other-region shard get the same cross-region models.
        self._wire_shard_regions(self.transport, len(self.shards) - 1)

    def detach_shard(self, shard_index: int) -> Deployment:
        """Remove an evacuated tail shard from the plane (shrink retire step).

        The shard's queues and service model leave the plane with it: it no
        longer appears in :attr:`shards`, receives no keyed or scatter
        traffic, reports no queue depth, and is skipped by every fleet-wide
        audit surface. The deployment object is parked (unrouted) in the
        spare pool because its endpoint addresses stay registered on the
        network — deployment names are deterministic, so a later grow back to
        this index must reattach this exact object rather than synthesize a
        colliding twin.

        Only the tail shard may be detached: removing an inner index would
        renumber every shard behind it and silently invalidate epoch
        overrides pinned by index.
        """
        if shard_index != len(self.shards) - 1:
            raise ReshardError(
                f"only the tail shard ({len(self.shards) - 1}) can be "
                f"detached, not {shard_index}; inner removal would renumber "
                "the shards behind it")
        if len(self.shards) <= self.ring.shard_count:
            raise ReshardError(
                f"shard {shard_index} is still covered by the committed ring "
                "and cannot be detached")
        for shard_index_pinned, _ in self._overrides.values():
            if shard_index_pinned == shard_index:
                raise ReshardError(
                    f"shard {shard_index} still holds pinned records and "
                    "cannot be detached until finish_reshard() drains them")
        for shard_index_stale, _ in self._stale.values():
            if shard_index_stale == shard_index:
                raise ReshardError(
                    f"shard {shard_index} still holds stale leftovers and "
                    "cannot be detached until finish_reshard() cleans them")
        deployment = self.shards.pop()
        deployment.unroute()
        self._spare_shards[shard_index] = deployment
        return deployment

    def begin_transition(self, ring: HashRing) -> None:
        """Open a transition toward ``ring`` (the quiesce barrier): until
        :meth:`begin_epoch` plans it, every key whose owner under ``ring``
        differs from its owner now (pinned keys by their override) fails
        safely, keys no enumeration has seen yet included."""
        if self.routes_changed is not None:
            raise ReshardError("a reshard is already in progress")
        self._next_ring = ring
        self._last_handoff_at = None
        self.routes_changed = Signal()

    def begin_epoch(self, moving_keys) -> None:
        """Plan the transition: narrow the refusal to ``moving_keys``.

        From here the transition always commits, so every other key without
        an override routes to its owner under the resized ring at once, and
        the calls parked since the barrier wake.
        """
        if self._moving is not None:
            raise ReshardError("a reshard is already in progress")
        self._moving = frozenset(HashRing._key_bytes(key) for key in moving_keys)
        if self.routes_changed is None:
            self.routes_changed = Signal()
        else:
            self._release()

    def hand_off(self, keys, target: int) -> None:
        """Route ``keys`` to shard ``target`` for the rest of the transition.

        :meth:`ShardMigrator.migrate` calls this once a wave's load onto
        ``target`` is verified, before it removes the source copies, so the
        calls parked on those keys wake and run against their new owner. A
        hand-off takes precedence over an epoch override and lasts until the
        commit or abort; outside a transition it does nothing.
        """
        if self.routes_changed is None or not keys:
            return
        for key in keys:
            self._handoffs[HashRing._key_bytes(key)] = target
        self._last_handoff_at = self.clock.now()
        self._release()

    def handed_off(self, key) -> int | None:
        """The shard ``key`` was handed off to in this transition, if any."""
        return self._handoffs.get(HashRing._key_bytes(key))

    def _release(self) -> None:
        """Fire :attr:`routes_changed` and arm a fresh one for later
        releases of the same transition."""
        fired, self.routes_changed = self.routes_changed, Signal()
        fired.fire()

    def end_transition(self) -> None:
        """Release every moving key and wake the calls parked on them;
        :meth:`commit_epoch` ends with this, an abort or a drain calls it."""
        fired = self.routes_changed
        self._moving = None
        self._next_ring = None
        self._handoffs = {}
        self.routes_changed = None
        if fired is not None:
            fired.fire()

    def commit_epoch(self, ring: HashRing,
                     unmigrated: dict | None = None) -> None:
        """Flip to ``ring``, release the moving set, and pin stragglers.

        ``unmigrated`` maps keys whose state could not be moved to the shard
        index that still holds them; they keep routing there (correctly)
        until :meth:`finish_reshard` drains them.

        The ring may cover *fewer* shards than are attached — that is a
        shrink committing while defeated evacuations leave records pinned on
        a retiring shard. Such shards are draining (:meth:`draining_shards`):
        out of the ring, reachable only through overrides, detached by
        :meth:`finish_reshard` once empty. A ring covering *more* shards than
        exist would route keys into the void and is rejected.
        """
        if ring.shard_count > len(self.shards):
            raise ReshardError(
                f"ring covers {ring.shard_count} shards but only "
                f"{len(self.shards)} exist"
            )
        self.ring = ring
        for key, shard_index in (unmigrated or {}).items():
            self._overrides[HashRing._key_bytes(key)] = (shard_index, key)
        self.epoch += 1
        self.end_transition()

    def clear_override(self, key) -> None:
        """Drop a key's epoch override (its state reached the ring owner)."""
        self._overrides.pop(HashRing._key_bytes(key), None)
