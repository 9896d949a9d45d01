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
from repro.net.eventloop import drive
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

    Built by :meth:`repro.service.ServiceSpec.synthesize`; or wrap an
    existing single deployment with :meth:`adopt` to give legacy code the
    plane interface.
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
        # ``epoch`` counts committed reshards. While a migration is running,
        # keys in ``_moving`` have no authoritative owner and keyed routing
        # fails safely; after commit, ``_overrides`` pins any key whose
        # records could not be moved (source crashed, link partitioned, ...)
        # to the shard that still holds them — routed correctly, never
        # silently misrouted. ``migrator`` is the app-provided state mover.
        self.epoch = 0
        self.migrator = None
        # When set (repro.transparency.epochs.EpochPublisher), every epoch
        # commit — and every finish_reshard drain pass — signs a
        # self-contained transparency bundle and appends it to the
        # publisher's epoch log for standalone auditors to verify.
        self.epoch_publisher = None
        self._moving: frozenset[bytes] = frozenset()
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
        self._network: Network | None = None
        self._route_attempts = 3
        self._latency_map = None  # LatencyMap applied while routed (geo/WAN)
        # domain_index (None = every domain) -> (per_request, per_byte); the
        # last model set for each slot, replayed onto shards grown later.
        self._service_times: dict[int | None, tuple[float, float]] = {}

    @classmethod
    def adopt(cls, deployment: Deployment, ring_vnodes: int = 128) -> "ShardedService":
        """Wrap one existing deployment as a single-shard service plane."""
        ring = HashRing(1, vnodes=ring_vnodes,
                        salt=b"repro/service/" + deployment.name.encode("utf-8"))
        return cls(None, [deployment], ring, deployment.clock)

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

        During a migration, a key that is mid-move has no authoritative owner
        and routing raises :class:`~repro.errors.KeyMigratingError` (fail
        safely — never serve from the wrong shard). After a reshard commits,
        keys whose records could not be moved keep routing to the shard that
        still holds them until :meth:`finish_reshard` drains them.
        """
        key_bytes = HashRing._key_bytes(key)
        if key_bytes in self._moving:
            raise KeyMigratingError(
                f"key {key!r} is mid-migration in the epoch-{self.epoch + 1} "
                "reshard; retry after the epoch commits"
            )
        override = self._overrides.get(key_bytes)
        if override is not None:
            return override[0]
        return self.ring.shard_for(key)

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
    def scatter(self, calls, chunk_size: int = 128) -> list:
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
        return self.begin_scatter(calls, chunk_size=chunk_size).collect()

    def begin_scatter(self, calls, chunk_size: int = 128) -> PendingScatter:
        """Route, group, and *send* a keyed batch; return the in-flight handle.

        The split-phase form of :meth:`scatter`: every shard group's payload
        is on the wire when this returns, and nothing has been delivered.
        Gather with :meth:`PendingScatter.collect` (synchronous pump) or
        :meth:`PendingScatter.wait_event` (inside an event loop, leaving the
        network to other tasks). Keys caught mid-migration resolve to their
        :class:`~repro.errors.KeyMigratingError` without failing the rest.
        """
        calls = list(calls)
        premapped: dict[int, object] = {}
        groups: dict[tuple[int, int], list[tuple[int, str, dict]]] = {}
        for position, (key, domain_index, entry, params) in enumerate(calls):
            try:
                shard_index = self.shard_for(key)
            except KeyMigratingError as exc:
                premapped[position] = exc
                continue
            groups.setdefault((shard_index, domain_index), []).append(
                (position, entry, params)
            )
        return PendingScatter(len(calls), groups,
                              self._begin_groups(groups, chunk_size), premapped)

    def scatter_to_shards(self, calls, chunk_size: int = 128) -> list:
        """Scatter with explicit shard indices instead of routing keys.

        ``calls`` is a sequence of ``(shard_index, domain_index, entry,
        params)`` tuples — for callers that already resolved placement (e.g.
        the ODoH client routes by query name *before* encrypting, so the
        operator never needs the plaintext name to pick a shard).
        """
        return self.begin_scatter_to_shards(calls, chunk_size=chunk_size).collect()

    def begin_scatter_to_shards(self, calls,
                                chunk_size: int = 128) -> PendingScatter:
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
        return PendingScatter(len(calls), groups,
                              self._begin_groups(groups, chunk_size))

    def _begin_groups(self, groups: dict, chunk_size: int) -> dict:
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
                    chunk_size=chunk_size,
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
        single-deployment attribute legacy callers read.
        """
        servers: dict = {}
        for shard in self.shards:
            servers.update(shard.route_via_network(network, attempts=attempts))
        self.client_address = self.primary.client_address
        # Remember the wiring so shards added by a live reshard can join the
        # same network with the same retry budget.
        self._network = network
        self._route_attempts = attempts
        return servers

    def route_via_executor(self, executor) -> None:
        """Route every shard's invokes through a parallel shard executor.

        The wall-clock counterpart of :meth:`route_via_network`: requests
        become the same serialize-once wire bytes, but they are served by
        worker processes (see :mod:`repro.service.parallel`) instead of the
        discrete-event transport. Live resharding is not supported while
        executor-routed — worker processes hold shard state the coordinator
        cannot migrate — so the wiring is deliberately *not* remembered for
        shards attached later.
        """
        for shard in self.shards:
            shard.route_via_executor(executor)
        self.client_address = self.primary.client_address

    def unroute(self) -> None:
        """Restore direct (in-process) invocation on every shard.

        Also forgets the network wiring, so shards grown by a later reshard
        stay in-process like the rest of the plane instead of being routed
        onto a network the original shards no longer use. Shards parked by
        an aborted reshard are unrouted too — reattaching one later must
        give it the same (in-process) footing as the live fleet.
        """
        for shard in self.shards:
            shard.unroute()
        for deployment in self._spare_shards.values():
            deployment.unroute()
        self._network = None
        self._route_attempts = 3
        self._latency_map = None

    def region_of(self, shard_index: int) -> str | None:
        """The named region shard ``shard_index`` is placed in, per the spec's
        ``regions`` rotation; ``None`` for single-region (or adopted) planes."""
        if self.spec is None:
            return None
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
        if self.spec is None or not self.spec.regions:
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
        """Total RPC retransmissions across all shards while routed."""
        return sum(shard.rpc_retry_total() for shard in self.shards)

    def duplicates_answered_total(self) -> int:
        """Duplicates deduplicated by every shard's at-most-once servers
        (shards grown by a mid-run reshard included)."""
        return sum(shard.duplicates_answered_total() for shard in self.shards)

    def max_queue_depth_per_shard(self) -> dict[int, int]:
        """High-water service-queue depth per shard (max over its domains).

        Zero for a shard that was never attached to a network or never had a
        service model installed — depth is only observable where a serial
        queue actually exists.
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
        """Whether an epoch transition currently has keys mid-move."""
        return bool(self._moving)

    def set_service_time(self, per_request: float,
                         domain_index: int | None = None,
                         per_byte: float = 0.0) -> None:
        """Install a serial service-time model on every shard's domains."""
        self._service_times[domain_index] = (per_request, per_byte)
        for shard in self.shards:
            shard.set_service_time(per_request, domain_index=domain_index,
                                   per_byte=per_byte)

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
        :class:`~repro.errors.ReshardError` for adopted (spec-less) planes and
        :class:`~repro.errors.InvalidReshardError` — before anything moves —
        for a degenerate transition (``n < 1`` or ``n`` equal to the current
        count).
        """
        from repro.service.reshard import ReshardCoordinator

        return ReshardCoordinator(self).reshard(new_shard_count)

    def finish_reshard(self):
        """Retry the migration of any keys still pinned to their old shard.

        After a reshard that ran under faults (crashed source, partitioned
        target), some keys stay routed to their pre-reshard shard via epoch
        overrides — correct, but not yet rebalanced. Call this once the fault
        heals to drain them. Returns the :class:`ReshardReport` of the drain.
        """
        from repro.service.reshard import ReshardCoordinator

        return ReshardCoordinator(self).finish()

    def attach_shard(self, deployment: Deployment) -> None:
        """Join a freshly synthesized shard to the plane's wiring.

        Used by the reshard coordinator: the shard is appended, routed over
        the plane's network (when routed), and given every service-time model
        the plane has accumulated. Keyed routing does *not* see it until the
        coordinator commits the new ring.
        """
        self.shards.append(deployment)
        for domain_index, (per_request, per_byte) in self._service_times.items():
            deployment.set_service_time(per_request, domain_index=domain_index,
                                        per_byte=per_byte)
        if self._network is not None:
            deployment.route_via_network(self._network,
                                         attempts=self._route_attempts)
            # A grown shard joins the fleet's geography: its links to every
            # other-region shard get the same cross-region models.
            self._wire_shard_regions(self._network, len(self.shards) - 1)

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

    def begin_epoch(self, moving_keys) -> None:
        """Mark ``moving_keys`` as mid-migration (keyed routing fails safely)."""
        if self._moving:
            raise ReshardError("a reshard is already in progress")
        self._moving = frozenset(HashRing._key_bytes(key) for key in moving_keys)

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
        self._moving = frozenset()
        for key, shard_index in (unmigrated or {}).items():
            self._overrides[HashRing._key_bytes(key)] = (shard_index, key)
        self.epoch += 1

    def clear_override(self, key) -> None:
        """Drop a key's epoch override (its state reached the ring owner)."""
        self._overrides.pop(HashRing._key_bytes(key), None)
