"""Deployment orchestration — what the (non-expert) developer actually runs.

The paper's goal is that a single developer can "efficiently and cheaply set
up any distributed-trust system in a publicly auditable way" using existing
cloud TEE offerings and transparency-log infrastructure, with no human-level
cross-organization coordination. :class:`Deployment` is that workflow in code:

1. pick how many trust domains to run and on which (heterogeneous) hardware;
2. stand them up — each one is an enclave measured over the published
   framework source, with the developer's update-verification key sealed in;
3. publish each application release to the source registry and the CT-style
   release log;
4. push the signed update to every domain;
5. hand clients everything they need to audit: vendor roots, the expected
   framework measurement, the release log key, and the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from repro.core.package import CodePackage, DeveloperIdentity, UpdateManifest
from repro.core.registry import ReleaseRegistry
from repro.core.trust_domain import TrustDomain
from repro.core.framework import framework_source
from repro.enclave.tee import HardwareType
from repro.enclave.vendor import HardwareVendor, VendorRegistry
from repro.errors import DeploymentError, RpcError
from repro.net.clock import SimClock
from repro.net.rpc import RpcClient, RpcServer, ServiceTimeModel
from repro.net.transport import Network
from repro.transparency.ct_log import CtLog
from repro.wire.codec import encode

__all__ = ["DeploymentConfig", "Deployment", "PendingInvokeBatch", "CHUNK_SIZE"]

# Application calls per ``invoke_many`` chunk: a batch crosses the vsock hops
# and the sandbox boundary once per chunk, and every chunk of a batch travels
# in one framed payload.
CHUNK_SIZE = 128


@dataclass(frozen=True)
class DeploymentConfig:
    """How a deployment should be laid out.

    Attributes:
        num_domains: total trust domains, including the developer-run
            "trust domain 0" (so the paper's Figure 2 is ``num_domains=2``).
        include_developer_domain: whether domain 0 runs without secure
            hardware on the developer's own infrastructure.
        heterogeneous: alternate hardware vendors across enclave-backed
            domains (the paper's recommendation); otherwise every enclave
            domain uses the first vendor.
        use_vsock: route enclave requests through the vsock-style socket hops.
    """

    num_domains: int = 2
    include_developer_domain: bool = True
    heterogeneous: bool = True
    use_vsock: bool = True

    def __post_init__(self):
        # One domain is allowed for micro-benchmarks even though it cannot
        # distribute trust; the applications check their own thresholds.
        if self.num_domains < 1:
            raise DeploymentError("a deployment needs at least one trust domain")


class _Route(NamedTuple):
    """One transport the deployment is attached to: the domains' RPC servers
    on it (by domain id) and one client per domain on a shared endpoint."""

    transport: object
    servers: dict
    clients: list
    address: str


class Deployment:
    """A running distributed-trust deployment plus its public audit artifacts.

    Every invoke is an RPC: the domains are served on the deployment's own
    fault-free :attr:`network` (no latency, no fault rules, no service time)
    from construction on, and :meth:`route_via_network` moves the traffic to
    another transport until :meth:`unroute` moves it back.

    Args:
        network: the deployment's own network (a fresh one on a fresh clock
            by default). The deployment runs on its clock. The shards of one
            service plane share one.
    """

    def __init__(self, name: str, developer: DeveloperIdentity,
                 config: DeploymentConfig | None = None,
                 vendors: list[HardwareVendor] | None = None,
                 network: Network | None = None):
        self.name = name
        self.developer = developer
        self.config = config or DeploymentConfig()
        self.network = network or Network(SimClock())
        self.clock = self.network.clock
        self.vendors = vendors or [HardwareVendor("aws-nitro-sim"), HardwareVendor("intel-sgx-sim")]
        self.vendor_registry = VendorRegistry(self.vendors)
        self.registry = ReleaseRegistry(framework_source())
        self.release_log = CtLog(f"{name}-releases")
        self.domains: list[TrustDomain] = []
        # The declared package layout: the name of the package each domain
        # is bound to, by domain index (``None`` until one is installed).
        # Auditors cross-check only domains bound to the same package.
        self.bindings: list[str | None] = [None] * self.config.num_domains
        self._sequence = -1
        self._service_model: ServiceTimeModel | None = None
        self._build_domains()
        self._routes: dict[object, _Route] = {}
        self.unroute()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_domains(self) -> None:
        hardware_cycle = [HardwareType.NITRO, HardwareType.SGX]
        enclave_index = 0
        for index in range(self.config.num_domains):
            domain_id = f"{self.name}-domain-{index}"
            if index == 0 and self.config.include_developer_domain:
                domain = TrustDomain(
                    domain_id, HardwareType.NONE, self.developer.public_key, clock=self.clock
                )
            else:
                if self.config.heterogeneous:
                    hardware = hardware_cycle[enclave_index % len(hardware_cycle)]
                else:
                    hardware = HardwareType.NITRO
                vendor = self._vendor_for(hardware)
                domain = TrustDomain(
                    domain_id, hardware, self.developer.public_key, vendor=vendor,
                    clock=self.clock, use_vsock=self.config.use_vsock,
                )
                enclave_index += 1
            self.domains.append(domain)

    def _vendor_for(self, hardware: HardwareType) -> HardwareVendor:
        wanted = "aws-nitro-sim" if hardware == HardwareType.NITRO else "intel-sgx-sim"
        for vendor in self.vendors:
            if vendor.name == wanted:
                return vendor
        return self.vendors[0]

    # ------------------------------------------------------------------
    # Release and update workflow
    # ------------------------------------------------------------------
    def publish_and_install(self, package: CodePackage) -> UpdateManifest:
        """Publish a release publicly and install it on every trust domain,
        binding every domain to ``package``.

        Returns the signed manifest. Raises if any domain rejects the update —
        a deployment must never be left half-updated silently.
        """
        manifest = self.developer.sign_update(package, self._sequence + 1)
        self.registry.publish(package, manifest)
        self.release_log.append(encode(manifest.to_dict()))
        for domain in self.domains:
            domain.install_update(manifest, package)
        self._sequence = manifest.sequence
        self.bindings = [package.name] * len(self.domains)
        return manifest

    def install_on_domain(self, domain_index: int, manifest: UpdateManifest,
                          package: CodePackage) -> dict:
        """Install a specific (already signed) update on one domain only.

        Used by experiments that model partially applied or malicious updates.
        """
        return self.domains[domain_index].install_update(manifest, package)

    # ------------------------------------------------------------------
    # Application access
    # ------------------------------------------------------------------
    def invoke(self, domain_index: int, entry: str, params) -> dict:
        """Invoke the application on one specific trust domain.

        The request travels as framed RPC bytes over the transport the
        deployment is routed over (and is therefore subject to any faults
        injected there). A failing call raises :class:`~repro.errors.RpcError`.
        """
        return self._route.clients[domain_index].call_with_retry(
            "invoke", {"entry": entry, "params": params},
            attempts=self._rpc_attempts,
        )

    def invoke_batch(self, domain_index: int, calls: list) -> list:
        """Invoke a batch of application requests on one trust domain.

        ``calls`` is a sequence of ``(entry, params)`` pairs. The batch is
        split into ``invoke_many`` chunks of :data:`CHUNK_SIZE` calls that
        all travel in a single framed payload (see
        :meth:`RpcClient.call_many`), so a thousand requests cost a handful
        of messages and one vsock/sandbox crossing per chunk instead of one
        per request.

        Returns one outcome per call, in order: the same result dict
        :meth:`invoke` returns, or an exception *instance*
        (:class:`~repro.errors.RpcError` for a request the domain answered
        with an error or that went unanswered) — failures are isolated per
        call so one bad request cannot mask the rest of the batch.
        """
        return self.begin_invoke_batch(domain_index, calls).collect()

    def begin_invoke_batch(self, domain_index: int,
                           calls: list) -> "PendingInvokeBatch":
        """Send a batch of invokes *without* waiting for the responses.

        The split-phase form of :meth:`invoke_batch`: the batch payload is
        put on the wire immediately and a :class:`PendingInvokeBatch` handle
        is returned; nothing is delivered until the handle's
        :meth:`~PendingInvokeBatch.collect` (or anything else) pumps the
        transport. Beginning several batches — against different trust
        domains or different shard deployments — before the first collect is
        what makes their round trips and service time overlap in simulated
        time (the scatter/gather path of :class:`repro.service.ShardedService`).
        """
        calls = list(calls)
        chunks = [calls[start:start + CHUNK_SIZE]
                  for start in range(0, len(calls), CHUNK_SIZE)]
        batch = self._route.clients[domain_index].begin_many(
            [("invoke_many", self._batch_params(chunk)) for chunk in chunks])
        return PendingInvokeBatch(chunks, batch, self._rpc_attempts)

    # ------------------------------------------------------------------
    # Service-time model
    # ------------------------------------------------------------------
    def set_service_time(self, seconds: float) -> None:
        """Make each trust domain's RPC server a serial busy-until queue.

        ``seconds`` of simulated time are charged per request a domain
        processes, on every transport the domains are attached to — those
        attached later included — except the deployment's own network,
        which stays free. Without a service model, domains answer in zero
        simulated time and horizontal scaling is invisible in sim-time
        measurements.
        """
        self._service_model = ServiceTimeModel(per_request=seconds)
        for route in self._routes.values():
            self._apply_service_model(route.transport, route.servers)

    def _apply_service_model(self, transport, servers: dict) -> None:
        if self._service_model is None or transport is self.network:
            return
        for server in servers.values():
            server.service_model = self._service_model

    @staticmethod
    def _batch_params(chunk: list) -> dict:
        """The ``invoke_many`` params for one chunk of ``(entry, params)`` pairs.

        A chunk where every call targets the same entry point — the common
        shape under load — uses the compact homogeneous form, carrying the
        entry name once instead of once per call. When such a chunk has at
        least two calls whose params are dicts with one non-empty set of
        string keys, the field names are sent once too: ``fields`` lists them
        sorted, and each ``params_list`` row is a list of values in
        ``fields`` order (the server rebuilds the dicts; see
        ``TrustDomainFramework._rpc_invoke_many``).
        """
        first_entry = chunk[0][0]
        if not all(entry == first_entry for entry, _ in chunk):
            return {"calls": [{"entry": entry, "params": params}
                              for entry, params in chunk]}
        params_list = [params for _, params in chunk]
        columns = Deployment._columns(params_list)
        if columns is not None:
            fields, rows = columns
            return {"entry": first_entry, "fields": fields, "params_list": rows}
        return {"entry": first_entry, "params_list": params_list}

    @staticmethod
    def _columns(params_list: list) -> tuple[list, list] | None:
        """``(fields, rows)`` when there are at least two params and every
        one is a dict with the first's non-empty set of string keys;
        otherwise ``None``."""
        first = params_list[0]
        if not (len(params_list) >= 2 and type(first) is dict and first
                and all(type(name) is str for name in first)):
            return None
        fields = sorted(first)
        width = len(fields)
        # itemgetter of one name returns the bare value, not a tuple.
        values_of = (itemgetter(*fields) if width > 1
                     else lambda params: (params[fields[0]],))
        rows = []
        for params in params_list:
            # The same size and every field present: the same key set.
            if type(params) is not dict or len(params) != width:
                return None
            try:
                rows.append(list(values_of(params)))
            except KeyError:
                return None
        return fields, rows

    # ------------------------------------------------------------------
    # Audit artifacts clients need
    # ------------------------------------------------------------------
    @property
    def current_sequence(self) -> int:
        """Sequence number of the most recent release (-1 before any release)."""
        return self._sequence

    def enclave_domains(self) -> list[TrustDomain]:
        """The domains backed by secure hardware."""
        return [domain for domain in self.domains if domain.enclave is not None]

    def hardware_census(self) -> dict:
        """How many domains run on each hardware type (for ablation reporting)."""
        census: dict[str, int] = {}
        for domain in self.domains:
            census[domain.hardware_type.value] = census.get(domain.hardware_type.value, 0) + 1
        return census

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------
    def attach_to_network(self, network: Network) -> dict[str, RpcServer]:
        """Expose every trust domain as an RPC server on a simulated network.

        Returns a mapping of domain id to its RPC server; endpoint addresses
        equal the domain ids.
        """
        servers: dict[str, RpcServer] = {}
        for domain in self.domains:
            endpoint = network.endpoint(domain.domain_id)
            server = RpcServer(endpoint, name=domain.domain_id)
            domain.register_rpc(server)
            servers[domain.domain_id] = server
        self._apply_service_model(network, servers)
        return servers

    def route_via_network(self, network: Network, client_address: str | None = None,
                          attempts: int = 3) -> dict[str, RpcServer]:
        """Route every :meth:`invoke` through RPC over ``network``.

        The first time, attaches the domains as RPC servers on ``network``
        and creates one shared client endpoint; routing over the same
        network again (e.g. after :meth:`unroute`) reuses them, since
        endpoint addresses stay registered. Returns the domain RPC servers.

        ``network`` may also be a parallel executor
        (:mod:`repro.service.parallel`).

        Args:
            client_address: address for the shared client endpoint (defaults
                to ``"<deployment-name>-client"``).
            attempts: per-request send attempts used by the retrying RPC path.
        """
        route = self._routes.get(network)
        if route is None:
            servers = self.attach_to_network(network)
            address = client_address or f"{self.name}-client"
            endpoint = network.endpoint(address)
            clients = [RpcClient(network, endpoint, domain.domain_id)
                       for domain in self.domains]
            route = self._routes[network] = _Route(network, servers, clients,
                                                   address)
        self._route = route
        self._rpc_attempts = attempts
        self.client_address = route.address
        return route.servers

    def unroute(self) -> None:
        """Route back over the deployment's own network, one attempt per call."""
        self.route_via_network(self.network, attempts=1)

    @property
    def servers(self) -> dict[str, RpcServer]:
        """The domains' RPC servers on the current transport, by domain id."""
        return self._route.servers

    def rpc_retry_total(self) -> int:
        """Total RPC retransmissions over the current transport."""
        return sum(client.retries for client in self._route.clients)

    def duplicates_answered_total(self) -> int:
        """Duplicate requests the domains' at-most-once servers deduplicated
        on the current transport."""
        return sum(server.duplicates_answered
                   for server in self._route.servers.values())

    def max_queue_depths(self) -> list[int]:
        """Per-domain high-water service-queue depth on the current transport.

        The observable left behind by the serial service queue: how many
        application calls were simultaneously queued or in service on each
        domain's RPC server at the worst moment of the run.
        """
        return [server.max_queue_depth for server in self._route.servers.values()]

    def queue_depths(self) -> list[int]:
        """Per-domain service-queue depth *right now* on the current transport.

        Unlike :meth:`max_queue_depths` this is instantaneous, so it can fall
        as load subsides — the signal an autoscaler needs to decide a shard
        fleet is idle, where the high-water mark only ever ratchets up.
        """
        return [server.queue_depth() for server in self._route.servers.values()]


class PendingInvokeBatch:
    """An in-flight application batch from :meth:`Deployment.begin_invoke_batch`.

    :meth:`collect` returns exactly what :meth:`Deployment.invoke_batch`
    returns — one outcome per call, in order, with failures isolated per call
    as exception instances. Collecting is idempotent.
    """

    def __init__(self, chunks: list, rpc_batch, attempts: int):
        self._chunks = chunks
        self._rpc_batch = rpc_batch
        self._attempts = attempts
        self._outcomes: list | None = None

    def wait_event(self, timeout: float = 0.25):
        """Resolve inside an event loop; returns what :meth:`collect` returns.

        A generator for :class:`repro.net.eventloop.EventLoop` — it defers to
        :meth:`PendingRpcBatch.wait_event` for the waiting/retransmission and
        then unpacks outcomes without pumping the network.
        """
        if self._outcomes is None:
            yield from self._rpc_batch.wait_event(attempts=self._attempts,
                                                  timeout=timeout)
        return self.collect()

    def collect(self) -> list:
        """Wait for (and unpack) every call's outcome, in call order."""
        if self._outcomes is not None:
            return self._outcomes
        chunk_results = self._rpc_batch.collect(attempts=self._attempts,
                                                return_errors=True)
        outcomes = []
        for chunk, result in zip(self._chunks, chunk_results):
            if isinstance(result, Exception):
                outcomes.extend([result] * len(chunk))
                continue
            for entry in result:
                if isinstance(entry, dict) and entry.get("error") is not None:
                    outcomes.append(RpcError(f"invoke failed: {entry['error']}"))
                else:
                    outcomes.append(entry)
        self._outcomes = outcomes
        return outcomes
