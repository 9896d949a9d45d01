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

from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.package import CodePackage, DeveloperIdentity, UpdateManifest
from repro.core.registry import ReleaseRegistry
from repro.core.trust_domain import TrustDomain
from repro.core.framework import framework_source
from repro.enclave.tee import HardwareType
from repro.enclave.vendor import HardwareVendor, VendorRegistry
from repro.errors import DeploymentError, ReproError, RpcError
from repro.net.clock import SimClock
from repro.net.rpc import RpcClient, RpcServer, ServiceTimeModel
from repro.net.transport import Network
from repro.transparency.ct_log import CtLog
from repro.wire.codec import encode

__all__ = ["DeploymentConfig", "Deployment", "PendingInvokeBatch"]


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


class Deployment:
    """A running distributed-trust deployment plus its public audit artifacts."""

    def __init__(self, name: str, developer: DeveloperIdentity,
                 config: DeploymentConfig | None = None,
                 vendors: list[HardwareVendor] | None = None,
                 clock: SimClock | None = None):
        self.name = name
        self.developer = developer
        self.config = config or DeploymentConfig()
        self.clock = clock or SimClock()
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
        self._rpc_clients: list[RpcClient] | None = None
        self._rpc_attempts = 1
        self._route_cache: tuple | None = None
        self.client_address: str | None = None
        self._servers: list[RpcServer] | None = None
        self._service_model: ServiceTimeModel | None = None
        self._build_domains()

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

        When :meth:`route_via_network` is active the request travels over the
        simulated network as framed RPC bytes (and is therefore subject to any
        injected faults); otherwise the domain is called directly.
        """
        if self._rpc_clients is not None:
            return self._rpc_clients[domain_index].call_with_retry(
                "invoke", {"entry": entry, "params": params},
                attempts=self._rpc_attempts,
            )
        return self.domains[domain_index].invoke_application(entry, params)

    def invoke_all(self, entry: str, params) -> list[dict]:
        """Invoke the application on every trust domain (e.g. collect shares)."""
        return [domain.invoke_application(entry, params) for domain in self.domains]

    def invoke_batch(self, domain_index: int, calls: list, chunk_size: int = 128) -> list:
        """Invoke a batch of application requests on one trust domain.

        ``calls`` is a sequence of ``(entry, params)`` pairs. When routed over
        the network the batch is split into ``invoke_many`` chunks that all
        travel in a single framed payload (see :meth:`RpcClient.call_many`),
        so a thousand requests cost a handful of messages and one vsock/
        sandbox crossing per chunk instead of one per request.

        Returns one outcome per call, in order: the same result dict
        :meth:`invoke` returns, or an exception *instance*
        (:class:`~repro.errors.RpcError` for a request the domain answered
        with an error or that went unanswered) — failures are isolated per
        call so one bad request cannot mask the rest of the batch.
        """
        return self.begin_invoke_batch(domain_index, calls,
                                       chunk_size=chunk_size).collect()

    def begin_invoke_batch(self, domain_index: int, calls: list,
                           chunk_size: int = 128) -> "PendingInvokeBatch":
        """Send a batch of invokes *without* waiting for the responses.

        The split-phase form of :meth:`invoke_batch`: when routed over the
        network, the batch payload is put on the wire immediately and a
        :class:`PendingInvokeBatch` handle is returned; nothing is delivered
        until the handle's :meth:`~PendingInvokeBatch.collect` (or anything
        else) pumps the network. Beginning several batches — against different
        trust domains or different shard deployments — before the first
        collect is what makes their round trips and service time overlap in
        simulated time (the scatter/gather path of
        :class:`repro.service.ShardedService`).

        When not routed, the calls execute synchronously and the returned
        handle is already complete.
        """
        calls = list(calls)
        chunks = [calls[start:start + chunk_size]
                  for start in range(0, len(calls), chunk_size)]
        if self._rpc_clients is not None and chunks:
            rpc_calls = [("invoke_many", self._batch_params(chunk)) for chunk in chunks]
            batch = self._rpc_clients[domain_index].begin_many(rpc_calls)
            return PendingInvokeBatch(chunks, batch, self._rpc_attempts)
        domain = self.domains[domain_index]
        chunk_results = []
        for chunk in chunks:
            try:
                chunk_results.append(domain.invoke_application_many(
                    [{"entry": entry, "params": params} for entry, params in chunk]
                ))
            except ReproError as exc:
                chunk_results.append(exc)
        return PendingInvokeBatch(chunks, None, 1, chunk_results)

    # ------------------------------------------------------------------
    # Service-time model
    # ------------------------------------------------------------------
    def set_service_time(self, seconds: float) -> None:
        """Make each trust domain's RPC server a serial busy-until queue.

        ``seconds`` of simulated time are charged per request a domain
        processes. The model takes effect on the servers created by
        :meth:`attach_to_network` / :meth:`route_via_network`, including ones
        created later. Without a service model, domains answer in zero
        simulated time and horizontal scaling is invisible in sim-time
        measurements.
        """
        self._service_model = ServiceTimeModel(per_request=seconds)
        self._apply_service_model()

    def _apply_service_model(self) -> None:
        if self._servers is None or self._service_model is None:
            return
        for server in self._servers:
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
    # Networked access (optional)
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
        self._servers = [servers[domain.domain_id] for domain in self.domains]
        self._apply_service_model()
        return servers

    def route_via_network(self, network: Network, client_address: str | None = None,
                          attempts: int = 3) -> dict[str, RpcServer]:
        """Route every :meth:`invoke` through RPC over ``network``.

        Attaches the domains as RPC servers, creates one shared client
        endpoint, and rebinds the application invocation path so that requests
        cross the simulated wire — this is what exposes application traffic to
        injected faults. Returns the domain RPC servers.

        Calling this again with the same network (e.g. after :meth:`unroute`)
        reuses the endpoints and clients created the first time; attaching to
        a *different* network requires a fresh deployment, since endpoint
        addresses are already registered on the old one.

        ``network`` may also be a parallel executor
        (:mod:`repro.service.parallel`).

        Args:
            client_address: address for the shared client endpoint (defaults
                to ``"<deployment-name>-client"``).
            attempts: per-request send attempts used by the retrying RPC path.
        """
        if self._route_cache is not None and self._route_cache[0] is network:
            _, clients, servers, address = self._route_cache
            self._rpc_clients = clients
        else:
            servers = self.attach_to_network(network)
            address = client_address or f"{self.name}-client"
            endpoint = network.endpoint(address)
            self._rpc_clients = [
                RpcClient(network, endpoint, domain.domain_id) for domain in self.domains
            ]
            self._route_cache = (network, self._rpc_clients, servers, address)
        self._rpc_attempts = attempts
        self.client_address = address
        return servers

    @property
    def routed(self) -> bool:
        """Whether invokes currently travel as RPC (over a network or executor)."""
        return self._rpc_clients is not None

    def unroute(self) -> None:
        """Restore direct (in-process) invocation after :meth:`route_via_network`."""
        self._rpc_clients = None
        self._rpc_attempts = 1

    def rpc_retry_total(self) -> int:
        """Total RPC retransmissions performed while routed (0 if never routed)."""
        if self._route_cache is None:
            return 0
        return sum(client.retries for client in self._route_cache[1])

    def duplicates_answered_total(self) -> int:
        """Duplicate requests the domains' at-most-once servers deduplicated
        (0 before the deployment is attached to a network)."""
        if self._servers is None:
            return 0
        return sum(server.duplicates_answered for server in self._servers)

    def max_queue_depths(self) -> list[int]:
        """Per-domain high-water service-queue depth (empty if never attached).

        The observable left behind by the serial service queue: how many
        application calls were simultaneously queued or in service on each
        domain's RPC server at the worst moment of the run.
        """
        if self._servers is None:
            return []
        return [server.max_queue_depth for server in self._servers]

    def queue_depths(self) -> list[int]:
        """Per-domain service-queue depth *right now* (empty if never attached).

        Unlike :meth:`max_queue_depths` this is instantaneous, so it can fall
        as load subsides — the signal an autoscaler needs to decide a shard
        fleet is idle, where the high-water mark only ever ratchets up.
        """
        if self._servers is None:
            return []
        return [server.queue_depth() for server in self._servers]


class PendingInvokeBatch:
    """An in-flight application batch from :meth:`Deployment.begin_invoke_batch`.

    :meth:`collect` returns exactly what :meth:`Deployment.invoke_batch`
    returns — one outcome per call, in order, with failures isolated per call
    as exception instances. Collecting is idempotent.
    """

    def __init__(self, chunks: list, rpc_batch, attempts: int,
                 chunk_results: list | None = None):
        self._chunks = chunks
        self._rpc_batch = rpc_batch
        self._attempts = attempts
        self._chunk_results = chunk_results
        self._outcomes: list | None = None

    def wait_event(self, timeout: float = 0.25):
        """Resolve inside an event loop; returns what :meth:`collect` returns.

        A generator for :class:`repro.net.eventloop.EventLoop` — it defers to
        :meth:`PendingRpcBatch.wait_event` for the waiting/retransmission and
        then unpacks outcomes without pumping the network. For an unrouted
        (already complete) batch it finishes without yielding at all.
        """
        if (self._outcomes is None and self._chunk_results is None
                and self._rpc_batch is not None):
            yield from self._rpc_batch.wait_event(attempts=self._attempts,
                                                  timeout=timeout)
        return self.collect()

    def collect(self) -> list:
        """Wait for (and unpack) every call's outcome, in call order."""
        if self._outcomes is not None:
            return self._outcomes
        chunk_results = self._chunk_results
        if chunk_results is None:
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
