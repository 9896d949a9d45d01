"""Declarative service specifications.

A :class:`ServiceSpec` is the whole description of an application service —
which code packages run where, how many trust domains one shard spans, how
many shards carry the keyspace, the reconstruction/signing threshold, and
where shards are placed — as *data*. :meth:`ServiceSpec.synthesize`
turns that data into the running, attested artifact: one
:class:`~repro.core.deployment.Deployment` replica set per shard, every
package published to the release registry and CT-style log and installed as a
signed update, all shards sharing one simulated clock and one hardware-vendor
registry so a single auditing client can attest the entire fleet.

This mirrors the configuration-synthesis framing of the networking
literature: the developer states *requirements* (the spec) and the framework
derives the concrete, auditable configuration — rather than hand-rolling a
``Deployment`` plus glue per application, which is exactly the duplication
the four example apps had grown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.enclave.vendor import HardwareVendor
from repro.errors import ServiceSpecError
from repro.net.clock import SimClock
from repro.net.transport import Network
from repro.service.ring import HashRing
from repro.service.sharded import ShardedService
from repro.wire.codec import encode

__all__ = ["PackageBinding", "ServiceSpec"]


@dataclass(frozen=True)
class PackageBinding:
    """One application package and the shard-local domains it runs on.

    ``domains=None`` (the default) installs the package on every trust domain
    of every shard — the common single-application shape. A tuple of domain
    indices installs it on just those domains, which is how asymmetric
    services (e.g. ODoH's distinct proxy and resolver applications) are
    declared.
    """

    package: CodePackage
    domains: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ServiceSpec:
    """A declarative description of one distributed-trust app service.

    Attributes:
        name: service name; shard deployments are named ``<name>`` (single
            shard) or ``<name>-s<i>``.
        packages: the application code to publish and install, as
            :class:`PackageBinding` entries (or bare
            :class:`~repro.core.package.CodePackage` objects, which bind to
            every domain).
        domains_per_shard: trust domains in each shard's deployment.
        shard_count: number of shards carrying the keyspace.
        threshold: the app-level quorum (Shamir reconstruction, signing
            quorum, ...) recorded on the spec for clients to read; ``None``
            for apps without one.
        include_developer_domain: whether domain 0 of each shard runs without
            secure hardware on the developer's own infrastructure.
        heterogeneous: alternate enclave vendors across domains.
        use_vsock: route enclave requests through the vsock-style hops.
        ring_vnodes: virtual nodes per shard on the consistent-hash ring.
        regions: named regions shards are placed into, round-robin — shard
            ``i`` lives in ``regions[i % len(regions)]`` (and so do shards a
            live reshard grows later, so a grown fleet keeps the placement
            policy). Empty means single-region (no placement). The names are
            interpreted by a :class:`~repro.net.latency.LatencyMap` when the
            plane is routed over a network (see
            :meth:`~repro.service.sharded.ShardedService.apply_latency_map`).
    """

    name: str
    packages: tuple = ()
    domains_per_shard: int = 2
    shard_count: int = 1
    threshold: int | None = None
    include_developer_domain: bool = True
    heterogeneous: bool = True
    use_vsock: bool = True
    ring_vnodes: int = 128
    regions: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(isinstance(region, str) and region for region in self.regions):
            raise ServiceSpecError("every region must be a non-empty name")
        if not self.name:
            raise ServiceSpecError("a service needs a non-empty name")
        if self.domains_per_shard < 1:
            raise ServiceSpecError("each shard needs at least one trust domain")
        if self.shard_count < 1:
            raise ServiceSpecError("a service needs at least one shard")
        if self.threshold is not None and not 1 <= self.threshold <= self.domains_per_shard:
            raise ServiceSpecError(
                f"threshold {self.threshold} outside [1, {self.domains_per_shard}]"
            )
        bindings = tuple(
            binding if isinstance(binding, PackageBinding) else PackageBinding(binding)
            for binding in self.packages
        )
        for binding in bindings:
            if binding.domains is not None:
                bad = [d for d in binding.domains
                       if not 0 <= d < self.domains_per_shard]
                if bad:
                    raise ServiceSpecError(
                        f"package {binding.package.name!r} bound to domains {bad} "
                        f"outside [0, {self.domains_per_shard})"
                    )
        object.__setattr__(self, "packages", bindings)

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def shard_name(self, shard_index: int) -> str:
        """Deployment name for one shard (plain ``name`` when unsharded).

        Shard indices past the spec's own ``shard_count`` (shards synthesized
        later by a live reshard) always carry the ``-s<i>`` suffix.
        """
        if self.shard_count == 1 and shard_index == 0:
            return self.name
        return f"{self.name}-s{shard_index}"

    def shard_region(self, shard_index: int) -> str | None:
        """The named region shard ``shard_index`` is placed in (round-robin),
        or ``None`` for a single-region spec. Indices past ``shard_count``
        (shards a live reshard grows later) follow the same rotation."""
        if not self.regions:
            return None
        return self.regions[shard_index % len(self.regions)]

    def ring_salt(self) -> bytes:
        """The domain-separation salt every ring for this service uses."""
        return b"repro/service/" + self.name.encode("utf-8")

    def synthesize_shard(self, shard_index: int, developer: DeveloperIdentity,
                         network: Network,
                         vendors: list[HardwareVendor]) -> Deployment:
        """Build one shard's attested deployment (packages installed) on the
        plane's own ``network``. Used both by :meth:`synthesize` and by
        the live-resharding coordinator when it grows an existing plane."""
        config = DeploymentConfig(
            num_domains=self.domains_per_shard,
            include_developer_domain=self.include_developer_domain,
            heterogeneous=self.heterogeneous,
            use_vsock=self.use_vsock,
        )
        deployment = Deployment(self.shard_name(shard_index), developer,
                                config, vendors=vendors, network=network)
        self._install_packages(deployment, developer)
        return deployment

    def synthesize(self, developer: DeveloperIdentity,
                   clock: SimClock | None = None,
                   vendors: list[HardwareVendor] | None = None) -> ShardedService:
        """Build the attested replica set this spec describes.

        Every shard is a full :class:`~repro.core.deployment.Deployment` —
        measured enclaves, release registry, CT-style release log — and all
        shards share one clock (so cross-shard timing composes in simulation),
        one fault-free network their domains are served on until the plane is
        routed elsewhere, and one vendor list (so one auditing client can
        verify every shard's attestations against the same roots).
        """
        clock = clock or SimClock()
        network = Network(clock)
        vendors = vendors or [HardwareVendor("aws-nitro-sim"),
                              HardwareVendor("intel-sgx-sim")]
        shards = [self.synthesize_shard(shard_index, developer, network, vendors)
                  for shard_index in range(self.shard_count)]
        ring = HashRing(self.shard_count, vnodes=self.ring_vnodes,
                        salt=self.ring_salt())
        return ShardedService(self, shards, ring, clock)

    def _install_packages(self, deployment: Deployment,
                          developer: DeveloperIdentity) -> None:
        # Per-domain update sequences: a domain only accepts monotonically
        # increasing sequence numbers, and domains that run different
        # applications (bound packages) have independent histories.
        next_sequence = [0] * self.domains_per_shard
        for binding in self.packages:
            if binding.domains is None:
                deployment.publish_and_install(binding.package)
                next_sequence = [deployment.current_sequence + 1] * self.domains_per_shard
                continue
            sequences = {next_sequence[d] for d in binding.domains}
            if len(sequences) != 1:
                raise ServiceSpecError(
                    f"package {binding.package.name!r} targets domains with "
                    "diverging update histories"
                )
            manifest = developer.sign_update(binding.package, sequences.pop())
            deployment.registry.publish(binding.package, manifest)
            deployment.release_log.append(encode(manifest.to_dict()))
            for domain_index in binding.domains:
                deployment.install_on_domain(domain_index, manifest, binding.package)
                deployment.bindings[domain_index] = binding.package.name
                next_sequence[domain_index] = manifest.sequence + 1
