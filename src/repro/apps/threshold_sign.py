"""BLS threshold signing for financial custody (the paper's §5 application).

Each trust domain holds one share of a BLS signing key and produces a
signature share on request; any ``t`` shares combine into a signature that
verifies under the single group public key, so no domain (and no attacker
below the threshold) can ever sign alone.

The application code that runs inside every domain's sandbox is the WVM
``bls_share`` program — the same program Table 3 benchmarks — so invoking the
custody service end-to-end exercises the full stack: RPC → vsock hops →
enclave → framework → WVM sandbox → BLS arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto.bilinear import BLS_SCALAR_ORDER, G1Element, G2Element
from repro.crypto.bls import BlsSignature, BlsSignatureShare, BlsThresholdScheme
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.shamir import Share
from repro.errors import ApplicationError
from repro.net.eventloop import one_op
from repro.sandbox.programs import bls_share_source
from repro.service import (
    AppClient,
    AppService,
    PackageBinding,
    ServiceSpec,
    ShardMigrator,
)

__all__ = ["CustodyDeployment", "CustodyClient", "SignedTransaction"]

APP_NAME = "bls-custody"
APP_VERSION = "1.0.0"


@dataclass(frozen=True)
class SignedTransaction:
    """A transaction plus the threshold signature the custody service produced."""

    message: bytes
    signature: BlsSignature
    signer_indices: tuple[int, ...]


class _CustodyShardMigrator(ShardMigrator):
    """Provisions replicated signer groups onto freshly grown shards.

    Custody state is fully replicated — every shard's signer ``i`` holds the
    same key share under the one group public key — so no records ever move
    between shards. Growing the service means provisioning the signer group
    (enclave key-share installation, the operator's key ceremony) on each new
    shard before the epoch flips; message routing then spreads signing load
    over the larger fleet while any shard's quorum still produces the same
    verifiable signature.
    """

    def __init__(self, service: "CustodyDeployment"):
        self.service = service

    def provision(self, plane, new_shard_indices: list[int]) -> None:
        self.service.install_shares_on_shards(
            [plane.shards[index] for index in new_shard_indices])


class CustodyDeployment(AppService):
    """The custody provider's side: domains, key shares, and the signing app.

    Args:
        threshold: number of signature shares required (``t``).
        num_signers: number of share-holding trust domains; the deployment adds
            trust domain 0 (the developer's own, shareless domain) on top,
            matching the paper's architecture.
        use_dkg: generate the key with a dealerless DKG instead of a trusted
            dealer.
    """

    def __init__(self, threshold: int = 2, num_signers: int = 3,
                 developer: DeveloperIdentity | None = None, use_dkg: bool = False,
                 keygen_seed: bytes | None = None, shards: int = 1,
                 regions: tuple[str, ...] = ()):
        if threshold < 1 or num_signers < threshold:
            raise ApplicationError("invalid threshold parameters")
        self.threshold = threshold
        self.num_signers = num_signers
        developer = developer or DeveloperIdentity("custody-developer")
        package = CodePackage(APP_NAME, APP_VERSION, "wvm", bls_share_source())
        # With shards > 1 every shard holds the *same* key shares (replicated
        # signer groups under one group public key); transactions are routed
        # to shards by message, so signing capacity scales horizontally while
        # any shard's quorum produces the same verifiable signature.
        super().__init__(developer, ServiceSpec(
            name=APP_NAME,
            packages=(PackageBinding(package),),
            domains_per_shard=num_signers + 1,
            shard_count=shards,
            threshold=threshold,
            regions=tuple(regions),
        ), _CustodyShardMigrator(self))
        self.scheme = BlsThresholdScheme(threshold, num_signers)
        self.group_public_key, self._shares = self._generate_key(use_dkg, keygen_seed)
        self._install_shares()

    # ------------------------------------------------------------------
    # Key management
    # ------------------------------------------------------------------
    def _generate_key(self, use_dkg: bool, seed: bytes | None) -> tuple[G2Element, list[Share]]:
        if use_dkg:
            return DistributedKeyGeneration(self.threshold, self.num_signers).run(seed)
        return self.scheme.keygen(seed)

    def _install_shares(self) -> None:
        self.install_shares_on_shards(self.plane.shards)

    def install_shares_on_shards(self, shards) -> None:
        """Provision the signer group onto ``shards`` (the key ceremony).

        Signer i (1-indexed) lives on trust domain i of every shard (domain 0
        holds no share). Also called by the reshard migrator for shards grown
        after deployment.
        """
        for shard in shards:
            for share in self._shares:
                domain = shard.domains[share.index]
                if domain.enclave is not None:
                    domain.enclave.memory.write("bls_key_share", share.value)

    def share_for_signer(self, signer_index: int) -> Share:
        """The key share held by ``signer_index`` (1-indexed).

        Exposed for tests and the benchmark harness; production code paths go
        through :class:`CustodyClient`.
        """
        for share in self._shares:
            if share.index == signer_index:
                return share
        raise ApplicationError(f"no signer with index {signer_index}")


class CustodyClient(AppClient):
    """The asset owner's side: audit, request shares, combine, verify."""

    # Custody re-audits before every signing operation: each signature moves
    # funds, so the session never signs against an unverified fleet.
    audit_policy = "always"

    def sign_transaction(self, message: bytes,
                         signer_indices: list[int] | None = None) -> SignedTransaction:
        """Collect ``t`` signature shares and combine them into one signature.

        :meth:`sign_flow` over this one message: ``signer_indices`` (every
        signer by default) are the candidates, in order, so signing survives
        crashed, partitioned, or compromised signers as long as ``t`` of the
        candidates answer.

        Raises:
            ApplicationError: fewer than ``t`` candidates produced a share, or
                the combined signature does not verify.
        """
        return self._run(one_op(self.sign_flow([message], signer_indices)), message)

    def sign_transactions(self, messages: list[bytes],
                          signer_indices: list[int] | None = None) -> list:
        """Sign many transactions; runs :meth:`sign_flow` to completion.

        Returns one outcome per message, in order: a
        :class:`SignedTransaction` or an :class:`ApplicationError` instance.
        """
        return self._run(self.sign_flow(messages, signer_indices))

    def sign_flow(self, messages: list[bytes], signer_indices: list[int] | None = None,
                  timeout: float = 0.25):
        """Threshold-sign every message with per-signer failover; a task generator.

        The first wave asks the first ``t`` of ``signer_indices`` (all
        signers by default) for their shares of every message at once, each
        signer receiving its slice as one batched request per shard. A
        message whose signers failed asks the next candidates, one further
        wave at a time, until it holds ``t`` shares or runs out. Shares are
        then combined and verified per message. Returns one outcome per
        message, in order: a :class:`SignedTransaction`, or an
        :class:`ApplicationError` instance when fewer than ``t`` signers
        produced a share or the combined signature does not verify (failures
        are isolated per message, not per batch).
        """
        service = self.service
        threshold = service.threshold
        candidates = list(signer_indices or range(1, service.num_signers + 1))
        partials: list[list[BlsSignatureShare]] = [[] for _ in messages]
        cursors = [0] * len(messages)
        live = list(range(len(messages)))
        while live:
            wave = []
            for position in live:
                cursor = cursors[position]
                chosen = candidates[cursor:cursor + threshold - len(partials[position])]
                cursors[position] += len(chosen)
                wave.extend((signer, position) for signer in chosen)
            wave.sort()  # signer-major: each signer's slice is one request
            results = yield from self.session.scatter_wave([
                (messages[position], signer, "bls_share", [
                    int.from_bytes(messages[position], "big"),
                    len(messages[position]),
                    service.share_for_signer(signer).value, BLS_SCALAR_ORDER])
                for signer, position in wave
            ], timeout)
            for (signer, position), result in zip(wave, results):
                if not isinstance(result, Exception):  # else crashed or refusing
                    partials[position].append(BlsSignatureShare(
                        signer, BlsSignature(G1Element(result["value"]))))
            live = [position for position in live
                    if len(partials[position]) < threshold
                    and cursors[position] < len(candidates)]
        outcomes = []
        for message, shares in zip(messages, partials):
            if len(shares) < threshold:
                outcomes.append(ApplicationError(
                    f"only {len(shares)} of the required {threshold} "
                    "signers produced a signature share"))
                continue
            signature = service.scheme.combine(shares)
            if not service.scheme.verify(service.group_public_key, message, signature):
                outcomes.append(ApplicationError(
                    "combined threshold signature failed verification"))
                continue
            outcomes.append(SignedTransaction(
                message=message, signature=signature,
                signer_indices=tuple(share.signer_index for share in shares)))
        return outcomes

    def verify(self, transaction: SignedTransaction) -> bool:
        """Verify a signed transaction under the custody service's public key."""
        return self.service.scheme.verify(
            self.service.group_public_key, transaction.message, transaction.signature
        )
