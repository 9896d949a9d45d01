"""Epoch transparency bundles: signed, self-contained reshard evidence.

The paper's core claim is that clients need not trust the operator because
every trust-domain action leaves publicly verifiable evidence — yet a reshard
epoch is the most security-critical control-plane action and, until this
module, it committed without an artifact an outsider could check. An
:class:`EpochBundle` closes that gap: every committed epoch transition (grow,
shrink, or drain) is summarized as one canonical structure —

* the ring transition (old/new shard counts plus the deterministic ring
  parameters, so a verifier reconstructs both rings from scratch),
* per-(source → target) migrator digests: the moved key set and an RFC 6962
  Merkle root over it,
* the pinned/stale key sets the epoch left behind,
* the per-shard attestation measurement set,
* the spare-pool delta (shards provisioned, retired, and still draining),

— signed by the coordinator and appended as a leaf to a dedicated CT-style
:class:`~repro.transparency.ct_log.CtLog`. The :class:`EpochArtifact` pairs
the bundle with its inclusion proof and the signed tree head, so the whole
object is *self-contained*: :class:`repro.transparency.auditor.AuditorService`
verifies it with no channel to (and no trust in) the coordinator that
produced it.

Everything inside the signature is integers, strings, and bytes — the
canonical codec rejects floats, which is exactly what keeps the signed payload
replayable bit-for-bit (simulated time travels as integer microseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.hashes import sha256
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.crypto.merkle import InclusionProof, MerkleTree
from repro.errors import EpochBundleError
from repro.transparency.ct_log import CtLog, SignedTreeHead
from repro.wire.codec import encode

__all__ = ["MigrationDigest", "EpochBundle", "EpochArtifact", "EpochPublisher",
           "forge_migration_digest"]


def _canonical_key(key) -> bytes:
    """Canonical byte form of a routing key (matches the ring's hashing)."""
    from repro.service.ring import HashRing

    return HashRing._key_bytes(key)


@dataclass(frozen=True)
class MigrationDigest:
    """One source → target migration batch, committed to a Merkle root.

    ``keys`` are the canonical byte forms of every key that actually moved,
    sorted; ``root`` is the RFC 6962 Merkle root over them in that order. The
    keys ride along in the artifact so a verifier *recomputes* the root
    instead of taking it on faith — a coordinator that rewrites the root
    without the matching key set is caught by recomputation.
    """

    source: int
    target: int
    root: bytes
    key_count: int
    keys: tuple[bytes, ...]

    @staticmethod
    def over(source: int, target: int, keys) -> "MigrationDigest":
        """Build a digest over ``keys`` (any routing-key type), canonicalized."""
        canonical = tuple(sorted(_canonical_key(key) for key in keys))
        return MigrationDigest(source, target, MerkleTree(list(canonical)).root(),
                               len(canonical), canonical)

    def recomputed_root(self) -> bytes:
        """The Merkle root implied by the included key set."""
        return MerkleTree(list(self.keys)).root()


@dataclass(frozen=True)
class EpochBundle:
    """Self-contained evidence for one committed epoch transition.

    ``kind`` is ``"reshard"`` for a grow/shrink commit and ``"drain"`` for a
    ``finish_reshard`` pass (which moves pinned keys without changing the
    ring). ``ring_shard_count`` is the committed ring width; it differs from
    ``new_shard_count`` only while retiring shards are still attached and
    draining.
    """

    service: str
    kind: str
    epoch: int
    old_shard_count: int
    new_shard_count: int
    ring_shard_count: int
    ring_vnodes: int
    ring_salt: bytes
    migrations: tuple[MigrationDigest, ...]
    pinned: tuple[tuple[bytes, int], ...]  # (canonical key, holder shard index)
    stale: tuple[bytes, ...]  # moved keys whose source cleanup is pending
    measurements: tuple[tuple[str, tuple[bytes, ...]], ...]  # (shard, digests)
    provisioned: tuple[str, ...]
    retired: tuple[str, ...]
    draining: tuple[str, ...]
    migrated_keys: int
    records_moved: int
    sim_time_us: int
    signature: bytes = b""

    def _core(self) -> dict:
        """The signed content: everything except the signature itself."""
        return {
            "service": self.service,
            "kind": self.kind,
            "epoch": self.epoch,
            "old_shard_count": self.old_shard_count,
            "new_shard_count": self.new_shard_count,
            "ring_shard_count": self.ring_shard_count,
            "ring_vnodes": self.ring_vnodes,
            "ring_salt": self.ring_salt,
            "migrations": [
                {"source": m.source, "target": m.target, "root": m.root,
                 "key_count": m.key_count, "keys": list(m.keys)}
                for m in self.migrations
            ],
            "pinned": [[key, holder] for key, holder in self.pinned],
            "stale": list(self.stale),
            "measurements": [[shard, list(digests)]
                             for shard, digests in self.measurements],
            "provisioned": list(self.provisioned),
            "retired": list(self.retired),
            "draining": list(self.draining),
            "migrated_keys": self.migrated_keys,
            "records_moved": self.records_moved,
            "sim_time_us": self.sim_time_us,
        }

    def signed_payload(self) -> bytes:
        """Canonical bytes the coordinator signs."""
        return encode(self._core())

    def canonical_bytes(self) -> bytes:
        """Canonical bytes of the *signed* bundle — the log leaf."""
        return encode({**self._core(), "signature": self.signature})

    def to_dict(self) -> dict:
        """JSON-safe representation (bytes hex-encoded)."""
        return {
            "service": self.service,
            "kind": self.kind,
            "epoch": self.epoch,
            "old_shard_count": self.old_shard_count,
            "new_shard_count": self.new_shard_count,
            "ring_shard_count": self.ring_shard_count,
            "ring_vnodes": self.ring_vnodes,
            "ring_salt": self.ring_salt.hex(),
            "migrations": [
                {"source": m.source, "target": m.target, "root": m.root.hex(),
                 "key_count": m.key_count, "keys": [k.hex() for k in m.keys]}
                for m in self.migrations
            ],
            "pinned": [[key.hex(), holder] for key, holder in self.pinned],
            "stale": [key.hex() for key in self.stale],
            "measurements": [[shard, [d.hex() for d in digests]]
                             for shard, digests in self.measurements],
            "provisioned": list(self.provisioned),
            "retired": list(self.retired),
            "draining": list(self.draining),
            "migrated_keys": self.migrated_keys,
            "records_moved": self.records_moved,
            "sim_time_us": self.sim_time_us,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochBundle":
        """Rebuild a bundle from untrusted :meth:`to_dict` output.

        Raises:
            EpochBundleError: the structure is malformed (missing fields, bad
                hex, wrong types). Content that is well-formed but *wrong* is
                the auditor's job, not the parser's.
        """
        try:
            return cls(
                service=str(data["service"]),
                kind=str(data["kind"]),
                epoch=int(data["epoch"]),
                old_shard_count=int(data["old_shard_count"]),
                new_shard_count=int(data["new_shard_count"]),
                ring_shard_count=int(data["ring_shard_count"]),
                ring_vnodes=int(data["ring_vnodes"]),
                ring_salt=bytes.fromhex(data["ring_salt"]),
                migrations=tuple(
                    MigrationDigest(
                        source=int(m["source"]), target=int(m["target"]),
                        root=bytes.fromhex(m["root"]),
                        key_count=int(m["key_count"]),
                        keys=tuple(bytes.fromhex(k) for k in m["keys"]),
                    )
                    for m in data["migrations"]
                ),
                pinned=tuple((bytes.fromhex(key), int(holder))
                             for key, holder in data["pinned"]),
                stale=tuple(bytes.fromhex(key) for key in data["stale"]),
                measurements=tuple(
                    (str(shard), tuple(bytes.fromhex(d) for d in digests))
                    for shard, digests in data["measurements"]
                ),
                provisioned=tuple(str(n) for n in data["provisioned"]),
                retired=tuple(str(n) for n in data["retired"]),
                draining=tuple(str(n) for n in data["draining"]),
                migrated_keys=int(data["migrated_keys"]),
                records_moved=int(data["records_moved"]),
                sim_time_us=int(data["sim_time_us"]),
                signature=bytes.fromhex(data["signature"]),
            )
        except EpochBundleError:
            raise
        except Exception as exc:
            raise EpochBundleError(f"malformed epoch bundle: {exc}") from exc


@dataclass(frozen=True)
class EpochArtifact:
    """An epoch bundle plus its transparency-log evidence.

    This is the single untrusted input an auditor verifies: the bundle, the
    leaf's inclusion proof, and the signed tree head it proves into. Nothing
    here requires a channel back to the coordinator.
    """

    bundle: EpochBundle
    leaf_index: int
    proof: InclusionProof
    head: SignedTreeHead

    def to_dict(self) -> dict:
        """JSON-safe representation for wire transfer and report artifacts."""
        return {
            "bundle": self.bundle.to_dict(),
            "leaf_index": self.leaf_index,
            "proof": self.proof.to_dict(),
            # SignedTreeHead.to_dict keeps raw bytes (for the wire codec);
            # hex-encode here so the artifact survives JSON round trips.
            "head": {
                "log_id": self.head.log_id,
                "tree_size": self.head.tree_size,
                "root_hash": self.head.root_hash.hex(),
                "timestamp_us": self.head.timestamp_us,
                "signature": self.head.signature.hex(),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochArtifact":
        """Rebuild an artifact from untrusted :meth:`to_dict` output."""
        try:
            head = data["head"]
            return cls(
                bundle=EpochBundle.from_dict(data["bundle"]),
                leaf_index=int(data["leaf_index"]),
                proof=InclusionProof.from_dict(data["proof"]),
                head=SignedTreeHead(
                    log_id=str(head["log_id"]),
                    tree_size=int(head["tree_size"]),
                    root_hash=bytes.fromhex(head["root_hash"]),
                    timestamp_us=int(head["timestamp_us"]),
                    signature=bytes.fromhex(head["signature"]),
                ),
            )
        except EpochBundleError:
            raise
        except Exception as exc:
            raise EpochBundleError(f"malformed epoch artifact: {exc}") from exc


class EpochPublisher:
    """Signs epoch bundles and appends them to a dedicated epoch log.

    Attach an instance to a :class:`~repro.service.sharded.ShardedService` as
    ``plane.epoch_publisher`` and the :class:`~repro.service.reshard.
    ReshardCoordinator` emits an artifact at every commit (and every drain
    pass). The epoch log is deliberately *not* a shard's release log: release
    logs hold update manifests and are watched by the update monitors; epochs
    get their own log identity and their own signing key.
    """

    def __init__(self, service: str, signing_key: SigningKey | None = None,
                 log: CtLog | None = None):
        self.service = service
        self.signing_key = signing_key or SigningKey.from_seed(
            b"repro/epoch-coordinator/" + service.encode("utf-8"))
        self.log = log or CtLog(f"{service}/epochs")
        self.artifacts: list[EpochArtifact] = []

    @property
    def coordinator_key(self) -> VerifyingKey:
        """The coordinator's bundle-signing public key (pin this)."""
        return self.signing_key.verifying_key()

    @property
    def log_key(self) -> VerifyingKey:
        """The epoch log's tree-head public key (pin this too)."""
        return self.log.public_key

    def publish(self, bundle: EpochBundle) -> EpochArtifact:
        """Sign ``bundle``, append it to the log, and assemble its artifact."""
        signed = replace(bundle,
                         signature=self.signing_key.sign(bundle.signed_payload()))
        leaf_index = self.log.append(signed.canonical_bytes())
        artifact = EpochArtifact(
            bundle=signed,
            leaf_index=leaf_index,
            proof=self.log.inclusion_proof(leaf_index),
            head=self.log.signed_tree_head(),
        )
        self.artifacts.append(artifact)
        return artifact

    def publish_epoch(self, plane, report, moves, moved_keys,
                      kind: str = "reshard") -> EpochArtifact:
        """Build and publish the bundle for a just-committed transition.

        Called by the coordinator *after* ``commit_epoch`` (or at the end of a
        drain pass), so the pinned/stale sets are read from the plane's
        authoritative post-commit state rather than re-derived.

        Args:
            plane: the :class:`ShardedService` that just committed.
            report: the transition's :class:`ReshardReport`.
            moves: the ``(source, target) -> [keys]`` migration plan.
            moved_keys: the set of keys that actually moved.
            kind: ``"reshard"`` or ``"drain"``.
        """
        migrations = []
        for (source, target), keys in sorted(moves.items()):
            done = [key for key in keys if key in moved_keys]
            if done:
                migrations.append(MigrationDigest.over(source, target, done))
        pinned = tuple(sorted(
            (_canonical_key(key), holder)
            for key, holder in plane.pending_migrations()))
        stale = tuple(sorted(
            _canonical_key(key) for key, _ in plane.pending_cleanups()))
        measurements = tuple(
            (shard.name, tuple(domain.enclave.measurement.digest
                               for domain in shard.domains
                               if domain.enclave is not None))
            for shard in plane.shards
        )
        bundle = EpochBundle(
            service=self.service,
            kind=kind,
            epoch=plane.epoch,
            old_shard_count=report.old_shard_count,
            new_shard_count=report.new_shard_count,
            ring_shard_count=plane.ring.shard_count,
            ring_vnodes=plane.ring.vnodes,
            ring_salt=plane.ring.salt,
            migrations=tuple(migrations),
            pinned=pinned,
            stale=stale,
            measurements=measurements,
            provisioned=tuple(report.provisioned),
            retired=tuple(report.retired),
            draining=tuple(report.draining),
            migrated_keys=report.migrated_keys,
            records_moved=report.records_moved,
            sim_time_us=int(round(report.sim_seconds * 1_000_000)),
        )
        return self.publish(bundle)


def forge_migration_digest(publisher: EpochPublisher) -> EpochArtifact:
    """Model a compromised coordinator rewriting a migrator digest.

    The attacker controls the coordinator, so the forged bundle carries a
    *valid* signature (the key is theirs to use) and a *valid* inclusion proof
    (they append to their own log). What they cannot do is make a rewritten
    Merkle root agree with the moved-key set the bundle itself must carry —
    digest conservation is exactly the check that catches this.

    Raises:
        EpochBundleError: there is no published epoch, or the latest epoch
            moved no keys (nothing whose digest could be rewritten).
    """
    if not publisher.artifacts:
        raise EpochBundleError("no published epoch to forge")
    base = publisher.artifacts[-1].bundle
    if not base.migrations:
        raise EpochBundleError("latest epoch moved no keys; no digest to forge")
    first = base.migrations[0]
    rewritten = replace(first, root=sha256(b"repro/forged-root", first.root))
    forged = replace(base, migrations=(rewritten,) + base.migrations[1:],
                     signature=b"")
    return publisher.publish(forged)
