"""A certificate-transparency-style public log.

Beyond the per-TEE hash chains, the paper suggests building on "deployed
certificate transparency infrastructure": the developer publishes every code
release (and every update manifest) to a public Merkle-tree log, and clients
or third-party auditors check inclusion and consistency. This module models
that log: entries go into an RFC 6962-style Merkle tree, the log operator
signs tree heads, and the standard proofs are served on request.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.hashes import sha256
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.crypto.merkle import (
    BatchInclusionProof,
    ConsistencyProof,
    InclusionProof,
    MerkleTree,
)
from repro.errors import LogError
from repro.wire.codec import encode

__all__ = ["SignedTreeHead", "CtLog"]

# Bounded memo of tree-head signatures that already verified (content digest
# of key + signature + payload). Shared across logs: heads are immutable and
# verification is pure, so a hit can only ever repeat an earlier success.
_VERIFIED_HEADS: OrderedDict[bytes, bool] = OrderedDict()


@dataclass(frozen=True)
class SignedTreeHead:
    """A signed statement of the log's size and root hash at a point in time."""

    log_id: str
    tree_size: int
    root_hash: bytes
    timestamp_us: int
    signature: bytes

    def signed_payload(self) -> bytes:
        """The canonical bytes covered by the log operator's signature."""
        return encode({
            "log_id": self.log_id,
            "tree_size": self.tree_size,
            "root_hash": self.root_hash,
            "timestamp_us": self.timestamp_us,
        })

    def verify(self, log_public_key: VerifyingKey) -> bool:
        """Verify the tree-head signature.

        Audits re-verify the same immutable head under the same log key many
        times (every checkpoint chain walk starts from a head), so successful
        verifications are memoized by content digest; failures re-verify.
        """
        memo_key = sha256(log_public_key.to_bytes() + self.signature
                          + self.signed_payload())
        if memo_key in _VERIFIED_HEADS:
            return True
        ok = log_public_key.verify(self.signed_payload(), self.signature)
        if ok:
            _VERIFIED_HEADS[memo_key] = True
            while len(_VERIFIED_HEADS) > 4096:
                _VERIFIED_HEADS.popitem(last=False)
        return ok

    def to_dict(self) -> dict:
        """Plain-data form for wire transfer."""
        return {
            "log_id": self.log_id,
            "tree_size": self.tree_size,
            "root_hash": self.root_hash,
            "timestamp_us": self.timestamp_us,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignedTreeHead":
        """Rebuild a signed tree head from :meth:`to_dict` output."""
        return cls(
            log_id=str(data["log_id"]),
            tree_size=int(data["tree_size"]),
            root_hash=bytes(data["root_hash"]),
            timestamp_us=int(data["timestamp_us"]),
            signature=bytes(data["signature"]),
        )


class CtLog:
    """A public append-only log with Merkle proofs and signed tree heads."""

    def __init__(self, log_id: str, signing_key: SigningKey | None = None):
        self.log_id = log_id
        self._key = signing_key or SigningKey.from_seed(b"repro/ct-log/" + log_id.encode("utf-8"))
        self._tree = MerkleTree()
        self._timestamp_us = 0

    # ------------------------------------------------------------------
    # Log operator interface
    # ------------------------------------------------------------------
    @property
    def public_key(self) -> VerifyingKey:
        """The log's tree-head verification key (pinned by clients)."""
        return self._key.verifying_key()

    @property
    def size(self) -> int:
        """Current number of leaves."""
        return self._tree.size

    def append(self, entry: bytes, timestamp_us: int | None = None) -> int:
        """Append an entry (e.g. a release descriptor); returns its leaf index."""
        if timestamp_us is not None:
            if timestamp_us < self._timestamp_us:
                raise LogError("log timestamps must be monotonic")
            self._timestamp_us = timestamp_us
        else:
            self._timestamp_us += 1
        return self._tree.append(entry)

    def entry(self, index: int) -> bytes:
        """The raw leaf at ``index``."""
        if not 0 <= index < self._tree.size:
            raise LogError(f"log has no entry {index}")
        return self._tree.leaf(index)

    def entries(self) -> list[bytes]:
        """All leaves in append order."""
        return self._tree.leaves()

    def signed_tree_head(self, tree_size: int | None = None) -> SignedTreeHead:
        """Produce a signed tree head for the current (or a historical) size."""
        if tree_size is None:
            tree_size = self._tree.size
        root = self._tree.root(tree_size)
        head = SignedTreeHead(
            log_id=self.log_id,
            tree_size=tree_size,
            root_hash=root,
            timestamp_us=self._timestamp_us,
            signature=b"",
        )
        signature = self._key.sign(head.signed_payload())
        return SignedTreeHead(
            log_id=head.log_id,
            tree_size=head.tree_size,
            root_hash=head.root_hash,
            timestamp_us=head.timestamp_us,
            signature=signature,
        )

    def inclusion_proof(self, index: int, tree_size: int | None = None) -> InclusionProof:
        """Prove that leaf ``index`` is included in the tree of ``tree_size`` leaves."""
        return self._tree.inclusion_proof(index, tree_size)

    def consistency_proof(self, old_size: int, new_size: int | None = None) -> ConsistencyProof:
        """Prove that the log at ``old_size`` is a prefix of the log at ``new_size``."""
        return self._tree.consistency_proof(old_size, new_size)

    def batch_inclusion_proof(self, indices, tree_size: int | None = None) -> BatchInclusionProof:
        """One shared proof that every leaf in ``indices`` is in the log.

        Many clients auditing against the same tree head (e.g. everyone
        holding the same audit checkpoint) verify this single proof instead
        of one inclusion proof each — shared interior nodes appear once.
        """
        return self._tree.batch_inclusion_proof(indices, tree_size)

    def find(self, entry: bytes) -> int:
        """Index of the first occurrence of ``entry``; raises when absent."""
        for index, leaf in enumerate(self._tree.leaves()):
            if leaf == entry:
                return index
        raise LogError("entry not found in log")

    # ------------------------------------------------------------------
    # Client-side verification helpers
    # ------------------------------------------------------------------
    @staticmethod
    def verify_inclusion(entry: bytes, proof: InclusionProof, head: SignedTreeHead,
                         log_public_key: VerifyingKey) -> bool:
        """Verify a signed tree head and an inclusion proof against it."""
        if not head.verify(log_public_key):
            return False
        if proof.tree_size != head.tree_size:
            return False
        return proof.verify(entry, head.root_hash)

    @staticmethod
    def verify_consistency(old_head: SignedTreeHead, new_head: SignedTreeHead,
                           proof: ConsistencyProof, log_public_key: VerifyingKey) -> bool:
        """Verify that two signed tree heads describe the same append-only log."""
        if not old_head.verify(log_public_key) or not new_head.verify(log_public_key):
            return False
        if proof.old_size != old_head.tree_size or proof.new_size != new_head.tree_size:
            return False
        return proof.verify(old_head.root_hash, new_head.root_hash)
