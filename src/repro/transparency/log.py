"""The per-TEE digest log.

Every trust domain's framework instance appends one entry per code version it
has ever run (the initial application plus every accepted update). Entries are
linked in a hash chain, so the digest history a domain reports to a client is
tamper-evident: rewriting or dropping an old entry changes every later head.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashchain import ChainEntry, HashChain
from repro.errors import LogError
from repro.wire.codec import encode

__all__ = ["DigestLogEntry", "DigestLog"]


@dataclass(frozen=True)
class DigestLogEntry:
    """One code-version record in a trust domain's digest log.

    Timestamps are stored as integer microseconds (``timestamp_us``) so that
    the hash-chained payload is exactly reproducible by verifiers; the float
    :attr:`timestamp` view is derived for convenience.
    """

    sequence: int
    code_digest: bytes
    version: str
    timestamp_us: int
    chain_head: bytes

    @property
    def timestamp(self) -> float:
        """The entry's timestamp in seconds."""
        return self.timestamp_us / 1_000_000

    def to_dict(self) -> dict:
        """Plain-data form served to auditing clients."""
        return {
            "sequence": self.sequence,
            "code_digest": self.code_digest,
            "version": self.version,
            "timestamp_us": self.timestamp_us,
            "chain_head": self.chain_head,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DigestLogEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            sequence=int(data["sequence"]),
            code_digest=bytes(data["code_digest"]),
            version=str(data["version"]),
            timestamp_us=int(data["timestamp_us"]),
            chain_head=bytes(data["chain_head"]),
        )


class DigestLog:
    """An append-only log of code digests backed by a hash chain."""

    def __init__(self, domain_id: str):
        self.domain_id = domain_id
        self._chain = HashChain()
        self._entries: list[DigestLogEntry] = []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, code_digest: bytes, version: str, timestamp: float) -> DigestLogEntry:
        """Record that this domain switched to code with ``code_digest``."""
        timestamp_us = int(round(timestamp * 1_000_000))
        payload = encode({
            "code_digest": bytes(code_digest),
            "version": version,
            "timestamp_us": timestamp_us,
        })
        chain_entry = self._chain.append(payload)
        entry = DigestLogEntry(
            sequence=chain_entry.index,
            code_digest=bytes(code_digest),
            version=version,
            timestamp_us=timestamp_us,
            chain_head=chain_entry.head,
        )
        self._entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Queries (what the framework serves to clients)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def head(self) -> bytes:
        """The current chain head, included in attestation user data."""
        return self._chain.head()

    def latest(self) -> DigestLogEntry:
        """The most recent entry; raises :class:`LogError` when empty."""
        if not self._entries:
            raise LogError(f"digest log for {self.domain_id} is empty")
        return self._entries[-1]

    def entries(self, start: int = 0) -> list[DigestLogEntry]:
        """Entries from ``start`` onward (all by default)."""
        if start < 0 or start > len(self._entries):
            raise LogError("invalid digest log range")
        return list(self._entries[start:])

    def chain_entries(self) -> list[ChainEntry]:
        """The raw hash-chain entries (what clients verify)."""
        return self._chain.entries()

    def export(self) -> list[dict]:
        """Serializable view of the whole log for RPC responses."""
        return [entry.to_dict() for entry in self._entries]

    # ------------------------------------------------------------------
    # Client-side verification
    # ------------------------------------------------------------------
    @staticmethod
    def verify_export(exported: list[dict], expected_head: bytes) -> list[DigestLogEntry]:
        """Verify a log exported by a (possibly lying) trust domain.

        Rebuilds the hash chain from the exported entries and checks that the
        resulting head equals ``expected_head`` (the head the TEE attested to).
        Returns the parsed entries on success.

        Raises:
            LogError: the export is internally inconsistent or does not match
                the attested head.
        """
        entries = [DigestLogEntry.from_dict(item) for item in exported]
        chain = HashChain()
        for index, entry in enumerate(entries):
            if entry.sequence != index:
                raise LogError(f"digest log entries out of order at {index}")
            payload = encode({
                "code_digest": entry.code_digest,
                "version": entry.version,
                "timestamp_us": entry.timestamp_us,
            })
            chain_entry = chain.append(payload)
            if chain_entry.head != entry.chain_head:
                raise LogError(f"digest log entry {index} has an inconsistent chain head")
        if chain.head() != expected_head:
            raise LogError("digest log does not match the attested head")
        return entries

    @staticmethod
    def views_consistent(first: list[dict], second: list[dict]) -> bool:
        """Whether two exported views describe the same code history.

        Trust domains install the same releases at (slightly) different times
        and therefore have different chain heads; what must agree is the
        *code history*: the sequence of (sequence number, code digest, version)
        triples, with one view allowed to be a prefix of the other.
        """
        def history(view: list[dict]) -> list[tuple]:
            return [
                (int(item["sequence"]), bytes(item["code_digest"]), str(item["version"]))
                for item in view
            ]

        first_history, second_history = history(first), history(second)
        shorter, longer = sorted((first_history, second_history), key=len)
        return longer[: len(shorter)] == shorter
