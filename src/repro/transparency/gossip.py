"""Gossip-based split-view detection.

A log (or a trust domain) that wants to hide a malicious code version from a
particular client can try *equivocation*: showing that client one history and
everyone else another. The standard defence, inherited from certificate
transparency, is gossip — clients and auditors exchange the heads they have
seen and check pairwise consistency. Any inconsistent pair is itself
publicly verifiable evidence of misbehavior.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import VerifyingKey
from repro.errors import SplitViewError
from repro.transparency.ct_log import SignedTreeHead

__all__ = ["SplitViewEvidence", "GossipPool", "check_views_consistent"]


@dataclass(frozen=True)
class SplitViewEvidence:
    """Two signed tree heads that cannot both describe one append-only log.

    Because both heads carry valid signatures from the log key, the pair is a
    publicly verifiable proof of equivocation: anyone can re-run
    :meth:`verify` without trusting the party that assembled the evidence.
    """

    first: SignedTreeHead
    second: SignedTreeHead

    def verify(self, log_public_key: VerifyingKey) -> bool:
        """Check that the evidence is genuine (both signed, same size, different roots)."""
        if not self.first.verify(log_public_key) or not self.second.verify(log_public_key):
            return False
        return (
            self.first.log_id == self.second.log_id
            and self.first.tree_size == self.second.tree_size
            and self.first.root_hash != self.second.root_hash
        )

    def to_dict(self) -> dict:
        """Plain-data form for publication."""
        return {"first": self.first.to_dict(), "second": self.second.to_dict()}


def check_views_consistent(first: SignedTreeHead, second: SignedTreeHead,
                           consistency_verifier=None) -> SplitViewEvidence | None:
    """Compare two views of the same log; return evidence when they conflict.

    Args:
        first, second: signed tree heads from the same log id.
        consistency_verifier: optional callable ``(old_head, new_head) -> bool``
            used when the sizes differ (e.g. fetching and checking a
            consistency proof); when omitted, differing sizes are not treated
            as evidence.
    """
    if first.log_id != second.log_id:
        return None
    if first.tree_size == second.tree_size:
        if first.root_hash != second.root_hash:
            return SplitViewEvidence(first, second)
        return None
    older, newer = sorted((first, second), key=lambda h: h.tree_size)
    if consistency_verifier is not None and not consistency_verifier(older, newer):
        return SplitViewEvidence(older, newer)
    return None


class GossipPool:
    """Collects tree heads observed by many parties and flags split views."""

    def __init__(self, log_public_key: VerifyingKey):
        self.log_public_key = log_public_key
        self._observations: list[tuple[str, SignedTreeHead]] = []
        self._evidence: list[SplitViewEvidence] = []

    def submit(self, observer: str, head: SignedTreeHead) -> list[SplitViewEvidence]:
        """Record a head seen by ``observer``; returns any new evidence it creates.

        Heads with invalid signatures are rejected outright.
        """
        if not head.verify(self.log_public_key):
            raise SplitViewError("gossiped tree head has an invalid signature")
        new_evidence = []
        for _, existing in self._observations:
            evidence = check_views_consistent(existing, head)
            if evidence is not None and evidence.verify(self.log_public_key):
                new_evidence.append(evidence)
        self._observations.append((observer, head))
        self._evidence.extend(new_evidence)
        return new_evidence

    @property
    def observations(self) -> int:
        """Number of heads submitted so far."""
        return len(self._observations)

    @property
    def evidence(self) -> list[SplitViewEvidence]:
        """All split-view evidence collected so far."""
        return list(self._evidence)

    def observers(self) -> list[str]:
        """Distinct observers that have gossiped at least one head."""
        return sorted({observer for observer, _ in self._observations})
