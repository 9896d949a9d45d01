"""Pedersen-style distributed key generation (DKG) for threshold BLS keys.

The basic threshold custody setup in the paper lets a dealer split a signing
key. For deployments where even a one-time trusted dealer is unacceptable (the
developer herself may be the adversary), the trust domains can instead run a
DKG: every participant deals a Feldman-verified sharing of a random value and
the group key is the sum of all dealt secrets. No single party — including the
application developer — ever sees the full signing key.

The protocol here is the classic Pedersen DKG (without complaint rounds being
networked; invalid dealings are simply excluded), executed synchronously in
memory. The core framework's custody application uses it as an optional
"dealerless" key-generation mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bilinear import BLS_SCALAR_ORDER, BilinearGroup, G2Element
from repro.crypto.field import PrimeField
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.errors import CryptoError, SecretSharingError

__all__ = ["DkgDealing", "DkgParticipant", "DistributedKeyGeneration"]

_GROUP = BilinearGroup()
_FIELD = PrimeField(BLS_SCALAR_ORDER, unsafe_skip_check=True)


@dataclass(frozen=True)
class DkgDealing:
    """One participant's dealing: per-recipient shares plus public commitments.

    Commitments are to the polynomial coefficients in G2 (``A_j = a_j · g2``),
    so recipients can verify their share without learning the polynomial.
    """

    dealer_index: int
    shares: dict[int, Share]
    commitments: tuple[G2Element, ...]

    def verify_share_for(self, recipient_index: int) -> bool:
        """Check the recipient's share against the dealer's commitments."""
        share = self.shares.get(recipient_index)
        if share is None:
            return False
        left = _GROUP.multiply(_GROUP.g2_generator(), share.value)
        right = _GROUP.g2_identity()
        for j, commitment in enumerate(self.commitments):
            right = _GROUP.add(
                right, _GROUP.multiply(commitment, pow(recipient_index, j, BLS_SCALAR_ORDER))
            )
        return left == right


class DkgParticipant:
    """One participant in the distributed key generation protocol."""

    def __init__(self, index: int, threshold: int, num_participants: int):
        if index < 1 or index > num_participants:
            raise CryptoError("participant index out of range")
        self.index = index
        self.threshold = threshold
        self.num_participants = num_participants
        self._sharing = ShamirSecretSharing(threshold, num_participants, _FIELD)
        self._received: dict[int, Share] = {}
        self._commitments: dict[int, tuple[G2Element, ...]] = {}

    def deal(self, seed: bytes | None = None) -> DkgDealing:
        """Deal a Feldman-verified sharing of a fresh random secret."""
        if seed is None:
            secret = _GROUP.random_scalar()
        else:
            secret = _GROUP.hash_to_scalar(seed + bytes([self.index]), domain="repro/dkg/seed")
        shares, coefficients = self._sharing.split_with_polynomial(secret)
        commitments = tuple(
            _GROUP.multiply(_GROUP.g2_generator(), c) for c in coefficients
        )
        return DkgDealing(self.index, {s.index: s for s in shares}, commitments)

    def receive(self, dealing: DkgDealing) -> bool:
        """Verify and record the share addressed to this participant.

        Returns ``True`` when the share verified and was accepted; invalid
        dealings are ignored (the dealer is excluded from the final key).
        """
        if not dealing.verify_share_for(self.index):
            return False
        self._received[dealing.dealer_index] = dealing.shares[self.index]
        self._commitments[dealing.dealer_index] = dealing.commitments
        return True

    def finalize(self, qualified: set[int]) -> Share:
        """Combine the shares received from the qualified dealer set.

        Args:
            qualified: dealer indices every honest participant accepted.

        Returns:
            this participant's share of the group secret key.
        """
        missing = qualified - set(self._received)
        if missing:
            raise SecretSharingError(f"missing dealings from participants {sorted(missing)}")
        total = 0
        for dealer_index in sorted(qualified):
            total = (total + self._received[dealer_index].value) % BLS_SCALAR_ORDER
        return Share(self.index, total)

    def group_public_key(self, qualified: set[int]) -> G2Element:
        """Compute the group public key from the qualified dealers' commitments."""
        key = _GROUP.g2_identity()
        for dealer_index in sorted(qualified):
            commitments = self._commitments.get(dealer_index)
            if commitments is None:
                raise SecretSharingError(f"no commitments recorded for dealer {dealer_index}")
            key = _GROUP.add(key, commitments[0])
        return key


class DistributedKeyGeneration:
    """Synchronous orchestration of a full Pedersen DKG run.

    This is a convenience driver used by tests, examples, and the custody
    application's dealerless mode; real deployments would exchange dealings over
    :mod:`repro.net`.
    """

    def __init__(self, threshold: int, num_participants: int):
        if threshold < 1 or num_participants < threshold:
            raise CryptoError("invalid DKG parameters")
        self.threshold = threshold
        self.num_participants = num_participants
        self.participants = [
            DkgParticipant(i, threshold, num_participants)
            for i in range(1, num_participants + 1)
        ]

    def run(self, seed: bytes | None = None) -> tuple[G2Element, list[Share]]:
        """Execute the DKG and return ``(group_public_key, per-participant shares)``."""
        dealings = [p.deal(seed) for p in self.participants]
        qualified: set[int] = set()
        for dealing in dealings:
            accepted = all(p.receive(dealing) for p in self.participants)
            if accepted:
                qualified.add(dealing.dealer_index)
        if len(qualified) < self.threshold:
            raise SecretSharingError("not enough qualified dealers to finish the DKG")
        shares = [p.finalize(qualified) for p in self.participants]
        public_key = self.participants[0].group_public_key(qualified)
        return public_key, shares
