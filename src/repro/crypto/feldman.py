"""Feldman verifiable secret sharing (VSS).

Plain Shamir sharing assumes the dealer is honest. In the paper's setting the
application developer *is* a potential adversary, so a dealer can publish,
alongside the shares, commitments ``C_j = g^{a_j}`` to the coefficients of the
sharing polynomial, and every trust domain can check its share against the
commitments before accepting it. The commitments are secp256k1 points.

No application deals through this module: key backup and custody use plain
Shamir sharing, and the DKG deals its own G2 commitments
(:mod:`repro.crypto.dkg`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.secp256k1 import SECP256K1
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.crypto.field import PrimeField
from repro.errors import SecretSharingError

__all__ = ["FeldmanShare", "FeldmanVSS"]

# ``verify_shares`` builds a window table per commitment once a batch has this
# many shares. Each commitment is multiplied once per share, by the small
# exponent index^j, where a plain multiply is mostly its fixed set-up (odd
# multiples and their normalization). Measured on a 2-vCPU Xeon (Python
# 3.11, medians of nine rounds), a table costs 18.5 ms to build and saves
# 0.20 ms per small-exponent multiply, so it pays back after about 94 shares;
# timing both paths directly at 2-5 commitments, plain won at 64 shares and
# tables at 96.
_PRECOMPUTE_AT_BATCH = 96


@dataclass(frozen=True)
class FeldmanShare:
    """A Shamir share bundled with the dealer's public commitments."""

    share: Share
    commitments: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        """Serialize as share || commitment count || commitments."""
        body = self.share.to_bytes()
        body += len(self.commitments).to_bytes(2, "big")
        for commitment in self.commitments:
            body += len(commitment).to_bytes(1, "big") + commitment
        return body

    @classmethod
    def from_bytes(cls, data: bytes) -> "FeldmanShare":
        """Deserialize a share produced by :meth:`to_bytes`."""
        if len(data) < 38:
            raise SecretSharingError("feldman share encoding too short")
        share = Share.from_bytes(data[:36])
        count = int.from_bytes(data[36:38], "big")
        offset = 38
        commitments = []
        for _ in range(count):
            if offset >= len(data):
                raise SecretSharingError("truncated feldman commitments")
            length = data[offset]
            offset += 1
            commitments.append(data[offset:offset + length])
            offset += length
        return cls(share, tuple(commitments))


class FeldmanVSS:
    """A (t, n) Feldman verifiable secret-sharing scheme.

    The share field is fixed to the secp256k1 group order so that commitments
    ``g^{a_j}`` live on the same curve used elsewhere in the library.
    """

    def __init__(self, threshold: int, num_shares: int):
        field = PrimeField(SECP256K1.n, unsafe_skip_check=True)
        self.shamir = ShamirSecretSharing(threshold, num_shares, field)
        self.threshold = threshold
        self.num_shares = num_shares

    def split(self, secret: int | bytes) -> list[FeldmanShare]:
        """Split a secret and attach coefficient commitments to every share."""
        shares, coefficients = self.shamir.split_with_polynomial(secret)
        commitments = tuple(
            SECP256K1.encode_point(SECP256K1.generator_multiply(c), compressed=True)
            for c in coefficients
        )
        return [FeldmanShare(share, commitments) for share in shares]

    def verify_share(self, feldman_share: FeldmanShare) -> bool:
        """Check ``g^{share} == prod_j C_j^{index^j}`` for one share."""
        share = feldman_share.share
        left = SECP256K1.generator_multiply(share.value)
        right = None
        for j, commitment_bytes in enumerate(feldman_share.commitments):
            commitment = SECP256K1.decode_point(commitment_bytes)
            exponent = pow(share.index, j, SECP256K1.n)
            term = SECP256K1.multiply(commitment, exponent)
            right = term if right is None else SECP256K1.add(right, term)
        if right is None:
            return False
        return left == right

    def verify_shares(self, shares: list[FeldmanShare]) -> list[bool]:
        """Verify many shares against one commitment vector in a single pass.

        All shares of one dealing carry the same commitments, so the batch
        path decodes each commitment point once and — when the batch is large
        enough to amortize the setup — precomputes a fixed-base window table
        per commitment, turning every per-share term into table lookups.
        Returns one verdict per share, in order.

        Raises:
            SecretSharingError: the shares do not all carry the same
                commitment vector (they cannot be from one dealing).
        """
        if not shares:
            return []
        commitments_bytes = shares[0].commitments
        if any(s.commitments != commitments_bytes for s in shares[1:]):
            raise SecretSharingError("batch verification needs shares from one dealing")
        if not commitments_bytes:
            return [False] * len(shares)
        points = [SECP256K1.decode_point(b) for b in commitments_bytes]
        # All per-share terms are accumulated in Jacobian coordinates — one
        # field inversion per share, instead of one per addition.
        if len(shares) >= _PRECOMPUTE_AT_BATCH:
            tables = [SECP256K1.precompute(point, window=4) for point in points]
            multipliers = [table.multiply_jacobian for table in tables]
        else:
            multipliers = [
                (lambda exponent, _p=point: SECP256K1._to_jacobian(
                    SECP256K1.multiply(_p, exponent)))
                for point in points
            ]
        verdicts = []
        for feldman_share in shares:
            share = feldman_share.share
            left = SECP256K1.generator_multiply(share.value)
            right = (0, 1, 0)
            for j, multiply in enumerate(multipliers):
                right = SECP256K1._jacobian_add(right, multiply(pow(share.index, j,
                                                                    SECP256K1.n)))
            verdicts.append(left == SECP256K1._from_jacobian(right))
        return verdicts

    def reconstruct(self, shares: list[FeldmanShare], verify: bool = True) -> int:
        """Reconstruct the secret, optionally verifying every share first."""
        if verify:
            for feldman_share in shares:
                if not self.verify_share(feldman_share):
                    raise SecretSharingError(
                        f"share {feldman_share.share.index} failed Feldman verification"
                    )
        return self.shamir.reconstruct([s.share for s in shares])

    def public_commitment(self, shares: list[FeldmanShare]) -> bytes:
        """Return the commitment to the secret itself (``C_0 = g^{secret}``)."""
        if not shares:
            raise SecretSharingError("no shares provided")
        return shares[0].commitments[0]
