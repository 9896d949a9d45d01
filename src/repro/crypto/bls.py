"""BLS signatures, aggregation, and (t, n) threshold signing.

This is the application evaluated in the paper's §5/Table 3: each trust domain
holds one share of a BLS signing key and produces a *signature share* on a
message; any ``t`` shares combine (via Lagrange interpolation in the exponent)
into a signature that verifies under the single group public key.

The scheme runs over :class:`~repro.crypto.bilinear.BilinearGroup` — a
simulated pairing (see that module and docs/architecture.md, "Simulated
substitutions", for the rationale). All of the algebra (minimal-pubkey-size BLS: signatures in G1,
public keys in G2) matches libBLS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bilinear import (
    BLS_SCALAR_ORDER,
    BilinearGroup,
    G1Element,
    G2Element,
)
from repro.crypto.field import PrimeField
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.errors import CryptoError, ThresholdError

__all__ = [
    "BlsKeyPair",
    "BlsSignature",
    "BlsSignatureShare",
    "BlsThresholdScheme",
    "bls_keygen",
    "bls_sign",
    "bls_verify",
    "bls_aggregate",
    "bls_aggregate_verify",
]

_GROUP = BilinearGroup()
_SCALAR_FIELD = PrimeField(BLS_SCALAR_ORDER, unsafe_skip_check=True)


@dataclass(frozen=True)
class BlsSignature:
    """A BLS signature (an element of G1)."""

    element: G1Element

    def to_bytes(self) -> bytes:
        """Serialize the signature (48 bytes)."""
        return self.element.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlsSignature":
        """Deserialize a signature produced by :meth:`to_bytes`."""
        element = _GROUP.element_from_bytes(data)
        if not isinstance(element, G1Element):
            raise CryptoError("BLS signature must be a G1 element")
        return cls(element)


@dataclass(frozen=True)
class BlsSignatureShare:
    """A partial signature produced by one trust domain in the threshold scheme."""

    signer_index: int
    signature: BlsSignature


@dataclass(frozen=True)
class BlsKeyPair:
    """A BLS key pair: secret scalar and public key in G2."""

    secret_key: int
    public_key: G2Element


def bls_keygen(seed: bytes | None = None) -> BlsKeyPair:
    """Generate a BLS key pair, optionally deterministically from a seed."""
    if seed is None:
        from repro.crypto.rng import randbelow

        secret = 1 + randbelow(BLS_SCALAR_ORDER - 1)
    else:
        secret = 1 + _GROUP.hash_to_scalar(seed, domain="repro/bls/keygen") % (
            BLS_SCALAR_ORDER - 1
        )
    public = _GROUP.multiply(_GROUP.g2_generator(), secret)
    return BlsKeyPair(secret, public)


def bls_sign(secret_key: int, message: bytes) -> BlsSignature:
    """Sign a message: ``sigma = sk · H(m)`` with ``H`` hashing onto G1."""
    h = _GROUP.hash_to_g1(message)
    return BlsSignature(_GROUP.multiply(h, secret_key))


def bls_verify(public_key: G2Element, message: bytes, signature: BlsSignature) -> bool:
    """Verify a BLS signature with the pairing check ``e(sigma, g2) == e(H(m), pk)``."""
    h = _GROUP.hash_to_g1(message)
    left = _GROUP.pairing(signature.element, _GROUP.g2_generator())
    right = _GROUP.pairing(h, public_key)
    return left == right


def bls_aggregate(signatures: list[BlsSignature]) -> BlsSignature:
    """Aggregate signatures on (possibly distinct) messages into one G1 element."""
    if not signatures:
        raise CryptoError("cannot aggregate zero signatures")
    accumulator = _GROUP.g1_identity()
    for signature in signatures:
        accumulator = _GROUP.add(accumulator, signature.element)
    return BlsSignature(accumulator)


def bls_aggregate_verify(
    public_keys: list[G2Element], messages: list[bytes], signature: BlsSignature
) -> bool:
    """Verify an aggregate signature over per-signer messages."""
    if len(public_keys) != len(messages) or not public_keys:
        return False
    left = _GROUP.pairing(signature.element, _GROUP.g2_generator())
    right = _GROUP.multi_pairing(
        [(_GROUP.hash_to_g1(m), pk) for m, pk in zip(messages, public_keys)]
    )
    return left == right


class BlsThresholdScheme:
    """A (t, n) threshold BLS signature scheme.

    The dealer (or a DKG) Shamir-shares the secret key across ``n`` signers.
    Each signer produces a signature share; any ``t`` shares combine into a
    signature under the group public key.
    """

    def __init__(self, threshold: int, num_signers: int):
        if threshold < 1 or num_signers < threshold:
            raise CryptoError("invalid threshold parameters")
        self.threshold = threshold
        self.num_signers = num_signers
        self.group = _GROUP

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> tuple[G2Element, list[Share]]:
        """Generate a group key pair and Shamir shares of the secret key.

        Returns:
            ``(group_public_key, secret_key_shares)`` where share ``i`` goes to
            signer ``i`` (1-indexed).
        """
        keypair = bls_keygen(seed)
        sharing = ShamirSecretSharing(self.threshold, self.num_signers, _SCALAR_FIELD)
        shares = sharing.split(keypair.secret_key)
        return keypair.public_key, shares

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def sign_share(self, share: Share, message: bytes) -> BlsSignatureShare:
        """Produce one signer's partial signature: ``sk_i · H(m)``."""
        return BlsSignatureShare(share.index, bls_sign(share.value, message))

    def verify_share(
        self, share_public_key: G2Element, message: bytes, signature_share: BlsSignatureShare
    ) -> bool:
        """Verify a single partial signature against that signer's public key share."""
        return bls_verify(share_public_key, message, signature_share.signature)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def combine(self, shares: list[BlsSignatureShare]) -> BlsSignature:
        """Combine at least ``t`` signature shares via Lagrange interpolation in the exponent."""
        if len(shares) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} signature shares, got {len(shares)}"
            )
        selected = shares[: self.threshold]
        indices = [s.signer_index for s in selected]
        if len(set(indices)) != len(indices):
            raise CryptoError("duplicate signer indices in signature shares")
        coefficients = self._lagrange_coefficients(indices)
        accumulator = self.group.g1_identity()
        for signature_share, coefficient in zip(selected, coefficients):
            term = self.group.multiply(signature_share.signature.element, coefficient)
            accumulator = self.group.add(accumulator, term)
        return BlsSignature(accumulator)

    def _lagrange_coefficients(self, indices: list[int]) -> list[int]:
        """Lagrange coefficients at zero for the given signer indices."""
        coefficients = []
        for i in indices:
            numerator = _SCALAR_FIELD.one()
            denominator = _SCALAR_FIELD.one()
            for j in indices:
                if i == j:
                    continue
                numerator = numerator * _SCALAR_FIELD(-j)
                denominator = denominator * _SCALAR_FIELD(i - j)
            coefficients.append((numerator * denominator.inverse()).value)
        return coefficients

    def verify(self, public_key: G2Element, message: bytes, signature: BlsSignature) -> bool:
        """Verify a combined threshold signature under the group public key."""
        return bls_verify(public_key, message, signature)
