"""Key types used throughout the framework.

A :class:`SigningKey` wraps a secp256k1 scalar; a :class:`VerifyingKey` wraps
the corresponding curve point. Both Schnorr (default) and ECDSA signatures are
exposed through convenience methods, so the rest of the code base can pass key
objects around without caring about the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.secp256k1 import SECP256K1, Point
from repro.errors import CryptoError

__all__ = ["SigningKey", "VerifyingKey", "generate_keypair"]


@dataclass(frozen=True)
class VerifyingKey:
    """A public verification key (a secp256k1 point)."""

    point: Point

    def to_bytes(self) -> bytes:
        """Serialize as a compressed SEC 1 point."""
        return SECP256K1.encode_point(self.point, compressed=True)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        """Deserialize from a compressed SEC 1 point."""
        return cls(SECP256K1.decode_point(data))

    def fingerprint(self) -> str:
        """A short hex identifier for logs and registry entries."""
        from repro.crypto.hashes import sha256

        return sha256(self.to_bytes()).hex()[:16]

    def verify(self, message: bytes, signature: bytes, scheme: str = "schnorr") -> bool:
        """Verify a signature produced by :meth:`SigningKey.sign`.

        Args:
            message: signed message bytes.
            signature: serialized signature.
            scheme: ``"schnorr"`` or ``"ecdsa"``.
        """
        if scheme == "schnorr":
            from repro.crypto.schnorr import SchnorrSignature, schnorr_verify

            return schnorr_verify(self, message, SchnorrSignature.from_bytes(signature))
        if scheme == "ecdsa":
            from repro.crypto.ecdsa import EcdsaSignature, ecdsa_verify

            return ecdsa_verify(self, message, EcdsaSignature.from_bytes(signature))
        raise CryptoError(f"unknown signature scheme {scheme!r}")


@dataclass(frozen=True)
class SigningKey:
    """A private signing key (a secp256k1 scalar)."""

    scalar: int

    def __post_init__(self):
        if not 1 <= self.scalar < SECP256K1.n:
            raise CryptoError("signing key scalar out of range")

    @classmethod
    def generate(cls) -> "SigningKey":
        """Sample a fresh uniformly random signing key."""
        from repro.crypto.rng import randbelow

        return cls(1 + randbelow(SECP256K1.n - 1))

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        """Derive a deterministic key from a seed (used by simulated vendors)."""
        from repro.crypto.hashes import hash_to_int

        scalar = hash_to_int(seed, SECP256K1.n - 1, tag="repro/key-from-seed") + 1
        return cls(scalar)

    def verifying_key(self) -> VerifyingKey:
        """Return the matching public key (one EC multiply per key object)."""
        return self._verifying_key

    @cached_property
    def _verifying_key(self) -> VerifyingKey:
        return VerifyingKey(SECP256K1.generator_multiply(self.scalar))

    def to_bytes(self) -> bytes:
        """Serialize the scalar as 32 big-endian bytes."""
        return self.scalar.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SigningKey":
        """Deserialize a 32-byte big-endian scalar."""
        if len(data) != 32:
            raise CryptoError("signing key must be 32 bytes")
        return cls(int.from_bytes(data, "big"))

    def sign(self, message: bytes, scheme: str = "schnorr") -> bytes:
        """Sign a message and return the serialized signature.

        Args:
            message: message bytes to sign.
            scheme: ``"schnorr"`` (default) or ``"ecdsa"``.
        """
        if scheme == "schnorr":
            from repro.crypto.schnorr import schnorr_sign

            return schnorr_sign(self, message).to_bytes()
        if scheme == "ecdsa":
            from repro.crypto.ecdsa import ecdsa_sign

            return ecdsa_sign(self, message).to_bytes()
        raise CryptoError(f"unknown signature scheme {scheme!r}")


def generate_keypair() -> tuple[SigningKey, VerifyingKey]:
    """Generate a fresh (signing key, verifying key) pair."""
    sk = SigningKey.generate()
    return sk, sk.verifying_key()
