"""Code packages, developer identities, and signed update manifests.

A *code package* is what the application developer ships: source (WVM assembly
or sandboxed Python), a language tag, a name, and a version. Its digest — the
hash clients compare across trust domains and look up in the public release
log — is the canonical-encoding digest of the whole package, so any change to
source or metadata changes the digest.

An *update manifest* is the signed envelope the framework requires before it
will switch to new code (§4.1 "each subsequent update needs to be accompanied
by a signature that verifies under the original public key"). Manifests carry
a strictly increasing sequence number so a compromised network cannot replay
or roll back updates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import SigningKey, VerifyingKey, generate_keypair
from repro.errors import UpdateRejectedError
from repro.wire.codec import canonical_digest, encode

__all__ = ["CodePackage", "UpdateManifest", "DeveloperIdentity"]

SUPPORTED_LANGUAGES = ("wvm", "python")


@dataclass(frozen=True)
class CodePackage:
    """One version of the developer's application code."""

    name: str
    version: str
    language: str
    source: str

    def __post_init__(self):
        if self.language not in SUPPORTED_LANGUAGES:
            raise UpdateRejectedError(
                f"unsupported package language {self.language!r}"
            )
        if not self.name or not self.version:
            raise UpdateRejectedError("package name and version are required")

    def to_dict(self) -> dict:
        """Plain-data form (this is also what gets digested and logged)."""
        return {
            "name": self.name,
            "version": self.version,
            "language": self.language,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodePackage":
        """Rebuild a package from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            version=str(data["version"]),
            language=str(data["language"]),
            source=str(data["source"]),
        )

    def digest(self) -> bytes:
        """The package digest recorded in digest logs and the release log."""
        return canonical_digest(self.to_dict())


@dataclass(frozen=True)
class UpdateManifest:
    """A signed instruction to install a specific package version."""

    package_name: str
    version: str
    sequence: int
    package_digest: bytes
    signature: bytes

    def signed_payload(self) -> bytes:
        """The canonical bytes the developer signs."""
        return encode({
            "package_name": self.package_name,
            "version": self.version,
            "sequence": self.sequence,
            "package_digest": self.package_digest,
        })

    def verify(self, developer_key: VerifyingKey) -> bool:
        """Verify the manifest signature under the developer's public key."""
        return developer_key.verify(self.signed_payload(), self.signature)

    def to_dict(self) -> dict:
        """Plain-data form for wire transfer and release-log entries."""
        return {
            "package_name": self.package_name,
            "version": self.version,
            "sequence": self.sequence,
            "package_digest": self.package_digest,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UpdateManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        return cls(
            package_name=str(data["package_name"]),
            version=str(data["version"]),
            sequence=int(data["sequence"]),
            package_digest=bytes(data["package_digest"]),
            signature=bytes(data["signature"]),
        )


class DeveloperIdentity:
    """The application developer's signing identity.

    The public half is sealed into every TEE at provisioning time; the private
    half signs update manifests. Compromise of this key lets the attacker
    *push updates* — but thanks to the digest logs, never silently.
    """

    def __init__(self, name: str, signing_key: SigningKey | None = None):
        self.name = name
        if signing_key is None:
            signing_key, _ = generate_keypair()
        self._signing_key = signing_key

    @property
    def public_key(self) -> VerifyingKey:
        """The verification key trust domains pin at provisioning time."""
        return self._signing_key.verifying_key()

    def sign_update(self, package: CodePackage, sequence: int) -> UpdateManifest:
        """Produce a signed update manifest for ``package`` at ``sequence``."""
        if sequence < 0:
            raise UpdateRejectedError("sequence numbers must be non-negative")
        manifest = UpdateManifest(
            package_name=package.name,
            version=package.version,
            sequence=sequence,
            package_digest=package.digest(),
            signature=b"",
        )
        signature = self._signing_key.sign(manifest.signed_payload())
        return UpdateManifest(
            package_name=manifest.package_name,
            version=manifest.version,
            sequence=manifest.sequence,
            package_digest=manifest.package_digest,
            signature=signature,
        )
