"""Code measurements.

A measurement is the digest the secure hardware computes over the code loaded
into the enclave at launch. Clients compare measurements against the digest of
the open-sourced framework code, and trust domains compare each other's
measurements when cross-auditing a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import sha256

__all__ = ["Measurement", "measure_code"]


@dataclass(frozen=True)
class Measurement:
    """A launch measurement: digest of the loaded code plus a version label."""

    digest: bytes
    code_size: int
    label: str = ""

    def hex(self) -> str:
        """Hex form of the digest (what a registry or log entry displays)."""
        return self.digest.hex()

    def to_dict(self) -> dict:
        """Plain-data form for wire transfer and logs."""
        return {"digest": self.digest.hex(), "code_size": self.code_size, "label": self.label}

    @classmethod
    def from_dict(cls, data: dict) -> "Measurement":
        """Rebuild a measurement from :meth:`to_dict` output."""
        return cls(bytes.fromhex(data["digest"]), int(data["code_size"]), str(data["label"]))


def measure_code(code: bytes, label: str = "") -> Measurement:
    """Measure a code blob the way the simulated hardware would at launch.

    The digest is domain-separated from ordinary content hashes so that a
    measurement can never be confused with, say, a log-entry digest.
    """
    digest = sha256(b"repro/enclave/measurement", label.encode("utf-8"), code)
    return Measurement(digest=digest, code_size=len(code), label=label)
