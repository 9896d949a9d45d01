"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CryptoError",
    "InvalidPointError",
    "SecretSharingError",
    "ThresholdError",
    "EncodingError",
    "DecodingError",
    "NetworkError",
    "TransportClosedError",
    "RpcError",
    "TimeoutError",
    "SimulationError",
    "EnclaveError",
    "AttestationError",
    "SealingError",
    "EnclaveCompromisedError",
    "SandboxError",
    "SandboxEscapeError",
    "FuelExhaustedError",
    "MemoryLimitError",
    "WvmTrapError",
    "AssemblerError",
    "LogError",
    "LogConsistencyError",
    "InclusionProofError",
    "SplitViewError",
    "EpochBundleError",
    "FrameworkError",
    "UpdateRejectedError",
    "UnauthorizedUpdateError",
    "DeploymentError",
    "ServiceSpecError",
    "ReshardError",
    "InvalidReshardError",
    "KeyMigratingError",
    "AuditError",
    "MisbehaviorDetected",
    "ApplicationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidPointError(CryptoError):
    """A byte string did not decode to a valid group element or curve point."""


class SecretSharingError(CryptoError):
    """A secret-sharing operation received malformed or inconsistent shares."""


class ThresholdError(CryptoError):
    """Not enough shares (or partial signatures) were supplied to reconstruct."""


# ---------------------------------------------------------------------------
# Encoding / wire format
# ---------------------------------------------------------------------------

class EncodingError(ReproError):
    """A value could not be encoded into the canonical wire format."""


class DecodingError(ReproError):
    """A byte string could not be decoded from the canonical wire format."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class TransportClosedError(NetworkError):
    """An endpoint attempted to use a transport that has been closed."""


class RpcError(NetworkError):
    """An RPC call failed at the application layer on the remote side."""


class TimeoutError(NetworkError):  # noqa: A001 - deliberate shadowing inside package
    """A blocking network operation exceeded its deadline."""


class SimulationError(NetworkError):
    """The discrete-event simulation itself misbehaved (e.g. a non-quiescing
    event loop exceeded its event budget)."""


# ---------------------------------------------------------------------------
# Enclaves / secure hardware
# ---------------------------------------------------------------------------

class EnclaveError(ReproError):
    """Base class for simulated secure-hardware failures."""


class AttestationError(EnclaveError):
    """An attestation document or quote failed verification."""


class SealingError(EnclaveError):
    """Sealed data could not be recovered (wrong enclave, corrupted blob, ...)."""


class EnclaveCompromisedError(EnclaveError):
    """An operation was attempted on an enclave marked as exploited."""


# ---------------------------------------------------------------------------
# Sandbox
# ---------------------------------------------------------------------------

class SandboxError(ReproError):
    """Base class for sandbox failures."""


class SandboxEscapeError(SandboxError):
    """Sandboxed code attempted to access state outside the sandbox."""


class FuelExhaustedError(SandboxError):
    """The sandboxed program ran out of execution fuel."""


class MemoryLimitError(SandboxError):
    """The sandboxed program exceeded its linear-memory limit."""


class WvmTrapError(SandboxError):
    """The WVM interpreter trapped (invalid opcode, stack underflow, ...)."""


class AssemblerError(SandboxError):
    """WVM assembly text could not be assembled into a module."""


# ---------------------------------------------------------------------------
# Transparency log
# ---------------------------------------------------------------------------

class LogError(ReproError):
    """Base class for append-only log failures."""


class LogConsistencyError(LogError):
    """A consistency proof between two tree heads failed to verify."""


class InclusionProofError(LogError):
    """An inclusion proof failed to verify."""


class SplitViewError(LogError):
    """Two views of the same log are mutually inconsistent (equivocation)."""


class EpochBundleError(LogError):
    """An epoch transparency bundle or its artifact is structurally malformed.

    Raised while *parsing* an untrusted artifact (missing fields, bad hex,
    negative counts). Verification failures of a well-formed artifact are not
    exceptions — they come back as failing checks in a
    :class:`repro.transparency.auditor.VerificationReport`.
    """


# ---------------------------------------------------------------------------
# Core framework
# ---------------------------------------------------------------------------

class FrameworkError(ReproError):
    """Base class for failures in the application-independent framework."""


class UpdateRejectedError(FrameworkError):
    """A code update was rejected (bad format, replayed version, ...)."""


class UnauthorizedUpdateError(UpdateRejectedError):
    """A code update's signature did not verify under the sealed developer key."""


class ServiceSpecError(FrameworkError):
    """A declarative service specification is invalid or cannot be synthesized."""


class DeploymentError(FrameworkError):
    """A deployment could not be created or modified."""


class ReshardError(FrameworkError):
    """A live resharding operation could not be performed."""


class InvalidReshardError(ReshardError):
    """A requested shard-count transition is degenerate (``n < 1``, ``n`` equal
    to the current count, or a plane still draining a previous shrink).

    Raised during validation, strictly before any shard is synthesized or any
    record moves — a degenerate request must leave the plane untouched.
    """


class KeyMigratingError(ReshardError):
    """A keyed request arrived while its key was mid-migration.

    This is the *fail-safe* outcome of the epoch router: during a reshard a
    moving key briefly has no authoritative owner, so routing refuses rather
    than silently serving from (or writing to) the wrong shard. Callers retry
    after the epoch flips.
    """


class AuditError(FrameworkError):
    """A client or auditor audit could not be completed."""


class MisbehaviorDetected(AuditError):
    """An audit detected misbehavior; carries publicly verifiable evidence.

    Attributes:
        evidence: the :class:`repro.core.evidence.MisbehaviorEvidence` object
            describing the misbehavior, or ``None`` when evidence could not be
            assembled.
    """

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

class ApplicationError(ReproError):
    """Base class for failures in the bundled example applications."""
