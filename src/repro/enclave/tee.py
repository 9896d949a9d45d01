"""The base trusted-execution-environment abstraction.

A simulated enclave is provisioned on a *device* certified by a hardware
vendor, loads a code blob (the application-independent framework in the
paper's design), and then exposes exactly the narrow interface real TEEs do:

* :meth:`attest` — produce a signed statement binding the launch measurement,
  a caller-chosen nonce, and optional user data (e.g. the current application
  digest and log head);
* :meth:`seal` / :meth:`unseal` — persist state bound to this device and
  measurement;
* :meth:`call` — invoke the loaded code through its entry point. The host
  never touches enclave memory directly.

Concrete subclasses (:class:`~repro.enclave.nitro.NitroStyleEnclave`,
:class:`~repro.enclave.sgx.SgxStyleEnclave`) differ in their attestation
evidence formats, mirroring the heterogeneous-hardware deployments the paper
recommends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.hashes import hkdf
from repro.enclave.measurement import Measurement, measure_code
from repro.enclave.memory import EnclaveMemory
from repro.enclave.sealing import SealedBlob, seal, unseal
from repro.enclave.vendor import HardwareVendor, VendorCertificate
from repro.errors import EnclaveCompromisedError, EnclaveError

__all__ = ["HardwareType", "EnclaveInfo", "EnclaveBase"]


class HardwareType(str, enum.Enum):
    """The kind of secure hardware backing a trust domain."""

    NITRO = "nitro"
    SGX = "sgx"
    NONE = "none"  # trust domain 0: the developer's own machine, no TEE


@dataclass(frozen=True)
class EnclaveInfo:
    """Static facts about an enclave instance, safe to share with clients."""

    enclave_id: str
    hardware_type: HardwareType
    vendor_name: str
    device_id: str
    measurement: Measurement


class EnclaveBase:
    """Common behaviour shared by all simulated TEEs."""

    hardware_type: HardwareType = HardwareType.NONE

    def __init__(self, enclave_id: str, vendor: HardwareVendor, code: bytes,
                 code_label: str = "framework"):
        self.enclave_id = enclave_id
        self.vendor = vendor
        self.device_id = f"{vendor.name}/{enclave_id}"
        self._device_key, self._certificate = vendor.provision_device(self.device_id)
        # Device-unique secret, the root of the sealing-key hierarchy.
        self._device_secret = hkdf(
            self.device_id.encode("utf-8"), info=b"repro/enclave/device-secret", length=32
        )
        self._code = bytes(code)
        self.measurement = measure_code(code, code_label)
        self.memory = EnclaveMemory(isolated=True)
        self._entry_point: Optional[Callable] = None
        self.compromised = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def certificate(self) -> VendorCertificate:
        """This device's vendor-issued certificate."""
        return self._certificate

    def info(self) -> EnclaveInfo:
        """Client-visible facts about the enclave."""
        return EnclaveInfo(
            enclave_id=self.enclave_id,
            hardware_type=self.hardware_type,
            vendor_name=self.vendor.name,
            device_id=self.device_id,
            measurement=self.measurement,
        )

    def loaded_code(self) -> bytes:
        """The code blob sealed into the enclave at launch (public by design)."""
        return self._code

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def set_entry_point(self, entry_point: Callable) -> None:
        """Install the callable that represents the loaded code's entry point.

        In a real TEE the loaded binary *is* the entry point; in the simulation
        the framework object registers itself here after being constructed from
        the measured code blob.
        """
        self._entry_point = entry_point

    def call(self, method: str, *args, **kwargs):
        """Invoke the loaded code through the enclave boundary."""
        self._check_operational()
        if self._entry_point is None:
            raise EnclaveError(f"enclave {self.enclave_id} has no code entry point installed")
        return self._entry_point(method, *args, **kwargs)

    def _check_operational(self) -> None:
        if self.compromised:
            raise EnclaveCompromisedError(
                f"enclave {self.enclave_id} is marked compromised"
            )

    # ------------------------------------------------------------------
    # Attestation (evidence format supplied by subclasses)
    # ------------------------------------------------------------------
    def attest(self, nonce: bytes, user_data: bytes = b""):
        """Produce attestation evidence binding measurement, nonce, and user data."""
        raise NotImplementedError

    def _sign_evidence(self, payload: bytes) -> bytes:
        """Sign evidence with the device attestation key (ECDSA, like real vendors)."""
        return self._device_key.sign(payload, scheme="ecdsa")

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def seal(self, plaintext: bytes) -> SealedBlob:
        """Seal data to this device and measurement."""
        return seal(self._device_secret, self.measurement, plaintext)

    def unseal(self, blob: SealedBlob) -> bytes:
        """Unseal data previously sealed by this enclave."""
        return unseal(self._device_secret, self.measurement, blob)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def mark_compromised(self) -> None:
        """Simulate a TEE exploit: isolation fails and operations are refused."""
        self.compromised = True
        self.memory.breach()
