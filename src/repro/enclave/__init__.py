"""Simulated secure hardware (trusted execution environments).

The paper's first building block is secure hardware that "should be able to
attest to the code that is running" (§3.1). Real TEEs (AWS Nitro, Intel SGX)
are not available in this environment, so this package provides simulated
equivalents that expose the same artifacts a client verifies in a real
deployment:

* a *measurement* of the code loaded into the enclave,
* an *attestation document* (Nitro style, with PCRs and a vendor certificate
  chain) or a *quote* (SGX style, with MRENCLAVE/MRSIGNER) signed by a
  simulated hardware vendor's key,
* *sealed storage* bound to the enclave's measurement and device secret,
* an isolated-memory model the host cannot read until an exploit breaches
  it (:meth:`EnclaveBase.mark_compromised`; the attacks themselves, such as
  a vendor-wide exploit, live in :mod:`repro.sim.adversary`).

See docs/architecture.md ("Simulated substitutions") for the rationale.
"""

from repro.enclave.measurement import Measurement, measure_code
from repro.enclave.vendor import HardwareVendor, VendorCertificate, VendorRegistry
from repro.enclave.tee import EnclaveBase, EnclaveInfo, HardwareType
from repro.enclave.nitro import NitroStyleEnclave, NitroAttestationDocument
from repro.enclave.sgx import SgxStyleEnclave, SgxQuote
from repro.enclave.attestation import AttestationVerifier, AttestationResult
from repro.enclave.sealing import SealedBlob, seal, unseal
from repro.enclave.memory import EnclaveMemory

__all__ = [
    "Measurement",
    "measure_code",
    "HardwareVendor",
    "VendorCertificate",
    "VendorRegistry",
    "EnclaveBase",
    "EnclaveInfo",
    "HardwareType",
    "NitroStyleEnclave",
    "NitroAttestationDocument",
    "SgxStyleEnclave",
    "SgxQuote",
    "AttestationVerifier",
    "AttestationResult",
    "SealedBlob",
    "seal",
    "unseal",
    "EnclaveMemory",
]
