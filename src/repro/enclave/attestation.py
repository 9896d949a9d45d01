"""Attestation verification.

The client-side half of the secure-hardware building block: given evidence
from a trust domain (a Nitro-style document or an SGX-style quote), check that

1. the device certificate chains to a trusted vendor root,
2. the evidence signature verifies under the certified device key,
3. the nonce matches the challenge the verifier issued (freshness),
4. the measurement matches the expected code digest, and
5. for SGX-style quotes, the report data matches the supplied user data.

The result distinguishes *why* verification failed so audits can produce
useful misbehavior evidence.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common import constant_time_equal
from repro.crypto.hashes import sha256
from repro.enclave.measurement import Measurement
from repro.enclave.nitro import NitroAttestationDocument
from repro.enclave.sgx import SgxQuote, SgxStyleEnclave
from repro.enclave.vendor import VendorRegistry
from repro.errors import AttestationError

__all__ = ["AttestationResult", "AttestationVerifier"]


@dataclass(frozen=True)
class AttestationResult:
    """Outcome of verifying one piece of attestation evidence."""

    valid: bool
    reason: str = ""
    vendor_name: str = ""
    measurement_digest: bytes = b""

    def __bool__(self) -> bool:
        return self.valid


class AttestationVerifier:
    """Verifies Nitro-style documents and SGX-style quotes against pinned roots."""

    def __init__(self, registry: VendorRegistry | None = None):
        self.registry = registry or VendorRegistry.default()
        # Memo of evidence signatures that already verified under a given
        # device key: audits and repeated attestation rounds re-present the
        # same immutable (key, payload, signature) triples, and signature
        # verification is a pure function of them. Keyed by digest to keep
        # entries small; only successes are cached (a failure re-verifies
        # every time) and the bound keeps memory flat.
        self._signature_memo: OrderedDict[bytes, bool] = OrderedDict()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def verify(self, evidence, nonce: bytes, expected_measurement: Measurement | None = None,
               user_data: bytes = b"") -> AttestationResult:
        """Verify any supported evidence type.

        Args:
            evidence: a :class:`NitroAttestationDocument` or :class:`SgxQuote`
                (or their ``to_dict`` form).
            nonce: the challenge the verifier sent.
            expected_measurement: the digest of the open-source framework code
                the enclave should be running, if the verifier knows it.
            user_data: the user data the enclave was asked to bind (e.g. the
                current application digest and log head).
        """
        if isinstance(evidence, dict):
            evidence = self._from_dict(evidence)
        if isinstance(evidence, NitroAttestationDocument):
            return self._verify_nitro(evidence, nonce, expected_measurement, user_data)
        if isinstance(evidence, SgxQuote):
            return self._verify_sgx(evidence, nonce, expected_measurement, user_data)
        return AttestationResult(False, reason=f"unsupported evidence type {type(evidence).__name__}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _from_dict(data: dict):
        fmt = data.get("format", "")
        if fmt == "nitro-attestation-v1":
            return NitroAttestationDocument.from_dict(data)
        if fmt == "sgx-quote-v1":
            return SgxQuote.from_dict(data)
        raise AttestationError(f"unknown attestation evidence format {fmt!r}")

    def _verify_common(self, evidence, nonce: bytes) -> AttestationResult | None:
        try:
            device_key = self.registry.verify_certificate(evidence.certificate)
        except AttestationError as exc:
            return AttestationResult(False, reason=str(exc))
        payload = evidence.signed_payload()
        memo_key = sha256(device_key.to_bytes() + evidence.signature + payload)
        if memo_key not in self._signature_memo:
            if not device_key.verify(payload, evidence.signature, scheme="ecdsa"):
                return AttestationResult(False, reason="evidence signature invalid",
                                         vendor_name=evidence.certificate.vendor_name)
            self._signature_memo[memo_key] = True
            while len(self._signature_memo) > 4096:
                self._signature_memo.popitem(last=False)
        if not constant_time_equal(evidence.nonce, nonce):
            return AttestationResult(False, reason="nonce mismatch (possible replay)",
                                     vendor_name=evidence.certificate.vendor_name)
        return None

    def _verify_nitro(self, document: NitroAttestationDocument, nonce: bytes,
                      expected: Measurement | None, user_data: bytes) -> AttestationResult:
        failure = self._verify_common(document, nonce)
        if failure is not None:
            return failure
        vendor = document.certificate.vendor_name
        if user_data and not constant_time_equal(document.user_data, user_data):
            return AttestationResult(False, reason="user data mismatch", vendor_name=vendor)
        digest = document.measurement_digest()
        if expected is not None and not constant_time_equal(digest, expected.digest):
            return AttestationResult(False, reason="measurement mismatch", vendor_name=vendor,
                                     measurement_digest=digest)
        return AttestationResult(True, vendor_name=vendor, measurement_digest=digest)

    def _verify_sgx(self, quote: SgxQuote, nonce: bytes,
                    expected: Measurement | None, user_data: bytes) -> AttestationResult:
        failure = self._verify_common(quote, nonce)
        if failure is not None:
            return failure
        vendor = quote.certificate.vendor_name
        expected_report = SgxStyleEnclave.expected_report_data(user_data)
        if not constant_time_equal(quote.report_data, expected_report):
            return AttestationResult(False, reason="report data mismatch", vendor_name=vendor)
        digest = quote.measurement_digest()
        if expected is not None and not constant_time_equal(digest, expected.digest):
            return AttestationResult(False, reason="measurement mismatch", vendor_name=vendor,
                                     measurement_digest=digest)
        return AttestationResult(True, vendor_name=vendor, measurement_digest=digest)
