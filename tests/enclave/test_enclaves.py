"""Unit tests for the simulated Nitro-style and SGX-style enclaves."""

import dataclasses

import pytest

from repro.enclave.measurement import measure_code
from repro.enclave.memory import EnclaveMemory
from repro.enclave.nitro import NitroAttestationDocument, NitroStyleEnclave
from repro.enclave.sealing import SealedBlob
from repro.enclave.sgx import SgxQuote, SgxStyleEnclave
from repro.enclave.tee import HardwareType
from repro.enclave.vendor import HardwareVendor
from repro.errors import (
    EnclaveCompromisedError,
    EnclaveError,
    SandboxEscapeError,
    SealingError,
)

FRAMEWORK_CODE = b"def framework(): pass  # version 1"


def make_nitro(enclave_id="nitro-0") -> NitroStyleEnclave:
    return NitroStyleEnclave(enclave_id, HardwareVendor("aws-nitro-sim"), FRAMEWORK_CODE)


def make_sgx(enclave_id="sgx-0") -> SgxStyleEnclave:
    return SgxStyleEnclave(enclave_id, HardwareVendor("intel-sgx-sim"), FRAMEWORK_CODE)


class TestEnclaveBasics:
    def test_info(self):
        enclave = make_nitro()
        info = enclave.info()
        assert info.hardware_type == HardwareType.NITRO
        assert info.vendor_name == "aws-nitro-sim"
        assert info.measurement == measure_code(FRAMEWORK_CODE, "framework")

    def test_loaded_code_readable(self):
        assert make_nitro().loaded_code() == FRAMEWORK_CODE

    def test_call_requires_entry_point(self):
        with pytest.raises(EnclaveError):
            make_nitro().call("ping")

    def test_call_dispatches_to_entry_point(self):
        enclave = make_nitro()
        enclave.set_entry_point(lambda method, *args: (method, args))
        assert enclave.call("echo", 1, 2) == ("echo", (1, 2))

    def test_compromised_enclave_refuses_calls(self):
        enclave = make_nitro()
        enclave.set_entry_point(lambda method: "ok")
        enclave.mark_compromised()
        with pytest.raises(EnclaveCompromisedError):
            enclave.call("anything")

    def test_hardware_types_differ(self):
        assert make_nitro().hardware_type != make_sgx().hardware_type


class TestEnclaveMemory:
    def test_isolated_memory_blocks_host_reads(self):
        enclave = make_nitro()
        enclave.memory.write("secret", b"\x01\x02")
        assert enclave.memory.read("secret") == b"\x01\x02"
        with pytest.raises(SandboxEscapeError):
            enclave.memory.host_read("secret")

    def test_breach_allows_host_reads(self):
        enclave = make_nitro()
        enclave.memory.write("secret", b"\x01")
        enclave.mark_compromised()
        assert enclave.memory.host_read("secret") == b"\x01"
        assert enclave.memory.breached

    def test_non_isolated_memory_allows_host_reads(self):
        memory = EnclaveMemory(isolated=False)
        memory.write("k", 1)
        assert memory.host_read("k") == 1

    def test_wipe_and_delete(self):
        memory = EnclaveMemory()
        memory.write("a", 1)
        memory.write("b", 2)
        memory.delete("a")
        assert memory.read("a") is None
        memory.wipe()
        assert memory.keys() == []

    def test_keys_listing(self):
        memory = EnclaveMemory()
        memory.write("b", 1)
        memory.write("a", 2)
        assert memory.keys() == ["a", "b"]


class TestSealing:
    def test_seal_unseal_round_trip(self):
        enclave = make_nitro()
        blob = enclave.seal(b"developer public key bytes")
        assert enclave.unseal(blob) == b"developer public key bytes"

    def test_other_device_cannot_unseal(self):
        blob = make_nitro("a").seal(b"secret")
        with pytest.raises(SealingError):
            make_nitro("b").unseal(blob)

    def test_different_measurement_cannot_unseal(self):
        vendor = HardwareVendor("aws-nitro-sim")
        original = NitroStyleEnclave("x", vendor, FRAMEWORK_CODE)
        blob = original.seal(b"secret")
        patched = NitroStyleEnclave("x", vendor, FRAMEWORK_CODE + b" patched")
        with pytest.raises(SealingError):
            patched.unseal(blob)

    @pytest.mark.parametrize("part", ["ciphertext", "tag", "nonce"])
    def test_tampered_blob_rejected(self, part):
        enclave = make_nitro()
        blob = enclave.seal(b"payload")
        # Flip one bit of the last byte, so the blob always changes.
        value = getattr(blob, part)
        tampered = dataclasses.replace(
            blob, **{part: value[:-1] + bytes([value[-1] ^ 0x01])})
        with pytest.raises(SealingError):
            enclave.unseal(tampered)

    def test_blob_serialization_round_trip(self):
        enclave = make_nitro()
        blob = enclave.seal(b"some state")
        restored = SealedBlob.from_bytes(blob.to_bytes())
        assert enclave.unseal(restored) == b"some state"

    def test_blob_too_short_rejected(self):
        with pytest.raises(SealingError):
            SealedBlob.from_bytes(b"\x00" * 4)

    def test_empty_plaintext(self):
        enclave = make_nitro()
        assert enclave.unseal(enclave.seal(b"")) == b""


class TestNitroAttestation:
    def test_document_fields(self):
        enclave = make_nitro()
        document = enclave.attest(b"nonce-123", user_data=b"app-digest")
        assert document.nonce == b"nonce-123"
        assert document.user_data == b"app-digest"
        assert document.measurement_digest() == enclave.measurement.digest
        assert document.module_id == enclave.device_id

    def test_document_dict_round_trip(self):
        document = make_nitro().attest(b"n")
        assert NitroAttestationDocument.from_dict(document.to_dict()) == document

    def test_missing_pcr0_raises(self):
        document = make_nitro().attest(b"n")
        broken = NitroAttestationDocument(
            module_id=document.module_id,
            pcrs={"1": b"\x00"},
            nonce=document.nonce,
            user_data=document.user_data,
            certificate=document.certificate,
            signature=document.signature,
        )
        from repro.errors import AttestationError

        with pytest.raises(AttestationError):
            broken.measurement_digest()

    def test_compromised_enclave_refuses_to_attest(self):
        enclave = make_nitro()
        enclave.mark_compromised()
        with pytest.raises(EnclaveCompromisedError):
            enclave.attest(b"n")


class TestSgxAttestation:
    def test_quote_fields(self):
        enclave = make_sgx()
        quote = enclave.attest(b"nonce", user_data=b"user-data")
        assert quote.mrenclave == enclave.measurement.digest
        assert quote.nonce == b"nonce"
        assert quote.report_data == SgxStyleEnclave.expected_report_data(b"user-data")
        assert quote.isv_svn == SgxStyleEnclave.isv_svn

    def test_quote_dict_round_trip(self):
        quote = make_sgx().attest(b"n")
        assert SgxQuote.from_dict(quote.to_dict()) == quote

    def test_mrsigner_depends_on_vendor(self):
        a = make_sgx("a").attest(b"n")
        other_vendor = SgxStyleEnclave("b", HardwareVendor("other-sgx"), FRAMEWORK_CODE)
        b = other_vendor.attest(b"n")
        assert a.mrsigner != b.mrsigner
