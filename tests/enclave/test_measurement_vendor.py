"""Unit tests for code measurement and the simulated vendor PKI."""

import pytest

from repro.enclave.measurement import Measurement, measure_code
from repro.enclave.vendor import HardwareVendor, VendorCertificate, VendorRegistry
from repro.errors import AttestationError


class TestMeasurement:
    def test_deterministic(self):
        assert measure_code(b"code") == measure_code(b"code")

    def test_different_code_different_digest(self):
        assert measure_code(b"a").digest != measure_code(b"b").digest

    def test_label_separates_measurements(self):
        assert measure_code(b"code", "v1") != measure_code(b"code", "v2")

    def test_matches(self):
        m = measure_code(b"framework", "fw")
        assert measure_code(b"framework", "fw") == m
        assert measure_code(b"other", "fw") != m

    def test_code_size_recorded(self):
        assert measure_code(b"12345").code_size == 5

    def test_hex(self):
        m = measure_code(b"x")
        assert m.hex() == m.digest.hex()

    def test_dict_round_trip(self):
        m = measure_code(b"x", "label")
        assert Measurement.from_dict(m.to_dict()) == m

    def test_measurement_differs_from_plain_sha256(self):
        import hashlib

        assert measure_code(b"x").digest != hashlib.sha256(b"x").digest()


class TestVendor:
    def test_root_key_deterministic_by_name(self):
        assert HardwareVendor("v").root_public_key == HardwareVendor("v").root_public_key
        assert HardwareVendor("v").root_public_key != HardwareVendor("w").root_public_key

    def test_provision_device_returns_certified_key(self):
        vendor = HardwareVendor("aws-nitro-sim")
        device_key, certificate = vendor.provision_device("device-1")
        registry = VendorRegistry([vendor])
        certified = registry.verify_certificate(certificate)
        assert certified == device_key.verifying_key()

    def test_issued_devices_tracked(self):
        vendor = HardwareVendor("v")
        vendor.provision_device("a")
        vendor.provision_device("b")
        assert vendor.issued_devices() == ["a", "b"]

    def test_mark_compromised(self):
        vendor = HardwareVendor("v")
        assert not vendor.compromised
        vendor.mark_compromised()
        assert vendor.compromised


class TestVendorRegistry:
    def test_unknown_vendor_rejected(self):
        registry = VendorRegistry()
        with pytest.raises(AttestationError):
            registry.get("nope")

    def test_names(self):
        registry = VendorRegistry.default()
        assert registry.names() == ["aws-nitro-sim", "intel-sgx-sim"]

    def test_forged_certificate_rejected(self):
        vendor = HardwareVendor("real")
        impostor = HardwareVendor("real-impostor")
        _, certificate = impostor.provision_device("dev")
        forged = VendorCertificate(
            vendor_name="real",
            device_id=certificate.device_id,
            device_public_key=certificate.device_public_key,
            signature=certificate.signature,
        )
        registry = VendorRegistry([vendor])
        with pytest.raises(AttestationError):
            registry.verify_certificate(forged)

    def test_tampered_device_key_rejected(self):
        vendor = HardwareVendor("v")
        _, certificate = vendor.provision_device("dev")
        other_key, _ = vendor.provision_device("other")
        tampered = VendorCertificate(
            vendor_name=certificate.vendor_name,
            device_id=certificate.device_id,
            device_public_key=other_key.verifying_key().to_bytes(),
            signature=certificate.signature,
        )
        registry = VendorRegistry([vendor])
        with pytest.raises(AttestationError):
            registry.verify_certificate(tampered)

    def test_certificate_dict_round_trip(self):
        vendor = HardwareVendor("v")
        _, certificate = vendor.provision_device("dev")
        assert VendorCertificate.from_dict(certificate.to_dict()) == certificate
