"""Unit tests for attestation verification and exploit campaigns."""

import pytest

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import DeveloperIdentity
from repro.enclave.attestation import AttestationVerifier
from repro.enclave.measurement import measure_code
from repro.enclave.nitro import NitroAttestationDocument, NitroStyleEnclave
from repro.enclave.sgx import SgxQuote, SgxStyleEnclave
from repro.enclave.vendor import HardwareVendor, VendorRegistry
from repro.errors import AttestationError
from repro.sim.adversary import VendorExploit, attacker_reach

FRAMEWORK_CODE = b"framework code v1"


def setup_pair():
    nitro_vendor = HardwareVendor("aws-nitro-sim")
    sgx_vendor = HardwareVendor("intel-sgx-sim")
    registry = VendorRegistry([nitro_vendor, sgx_vendor])
    nitro = NitroStyleEnclave("nitro-0", nitro_vendor, FRAMEWORK_CODE, code_label="framework")
    sgx = SgxStyleEnclave("sgx-0", sgx_vendor, FRAMEWORK_CODE, code_label="framework")
    verifier = AttestationVerifier(registry)
    return nitro, sgx, verifier


class TestNitroVerification:
    def test_valid_document_accepted(self):
        nitro, _, verifier = setup_pair()
        expected = measure_code(FRAMEWORK_CODE, "framework")
        document = nitro.attest(b"challenge", user_data=b"state")
        result = verifier.verify(document, b"challenge", expected, user_data=b"state")
        assert result.valid
        assert result.vendor_name == "aws-nitro-sim"
        assert result.measurement_digest == expected.digest

    def test_dict_form_accepted(self):
        nitro, _, verifier = setup_pair()
        document = nitro.attest(b"challenge")
        assert verifier.verify(document.to_dict(), b"challenge").valid

    def test_wrong_nonce_rejected(self):
        nitro, _, verifier = setup_pair()
        document = nitro.attest(b"challenge")
        result = verifier.verify(document, b"other-challenge")
        assert not result.valid
        assert "nonce" in result.reason

    def test_wrong_measurement_rejected(self):
        nitro, _, verifier = setup_pair()
        document = nitro.attest(b"c")
        expected = measure_code(b"some other code", "framework")
        result = verifier.verify(document, b"c", expected)
        assert not result.valid
        assert "measurement" in result.reason

    def test_wrong_user_data_rejected(self):
        nitro, _, verifier = setup_pair()
        document = nitro.attest(b"c", user_data=b"claimed-state")
        result = verifier.verify(document, b"c", user_data=b"different-state")
        assert not result.valid

    def test_untrusted_vendor_rejected(self):
        rogue_vendor = HardwareVendor("rogue-cloud")
        enclave = NitroStyleEnclave("rogue-0", rogue_vendor, FRAMEWORK_CODE)
        _, _, verifier = setup_pair()
        result = verifier.verify(enclave.attest(b"c"), b"c")
        assert not result.valid

    def test_tampered_signature_rejected(self):
        nitro, _, verifier = setup_pair()
        document = nitro.attest(b"c")
        forged = NitroAttestationDocument(
            module_id=document.module_id,
            pcrs=dict(document.pcrs, **{"0": b"\x00" * 32}),
            nonce=document.nonce,
            user_data=document.user_data,
            certificate=document.certificate,
            signature=document.signature,
        )
        result = verifier.verify(forged, b"c")
        assert not result.valid
        assert "signature" in result.reason


class TestSgxVerification:
    def test_valid_quote_accepted(self):
        _, sgx, verifier = setup_pair()
        expected = measure_code(FRAMEWORK_CODE, "framework")
        quote = sgx.attest(b"nonce", user_data=b"state")
        result = verifier.verify(quote, b"nonce", expected, user_data=b"state")
        assert result.valid
        assert result.vendor_name == "intel-sgx-sim"

    def test_report_data_mismatch_rejected(self):
        _, sgx, verifier = setup_pair()
        quote = sgx.attest(b"nonce", user_data=b"actual")
        result = verifier.verify(quote, b"nonce", user_data=b"claimed")
        assert not result.valid
        assert "report data" in result.reason

    def test_dict_form_accepted(self):
        _, sgx, verifier = setup_pair()
        quote = sgx.attest(b"n")
        assert verifier.verify(quote.to_dict(), b"n").valid

    def test_unknown_format_rejected(self):
        _, _, verifier = setup_pair()
        with pytest.raises(AttestationError):
            verifier.verify({"format": "tpm-quote"}, b"n")

    def test_unsupported_evidence_type_rejected(self):
        _, _, verifier = setup_pair()
        assert not verifier.verify(object(), b"n").valid


class TestExploitCampaign:
    """TEE exploits against a deployment: one vendor's enclaves at once
    (``VendorExploit``) or one TEE alone (``TrustDomain.compromise``), and
    what the attacker then reads (``attacker_reach``)."""

    @staticmethod
    def _deployment(num_domains=5, heterogeneous=True):
        # Domain 0 is the developer's; the enclaves cycle Nitro, SGX, ...
        return Deployment("exploit", DeveloperIdentity("exploit-dev"),
                          DeploymentConfig(num_domains=num_domains,
                                           heterogeneous=heterogeneous))

    @staticmethod
    def _ids(deployment, indices):
        return [deployment.domains[i].domain_id for i in indices]

    def test_vendor_exploit_is_correlated(self):
        deployment = self._deployment()
        outcome = VendorExploit(deployment).exploit("aws-nitro-sim")
        assert outcome.domains_breached == self._ids(deployment, (1, 3))
        assert outcome.domains_resisted == self._ids(deployment, (2, 4))
        assert all(deployment.domains[i].enclave.compromised for i in (1, 3))
        assert deployment.domains[1].enclave.vendor.compromised
        (reach,) = attacker_reach(deployment)
        assert reach.domains_breached == self._ids(deployment, (0, 1, 3))

    def test_heterogeneous_deployment_survives_single_vendor_exploit(self):
        deployment = self._deployment(num_domains=3)
        VendorExploit(deployment).exploit("intel-sgx-sim")
        # One honest (uncompromised) domain remains on the other vendor.
        (reach,) = attacker_reach(deployment)
        assert reach.domains_resisted == self._ids(deployment, (1,))

    def test_single_exploit_affects_one_enclave(self):
        deployment = self._deployment(num_domains=4)
        deployment.domains[2].compromise()
        (reach,) = attacker_reach(deployment)
        assert reach.domains_breached == self._ids(deployment, (0, 2))
        assert reach.domains_resisted == self._ids(deployment, (1, 3))

    def test_breaks_threshold(self):
        # A homogeneous deployment: both enclaves fall to one Nitro exploit,
        # leaving only the developer's domain honest.
        homogeneous = self._deployment(num_domains=3, heterogeneous=False)
        assert not VendorExploit(homogeneous).defeats_application(
            "aws-nitro-sim", honest_required=1)
        assert VendorExploit(homogeneous).defeats_application(
            "aws-nitro-sim", honest_required=2)
        (reach,) = attacker_reach(homogeneous)
        assert reach.breached_count == 3 and not reach.domains_resisted

    def test_enclaves_fallen_earlier_count_against_the_threshold(self):
        # The SGX enclave fell on its own; a Nitro exploit then leaves only
        # the developer's domain honest.
        deployment = self._deployment(num_domains=3)
        deployment.domains[2].compromise()
        assert VendorExploit(deployment).defeats_application(
            "aws-nitro-sim", honest_required=2)
