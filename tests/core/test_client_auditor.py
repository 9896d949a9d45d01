"""Integration tests for the auditing client, third-party auditor, and evidence."""

import pytest

from repro.core.auditor import ThirdPartyAuditor
from repro.core.client import AuditingClient
from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.evidence import AttestationFailureEvidence
from repro.core.package import CodePackage, DeveloperIdentity
from repro.core.trust_domain import expected_framework_measurement
from repro.enclave.attestation import AttestationVerifier
from repro.errors import MisbehaviorDetected
from repro.sandbox.programs import bls_share_source


def wvm_package(version="1.0.0", extra=""):
    return CodePackage("custody", version, "wvm", bls_share_source() + extra)


def make_deployment(num_domains=3):
    developer = DeveloperIdentity("acme")
    deployment = Deployment("audited", developer, DeploymentConfig(num_domains=num_domains))
    deployment.publish_and_install(wvm_package())
    return developer, deployment


class TestHonestDeployment:
    def test_audit_passes(self):
        _, deployment = make_deployment()
        client = AuditingClient(deployment.vendor_registry)
        report = client.audit_deployment(deployment)
        assert report.ok
        assert report.checked_against_release_log
        assert report.agreed_digest == wvm_package().digest()
        assert all(result.ok for result in report.domain_results)
        enclave_results = [r for r in report.domain_results if r.hardware_type != "none"]
        assert all(result.attested for result in enclave_results)

    def test_audit_or_raise_passes(self):
        _, deployment = make_deployment()
        client = AuditingClient(deployment.vendor_registry)
        assert client.audit_or_raise(deployment).ok

    def test_audit_after_legitimate_update_passes(self):
        _, deployment = make_deployment()
        deployment.publish_and_install(wvm_package("1.1.0", extra="\n; bugfix"))
        client = AuditingClient(deployment.vendor_registry)
        report = client.audit_deployment(deployment)
        assert report.ok
        assert all(result.log_length == 2 for result in report.domain_results)

    def test_third_party_auditor_agrees(self):
        _, deployment = make_deployment()
        auditor = ThirdPartyAuditor("eff", deployment)
        auditor.run_audit()
        assert auditor.deployment_healthy


class TestMisbehaviorDetection:
    def test_unpublished_code_in_the_log_history_detected(self):
        """Every domain ran an unpublished build before the current,
        published release: the domains agree and their current digest is
        published, but the log history still fails the release check."""
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; exfiltrate keys")
        clean = wvm_package("1.1.0", extra="\n; bugfix")
        rogue_manifest = developer.sign_update(rogue, 1)
        clean_manifest = developer.sign_update(clean, 2)
        deployment.registry.publish(clean, clean_manifest)
        for index in range(len(deployment.domains)):
            deployment.install_on_domain(index, rogue_manifest, rogue)
            deployment.install_on_domain(index, clean_manifest, clean)

        report = AuditingClient(deployment.vendor_registry).audit_deployment(deployment)
        assert not report.ok
        assert all(result.ok and result.app_digest == clean.digest()
                   for result in report.domain_results)
        unpublished = [e for e in report.evidence if e.kind == "unpublished-code"]
        assert len(unpublished) == len(deployment.domains)

    def test_partial_malicious_update_detected(self):
        """A (compromised) developer updates only one domain with unpublished code."""
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; exfiltrate keys")
        rogue_manifest = developer.sign_update(rogue, deployment.current_sequence + 1)
        deployment.install_on_domain(1, rogue_manifest, rogue)

        client = AuditingClient(deployment.vendor_registry)
        report = client.audit_deployment(deployment)
        assert not report.ok
        kinds = {evidence.kind for evidence in report.evidence}
        assert "digest-mismatch" in kinds
        assert "unpublished-code" in kinds

    def test_digest_mismatch_evidence_is_publicly_verifiable(self):
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; backdoor")
        deployment.install_on_domain(
            2, developer.sign_update(rogue, deployment.current_sequence + 1), rogue
        )
        client = AuditingClient(deployment.vendor_registry)
        report = client.audit_deployment(deployment)
        verifier = AttestationVerifier(deployment.vendor_registry)
        mismatches = [e for e in report.evidence if e.kind == "digest-mismatch"]
        assert mismatches
        for evidence in mismatches:
            assert evidence.verify(verifier, expected_framework_measurement())

    def test_audit_or_raise_carries_evidence(self):
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; rogue")
        deployment.install_on_domain(
            1, developer.sign_update(rogue, deployment.current_sequence + 1), rogue
        )
        client = AuditingClient(deployment.vendor_registry)
        with pytest.raises(MisbehaviorDetected):
            client.audit_or_raise(deployment)

    def test_wrong_framework_measurement_detected(self):
        """A domain running modified framework code fails attestation."""
        _, deployment = make_deployment()
        from repro.enclave.measurement import measure_code

        wrong_expectation = measure_code(b"definitely not the framework", "repro-framework")
        client = AuditingClient(deployment.vendor_registry,
                                expected_measurement=wrong_expectation)
        report = client.audit_deployment(deployment)
        assert not report.ok
        failures = report.failures()
        assert failures
        assert all("attestation invalid" in f.reason for f in failures)
        assert any(isinstance(e, AttestationFailureEvidence) for e in report.evidence)

    def test_attestation_failure_evidence_verifiable(self):
        _, deployment = make_deployment()
        from repro.enclave.measurement import measure_code

        wrong_expectation = measure_code(b"not the framework", "repro-framework")
        client = AuditingClient(deployment.vendor_registry,
                                expected_measurement=wrong_expectation)
        report = client.audit_deployment(deployment)
        verifier = AttestationVerifier(deployment.vendor_registry)
        attestation_evidence = [e for e in report.evidence
                                if isinstance(e, AttestationFailureEvidence)]
        assert attestation_evidence
        for evidence in attestation_evidence:
            assert evidence.verify(verifier, wrong_expectation)

    def test_untrusted_vendor_detected(self):
        """A deployment on hardware the client does not trust fails the audit."""
        from repro.enclave.vendor import HardwareVendor, VendorRegistry

        developer = DeveloperIdentity("acme")
        deployment = Deployment(
            "rogue-cloud", developer, DeploymentConfig(num_domains=2),
            vendors=[HardwareVendor("unknown-cloud"), HardwareVendor("unknown-cloud-2")],
        )
        deployment.publish_and_install(wvm_package())
        client = AuditingClient(VendorRegistry.default())
        report = client.audit_deployment(deployment)
        assert not report.ok

    def test_unpublished_code_detected_even_when_domains_agree(self):
        """All domains run the same code, but its source was never published."""
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; stealth")
        manifest = developer.sign_update(rogue, deployment.current_sequence + 1)
        for index in range(len(deployment.domains)):
            deployment.install_on_domain(index, manifest, rogue)

        client = AuditingClient(deployment.vendor_registry)
        report = client.audit_deployment(deployment)
        assert not report.ok
        assert any(e.kind == "unpublished-code" for e in report.evidence)

    def test_auditor_reports_critical_findings(self):
        developer, deployment = make_deployment()
        rogue = wvm_package("6.6.6", extra="\n; sneaky")
        deployment.install_on_domain(
            1, developer.sign_update(rogue, deployment.current_sequence + 1), rogue
        )
        auditor = ThirdPartyAuditor("eff", deployment)
        findings = auditor.run_audit()
        assert any(f.severity == "critical" for f in findings)
        assert not auditor.deployment_healthy
