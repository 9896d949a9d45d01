"""Tests for the secret-key backup application (Figure 1)."""

import pytest

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.errors import ApplicationError, MisbehaviorDetected, RpcError


@pytest.fixture(scope="module")
def service():
    return KeyBackupDeployment(num_domains=3, threshold=2)


class TestBackupAndRecovery:
    def test_backup_and_recover(self, service):
        client = KeyBackupClient(service)
        secret = 0x1234567890ABCDEF
        receipt = client.backup_key("alice", secret)
        assert receipt.num_domains == 3
        assert client.recover_key("alice") == secret

    def test_recover_from_any_threshold_subset(self, service):
        client = KeyBackupClient(service)
        secret = 9876543210
        client.backup_key("bob", secret)
        assert client.recover_key("bob", [0, 2]) == secret
        assert client.recover_key("bob", [1, 2]) == secret

    def test_bytes_round_trip(self, service):
        client = KeyBackupClient(service)
        secret = b"\x07" * 32
        client.backup_key("carol", secret)
        assert client.recover_key_bytes("carol") == secret

    def test_unknown_user_recovery_fails(self, service):
        client = KeyBackupClient(service)
        with pytest.raises(ApplicationError):
            client.recover_key("nobody")

    def test_double_backup_rejected(self, service):
        client = KeyBackupClient(service)
        client.backup_key("dave", 42)
        with pytest.raises(RpcError, match="share already stored"):
            client.backup_key("dave", 43)

    def test_delete_backup(self, service):
        client = KeyBackupClient(service)
        client.backup_key("erin", 777)
        assert client.delete_backup("erin") == 3
        with pytest.raises(ApplicationError):
            client.recover_key("erin")

    def test_too_few_domains_for_recovery(self, service):
        client = KeyBackupClient(service)
        client.backup_key("frank", 1)
        with pytest.raises(ApplicationError):
            client.recover_key("frank", [0])


class TestConfiguration:
    def test_minimum_domains_enforced(self):
        with pytest.raises(ApplicationError):
            KeyBackupDeployment(num_domains=1)

    def test_threshold_bounds_enforced(self):
        with pytest.raises(ApplicationError):
            KeyBackupDeployment(num_domains=3, threshold=1)
        with pytest.raises(ApplicationError):
            KeyBackupDeployment(num_domains=3, threshold=4)

    def test_default_threshold_is_all_domains(self):
        service = KeyBackupDeployment(num_domains=2)
        assert service.threshold == 2


class TestFigure1Scenario:
    def test_compromised_developer_cannot_recover_keys(self, service):
        """The paper's Figure 1: a compromised developer reaches only domain 0."""
        client = KeyBackupClient(service)
        client.backup_key("grace", 0xDEAD)
        outcome = service.simulate_developer_compromise()
        assert outcome["shares_recoverable"] == 1
        assert not outcome["key_recoverable"]
        assert len(outcome["resisted_domains"]) == 2

    def test_audit_runs_before_use(self, service):
        client = KeyBackupClient(service, audit_before_use=True)
        report = client.audit()
        assert report.ok

    def test_audit_failure_blocks_backup(self):
        """If a domain runs unpublished code, the client refuses to upload shares."""
        service = KeyBackupDeployment(num_domains=3, threshold=2)
        from repro.core.package import CodePackage

        rogue = CodePackage("key-backup", "6.6.6", "python",
                            "def handle(m, p, s):\n    return p")
        manifest = service.developer.sign_update(rogue, service.deployment.current_sequence + 1)
        service.deployment.install_on_domain(1, manifest, rogue)

        client = KeyBackupClient(service, audit_before_use=True)
        with pytest.raises(MisbehaviorDetected):
            client.backup_key("henry", 5)
