"""End-to-end tests for epoch transparency bundles and the standalone auditor.

The auditor here is constructed from two public keys and handed nothing but
the published artifacts (usually in their JSON wire form), mirroring its
deployment in a separate trust domain: everything it concludes must follow
from the artifact alone.
"""

import pytest

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.crypto import rng as crypto_rng
from repro.crypto.keys import SigningKey
from repro.errors import EpochBundleError, ReshardError
from repro.transparency.auditor import (
    AuditCheckpoint,
    AuditorService,
    verify_checkpoint,
)
from repro.transparency.epochs import (
    EpochArtifact,
    EpochPublisher,
    forge_migration_digest,
)
from repro.transparency.gossip import GossipPool

PROVED_CHECKS = {
    "signature-chain",
    "log-inclusion",
    "ring-transition",
    "digest-conservation",
    "attestation-measurements",
    "spare-pool-delta",
}
ADVISED_CHECKS = {"timing", "operator-intent"}


def published_epochs(*reshards: int, seed: int = 77):
    """A keybackup deployment with a publisher attached and epochs published."""
    with crypto_rng.deterministic(seed):
        service = KeyBackupDeployment(shards=2)
        client = KeyBackupClient(service, audit_before_use=False)
        for i in range(6):
            client.backup_key(f"user-{i}", 9000 + i)
        publisher = EpochPublisher(service.plane.spec.name)
        service.plane.epoch_publisher = publisher
        for count in reshards:
            service.reshard(count)
    return service, publisher


def auditor_for(publisher: EpochPublisher) -> AuditorService:
    return AuditorService(publisher.coordinator_key, publisher.log_key)


class _FlakyMigrator:
    """Delegates to the real migrator but crashes the first migrate call."""

    def __init__(self, inner):
        self._inner = inner
        self._crashed = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def migrate(self, plane, source, target, keys):
        if not self._crashed:
            self._crashed = True
            raise RuntimeError("injected migrator crash")
        return (yield from self._inner.migrate(plane, source, target, keys))


class TestHonestEpochs:
    def test_grow_bundle_verifies_from_the_artifact_alone(self):
        _, publisher = published_epochs(4)
        assert len(publisher.artifacts) == 1
        verdict = auditor_for(publisher).verify(publisher.artifacts[0])
        assert verdict.ok, verdict.format()
        assert verdict.kind == "reshard"
        assert verdict.failing() == []
        assert verdict.cost_units > 0

    def test_clean_shrink_publishes_a_verifiable_bundle(self):
        # A shrink whose evacuation completes inside reshard() publishes a
        # regular reshard bundle recording the retired shards.
        _, publisher = published_epochs(4, 2)
        kinds = [artifact.bundle.kind for artifact in publisher.artifacts]
        assert kinds == ["reshard", "reshard"]
        shrink = publisher.artifacts[-1].bundle
        assert (shrink.old_shard_count, shrink.new_shard_count) == (4, 2)
        assert shrink.retired
        auditor = auditor_for(publisher)
        for artifact in publisher.artifacts:
            verdict = auditor.verify(artifact)
            assert verdict.ok, verdict.format()

    def test_faulted_reshard_drains_with_a_drain_bundle(self):
        # A migrator crash pins the affected keys; the epoch still commits
        # (with a bundle), and the later finish_reshard() drain pass
        # publishes its own kind="drain" bundle — both must verify.
        service, publisher = published_epochs()
        service.plane.migrator = _FlakyMigrator(service.plane.migrator)
        with crypto_rng.deterministic(78):
            with pytest.raises(ReshardError):
                service.reshard(4)
        with crypto_rng.deterministic(79):
            service.plane.finish_reshard()
        kinds = [artifact.bundle.kind for artifact in publisher.artifacts]
        assert kinds == ["reshard", "drain"]
        auditor = auditor_for(publisher)
        for artifact in publisher.artifacts:
            verdict = auditor.verify(artifact)
            assert verdict.ok, verdict.format()

    def test_wire_form_round_trips_and_verifies(self):
        _, publisher = published_epochs(4)
        artifact = publisher.artifacts[0]
        wire = artifact.to_dict()
        assert EpochArtifact.from_dict(wire) == artifact
        verdict = auditor_for(publisher).verify(wire)
        assert verdict.ok, verdict.format()

    def test_report_covers_every_check(self):
        _, publisher = published_epochs(4)
        verdict = auditor_for(publisher).verify(publisher.artifacts[0])
        proved = {c.name for c in verdict.checks if c.kind == "proved"}
        advised = {c.name for c in verdict.checks if c.kind == "advised"}
        assert proved == PROVED_CHECKS
        assert advised == ADVISED_CHECKS

    def test_format_is_deterministic_text(self):
        _, publisher = published_epochs(4)
        verdict = auditor_for(publisher).verify(publisher.artifacts[0])
        text = verdict.format()
        assert "VERIFIED" in text
        for name in PROVED_CHECKS | ADVISED_CHECKS:
            assert name in text


class TestForgedEpochs:
    def test_forged_digest_rejected_on_digest_conservation(self):
        # The compromised coordinator re-signs with the *real* key, so the
        # signature chain holds and only digest conservation convicts.
        _, publisher = published_epochs(4)
        forge_migration_digest(publisher)
        verdict = auditor_for(publisher).verify(publisher.artifacts[-1])
        assert not verdict.ok
        assert verdict.failing() == ["digest-conservation"]

    def test_honest_epoch_still_verifies_next_to_the_forgery(self):
        _, publisher = published_epochs(4)
        forge_migration_digest(publisher)
        verdict = auditor_for(publisher).verify(publisher.artifacts[0])
        assert verdict.ok, verdict.format()

    def test_wrong_coordinator_key_breaks_the_signature_chain(self):
        _, publisher = published_epochs(4)
        wrong = SigningKey.from_seed(b"not the coordinator").verifying_key()
        auditor = AuditorService(wrong, publisher.log_key)
        verdict = auditor.verify(publisher.artifacts[0])
        assert not verdict.ok
        assert "signature-chain" in verdict.failing()

    def test_unparseable_artifact_fails_closed(self):
        _, publisher = published_epochs(4)
        verdict = auditor_for(publisher).verify({"nonsense": True})
        assert not verdict.ok
        assert "artifact-parse" in verdict.failing()


class TestCheckpoint:
    def test_checkpoint_round_trip(self):
        _, publisher = published_epochs(4, 2)
        auditor = auditor_for(publisher)
        for artifact in publisher.artifacts:
            assert auditor.verify(artifact).ok
        checkpoint = auditor.checkpoint()
        assert checkpoint.all_ok
        assert len(checkpoint.epochs) == len(publisher.artifacts)
        assert verify_checkpoint(checkpoint, auditor.public_key)
        assert AuditCheckpoint.from_dict(checkpoint.to_dict()) == checkpoint

    def test_checkpoint_rejects_wrong_auditor_key(self):
        _, publisher = published_epochs(4)
        auditor = auditor_for(publisher)
        auditor.verify(publisher.artifacts[0])
        checkpoint = auditor.checkpoint()
        other = SigningKey.from_seed(b"impostor auditor").verifying_key()
        assert not verify_checkpoint(checkpoint, other)

    def test_checkpoint_requires_a_verified_epoch(self):
        _, publisher = published_epochs(4)
        with pytest.raises(EpochBundleError):
            auditor_for(publisher).checkpoint()

    def test_checkpoint_covers_only_verified_epochs(self):
        # A rejected artifact never enters the audit-once statement: clients
        # trusting the checkpoint only inherit epochs that actually verified.
        _, publisher = published_epochs(4)
        forge_migration_digest(publisher)
        auditor = auditor_for(publisher)
        for artifact in publisher.artifacts:
            auditor.verify(artifact)
        checkpoint = auditor.checkpoint()
        assert len(checkpoint.epochs) == 1
        assert checkpoint.all_ok
        assert verify_checkpoint(checkpoint, auditor.public_key)


class TestGossip:
    def test_two_auditors_on_one_honest_log_produce_no_evidence(self):
        _, publisher = published_epochs(4, 2)
        pool = GossipPool(publisher.log_key)
        for name in ("auditor-a", "auditor-b"):
            auditor = AuditorService(publisher.coordinator_key,
                                     publisher.log_key, name=name)
            for artifact in publisher.artifacts:
                assert auditor.verify(artifact).ok
            assert auditor.gossip(pool) == []
        assert pool.evidence == []
        assert pool.observers() == ["auditor-a", "auditor-b"]
