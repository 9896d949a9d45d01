"""Unit tests for the per-TEE digest log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashes import sha256
from repro.errors import LogError
from repro.transparency.log import DigestLog, DigestLogEntry


def digest(i: int) -> bytes:
    return sha256(f"code-{i}".encode())


class TestDigestLogBasics:
    def test_append_and_latest(self):
        log = DigestLog("domain-1")
        log.append(digest(0), "v1.0.0", 100.0)
        entry = log.append(digest(1), "v1.1.0", 200.0)
        assert log.latest() == entry
        assert len(log) == 2

    def test_empty_log_latest_raises(self):
        with pytest.raises(LogError):
            DigestLog("d").latest()

    def test_head_changes_on_append(self):
        log = DigestLog("d")
        initial = log.head()
        log.append(digest(0), "v1", 1.0)
        assert log.head() != initial

    def test_entries_slicing(self):
        log = DigestLog("d")
        for i in range(5):
            log.append(digest(i), f"v{i}", float(i))
        assert [e.version for e in log.entries(3)] == ["v3", "v4"]
        with pytest.raises(LogError):
            log.entries(9)

    def test_digest_history(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        log.append(digest(1), "v1", 1.0)
        assert [entry.code_digest for entry in log.entries()] == [digest(0), digest(1)]

    def test_entry_dict_round_trip(self):
        log = DigestLog("d")
        entry = log.append(digest(0), "v0", 12.345678)
        restored = DigestLogEntry.from_dict(entry.to_dict())
        assert restored.code_digest == entry.code_digest
        assert restored.version == entry.version
        assert restored.chain_head == entry.chain_head
        assert restored.timestamp == pytest.approx(entry.timestamp, abs=1e-6)

    def test_chain_entries_verify(self):
        from repro.crypto.hashchain import HashChain

        log = DigestLog("d")
        for i in range(4):
            log.append(digest(i), f"v{i}", float(i))
        assert HashChain.verify_entries(log.chain_entries())


class TestExportVerification:
    def test_export_verifies_against_attested_head(self):
        log = DigestLog("d")
        for i in range(3):
            log.append(digest(i), f"v{i}", float(i))
        entries = DigestLog.verify_export(log.export(), log.head())
        assert [e.version for e in entries] == ["v0", "v1", "v2"]

    def test_tampered_digest_detected(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        log.append(digest(1), "v1", 1.0)
        exported = log.export()
        exported[0]["code_digest"] = sha256(b"malicious code, scrubbed from history")
        with pytest.raises(LogError):
            DigestLog.verify_export(exported, log.head())

    def test_dropped_entry_detected(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        log.append(digest(1), "v1", 1.0)
        exported = log.export()[1:]
        with pytest.raises(LogError):
            DigestLog.verify_export(exported, log.head())

    def test_wrong_head_detected(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        with pytest.raises(LogError):
            DigestLog.verify_export(log.export(), sha256(b"some other head"))

    def test_reordered_entries_detected(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        log.append(digest(1), "v1", 1.0)
        exported = list(reversed(log.export()))
        with pytest.raises(LogError):
            DigestLog.verify_export(exported, log.head())

    def test_empty_export_with_genesis_head(self):
        log = DigestLog("d")
        assert DigestLog.verify_export(log.export(), log.head()) == []


class TestViewConsistency:
    def test_prefix_views_consistent(self):
        log = DigestLog("d")
        log.append(digest(0), "v0", 0.0)
        old_view = log.export()
        log.append(digest(1), "v1", 1.0)
        assert DigestLog.views_consistent(old_view, log.export())

    def test_diverging_views_inconsistent(self):
        log_a = DigestLog("d")
        log_a.append(digest(0), "v0", 0.0)
        log_b = DigestLog("d")
        log_b.append(digest(99), "v0", 0.0)
        assert not DigestLog.views_consistent(log_a.export(), log_b.export())


@settings(max_examples=25, deadline=None)
@given(versions=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=20))
def test_property_export_always_verifies(versions):
    log = DigestLog("d")
    for i, version in enumerate(versions):
        log.append(digest(i), version, float(i))
    entries = DigestLog.verify_export(log.export(), log.head())
    assert len(entries) == len(versions)
