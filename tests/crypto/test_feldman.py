"""Unit tests for Feldman verifiable secret sharing."""

import pytest

from repro.crypto.feldman import FeldmanShare, FeldmanVSS
from repro.crypto.secp256k1 import SECP256K1
from repro.crypto.shamir import Share
from repro.errors import SecretSharingError


class TestFeldmanSharing:
    def test_split_reconstruct(self):
        vss = FeldmanVSS(3, 5)
        shares = vss.split(0xC0FFEE)
        assert vss.reconstruct(shares[:3]) == 0xC0FFEE

    def test_all_shares_verify(self):
        vss = FeldmanVSS(2, 4)
        for share in vss.split(12345):
            assert vss.verify_share(share)

    def test_commitment_count_equals_threshold(self):
        vss = FeldmanVSS(4, 6)
        shares = vss.split(1)
        assert all(len(s.commitments) == 4 for s in shares)

    def test_tampered_share_fails_verification(self):
        vss = FeldmanVSS(2, 3)
        shares = vss.split(77)
        bad = FeldmanShare(Share(shares[0].share.index, shares[0].share.value + 1),
                           shares[0].commitments)
        assert not vss.verify_share(bad)

    def test_tampered_share_rejected_during_reconstruct(self):
        vss = FeldmanVSS(2, 3)
        shares = vss.split(77)
        bad = FeldmanShare(Share(shares[0].share.index, shares[0].share.value + 1),
                           shares[0].commitments)
        with pytest.raises(SecretSharingError):
            vss.reconstruct([bad, shares[1]])

    def test_reconstruct_without_verification_accepts_raw_shares(self):
        vss = FeldmanVSS(2, 3)
        shares = vss.split(55)
        assert vss.reconstruct(shares[:2], verify=False) == 55

    def test_public_commitment_is_g_to_secret(self):
        vss = FeldmanVSS(2, 3)
        secret = 424242
        shares = vss.split(secret)
        expected = SECP256K1.encode_point(SECP256K1.generator_multiply(secret))
        assert vss.public_commitment(shares) == expected

    def test_public_commitment_requires_shares(self):
        vss = FeldmanVSS(2, 3)
        with pytest.raises(SecretSharingError):
            vss.public_commitment([])

    def test_empty_commitments_fail_verification(self):
        vss = FeldmanVSS(2, 3)
        assert not vss.verify_share(FeldmanShare(Share(1, 5), tuple()))


class TestFeldmanSerialization:
    def test_round_trip(self):
        vss = FeldmanVSS(3, 4)
        original = vss.split(909)[2]
        restored = FeldmanShare.from_bytes(original.to_bytes())
        assert restored == original
        assert vss.verify_share(restored)

    def test_truncated_encoding_rejected(self):
        with pytest.raises(SecretSharingError):
            FeldmanShare.from_bytes(b"\x00" * 10)

    def test_truncated_commitments_rejected(self):
        vss = FeldmanVSS(2, 3)
        encoded = vss.split(1)[0].to_bytes()
        with pytest.raises(SecretSharingError):
            FeldmanShare.from_bytes(encoded[:40])


def _count_table_builds(monkeypatch):
    from repro.crypto.secp256k1 import SECP256K1

    built = []
    precompute = SECP256K1.precompute

    def counting_precompute(point, window=4):
        built.append(point)
        return precompute(point, window=window)

    monkeypatch.setattr(SECP256K1, "precompute", counting_precompute)
    return built


class TestBatchVerification:
    def test_verify_shares_matches_individual_verification(self):
        vss = FeldmanVSS(3, 10)
        shares = vss.split(123456789)
        assert vss.verify_shares(shares) == [True] * 10

    def test_tampered_share_flagged_in_batch(self):
        from repro.crypto.shamir import Share

        vss = FeldmanVSS(2, 9)
        shares = vss.split(42)
        bad = FeldmanShare(Share(shares[3].share.index, shares[3].share.value + 1),
                           shares[3].commitments)
        batch = shares[:3] + [bad] + shares[4:]
        verdicts = vss.verify_shares(batch)
        assert verdicts[3] is False
        assert sum(verdicts) == len(batch) - 1

    def test_small_batch_skips_precomputation_but_agrees(self, monkeypatch):
        built = _count_table_builds(monkeypatch)
        vss = FeldmanVSS(2, 3)
        shares = vss.split(7)
        assert vss.verify_shares(shares) == [True, True, True]
        assert built == []

    def test_large_batch_precomputes_tables_and_agrees(self, monkeypatch):
        from repro.crypto.feldman import _PRECOMPUTE_AT_BATCH
        from repro.crypto.shamir import Share

        built = _count_table_builds(monkeypatch)
        vss = FeldmanVSS(3, _PRECOMPUTE_AT_BATCH)
        shares = vss.split(99)
        bad = FeldmanShare(Share(shares[5].share.index, shares[5].share.value + 1),
                           shares[5].commitments)
        batch = shares[:5] + [bad] + shares[6:]
        verdicts = vss.verify_shares(batch)
        assert len(built) == 3
        assert verdicts == [vss.verify_share(share) for share in batch]
        assert verdicts.count(False) == 1 and verdicts[5] is False

    def test_mixed_dealings_rejected(self):
        from repro.errors import SecretSharingError

        vss = FeldmanVSS(2, 3)
        first = vss.split(1)
        second = vss.split(2)
        with pytest.raises(SecretSharingError):
            vss.verify_shares([first[0], second[1]])

    def test_empty_batch(self):
        assert FeldmanVSS(2, 3).verify_shares([]) == []
