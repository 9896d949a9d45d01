"""Edge-case tests for secret sharing and field arithmetic.

The scenario engine's safety claims lean on these exact boundaries: ``t``
shares reconstruct, ``t - 1`` reveal nothing (and are refused), duplicated
shares are rejected rather than silently skewing reconstruction, and field
arithmetic behaves at the modulus boundaries.
"""

import pytest

from repro.crypto.feldman import FeldmanShare, FeldmanVSS
from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.errors import CryptoError, SecretSharingError, ThresholdError


class TestShamirThresholdBoundaries:
    def test_exactly_t_shares_reconstruct(self):
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(0xDEADBEEF)
        for subset in (shares[:3], shares[2:5], [shares[0], shares[2], shares[4]]):
            assert scheme.reconstruct(subset) == 0xDEADBEEF

    def test_t_minus_one_shares_refused(self):
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(42)
        with pytest.raises(ThresholdError):
            scheme.reconstruct(shares[:2])

    def test_duplicated_share_rejected(self):
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(42)
        with pytest.raises(SecretSharingError, match="duplicate"):
            scheme.reconstruct([shares[0], shares[0], shares[1]])

    def test_duplicate_not_counted_toward_threshold(self):
        """Three shares where two are copies must not reconstruct."""
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(42)
        duplicated = [shares[0], Share(shares[0].index, shares[0].value), shares[1]]
        with pytest.raises(SecretSharingError):
            scheme.reconstruct(duplicated)

    def test_out_of_range_index_rejected(self):
        scheme = ShamirSecretSharing(2, 3)
        shares = scheme.split(7)
        with pytest.raises(SecretSharingError, match="out of range"):
            scheme.reconstruct([shares[0], Share(9, 123)])

    def test_tampered_extra_share_detected(self):
        scheme = ShamirSecretSharing(2, 4)
        shares = scheme.split(99)
        tampered = Share(shares[3].index, (shares[3].value + 1) % scheme.field.modulus)
        with pytest.raises(SecretSharingError, match="inconsistent"):
            scheme.reconstruct([shares[0], shares[1], tampered])

    def test_threshold_one(self):
        scheme = ShamirSecretSharing(1, 3)
        shares = scheme.split(5)
        assert scheme.reconstruct([shares[2]]) == 5

    def test_secret_at_field_boundary(self):
        scheme = ShamirSecretSharing(2, 3)
        top = scheme.field.modulus - 1
        assert scheme.reconstruct(scheme.split(top)[:2]) == top
        with pytest.raises(SecretSharingError):
            scheme.split(scheme.field.modulus)


class TestFeldmanThresholdBoundaries:
    def test_exactly_t_verified_shares_reconstruct(self):
        vss = FeldmanVSS(3, 5)
        shares = vss.split(0xC0FFEE)
        assert all(vss.verify_share(s) for s in shares)
        assert vss.reconstruct(shares[:3]) == 0xC0FFEE

    def test_t_minus_one_refused(self):
        vss = FeldmanVSS(3, 5)
        shares = vss.split(7)
        with pytest.raises(ThresholdError):
            vss.reconstruct(shares[:2])

    def test_duplicated_share_rejected(self):
        vss = FeldmanVSS(2, 4)
        shares = vss.split(7)
        with pytest.raises(SecretSharingError):
            vss.reconstruct([shares[0], shares[0]])

    def test_tampered_share_fails_verification(self):
        vss = FeldmanVSS(2, 3)
        shares = vss.split(1234)
        bad = FeldmanShare(Share(shares[0].share.index, shares[0].share.value + 1),
                           shares[0].commitments)
        assert not vss.verify_share(bad)
        with pytest.raises(SecretSharingError, match="Feldman"):
            vss.reconstruct([bad, shares[1]])


class TestFieldBoundaries:
    def test_inverse_of_zero_raises(self):
        field = PrimeField(97)
        with pytest.raises(CryptoError):
            field.zero().inverse()

    def test_pow_negative_exponent_of_zero_raises(self):
        field = PrimeField(97)
        with pytest.raises(CryptoError):
            field.zero() ** -1

    def test_pow_negative_exponent_is_inverse(self):
        field = PrimeField(97)
        assert field(5) ** -1 == field(5).inverse()

    def test_division_by_zero_raises(self):
        field = PrimeField(97)
        with pytest.raises(CryptoError):
            field(3) / field(0)

    def test_modulus_wraps_to_zero(self):
        field = PrimeField(97)
        assert field(97) == field.zero()
        assert field(96) + 1 == field.zero()
        assert -field.zero() == field.zero()
        assert field(-1) == field(96)

    def test_smallest_prime_field(self):
        field = PrimeField(2)
        assert field.one() + field.one() == field.zero()
        assert field.one().inverse() == field.one()

    def test_cross_field_arithmetic_rejected(self):
        with pytest.raises(CryptoError):
            PrimeField(97)(1) + PrimeField(101)(1)

    def test_interpolation_requires_distinct_points(self):
        """Two points at one x (reconstruction's Lagrange step) are refused."""
        scheme = ShamirSecretSharing(2, 3, PrimeField(97))
        with pytest.raises(CryptoError, match="duplicate"):
            scheme.reconstruct([Share(1, 3), Share(1, 5)])

    def test_to_bytes_round_trip_at_boundary(self):
        field = PrimeField(2**61 - 1, unsafe_skip_check=True)
        top = FieldElement(field.modulus - 1, field)
        assert field.from_bytes(top.to_bytes()) == top
