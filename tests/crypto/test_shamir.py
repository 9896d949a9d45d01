"""Unit and property tests for Shamir secret sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.errors import SecretSharingError, ThresholdError


class TestShamirBasics:
    def test_split_and_reconstruct_exact_threshold(self):
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(0xDEADBEEF)
        assert scheme.reconstruct(shares[:3]) == 0xDEADBEEF

    def test_reconstruct_from_any_subset(self):
        scheme = ShamirSecretSharing(2, 4)
        shares = scheme.split(42)
        for i in range(4):
            for j in range(i + 1, 4):
                assert scheme.reconstruct([shares[i], shares[j]]) == 42

    def test_reconstruct_with_extra_consistent_shares(self):
        scheme = ShamirSecretSharing(2, 5)
        shares = scheme.split(7)
        assert scheme.reconstruct(shares) == 7

    def test_byte_secret_round_trip(self):
        scheme = ShamirSecretSharing(3, 5)
        secret = b"\x01" * 31
        shares = scheme.split(secret)
        assert scheme.reconstruct(shares[:3]) == int.from_bytes(secret, "big")

    def test_threshold_of_one(self):
        scheme = ShamirSecretSharing(1, 3)
        shares = scheme.split(123)
        # With threshold 1 every share is the secret itself.
        for share in shares:
            assert scheme.reconstruct([share]) == 123

    def test_full_threshold(self):
        scheme = ShamirSecretSharing(5, 5)
        shares = scheme.split(99)
        assert scheme.reconstruct(shares) == 99
        with pytest.raises(ThresholdError):
            scheme.reconstruct(shares[:4])

    def test_share_count(self):
        scheme = ShamirSecretSharing(2, 7)
        assert len(scheme.split(5)) == 7

    def test_share_indices_one_based(self):
        scheme = ShamirSecretSharing(2, 4)
        assert [s.index for s in scheme.split(5)] == [1, 2, 3, 4]


class TestShamirValidation:
    def test_too_few_shares_raises(self):
        scheme = ShamirSecretSharing(3, 5)
        shares = scheme.split(1)
        with pytest.raises(ThresholdError):
            scheme.reconstruct(shares[:2])

    def test_duplicate_shares_rejected(self):
        scheme = ShamirSecretSharing(2, 3)
        shares = scheme.split(1)
        with pytest.raises(SecretSharingError):
            scheme.reconstruct([shares[0], shares[0]])

    def test_out_of_range_index_rejected(self):
        scheme = ShamirSecretSharing(2, 3)
        shares = scheme.split(1)
        with pytest.raises(SecretSharingError):
            scheme.reconstruct([shares[0], Share(9, 123)])

    def test_inconsistent_extra_share_detected(self):
        scheme = ShamirSecretSharing(2, 4)
        shares = scheme.split(50)
        corrupted = shares[:2] + [Share(shares[2].index, (shares[2].value + 1))]
        with pytest.raises(SecretSharingError):
            scheme.reconstruct(corrupted)

    def test_invalid_parameters(self):
        with pytest.raises(SecretSharingError):
            ShamirSecretSharing(0, 3)
        with pytest.raises(SecretSharingError):
            ShamirSecretSharing(4, 3)

    def test_secret_too_large(self):
        scheme = ShamirSecretSharing(2, 3, PrimeField(101))
        with pytest.raises(SecretSharingError):
            scheme.split(500)

    def test_negative_secret_rejected(self):
        scheme = ShamirSecretSharing(2, 3)
        with pytest.raises(SecretSharingError):
            scheme.split(-1)

    def test_too_many_shares_for_small_field(self):
        with pytest.raises(SecretSharingError):
            ShamirSecretSharing(2, 200, PrimeField(101))


class TestShareSerialization:
    def test_round_trip(self):
        share = Share(3, 123456)
        assert Share.from_bytes(share.to_bytes()) == share

    def test_bad_length_rejected(self):
        with pytest.raises(SecretSharingError):
            Share.from_bytes(b"\x00" * 5)


class TestSecrecyStructure:
    def test_fewer_than_threshold_shares_do_not_determine_secret(self):
        """With t-1 shares, every candidate secret remains algebraically possible."""
        field = PrimeField(101)
        scheme = ShamirSecretSharing(2, 3, field)
        shares = scheme.split(17)
        single = shares[0]
        # For any candidate secret c there exists a degree-1 polynomial through
        # (0, c) and (single.index, single.value) — so one share reveals nothing.
        for candidate in range(101):
            slope = (field(single.value) - field(candidate)) / field(single.index)
            assert field(candidate) + slope * field(single.index) == field(single.value)


@settings(max_examples=30, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=2**255),
    threshold=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
)
def test_property_split_reconstruct(secret, threshold, extra):
    scheme = ShamirSecretSharing(threshold, threshold + extra)
    shares = scheme.split(secret)
    assert scheme.reconstruct(shares[:threshold]) == secret


@settings(max_examples=20, deadline=None)
@given(secret=st.integers(min_value=0, max_value=2**200), data=st.data())
def test_property_any_threshold_subset_reconstructs(secret, data):
    scheme = ShamirSecretSharing(3, 6)
    shares = scheme.split(secret)
    subset = data.draw(st.permutations(shares))[:3]
    assert scheme.reconstruct(subset) == secret


class TestShareEncodingErrors:
    def test_oversized_value_raises_secret_sharing_error(self):
        from repro.errors import SecretSharingError

        share = Share(1, 2**300)
        with pytest.raises(SecretSharingError):
            share.to_bytes(byte_length=32)

    def test_oversized_index_raises_secret_sharing_error(self):
        from repro.errors import SecretSharingError

        share = Share(2**40, 7)
        with pytest.raises(SecretSharingError):
            share.to_bytes()

    def test_fitting_share_still_round_trips(self):
        share = Share(3, 2**255 - 19)
        assert Share.from_bytes(share.to_bytes()) == share


class TestBatchEvaluation:
    def test_horner_evaluate_many_matches_single_evaluation(self):
        from repro.crypto.shamir import horner_evaluate_many

        modulus = 2**61 - 1
        coefficients = [12345, 678, 910, 11, 213141]
        xs = list(range(1, 40))
        expected = [
            sum(c * pow(x, k, modulus) for k, c in enumerate(coefficients)) % modulus
            for x in xs
        ]
        assert horner_evaluate_many(coefficients, xs, modulus) == expected

    def test_split_many_round_trips_each_secret(self):
        scheme = ShamirSecretSharing(3, 5)
        secrets_list = [0, 1, 2**200 + 17, 999]
        share_lists = scheme.split_many(secrets_list)
        assert len(share_lists) == len(secrets_list)
        for secret, shares in zip(secrets_list, share_lists):
            assert scheme.reconstruct(shares[:3]) == secret

    def test_split_many_uses_independent_polynomials(self):
        scheme = ShamirSecretSharing(2, 3)
        first, second = scheme.split_many([42, 42])
        assert [s.value for s in first] != [s.value for s in second]

    def test_reconstruct_with_extra_shares_still_checks_consistency(self):
        scheme = ShamirSecretSharing(2, 4)
        shares = scheme.split(777)
        assert scheme.reconstruct(shares) == 777
        from repro.errors import SecretSharingError

        tampered = shares[:2] + [Share(shares[2].index, shares[2].value + 1)]
        with pytest.raises(SecretSharingError):
            scheme.reconstruct(tampered)
