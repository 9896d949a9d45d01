"""Unit and property tests for BLS signatures and the threshold scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bilinear import BilinearGroup, G1Element, G2Element, GTElement
from repro.crypto.bls import (
    BlsSignature,
    BlsThresholdScheme,
    bls_aggregate,
    bls_aggregate_verify,
    bls_keygen,
    bls_sign,
    bls_verify,
)
from repro.errors import CryptoError, InvalidPointError, ThresholdError

GROUP = BilinearGroup()
# A G1 element as the signing path makes them (a hashed message).
G1 = GROUP.hash_to_g1(b"test/g1")


class TestBilinearGroup:
    def test_pairing_bilinearity(self):
        g1, g2 = G1, GROUP.g2_generator()
        a, b = 12345, 67890
        left = GROUP.pairing(GROUP.multiply(g1, a), GROUP.multiply(g2, b))
        right = GROUP.multiply(GROUP.pairing(g1, g2), a * b)
        assert left == right

    def test_pairing_identity(self):
        identity = GROUP.pairing(GROUP.g1_identity(), GROUP.g2_generator())
        assert identity == GROUP.pairing(G1, GROUP.g2_identity())
        assert identity != GROUP.pairing(G1, GROUP.g2_generator())

    def test_pairing_type_checks(self):
        with pytest.raises(CryptoError):
            GROUP.pairing(GROUP.g2_generator(), GROUP.g2_generator())

    def test_add_different_groups_rejected(self):
        with pytest.raises(CryptoError):
            GROUP.add(G1, GROUP.g2_generator())

    def test_negate(self):
        element = GROUP.multiply(G1, 555)
        assert GROUP.add(element, GROUP.negate(element)) == GROUP.g1_identity()

    def test_hash_to_g1_deterministic_and_distinct(self):
        assert GROUP.hash_to_g1(b"a") == GROUP.hash_to_g1(b"a")
        assert GROUP.hash_to_g1(b"a") != GROUP.hash_to_g1(b"b")

    def test_serialization_round_trip(self):
        for element in (
            GROUP.multiply(G1, 7),
            GROUP.multiply(GROUP.g2_generator(), 8),
            GROUP.pairing(G1, GROUP.g2_generator()),
        ):
            assert GROUP.element_from_bytes(element.to_bytes()) == element

    def test_serialization_length(self):
        assert len(G1.to_bytes()) == 48

    def test_deserialize_bad_length(self):
        with pytest.raises(InvalidPointError):
            GROUP.element_from_bytes(b"\x00" * 10)

    def test_deserialize_bad_tag(self):
        data = b"XX\x00\x00" + b"\x00" * 44
        with pytest.raises(InvalidPointError):
            GROUP.element_from_bytes(data)

    def test_serialization_does_not_expose_exponent(self):
        element = GROUP.multiply(G1, 3)
        assert element.exponent.to_bytes(44, "big") not in element.to_bytes()

    def test_multi_pairing_matches_products(self):
        pairs = [
            (GROUP.multiply(G1, 3), GROUP.multiply(GROUP.g2_generator(), 5)),
            (GROUP.multiply(G1, 7), GROUP.multiply(GROUP.g2_generator(), 11)),
        ]
        expected = GROUP.multiply(GROUP.pairing(G1, GROUP.g2_generator()), 3 * 5 + 7 * 11)
        assert GROUP.multi_pairing(pairs) == expected

    def test_random_scalar_in_range(self):
        for _ in range(10):
            assert 1 <= GROUP.random_scalar() < GROUP.order


class TestPlainBls:
    def test_sign_verify(self):
        keypair = bls_keygen()
        signature = bls_sign(keypair.secret_key, b"hello")
        assert bls_verify(keypair.public_key, b"hello", signature)

    def test_wrong_message_fails(self):
        keypair = bls_keygen()
        assert not bls_verify(keypair.public_key, b"x", bls_sign(keypair.secret_key, b"y"))

    def test_wrong_key_fails(self):
        keypair, other = bls_keygen(), bls_keygen()
        assert not bls_verify(other.public_key, b"m", bls_sign(keypair.secret_key, b"m"))

    def test_deterministic_keygen_from_seed(self):
        assert bls_keygen(b"seed").secret_key == bls_keygen(b"seed").secret_key

    def test_signature_serialization(self):
        keypair = bls_keygen()
        signature = bls_sign(keypair.secret_key, b"m")
        assert BlsSignature.from_bytes(signature.to_bytes()) == signature

    def test_signature_from_wrong_group_rejected(self):
        with pytest.raises(CryptoError):
            BlsSignature.from_bytes(GROUP.g2_generator().to_bytes())

    def test_aggregate_same_message(self):
        keypairs = [bls_keygen() for _ in range(3)]
        messages = [b"m0", b"m1", b"m2"]
        signatures = [bls_sign(kp.secret_key, m) for kp, m in zip(keypairs, messages)]
        aggregate = bls_aggregate(signatures)
        assert bls_aggregate_verify([kp.public_key for kp in keypairs], messages, aggregate)

    def test_aggregate_verify_rejects_wrong_message(self):
        keypairs = [bls_keygen() for _ in range(2)]
        signatures = [bls_sign(kp.secret_key, b"m") for kp in keypairs]
        aggregate = bls_aggregate(signatures)
        assert not bls_aggregate_verify(
            [kp.public_key for kp in keypairs], [b"m", b"other"], aggregate
        )

    def test_aggregate_empty_rejected(self):
        with pytest.raises(CryptoError):
            bls_aggregate([])

    def test_aggregate_verify_length_mismatch(self):
        keypair = bls_keygen()
        signature = bls_sign(keypair.secret_key, b"m")
        assert not bls_aggregate_verify([keypair.public_key], [], signature)


class TestThresholdBls:
    def test_threshold_sign_and_verify(self):
        scheme = BlsThresholdScheme(3, 5)
        public_key, shares = scheme.keygen()
        partials = [scheme.sign_share(s, b"tx") for s in shares]
        signature = scheme.combine(partials[:3])
        assert scheme.verify(public_key, b"tx", signature)

    def test_any_threshold_subset_combines_to_same_signature(self):
        scheme = BlsThresholdScheme(2, 4)
        public_key, shares = scheme.keygen(seed=b"deterministic")
        partials = [scheme.sign_share(s, b"m") for s in shares]
        first = scheme.combine([partials[0], partials[1]])
        second = scheme.combine([partials[2], partials[3]])
        third = scheme.combine([partials[1], partials[3]])
        assert first == second == third
        assert scheme.verify(public_key, b"m", first)

    def test_threshold_matches_dealer_signature(self):
        """Combining shares equals signing with the (never-assembled) master key."""
        scheme = BlsThresholdScheme(2, 3)
        keypair = bls_keygen(b"fixed")
        from repro.crypto.field import PrimeField
        from repro.crypto.bilinear import BLS_SCALAR_ORDER
        from repro.crypto.shamir import ShamirSecretSharing

        sharing = ShamirSecretSharing(2, 3, PrimeField(BLS_SCALAR_ORDER, unsafe_skip_check=True))
        shares = sharing.split(keypair.secret_key)
        partials = [scheme.sign_share(s, b"m") for s in shares]
        combined = scheme.combine(partials[:2])
        assert combined == bls_sign(keypair.secret_key, b"m")

    def test_too_few_shares_rejected(self):
        scheme = BlsThresholdScheme(3, 5)
        _, shares = scheme.keygen()
        partials = [scheme.sign_share(s, b"m") for s in shares[:2]]
        with pytest.raises(ThresholdError):
            scheme.combine(partials)

    def test_duplicate_signer_rejected(self):
        scheme = BlsThresholdScheme(2, 3)
        _, shares = scheme.keygen()
        partial = scheme.sign_share(shares[0], b"m")
        with pytest.raises(CryptoError):
            scheme.combine([partial, partial])

    def test_share_verification(self):
        scheme = BlsThresholdScheme(2, 3)
        _, shares = scheme.keygen()
        partial = scheme.sign_share(shares[0], b"m")
        share_pk = GROUP.multiply(GROUP.g2_generator(), shares[0].value)
        assert scheme.verify_share(share_pk, b"m", partial)
        assert not scheme.verify_share(share_pk, b"other", partial)

    def test_corrupted_partial_detected_by_share_verification(self):
        scheme = BlsThresholdScheme(2, 3)
        _, shares = scheme.keygen()
        good = scheme.sign_share(shares[0], b"m")
        bad = scheme.sign_share(shares[1], b"tampered")
        share_pk = GROUP.multiply(GROUP.g2_generator(), shares[0].value)
        assert scheme.verify_share(share_pk, b"m", good)
        assert not scheme.verify_share(share_pk, b"m", bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CryptoError):
            BlsThresholdScheme(0, 3)
        with pytest.raises(CryptoError):
            BlsThresholdScheme(4, 3)

    def test_combined_signature_fails_on_other_message(self):
        scheme = BlsThresholdScheme(2, 3)
        public_key, shares = scheme.keygen()
        partials = [scheme.sign_share(s, b"m") for s in shares]
        signature = scheme.combine(partials[:2])
        assert not scheme.verify(public_key, b"other", signature)


@settings(max_examples=20, deadline=None)
@given(
    message=st.binary(min_size=0, max_size=64),
    threshold=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
)
def test_property_threshold_round_trip(message, threshold, extra):
    scheme = BlsThresholdScheme(threshold, threshold + extra)
    public_key, shares = scheme.keygen()
    partials = [scheme.sign_share(s, message) for s in shares]
    signature = scheme.combine(partials[:threshold])
    assert scheme.verify(public_key, message, signature)
