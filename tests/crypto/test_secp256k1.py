"""Unit tests for secp256k1 group arithmetic and point serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.secp256k1 import INFINITY, SECP256K1, Point
from repro.errors import InvalidPointError

G = SECP256K1.generator
N = SECP256K1.n


class TestCurveBasics:
    def test_generator_on_curve(self):
        assert SECP256K1.is_on_curve(G)

    def test_infinity_on_curve(self):
        assert SECP256K1.is_on_curve(INFINITY)

    def test_generator_has_group_order(self):
        assert SECP256K1.multiply(G, N).is_infinity

    def test_off_curve_point_detected(self):
        assert not SECP256K1.is_on_curve(Point(1, 1))


class TestGroupLaw:
    def test_identity_addition(self):
        assert SECP256K1.add(G, INFINITY) == G
        assert SECP256K1.add(INFINITY, G) == G

    def test_point_plus_negation_is_infinity(self):
        assert SECP256K1.add(G, SECP256K1.negate(G)).is_infinity

    def test_doubling_matches_scalar_two(self):
        assert SECP256K1.add(G, G) == SECP256K1.multiply(G, 2)

    def test_addition_commutes(self):
        p = SECP256K1.multiply(G, 7)
        q = SECP256K1.multiply(G, 11)
        assert SECP256K1.add(p, q) == SECP256K1.add(q, p)

    def test_addition_associates(self):
        p = SECP256K1.multiply(G, 3)
        q = SECP256K1.multiply(G, 5)
        r = SECP256K1.multiply(G, 9)
        left = SECP256K1.add(SECP256K1.add(p, q), r)
        right = SECP256K1.add(p, SECP256K1.add(q, r))
        assert left == right

    def test_scalar_multiplication_distributes(self):
        a, b = 123456789, 987654321
        left = SECP256K1.generator_multiply(a + b)
        right = SECP256K1.add(
            SECP256K1.generator_multiply(a), SECP256K1.generator_multiply(b)
        )
        assert left == right

    def test_multiply_by_zero_is_infinity(self):
        assert SECP256K1.multiply(G, 0).is_infinity

    def test_multiply_infinity(self):
        assert SECP256K1.multiply(INFINITY, 12345).is_infinity

    def test_multiply_reduces_scalar_mod_n(self):
        assert SECP256K1.multiply(G, N + 5) == SECP256K1.multiply(G, 5)

    def test_negate_infinity(self):
        assert SECP256K1.negate(INFINITY).is_infinity


class TestSerialization:
    def test_compressed_round_trip(self):
        point = SECP256K1.generator_multiply(424242)
        encoded = SECP256K1.encode_point(point, compressed=True)
        assert len(encoded) == 33
        assert SECP256K1.decode_point(encoded) == point

    def test_uncompressed_round_trip(self):
        point = SECP256K1.generator_multiply(99)
        encoded = SECP256K1.encode_point(point, compressed=False)
        assert len(encoded) == 65
        assert SECP256K1.decode_point(encoded) == point

    def test_infinity_round_trip(self):
        assert SECP256K1.decode_point(SECP256K1.encode_point(INFINITY)).is_infinity

    def test_reject_empty(self):
        with pytest.raises(InvalidPointError):
            SECP256K1.decode_point(b"")

    def test_reject_bad_prefix(self):
        with pytest.raises(InvalidPointError):
            SECP256K1.decode_point(b"\x09" + b"\x01" * 32)

    def test_reject_bad_length(self):
        with pytest.raises(InvalidPointError):
            SECP256K1.decode_point(b"\x02" + b"\x01" * 10)

    def test_reject_not_on_curve_x(self):
        # x = 5 is a valid coordinate; craft an uncompressed point with wrong y.
        bad = b"\x04" + (5).to_bytes(32, "big") + (7).to_bytes(32, "big")
        with pytest.raises(InvalidPointError):
            SECP256K1.decode_point(bad)


@settings(max_examples=25, deadline=None)
@given(scalar=st.integers(min_value=1, max_value=N - 1))
def test_property_compressed_round_trip(scalar):
    point = SECP256K1.generator_multiply(scalar)
    assert SECP256K1.decode_point(SECP256K1.encode_point(point)) == point


@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=1, max_value=N - 1), b=st.integers(min_value=1, max_value=N - 1))
def test_property_scalar_homomorphism(a, b):
    left = SECP256K1.generator_multiply(a * b % N)
    right = SECP256K1.multiply(SECP256K1.generator_multiply(a), b)
    assert left == right


class TestFixedBaseTable:
    def test_generator_table_matches_plain_multiply(self):
        for scalar in (1, 2, 3, 15, 16, 17, 0xDEADBEEF, N - 1, N + 5, 2**255 + 321):
            assert SECP256K1.generator_multiply(scalar) == SECP256K1.multiply(
                SECP256K1.generator, scalar
            )

    def test_zero_scalar_gives_infinity(self):
        assert SECP256K1.generator_multiply(0).is_infinity
        assert SECP256K1.generator_multiply(N).is_infinity

    def test_precomputed_arbitrary_point(self):
        from repro.crypto.secp256k1 import FixedBaseTable

        point = SECP256K1.generator_multiply(0x1234567)
        table = SECP256K1.precompute(point)
        for scalar in (1, 2, 255, 256, N - 2, 2**200 + 9):
            assert table.multiply(scalar) == SECP256K1.multiply(point, scalar)

    def test_window_widths_agree(self):
        from repro.crypto.secp256k1 import FixedBaseTable

        point = SECP256K1.generator
        scalar = 0xA5A5A5A5A5A5A5A5A5A5A5A5
        expected = SECP256K1.multiply(point, scalar)
        for window in (1, 2, 4, 6):
            assert FixedBaseTable(SECP256K1, point, window=window).multiply(scalar) == expected

    def test_rejects_bad_parameters(self):
        from repro.crypto.secp256k1 import INFINITY, FixedBaseTable
        from repro.errors import CryptoError

        with pytest.raises(CryptoError):
            FixedBaseTable(SECP256K1, SECP256K1.generator, window=0)
        with pytest.raises(CryptoError):
            FixedBaseTable(SECP256K1, INFINITY)


@settings(max_examples=25, deadline=None)
@given(scalar=st.integers(min_value=1, max_value=N - 1))
def test_property_table_multiply_matches_double_and_add(scalar):
    assert SECP256K1.generator_multiply(scalar) == SECP256K1.multiply(
        SECP256K1.generator, scalar
    )


def test_multiply_cached_promotes_a_point_on_its_promotion_sighting():
    from repro.crypto.secp256k1 import _PROMOTE_AT_SIGHTING, Secp256k1

    curve = Secp256k1()
    point = curve.generator_multiply(11)
    key = (point.x, point.y, 4)
    for scalar in range(1, _PROMOTE_AT_SIGHTING):
        assert curve.multiply_cached(point, scalar) == curve.multiply(point, scalar)
    assert key not in curve._table_cache
    assert curve.multiply_cached(point, N - 3) == curve.multiply(point, N - 3)
    assert key in curve._table_cache and key not in curve._point_sightings


def test_table_cache_stays_within_its_caps_and_keeps_the_working_set(monkeypatch):
    from repro.crypto import secp256k1
    from repro.crypto.secp256k1 import _TABLE_CACHE_SIZE, Secp256k1

    # Promote on the second sighting so that many tables are cheap to reach.
    monkeypatch.setattr(secp256k1, "_PROMOTE_AT_SIGHTING", 2)
    curve = Secp256k1()
    working_set = [curve.generator_multiply(k) for k in (2, 3)]
    for point in working_set:
        curve.multiply_cached(point, 5)
        curve.multiply_cached(point, 5)
    tables = {point: curve.table_for(point) for point in working_set}

    # More than ``cap`` distinct recurring points, each promoted on its
    # second sighting, with the working set used in between.
    for k in range(10, 10 + _TABLE_CACHE_SIZE + 4):
        point = curve.generator_multiply(k)
        for _ in range(2):
            assert curve.multiply_cached(point, k) == curve.multiply(point, k)
        for hot in working_set:
            assert curve.multiply_cached(hot, k) == curve.multiply(hot, k)
    # One-shot points only ever reach the sightings table.
    for k in range(100, 100 + 4 * _TABLE_CACHE_SIZE + 4):
        curve.multiply_cached(curve.generator_multiply(k), 7)

    assert len(curve._table_cache) <= _TABLE_CACHE_SIZE
    assert len(curve._point_sightings) <= 4 * _TABLE_CACHE_SIZE
    for point, table in tables.items():
        assert curve._table_cache.get((point.x, point.y, 4)) is table
