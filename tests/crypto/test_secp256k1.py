"""Unit tests for secp256k1 group arithmetic and point serialization."""

import pytest
from hypothesis import assume, given, settings, strategies as st

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


def test_uncompressed_decoding_rejects_out_of_range_coordinates():
    p = SECP256K1.p
    # (1, y) is on the curve, and so is (x, 1) for the cube root x of 1 - 7
    # (p = 7 mod 9, so a^((p + 2) / 9) is a cube root of any cube a). Adding
    # p to a small coordinate still fits in 32 bytes and still satisfies the
    # curve equation mod p, but is a second encoding of the same key.
    on_x1 = SECP256K1.decode_point(b"\x02" + (1).to_bytes(32, "big"))
    x_for_y1 = pow(-6 % p, (p + 2) // 9, p)
    on_y1 = Point(x_for_y1, 1)
    assert SECP256K1.is_on_curve(on_y1)
    for x, y in ((on_x1.x + p, on_x1.y), (on_y1.x, on_y1.y + p)):
        encoded = b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
        with pytest.raises(InvalidPointError):
            SECP256K1.decode_point(encoded)
    for point in (on_x1, on_y1):
        assert SECP256K1.decode_point(SECP256K1.encode_point(point, compressed=False)) == point


# ----------------------------------------------------------------------
# An independent oracle for every multiply path
# ----------------------------------------------------------------------
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72


def reference_multiply(point, scalar):
    """Textbook double-and-add over the affine group law alone."""
    result = INFINITY
    while scalar:
        if scalar & 1:
            result = SECP256K1.add(result, point)
        point = SECP256K1.add(point, point)
        scalar >>= 1
    return result


EDGE_SCALARS = [
    0, 1, 2, N - 1, N, N + 1, 2**256 - 1, LAMBDA, N - LAMBDA,
    (-5 + 7 * LAMBDA) % N, (3 - 9 * LAMBDA) % N, (-11 - 13 * LAMBDA) % N,
]


def test_edge_scalars_cover_every_sign_of_the_glv_halves():
    halves = [SECP256K1._glv_split(k % N) for k in EDGE_SCALARS if k % N]
    assert any(k1 == 0 for k1, _ in halves) and any(k2 == 0 for _, k2 in halves)
    assert any(k1 < 0 and k2 > 0 for k1, k2 in halves)
    assert any(k1 > 0 and k2 < 0 for k1, k2 in halves)
    assert any(k1 < 0 and k2 < 0 for k1, k2 in halves)


@st.composite
def curve_points(draw):
    """A random curve point, lifted from a random x without the multiply paths."""
    x = draw(st.integers(min_value=0, max_value=SECP256K1.p - 1))
    prefix = draw(st.sampled_from([b"\x02", b"\x03"]))
    try:
        return SECP256K1.decode_point(prefix + x.to_bytes(32, "big"))
    except InvalidPointError:
        assume(False)  # about half of all x have no point


scalars = st.one_of(st.sampled_from(EDGE_SCALARS),
                    st.integers(min_value=0, max_value=2**256 - 1))


@settings(max_examples=30, deadline=None)
@given(point=curve_points(), scalar=scalars)
def test_property_multiply_matches_reference(point, scalar):
    assert SECP256K1.multiply(point, scalar) == reference_multiply(point, scalar)


@settings(max_examples=30, deadline=None)
@given(scalar=scalars)
def test_property_generator_multiply_matches_reference(scalar):
    assert SECP256K1.generator_multiply(scalar) == reference_multiply(G, scalar)


@pytest.fixture(scope="module", params=range(1, 9), ids=lambda window: f"window{window}")
def window_table(request):
    point = reference_multiply(G, 0xC0FFEE + request.param)
    return point, SECP256K1.precompute(point, window=request.param)


@settings(max_examples=8, deadline=None)
@given(scalar=scalars)
def test_property_table_multiply_matches_reference_at_every_window(window_table, scalar):
    point, table = window_table
    expected = reference_multiply(point, scalar)
    assert table.multiply(scalar) == expected
    assert SECP256K1._from_jacobian(table.multiply_jacobian(scalar)) == expected


@settings(max_examples=15, deadline=None)
@given(point=curve_points(), scalar=scalars)
def test_property_multiply_cached_matches_reference_before_and_after_promotion(point, scalar):
    from repro.crypto.secp256k1 import _PROMOTE_AT_SIGHTING, Secp256k1

    curve = Secp256k1()
    expected = reference_multiply(point, scalar)
    key = (point.x, point.y, 4)
    assert curve.multiply_cached(point, scalar) == expected
    for _ in range(_PROMOTE_AT_SIGHTING - 2):
        curve.multiply_cached(point, 1)
    assert key not in curve._table_cache
    assert curve.multiply_cached(point, scalar) == expected  # the promoting sighting
    assert key in curve._table_cache
    assert curve.multiply_cached(point, scalar) == expected


# The hot loops add each affine entry with an inlined mixed addition whose
# exceptional cases (accumulator at infinity, addend equal to the
# accumulator, addend equal to its negation) must behave as the general
# Jacobian addition does. Reduced scalars never reach the last two through a
# well-formed table or a short GLV split, so these tests build the inputs
# that do.
def _negated(entry):
    x, y = entry
    return (x, SECP256K1.p - y)


def test_table_multiply_takes_the_exceptional_mixed_addition_branches():
    point = reference_multiply(G, 0xABCDEF)
    table = SECP256K1.precompute(point)
    rows = table._rows
    # Make row 1's digit-1 entry equal row 0's: 17 = 1 + 1*16 adds P to P.
    rows[1][1] = rows[0][1]
    assert table.multiply(0x11) == reference_multiply(point, 2)
    # Its negation: P + (-P) is infinity, and the next digit's entry is
    # then taken as is.
    rows[1][1] = _negated(rows[0][1])
    assert table.multiply(0x11).is_infinity
    assert SECP256K1._from_jacobian(table.multiply_jacobian(0x11)).is_infinity
    assert table.multiply(0x311) == reference_multiply(point, 3 << 8)


def test_glv_ladder_is_exact_for_long_decompositions_that_hit_exceptional_additions():
    from repro.crypto.secp256k1 import _GLV_A1, _GLV_A2, _GLV_B1, _GLV_B2, Secp256k1

    # (A1, B1) and (A2, B2) are lattice vectors: A + B*lambda = 0 (mod n).
    # Adding one to a short split keeps k1 + k2*lambda equal to the scalar but
    # makes a partial sum of the ladder meet its addend.
    cases = [
        # The last addition adds 3*lambda*P to itself: a doubling.
        ((_GLV_A1, _GLV_B1 + 6), 6 * LAMBDA % N),
        # A partial sum reaches -addend, so the accumulator passes through
        # infinity and takes the next addend as is.
        ((4 * _GLV_A2 - 15, 4 * _GLV_B2), N - 15),
    ]
    point = reference_multiply(G, 0x5EED)
    for split, scalar in cases:
        curve = Secp256k1()
        assert (split[0] + split[1] * LAMBDA - scalar) % N == 0
        curve._glv_split = lambda _scalar, split=split: split
        assert curve.multiply(point, scalar) == reference_multiply(point, scalar)


def test_jacobian_add_exceptional_cases_match_the_affine_law():
    point = reference_multiply(G, 77)
    jac = SECP256K1._to_jacobian(point)
    doubled = SECP256K1._jacobian_add(jac, jac)
    assert SECP256K1._from_jacobian(doubled) == SECP256K1.add(point, point)
    negated = SECP256K1._to_jacobian(SECP256K1.negate(point))
    assert SECP256K1._from_jacobian(SECP256K1._jacobian_add(jac, negated)).is_infinity
    assert SECP256K1._jacobian_add((0, 1, 0), jac) == jac
