"""Unit and property tests for prime-field arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.errors import CryptoError

F17 = PrimeField(17)
F_BIG = PrimeField(
    0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    unsafe_skip_check=True,
)


class TestPrimeFieldConstruction:
    def test_rejects_composite_modulus(self):
        with pytest.raises(CryptoError):
            PrimeField(15)

    def test_rejects_modulus_below_two(self):
        with pytest.raises(CryptoError):
            PrimeField(1)

    def test_accepts_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 101):
            assert PrimeField(p).modulus == p

    def test_unsafe_skip_check_allows_any_modulus(self):
        assert PrimeField(15, unsafe_skip_check=True).modulus == 15

    def test_byte_length(self):
        assert PrimeField(251).byte_length == 1
        assert PrimeField(257).byte_length == 2
        assert F_BIG.byte_length == 32

    def test_equality_and_hash(self):
        assert PrimeField(17) == F17
        assert hash(PrimeField(17)) == hash(F17)
        assert PrimeField(19) != F17


class TestFieldElementArithmetic:
    def test_add_wraps_modulus(self):
        assert F17(9) + F17(12) == F17(4)

    def test_add_accepts_int(self):
        assert F17(9) + 12 == F17(4)
        assert 12 + F17(9) == F17(4)

    def test_sub(self):
        assert F17(3) - F17(5) == F17(15)
        assert 3 - F17(5) == F17(15)

    def test_mul(self):
        assert F17(5) * F17(7) == F17(1)

    def test_division(self):
        assert (F17(10) / F17(5)) * F17(5) == F17(10)

    def test_division_by_zero_raises(self):
        with pytest.raises(CryptoError):
            _ = F17(3) / F17(0)

    def test_negation(self):
        assert -F17(5) == F17(12)
        assert -F17(0) == F17(0)

    def test_pow(self):
        assert F17(2) ** 4 == F17(16)
        assert F17(3) ** 16 == F17(1)  # Fermat's little theorem

    def test_inverse(self):
        for value in range(1, 17):
            assert F17(value) * F17(value).inverse() == F17(1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(CryptoError):
            F17(0).inverse()

    def test_is_zero(self):
        assert F17(0).is_zero()
        assert not F17(1).is_zero()

    def test_to_bytes_round_trip(self):
        element = F_BIG(123456789)
        assert F_BIG.from_bytes(element.to_bytes()) == element

    def test_mixing_fields_raises(self):
        with pytest.raises(CryptoError):
            _ = F17(1) + PrimeField(19)(1)

    def test_coerce_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            _ = F17(1) + "nope"

    def test_int_conversion(self):
        assert int(F17(5)) == 5


class TestFieldHelpers:
    def test_zero_and_one(self):
        assert F17.zero() == F17(0)
        assert F17.one() == F17(1)

    def test_elements_helper(self):
        assert F17.elements([1, 2, 3]) == [F17(1), F17(2), F17(3)]

    def test_random_in_range(self):
        for _ in range(20):
            assert 0 <= F17.random().value < 17

    def test_random_with_rng(self):
        import random

        rng = random.Random(7)
        values = [F17.random(rng).value for _ in range(5)]
        rng2 = random.Random(7)
        assert values == [F17.random(rng2).value for _ in range(5)]


class TestLagrangeInterpolation:
    """Lagrange interpolation at zero over GF(17), as Shamir reconstruction
    runs it: a share is a point ``(index, value)`` on the polynomial."""

    @staticmethod
    def interpolate(threshold, points):
        scheme = ShamirSecretSharing(threshold, 16, F17)
        return scheme.reconstruct([Share(x, y) for x, y in points])

    def test_recovers_constant_polynomial(self):
        assert self.interpolate(2, [(1, 5), (2, 5)]) == 5

    def test_recovers_linear_polynomial(self):
        # f(x) = 3 + 2x over GF(17)
        assert self.interpolate(2, [(1, 5), (4, 11)]) == 3

    def test_recovers_quadratic_polynomial(self):
        # f(x) = 7 + x + 2x^2 over GF(17)
        def f(x):
            return (7 + x + 2 * x * x) % 17

        assert self.interpolate(3, [(x, f(x)) for x in (2, 5, 9)]) == 7

    def test_requires_points(self):
        with pytest.raises(CryptoError):
            self.interpolate(2, [])

    def test_rejects_duplicate_x(self):
        with pytest.raises(CryptoError):
            self.interpolate(2, [(1, 2), (1, 3)])


@settings(max_examples=50)
@given(a=st.integers(min_value=0, max_value=10**40), b=st.integers(min_value=0, max_value=10**40))
def test_property_addition_commutes(a, b):
    assert F_BIG(a) + F_BIG(b) == F_BIG(b) + F_BIG(a)


@settings(max_examples=50)
@given(
    a=st.integers(min_value=0, max_value=10**40),
    b=st.integers(min_value=0, max_value=10**40),
    c=st.integers(min_value=0, max_value=10**40),
)
def test_property_distributivity(a, b, c):
    left = F_BIG(a) * (F_BIG(b) + F_BIG(c))
    right = F_BIG(a) * F_BIG(b) + F_BIG(a) * F_BIG(c)
    assert left == right


@settings(max_examples=50)
@given(a=st.integers(min_value=1, max_value=10**40))
def test_property_inverse_round_trip(a):
    element = F_BIG(a)
    if not element.is_zero():
        assert element * element.inverse() == F_BIG.one()
