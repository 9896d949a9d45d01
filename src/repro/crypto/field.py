"""Prime-field arithmetic.

:class:`PrimeField` implements GF(p) for an arbitrary prime ``p`` and hands out
:class:`FieldElement` values that support the usual operator overloads. The
field is the workhorse underneath Shamir secret sharing, Feldman VSS, the
distributed key generation protocol, Lagrange interpolation for threshold BLS,
and the Prio-style private aggregation application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import CryptoError

__all__ = ["PrimeField", "FieldElement"]


def _is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Miller-Rabin primality test (deterministic for small n, probabilistic above)."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Use fixed witnesses: deterministic for n < 3.3e24 and adequate beyond.
    for a in small_primes[:rounds]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldElement:
    """An element of a prime field.

    Instances are immutable; arithmetic returns new elements. Mixing elements
    from different fields raises :class:`~repro.errors.CryptoError`.
    """

    value: int
    field: "PrimeField"

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.field is not other.field and self.field.modulus != other.field.modulus:
            raise CryptoError("cannot combine elements of different fields")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            self._check_same_field(other)
            return other
        if isinstance(other, int):
            return self.field(other)
        raise TypeError(f"cannot coerce {type(other).__name__} to FieldElement")

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement((self.value + other.value) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement((self.value - other.value) % self.field.modulus, self.field)

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement((self.value * other.value) % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) / self

    def __neg__(self) -> "FieldElement":
        return FieldElement((-self.value) % self.field.modulus, self.field)

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0 and self.value == 0:
            raise CryptoError("zero has no multiplicative inverse")
        return FieldElement(pow(self.value, exponent, self.field.modulus), self.field)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        if isinstance(other, FieldElement):
            return self.field.modulus == other.field.modulus and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.modulus))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldElement({self.value} mod {self.field.modulus})"

    def inverse(self) -> "FieldElement":
        """Return the multiplicative inverse; raises on zero."""
        if self.value == 0:
            raise CryptoError("zero has no multiplicative inverse")
        return FieldElement(pow(self.value, -1, self.field.modulus), self.field)

    def is_zero(self) -> bool:
        """True when this element is the additive identity."""
        return self.value == 0

    def to_bytes(self) -> bytes:
        """Encode the element big-endian into the field's fixed byte length."""
        return self.value.to_bytes(self.field.byte_length, "big")


class PrimeField:
    """The finite field GF(p) for a prime modulus ``p``.

    The constructor verifies primality (Miller-Rabin) unless ``unsafe_skip_check``
    is given, which is useful in tests exercising very large known primes.
    """

    def __init__(self, modulus: int, unsafe_skip_check: bool = False):
        if modulus < 2:
            raise CryptoError("field modulus must be >= 2")
        if not unsafe_skip_check and not _is_probable_prime(modulus):
            raise CryptoError(f"field modulus {modulus} is not prime")
        self.modulus = modulus
        self.byte_length = (modulus.bit_length() + 7) // 8

    def __call__(self, value: int) -> FieldElement:
        """Create a field element, reducing ``value`` modulo p."""
        return FieldElement(value % self.modulus, self)

    def zero(self) -> FieldElement:
        """The additive identity."""
        return FieldElement(0, self)

    def one(self) -> FieldElement:
        """The multiplicative identity."""
        return FieldElement(1, self)

    def from_bytes(self, data: bytes) -> FieldElement:
        """Decode a big-endian byte string (reduced modulo p)."""
        return self(int.from_bytes(data, "big"))

    def random(self, rng=None) -> FieldElement:
        """Sample a uniformly random field element.

        Args:
            rng: optional ``random.Random``-like object with ``randrange``;
                defaults to the library source (:mod:`repro.crypto.rng`).
        """
        if rng is None:
            from repro.crypto.rng import randbelow

            return self(randbelow(self.modulus))
        return self(rng.randrange(self.modulus))

    def elements(self, values: Iterable[int]) -> list[FieldElement]:
        """Convenience: map a list of ints into field elements."""
        return [self(v) for v in values]

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimeField(modulus={self.modulus})"
