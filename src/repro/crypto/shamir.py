"""Shamir secret sharing over a prime field.

Shamir's scheme [Shamir79] is the core of the paper's motivating application
(Figure 1): a user splits their secret key across ``n`` trust domains so that
any ``t`` shares reconstruct the key but ``t - 1`` shares reveal nothing.
The implementation is generic over :class:`~repro.crypto.field.PrimeField` and
is reused by Feldman VSS, the DKG, and threshold BLS key generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.rng import randbelow
from repro.errors import SecretSharingError, ThresholdError

__all__ = ["Share", "ShamirSecretSharing", "horner_evaluate_many"]


def _lagrange_at_zero_int(points: list[tuple[int, int]], modulus: int) -> int:
    """Lagrange interpolation at zero on raw integers (the reconstruction hot path).

    Works on plain integers, not :class:`FieldElement` values, whose
    per-operation allocations would dominate reconstruction cost when
    recovering thousands of keys.
    """
    total = 0
    for i, (x_i, y_i) in enumerate(points):
        numerator = 1
        denominator = 1
        for j, (x_j, _) in enumerate(points):
            if i == j:
                continue
            numerator = numerator * x_j % modulus
            denominator = denominator * (x_j - x_i) % modulus
        total = (total + y_i * numerator % modulus
                 * pow(denominator, -1, modulus)) % modulus
    return total


def horner_evaluate_many(coefficients: list[int], xs: list[int], modulus: int) -> list[int]:
    """Evaluate one polynomial at many points with a single Horner sweep.

    Operates on raw integers (no :class:`FieldElement` wrappers), so the inner
    loop is one multiply-add-reduce per (coefficient, point) pair. This is the
    hot path when a dealer issues shares to many clients at once: one sweep
    over the coefficients covers every client index.
    """
    results = [0] * len(xs)
    for coefficient in reversed(coefficients):
        for position, x in enumerate(xs):
            results[position] = (results[position] * x + coefficient) % modulus
    return results

# A 256-bit prime (the secp256k1 group order) works well as a default share field:
# secrets up to 32 bytes embed directly.
DEFAULT_MODULUS = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


@dataclass(frozen=True)
class Share:
    """One Shamir share: the evaluation ``(index, value)`` of the sharing polynomial."""

    index: int
    value: int

    def to_bytes(self, byte_length: int = 32) -> bytes:
        """Serialize as ``index (4 bytes) || value (byte_length bytes)``.

        Raises:
            SecretSharingError: the index or value does not fit the encoding.
        """
        try:
            return self.index.to_bytes(4, "big") + self.value.to_bytes(byte_length, "big")
        except OverflowError as exc:
            raise SecretSharingError(
                f"share ({self.index}, value of {self.value.bit_length()} bits) "
                f"does not fit a {byte_length}-byte encoding"
            ) from exc

    @classmethod
    def from_bytes(cls, data: bytes, byte_length: int = 32) -> "Share":
        """Deserialize a share produced by :meth:`to_bytes`."""
        if len(data) != 4 + byte_length:
            raise SecretSharingError("bad share encoding length")
        return cls(int.from_bytes(data[:4], "big"), int.from_bytes(data[4:], "big"))


class ShamirSecretSharing:
    """A (t, n) Shamir secret-sharing scheme over a prime field.

    Args:
        threshold: number of shares required to reconstruct (``t``).
        num_shares: total number of shares issued (``n``).
        field: the prime field to share over; defaults to a 256-bit field.
    """

    def __init__(self, threshold: int, num_shares: int, field: PrimeField | None = None):
        if threshold < 1:
            raise SecretSharingError("threshold must be at least 1")
        if num_shares < threshold:
            raise SecretSharingError("cannot issue fewer shares than the threshold")
        self.threshold = threshold
        self.num_shares = num_shares
        self.field = field or PrimeField(DEFAULT_MODULUS, unsafe_skip_check=True)
        if num_shares >= self.field.modulus:
            raise SecretSharingError("too many shares for the chosen field")

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------
    def _random_polynomial(self, secret: FieldElement) -> list[FieldElement]:
        coefficients = [secret]
        for _ in range(self.threshold - 1):
            coefficients.append(self.field(randbelow(self.field.modulus)))
        return coefficients

    def _evaluate(self, coefficients: list[FieldElement], x: FieldElement) -> FieldElement:
        # Horner evaluation.
        result = self.field.zero()
        for coefficient in reversed(coefficients):
            result = result * x + coefficient
        return result

    def split(self, secret: int | bytes) -> list[Share]:
        """Split ``secret`` into ``n`` shares, any ``t`` of which reconstruct it."""
        return self.split_with_polynomial(secret)[0]

    def split_with_polynomial(self, secret: int | bytes) -> tuple[list[Share], list[int]]:
        """Like :meth:`split`, but also return the polynomial coefficients.

        Feldman VSS and the DKG need the coefficients to publish commitments.
        All ``n`` share values come from one Horner sweep over the
        coefficients (see :func:`horner_evaluate_many`).
        """
        secret_element = self._coerce_secret(secret)
        coefficients = [c.value for c in self._random_polynomial(secret_element)]
        indices = list(range(1, self.num_shares + 1))
        values = horner_evaluate_many(coefficients, indices, self.field.modulus)
        return [Share(index, value) for index, value in zip(indices, values)], coefficients

    def split_many(self, secrets: list[int | bytes]) -> list[list[Share]]:
        """Split many secrets at once; returns one share list per secret.

        Each secret gets its own fresh random polynomial (shares of different
        secrets must stay independent); the batch form exists so callers
        sharing thousands of client keys go through one call.
        """
        return [self.split(secret) for secret in secrets]

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def reconstruct(self, shares: list[Share]) -> int:
        """Reconstruct the secret from at least ``t`` distinct shares."""
        if len(shares) < self.threshold:
            raise ThresholdError(
                f"need at least {self.threshold} shares, got {len(shares)}"
            )
        seen = set()
        points = []
        for share in shares:
            if share.index in seen:
                raise SecretSharingError(f"duplicate share index {share.index}")
            if not 1 <= share.index <= self.num_shares:
                raise SecretSharingError(f"share index {share.index} out of range")
            seen.add(share.index)
            points.append((share.index, share.value % self.field.modulus))
        # Only the first t shares are needed; extra shares are accepted but ignored
        # after a consistency check against the interpolated polynomial.
        secret = _lagrange_at_zero_int(points[: self.threshold], self.field.modulus)
        if len(points) > self.threshold:
            element_points = [(self.field(x), self.field(y)) for x, y in points]
            expected = self._interpolate_full(element_points[: self.threshold])
            for x, y in element_points[self.threshold:]:
                if self._evaluate(expected, x) != y:
                    raise SecretSharingError(
                        "extra shares are inconsistent with the reconstruction"
                    )
        return secret

    def _interpolate_full(self, points: list[tuple[FieldElement, FieldElement]]) -> list[FieldElement]:
        """Recover polynomial coefficients by Lagrange interpolation (for consistency checks)."""
        field = self.field
        degree = len(points)
        coefficients = [field.zero()] * degree
        for i, (x_i, y_i) in enumerate(points):
            # Build the i-th Lagrange basis polynomial iteratively.
            basis = [field.one()]
            denominator = field.one()
            for j, (x_j, _) in enumerate(points):
                if i == j:
                    continue
                # basis *= (x - x_j)
                new_basis = [field.zero()] * (len(basis) + 1)
                for k, coefficient in enumerate(basis):
                    new_basis[k] = new_basis[k] + coefficient * (-x_j)
                    new_basis[k + 1] = new_basis[k + 1] + coefficient
                basis = new_basis
                denominator = denominator * (x_i - x_j)
            scale = y_i * denominator.inverse()
            for k, coefficient in enumerate(basis):
                coefficients[k] = coefficients[k] + coefficient * scale
        return coefficients

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _coerce_secret(self, secret: int | bytes) -> FieldElement:
        if isinstance(secret, bytes):
            value = int.from_bytes(secret, "big")
        else:
            value = secret
        if value < 0:
            raise SecretSharingError("secret must be non-negative")
        if value >= self.field.modulus:
            raise SecretSharingError("secret does not fit in the share field")
        return self.field(value)
