"""Small shared utilities used across the repro package."""

from __future__ import annotations

import hmac

from repro.crypto import rng

__all__ = [
    "constant_time_equal",
    "random_bytes",
]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings in constant time.

    Used wherever the library compares MACs, digests, or other secret-derived
    values, so that the simulator exhibits the same comparison discipline a
    production implementation would.
    """
    return hmac.compare_digest(a, b)


def random_bytes(n: int) -> bytes:
    """Return ``n`` random bytes (cryptographically secure outside replay).

    Drawn through :mod:`repro.crypto.rng` so simulation drivers can make the
    stream deterministic for same-seed replay.
    """
    if n < 0:
        raise ValueError("cannot request a negative number of random bytes")
    return rng.token_bytes(n)
