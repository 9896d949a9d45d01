"""A simulated bilinear (pairing-friendly) group.

The paper's prototype builds a BLS threshold-signature application on libBLS,
which works over the pairing-friendly curve BLS12-381. A production pairing
implementation is far outside the scope of a simulator, so this module provides
a *structurally faithful*, cryptographically insecure stand-in:

* three groups G1, G2, GT of the same prime order ``r`` (the BLS12-381 scalar
  field order, so exponent arithmetic matches the real curve),
* elements are represented internally by their discrete logarithms relative to
  fixed generators, but the public API is the same as a real pairing library's
  (``add``, ``multiply``, ``hash_to_g1``, ``pairing``), and the representation
  is wrapped in opaque classes plus a masked serialization so application code
  cannot "accidentally" use the trapdoor,
* the pairing satisfies bilinearity exactly: ``e(a·P, b·Q) = e(P, Q)^{ab}``.

Every algebraic identity that BLS signing, verification, aggregation, and
Lagrange-in-the-exponent rely on therefore holds, which is what the
reproduction needs; only the hardness assumption is simulated.
docs/architecture.md ("Simulated substitutions") documents this
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import hash_to_int, hkdf, sha256
from repro.errors import CryptoError, InvalidPointError

__all__ = ["BilinearGroup", "G1Element", "G2Element", "GTElement", "BLS_SCALAR_ORDER"]

# The BLS12-381 scalar-field order r (a 255-bit prime), so exponent arithmetic
# is identical to what libBLS would perform.
BLS_SCALAR_ORDER = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

# Masks applied during serialization so that serialized elements do not expose
# the internal discrete-log representation directly.
_G1_MASK = int.from_bytes(sha256(b"repro/bilinear/g1-mask"), "big")
_G2_MASK = int.from_bytes(sha256(b"repro/bilinear/g2-mask"), "big")
_GT_MASK = int.from_bytes(sha256(b"repro/bilinear/gt-mask"), "big")


@dataclass(frozen=True)
class _GroupElement:
    """Base class for simulated group elements (internal exponent representation)."""

    exponent: int

    _mask: int = 0
    _tag: str = "?"

    def __eq__(self, other) -> bool:
        if isinstance(other, _GroupElement):
            return self._tag == other._tag and self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._tag, self.exponent))

    def to_bytes(self) -> bytes:
        """Serialize the element (masked, fixed 48-byte encoding)."""
        masked = (self.exponent ^ self._mask) % (1 << 384)
        return self._tag.encode("ascii").ljust(4, b"\x00") + masked.to_bytes(44, "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_bytes().hex()[:16]}...)"


class G1Element(_GroupElement):
    """An element of the simulated G1 group (where BLS signatures live)."""

    def __init__(self, exponent: int):
        super().__init__(exponent % BLS_SCALAR_ORDER, _G1_MASK, "G1")


class G2Element(_GroupElement):
    """An element of the simulated G2 group (where BLS public keys live)."""

    def __init__(self, exponent: int):
        super().__init__(exponent % BLS_SCALAR_ORDER, _G2_MASK, "G2")


class GTElement(_GroupElement):
    """An element of the simulated target group GT (pairing outputs)."""

    def __init__(self, exponent: int):
        super().__init__(exponent % BLS_SCALAR_ORDER, _GT_MASK, "GT")


_CLASS_BY_TAG = {"G1": G1Element, "G2": G2Element, "GT": GTElement}
_MASK_BY_TAG = {"G1": _G1_MASK, "G2": _G2_MASK, "GT": _GT_MASK}


class BilinearGroup:
    """Operations on the simulated bilinear group (G1, G2, GT) of prime order r."""

    order = BLS_SCALAR_ORDER

    # ------------------------------------------------------------------
    # Generators and identities
    # ------------------------------------------------------------------
    def g2_generator(self) -> G2Element:
        """The fixed G2 generator."""
        return G2Element(1)

    def g1_identity(self) -> G1Element:
        """The G1 identity element."""
        return G1Element(0)

    def g2_identity(self) -> G2Element:
        """The G2 identity element."""
        return G2Element(0)

    def gt_identity(self) -> GTElement:
        """The GT identity element."""
        return GTElement(0)

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def add(self, a: _GroupElement, b: _GroupElement) -> _GroupElement:
        """Group operation (written additively for G1/G2, multiplicatively for GT)."""
        if type(a) is not type(b):
            raise CryptoError("cannot combine elements of different groups")
        return type(a)((a.exponent + b.exponent) % self.order)

    def negate(self, a: _GroupElement) -> _GroupElement:
        """Inverse element."""
        return type(a)((-a.exponent) % self.order)

    def multiply(self, a: _GroupElement, scalar: int) -> _GroupElement:
        """Scalar multiplication ``scalar · a``."""
        return type(a)((a.exponent * (scalar % self.order)) % self.order)

    def hash_to_g1(self, message: bytes, domain: bytes = b"repro/bls/h2c") -> G1Element:
        """Hash an arbitrary message onto G1 (the BLS ``H(m)`` map)."""
        # Expand-then-reduce so the map is indistinguishable from uniform.
        expanded = hkdf(message, salt=domain, info=b"hash-to-g1", length=64)
        return G1Element(int.from_bytes(expanded, "big") % self.order)

    def hash_to_scalar(self, message: bytes, domain: str = "repro/bls/h2s") -> int:
        """Hash a message to a scalar in [0, r)."""
        return hash_to_int(message, self.order, tag=domain)

    def pairing(self, p: G1Element, q: G2Element) -> GTElement:
        """The bilinear map ``e : G1 × G2 → GT``.

        Satisfies ``e(aP, bQ) = e(P, Q)^{ab}`` exactly, which is the only
        property BLS verification and aggregation rely on.
        """
        if not isinstance(p, G1Element) or not isinstance(q, G2Element):
            raise CryptoError("pairing expects (G1, G2) arguments")
        return GTElement((p.exponent * q.exponent) % self.order)

    def multi_pairing(self, pairs: list[tuple[G1Element, G2Element]]) -> GTElement:
        """Product of pairings, as used by batched BLS verification."""
        accumulator = self.gt_identity()
        for p, q in pairs:
            accumulator = self.add(accumulator, self.pairing(p, q))
        return accumulator

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def element_from_bytes(self, data: bytes) -> _GroupElement:
        """Deserialize a group element produced by ``to_bytes``."""
        if len(data) != 48:
            raise InvalidPointError("bilinear group elements serialize to 48 bytes")
        tag = data[:4].rstrip(b"\x00").decode("ascii", errors="replace")
        if tag not in _CLASS_BY_TAG:
            raise InvalidPointError(f"unknown group tag {tag!r}")
        masked = int.from_bytes(data[4:], "big")
        exponent = (masked ^ _MASK_BY_TAG[tag]) % self.order
        return _CLASS_BY_TAG[tag](exponent)

    def random_scalar(self, rng=None) -> int:
        """Sample a random scalar in [1, r)."""
        if rng is None:
            from repro.crypto.rng import randbelow

            return 1 + randbelow(self.order - 1)
        return 1 + rng.randrange(self.order - 1)
