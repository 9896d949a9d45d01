"""secp256k1 elliptic-curve arithmetic.

The framework uses a real elliptic-curve group for the signatures that matter
to its security argument: the developer's code-update signing key (sealed into
each TEE at provisioning time) and the simulated hardware vendors' attestation
keys. Schnorr and ECDSA signatures are built on top of this module.

Points are affine at the API. Scalar multiplication accumulates in Jacobian
coordinates and adds precomputed points that were normalized to affine with
one field inversion per batch, so every step of its hot loops is an inlined
mixed (Jacobian + affine) addition or doubling. It is not constant time — the
repository is a simulator, not a production crypto library — but it is
functionally correct and validated against the curve equation, known-answer
tests and a textbook double-and-add oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro.errors import CryptoError, InvalidPointError

__all__ = ["Secp256k1", "Point", "FixedBaseTable", "SECP256K1"]

# Standard secp256k1 domain parameters (SEC 2).
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_A = 0
_B = 7
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# GLV endomorphism constants (secp256k1 has j-invariant 0, so the map
# phi(x, y) = (beta * x, y) is an endomorphism acting as multiplication by
# lambda on the prime-order group). Decomposing a scalar k into
# k = k1 + k2 * lambda (mod n) with |k1|, |k2| ~ sqrt(n) halves the doubling
# count of a variable-point multiply; the result is the same group element,
# bit for bit, as textbook double-and-add.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1

# Bound on the number of per-point multiplication tables retained by
# ``Secp256k1.table_for`` (LRU). Each table is 960 affine pairs, about
# 177 KB, so this caps the cache near 3 MB however many distinct keys recur
# over a long run; the benchmark workloads keep at most five tables in use.
_TABLE_CACHE_SIZE = 16

# ``multiply_cached`` promotes a point to a table on this sighting: the
# break-even count of uses. Measured on a 2-vCPU Xeon (Python 3.11, medians
# of nine rounds), a table costs 13.7 plain (GLV + wNAF) multiplies to build
# and a table multiply costs 0.39 of one, so a table pays for itself after 22
# uses (21-27 across rounds). Buying at the break-even point costs at most
# twice the better choice in hindsight. In the benchmark workloads a point is
# seen 1-16 times (a key that lives for one deployment) and a few are seen
# 18-36 times, so only the few seen 22 times or more get tables.
_PROMOTE_AT_SIGHTING = 22

# Window width for the non-adjacent-form ladder inside ``multiply``: width 4
# means 8 precomputed odd multiples per half-scalar and roughly one addition
# every 6 ladder steps.
_WNAF_WIDTH = 4


def _wnaf(scalar: int, width: int = _WNAF_WIDTH) -> list[int]:
    """Width-``width`` non-adjacent form of a non-negative scalar, LSB first.

    Every non-zero digit is odd and in ``(-2^width, 2^width)``, and any two
    non-zero digits are at least ``width + 1`` positions apart — the digit
    density that makes the wNAF ladder cheap.
    """
    digits: list[int] = []
    modulus = 1 << (width + 1)
    half = 1 << width
    while scalar:
        if scalar & 1:
            digit = scalar & (modulus - 1)
            if digit >= half:
                digit -= modulus
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


@dataclass(frozen=True)
class Point:
    """A point on secp256k1 in affine coordinates; ``None`` coordinates = infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        """True for the point at infinity (the group identity)."""
        return self.x is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point(x={hex(self.x)}, y={hex(self.y)})"


INFINITY = Point(None, None)


class FixedBaseTable:
    """Windowed precomputation table for repeated scalar multiplication of one point.

    Splits a scalar into ``ceil(256 / window)`` digits of ``window`` bits and
    precomputes ``digit * 2^(window*i) * P`` for every window position ``i``
    and digit value, so each multiplication costs one mixed addition (a
    Jacobian accumulator plus an affine entry, 11 field multiplications) per
    non-zero digit — no doublings at all — instead of the ~256 doublings plus
    ~128 additions of textbook double-and-add. The entries are built in
    Jacobian coordinates and normalized to affine ``(x, y)`` pairs with one
    field inversion for the whole table. Build the table once for a point
    that is multiplied many times (the curve generator, a server's long-lived
    public key) and amortize the one-time setup across calls.
    """

    def __init__(self, curve: "Secp256k1", point: Point, window: int = 4):
        if not 1 <= window <= 8:
            raise CryptoError("window width must be between 1 and 8 bits")
        if point.is_infinity:
            raise CryptoError("cannot precompute a table for the point at infinity")
        self.curve = curve
        self.point = point
        self.window = window
        self._mask = (1 << window) - 1
        bits = curve.n.bit_length()
        self._num_windows = (bits + window - 1) // window
        # _rows[i][d] = (d << (window * i)) * point as an affine (x, y) pair,
        # for digits d in 1 .. 2^window - 1 (index 0 is unused: a zero digit
        # contributes nothing). No entry is infinity: d << (window * i) is
        # never a multiple of the prime group order.
        entries = []
        base = curve._to_jacobian(point)
        for _ in range(self._num_windows):
            accumulator = base
            entries.append(accumulator)
            for _ in range(self._mask - 1):
                accumulator = curve._jacobian_add(accumulator, base)
                entries.append(accumulator)
            for _ in range(window):
                base = curve._jacobian_double(base)
        affine = curve._to_affine_batch(entries)
        self._rows: list[list[tuple[int, int] | None]] = [
            [None, *affine[start:start + self._mask]]
            for start in range(0, len(affine), self._mask)
        ]

    def multiply(self, scalar: int) -> Point:
        """Return ``scalar * point`` using only table lookups and additions."""
        return self.curve._from_jacobian(self.multiply_jacobian(scalar))

    def multiply_jacobian(self, scalar: int) -> tuple[int, int, int]:
        """Like :meth:`multiply` but return Jacobian coordinates.

        Skips the final inversion, for callers that keep accumulating (e.g.
        batch Feldman verification sums many table multiplications before
        converting once).
        """
        curve = self.curve
        p = curve.p
        scalar %= curve.n
        mask = self._mask
        window = self.window
        x1 = y1 = z1 = 0  # z1 == 0: the accumulator is the point at infinity
        for row in self._rows:
            if not scalar:
                break
            digit = scalar & mask
            scalar >>= window
            if not digit:
                continue
            x2, y2 = row[digit]
            if not z1:
                x1, y1, z1 = x2, y2, 1
                continue
            # Mixed addition (x1, y1, z1) + (x2, y2, 1), a = 0.
            zz = z1 * z1 % p
            h = x2 * zz % p - x1
            r = y2 * zz * z1 % p - y1
            if not h:
                if r:
                    z1 = 0
                else:
                    x1, y1, z1 = curve._jacobian_double((x1, y1, z1))
                continue
            hh = h * h % p
            hhh = h * hh % p
            v = x1 * hh % p
            x3 = (r * r - hhh - 2 * v) % p
            y1 = (r * (v - x3) - y1 * hhh) % p
            x1 = x3
            z1 = z1 * h % p
        return (x1, y1, z1) if z1 else (0, 1, 0)


class Secp256k1:
    """Group operations on the secp256k1 curve."""

    def __init__(self):
        self.p = _P
        self.n = _N
        self.a = _A
        self.b = _B
        self.generator = Point(_GX, _GY)
        self._generator_table: FixedBaseTable | None = None
        self._table_cache: OrderedDict[tuple, FixedBaseTable] = OrderedDict()
        self._point_sightings: OrderedDict[tuple, int] = OrderedDict()
        if not self.is_on_curve(self.generator):
            raise CryptoError("secp256k1 generator failed curve-equation check")

    # ------------------------------------------------------------------
    # Basic point predicates
    # ------------------------------------------------------------------
    def is_on_curve(self, point: Point) -> bool:
        """Check the curve equation y^2 = x^3 + 7 (mod p)."""
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    # ------------------------------------------------------------------
    # Affine group law (used for small cases and as a reference)
    # ------------------------------------------------------------------
    def add(self, p1: Point, p2: Point) -> Point:
        """Add two points using the affine group law."""
        if p1.is_infinity:
            return p2
        if p2.is_infinity:
            return p1
        if p1.x == p2.x and (p1.y + p2.y) % self.p == 0:
            return INFINITY
        if p1.x == p2.x:
            # Doubling
            slope = (3 * p1.x * p1.x + self.a) * pow(2 * p1.y, -1, self.p) % self.p
        else:
            slope = (p2.y - p1.y) * pow(p2.x - p1.x, -1, self.p) % self.p
        x3 = (slope * slope - p1.x - p2.x) % self.p
        y3 = (slope * (p1.x - x3) - p1.y) % self.p
        return Point(x3, y3)

    def negate(self, point: Point) -> Point:
        """Return the additive inverse of a point."""
        if point.is_infinity:
            return INFINITY
        return Point(point.x, (-point.y) % self.p)

    # ------------------------------------------------------------------
    # Jacobian scalar multiplication (fast path)
    # ------------------------------------------------------------------
    def _to_jacobian(self, point: Point) -> tuple[int, int, int]:
        if point.is_infinity:
            return (0, 1, 0)
        return (point.x, point.y, 1)

    def _from_jacobian(self, jac: tuple[int, int, int]) -> Point:
        x, y, z = jac
        if z == 0:
            return INFINITY
        z_inv = pow(z, -1, self.p)
        z_inv2 = z_inv * z_inv % self.p
        return Point(x * z_inv2 % self.p, y * z_inv2 * z_inv % self.p)

    def _jacobian_double(self, jac: tuple[int, int, int]) -> tuple[int, int, int]:
        x, y, z = jac
        if y == 0 or z == 0:
            return (0, 1, 0)
        p = self.p
        yy = y * y % p
        s = 4 * x * yy % p
        m = 3 * x * x % p
        x3 = (m * m - 2 * s) % p
        y3 = (m * (s - x3) - 8 * yy * yy) % p
        z3 = 2 * y * z % p
        return (x3, y3, z3)

    def _jacobian_add(self, a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
        p = self.p
        x1, y1, z1 = a
        x2, y2, z2 = b
        if z1 == 0:
            return b
        if z2 == 0:
            return a
        z1z1 = z1 * z1 % p
        z2z2 = z2 * z2 % p
        u1 = x1 * z2z2 % p
        u2 = x2 * z1z1 % p
        s1 = y1 * z2 * z2z2 % p
        s2 = y2 * z1 * z1z1 % p
        if u1 == u2:
            if s1 != s2:
                return (0, 1, 0)
            return self._jacobian_double(a)
        h = (u2 - u1) % p
        i = 4 * h * h % p
        j = h * i % p
        r = 2 * (s2 - s1) % p
        v = u1 * i % p
        x3 = (r * r - j - 2 * v) % p
        y3 = (r * (v - x3) - 2 * s1 * j) % p
        z3 = 2 * h * z1 * z2 % p
        return (x3, y3, z3)

    def _to_affine_batch(self, points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
        """Affine ``(x, y)`` pairs of finite Jacobian points, with one inversion.

        Montgomery's trick: invert the product of every ``z`` once, then peel
        each point's own inverse off it with two multiplications.
        """
        p = self.p
        prefixes = []
        product = 1
        for _, _, z in points:
            prefixes.append(product)
            product = product * z % p
        inverse = pow(product, -1, p)
        affine = [None] * len(points)
        for index in range(len(points) - 1, -1, -1):
            x, y, z = points[index]
            z_inv = inverse * prefixes[index] % p
            inverse = inverse * z % p
            z_inv2 = z_inv * z_inv % p
            affine[index] = (x * z_inv2 % p, y * z_inv2 * z_inv % p)
        return affine

    def multiply(self, point: Point, scalar: int) -> Point:
        """Scalar multiplication ``scalar * point``.

        Uses the GLV endomorphism: the scalar is split into two half-width
        components processed in one interleaved wNAF ladder (half the
        doublings and far fewer additions than textbook double-and-add).
        The odd multiples of ``point`` are computed once and normalized to
        affine with one inversion; the second half's multiples follow from
        the endomorphism as ``(beta * x, y)``, and both halves' signs are
        folded into the lookup tables before the ladder. The ladder itself
        is inlined doublings and mixed additions. The returned point is
        identical to the textbook result — this is a speedup, not a behavior
        change, so seeded runs stay bit-identical.
        """
        scalar %= self.n
        if scalar == 0 or point.is_infinity:
            return INFINITY
        k1, k2 = self._glv_split(scalar)
        p = self.p
        odd = self._to_affine_batch(self._odd_multiples(self._to_jacobian(point)))
        # (bit position, affine addend) for every non-zero digit of both
        # halves. A signed digit d is looked up as table[d]: negative indices
        # wrap to the table's upper half, which holds the negated multiples,
        # and a negative half swaps the two halves.
        additions = []
        for half, beta in ((k1, 1), (k2, _BETA)):
            if not half:
                continue
            table: list[tuple[int, int] | None] = [None] * (2 << _WNAF_WIDTH)
            for index, (x, y) in enumerate(odd):
                x = x * beta % p
                plus, minus = (x, y), (x, p - y)
                if half < 0:
                    plus, minus = minus, plus
                table[2 * index + 1] = plus
                table[-2 * index - 1] = minus
            additions += [(position, table[digit])
                          for position, digit in enumerate(_wnaf(abs(half))) if digit]
        additions.sort(key=itemgetter(0), reverse=True)
        additions.append((0, None))  # runs the trailing doublings down to bit 0
        x1 = y1 = z1 = 0  # z1 == 0: the accumulator is the point at infinity
        position = additions[0][0]
        for index, addend in additions:
            for _ in range(position - index):
                # Doubling, a = 0 (stays at infinity while z1 == 0).
                yy = y1 * y1 % p
                s = 4 * x1 * yy % p
                m = 3 * x1 * x1 % p
                x3 = (m * m - 2 * s) % p
                z1 = 2 * y1 * z1 % p
                y1 = (m * (s - x3) - 8 * yy * yy) % p
                x1 = x3
            position = index
            if addend is None:
                break
            x2, y2 = addend
            if not z1:
                x1, y1, z1 = x2, y2, 1
                continue
            # Mixed addition (x1, y1, z1) + (x2, y2, 1), a = 0.
            zz = z1 * z1 % p
            h = x2 * zz % p - x1
            r = y2 * zz * z1 % p - y1
            if not h:
                if r:
                    z1 = 0
                else:
                    x1, y1, z1 = self._jacobian_double((x1, y1, z1))
                continue
            hh = h * h % p
            hhh = h * hh % p
            v = x1 * hh % p
            x3 = (r * r - hhh - 2 * v) % p
            y1 = (r * (v - x3) - y1 * hhh) % p
            x1 = x3
            z1 = z1 * h % p
        return self._from_jacobian((x1, y1, z1))

    def _glv_split(self, scalar: int) -> tuple[int, int]:
        """Decompose ``scalar`` into ``(k1, k2)`` with ``k1 + k2*lambda = scalar (mod n)``."""
        n = self.n
        c1 = (_GLV_B2 * scalar + (n >> 1)) // n
        c2 = (-_GLV_B1 * scalar + (n >> 1)) // n
        k1 = scalar - c1 * _GLV_A1 - c2 * _GLV_A2
        k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
        return k1, k2

    def _odd_multiples(self, base: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        """Jacobian odd multiples ``[1, 3, 5, ..., 2^w - 1] * base`` for the wNAF ladder."""
        twice = self._jacobian_double(base)
        multiples = [base]
        add = self._jacobian_add
        for _ in range((1 << (_WNAF_WIDTH - 1)) - 1):
            multiples.append(add(multiples[-1], twice))
        return multiples

    def precompute(self, point: Point, window: int = 4) -> FixedBaseTable:
        """Build a :class:`FixedBaseTable` for a point that is multiplied often."""
        return FixedBaseTable(self, point, window=window)

    def table_for(self, point: Point, window: int = 4) -> FixedBaseTable:
        """A shared, LRU-bounded :class:`FixedBaseTable` for ``point``.

        Signature verification multiplies the *signer's* public key by a fresh
        scalar on every call; for long-lived keys (a vendor's attestation key,
        a deployment's update-signing key, an auditor checkpoint key) the same
        point recurs thousands of times. This cache amortizes one table build
        across all of them while staying memory-bounded: at most
        ``_TABLE_CACHE_SIZE`` distinct points are retained, least recently
        used evicted first. Ephemeral points simply age out.
        """
        key = (point.x, point.y, window)
        table = self._table_cache.get(key)
        if table is not None:
            self._table_cache.move_to_end(key)
            return table
        table = FixedBaseTable(self, point, window=window)
        self._table_cache[key] = table
        while len(self._table_cache) > _TABLE_CACHE_SIZE:
            self._table_cache.popitem(last=False)
        return table

    def multiply_cached(self, point: Point, scalar: int) -> Point:
        """Like :meth:`multiply`, but amortize repeated points through a table.

        A :class:`FixedBaseTable` costs about fourteen plain multiplies to
        build and saves about 0.6 of one per use, so building one early would
        penalize points seen a few times (a fresh ephemeral key, a key that
        lives for one deployment). Instead the point is multiplied directly
        until its ``_PROMOTE_AT_SIGHTING``-th sighting, the break-even count,
        and promoted to a cached table then — after that, every multiply is
        table lookups plus additions. Signature verification over long-lived
        keys (attestation roots, update-signing keys, log heads) is the
        intended caller.
        """
        if point.is_infinity:
            return INFINITY
        key = (point.x, point.y, 4)
        table = self._table_cache.get(key)
        if table is not None:
            self._table_cache.move_to_end(key)
            return table.multiply(scalar)
        seen = self._point_sightings
        count = seen.pop(key, 0) + 1
        if count >= _PROMOTE_AT_SIGHTING:
            return self.table_for(point).multiply(scalar)
        seen[key] = count  # re-inserted last: the least recently seen go first
        while len(seen) > _TABLE_CACHE_SIZE * 4:
            seen.popitem(last=False)
        return self.multiply(point, scalar)

    def generator_multiply(self, scalar: int) -> Point:
        """Multiply the standard generator by ``scalar``.

        Uses a lazily built fixed-base window table, so every caller of the
        hot fixed-base path (key generation, Schnorr/ECDSA signing, Feldman
        commitments) shares one precomputation.
        """
        if self._generator_table is None:
            self._generator_table = FixedBaseTable(self, self.generator)
        return self._generator_table.multiply(scalar)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encode_point(self, point: Point, compressed: bool = True) -> bytes:
        """Serialize a point (SEC 1: 0x02/0x03 compressed, 0x04 uncompressed, 0x00 infinity)."""
        if point.is_infinity:
            return b"\x00"
        if compressed:
            prefix = b"\x02" if point.y % 2 == 0 else b"\x03"
            return prefix + point.x.to_bytes(32, "big")
        return b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")

    def decode_point(self, data: bytes) -> Point:
        """Deserialize a point produced by :meth:`encode_point`."""
        if data == b"\x00":
            return INFINITY
        if not data:
            raise InvalidPointError("empty point encoding")
        prefix = data[0]
        if prefix == 0x04:
            if len(data) != 65:
                raise InvalidPointError("bad uncompressed point length")
            x = int.from_bytes(data[1:33], "big")
            y = int.from_bytes(data[33:65], "big")
            if x >= self.p or y >= self.p:
                raise InvalidPointError("coordinate out of range")
            point = Point(x, y)
        elif prefix in (0x02, 0x03):
            if len(data) != 33:
                raise InvalidPointError("bad compressed point length")
            x = int.from_bytes(data[1:33], "big")
            if x >= self.p:
                raise InvalidPointError("x coordinate out of range")
            y_squared = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
            y = pow(y_squared, (self.p + 1) // 4, self.p)
            if y * y % self.p != y_squared:
                raise InvalidPointError("point is not on the curve")
            if (y % 2 == 0) != (prefix == 0x02):
                y = self.p - y
            point = Point(x, y)
        else:
            raise InvalidPointError(f"unknown point prefix {prefix:#x}")
        if not self.is_on_curve(point):
            raise InvalidPointError("decoded point is not on the curve")
        return point


# Shared curve instance: the curve is stateless, so one instance serves the package.
SECP256K1 = Secp256k1()
