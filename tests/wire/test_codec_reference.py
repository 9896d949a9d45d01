"""The production codec against the frozen value-at-a-time reference.

``codec_reference.py`` is the codec as it was before its leaf fast paths.
For seeded random values (subclasses of int and str, ``bytearray``, tuples,
and values nested to depths 63-66 around the depth limit) both encoders
must give the same bytes or the same exception type and message. For the
encodings of those values, mutants of them, and hand-built blobs that nest
past the depth limit, both decoders must give the same value (types
included) or the same exception type and message. The one allowed
difference is the production decoder's two canonical rejections, a bool or
int sign byte other than 0 or 1, and only where the reference either
accepted a non-canonical input or failed on it later.
"""

import enum
import random

import pytest

import codec_reference as reference
from test_codec_properties import mutants, random_value

from repro.errors import DecodingError
from repro.wire import codec

NEW_REJECTIONS = {"non-canonical bool byte", "non-canonical int sign byte"}
DEPTHS = (63, 64, 65, 66)


class Number(int):
    pass


class Text(str):
    pass


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Row(list):
    pass


class Record(dict):
    pass


def leaf(rng: random.Random):
    """A random leaf, including the types that take the subclass fallbacks.

    ``bool`` cannot be subclassed; ``IntEnum`` members are the int subclass
    whose ``str``/``repr`` differ from ``int``'s.
    """
    kind = rng.randrange(10)
    if kind == 0:
        return Number(rng.choice([0, 7, -7, 2**70]))
    if kind == 1:
        return Text(rng.choice(["", "k", "é€"]))
    if kind == 2:
        return rng.choice(list(Colour))
    if kind == 3:
        return bytearray(rng.randbytes(rng.randrange(0, 6)))
    if kind == 4:
        return rng.random() < 0.5
    return random_value(rng, depth=4)


def wide_value(rng: random.Random, depth: int = 0):
    """Containers of every supported kind, tuples and subclasses included."""
    if depth >= 3 or rng.random() < 0.3:
        return leaf(rng)
    items = [wide_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    kind = rng.randrange(5)
    if kind == 0:
        return tuple(items)
    if kind == 1:
        return Row(items)
    if kind == 2:
        return list(items)
    keys = [rng.choice(["a", "b", "k1", "é", ""]) for _ in items]
    mapping = dict(zip(keys, items))
    return Record(mapping) if kind == 3 else mapping


def nested(rng: random.Random, depth: int, inner):
    """``inner`` wrapped in ``depth`` random lists, tuples and dicts."""
    value = inner
    for _ in range(depth):
        kind = rng.randrange(3)
        if kind == 0:
            value = [value]
        elif kind == 1:
            value = (rng.choice([0, "x", True]), value)
        else:
            value = {"k": value, "a": rng.choice([1, "s", False])}
    return value


def deep_blob(rng: random.Random, depth: int, leaf_blob: bytes) -> bytes:
    """An encoding that nests ``leaf_blob`` in ``depth`` one-item containers,
    built by hand because neither encoder produces one past the limit."""
    blob = leaf_blob
    for _ in range(depth):
        if rng.random() < 0.5:
            blob = b"L" + (1).to_bytes(4, "big") + blob
        else:
            blob = b"D" + (1).to_bytes(4, "big") + (1).to_bytes(4, "big") + b"k" + blob
    return blob


def typed(value):
    """``value`` with every node tagged by its type, for exact comparison."""
    if isinstance(value, list):
        return ("list", [typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(key, typed(item)) for key, item in value.items()])
    return (type(value).__name__, value)


def outcome(function, argument):
    try:
        return ("ok", function(argument))
    except Exception as exc:  # compared by type and message
        return ("error", type(exc), str(exc))


def assert_same_encoding(value):
    new = outcome(codec.encode, value)
    old = outcome(reference.encode, value)
    assert new == old, value
    return new[1] if new[0] == "ok" else None


def assert_same_decoding(blob: bytes) -> None:
    new = outcome(codec.decode, blob)
    old = outcome(reference.decode, blob)
    if new[0] == "error" and new[2] in NEW_REJECTIONS:
        assert new[1] is DecodingError
        # Either the reference failed too, or it accepted a value whose
        # canonical encoding is not these bytes.
        assert old[0] == "error" or reference.encode(old[1]) != blob, blob
        return
    if new[0] == "ok":
        assert old[0] == "ok" and typed(new[1]) == typed(old[1]), blob
    else:
        assert new == old, blob


class TestEncodeAgainstReference:
    def test_random_values(self):
        rng = random.Random(0xA11CE)
        for _ in range(300):
            assert_same_encoding(wide_value(rng))

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_values_around_the_depth_limit(self, depth):
        rng = random.Random(depth)
        for _ in range(40):
            assert_same_encoding(nested(rng, depth, leaf(rng)))
            assert_same_encoding(nested(rng, depth, wide_value(rng)))

    @pytest.mark.parametrize("value", [
        {1: "x"}, {"a": 1, 2: "b"}, [1, object()], {"k": 1.5}, (b"x", {"k": {3}}),
    ])
    def test_unencodable_values(self, value):
        with pytest.raises(Exception):
            codec.encode(value)
        assert_same_encoding(value)


class TestDecodeAgainstReference:
    def test_random_encodings_and_their_mutants(self):
        rng = random.Random(0xD3C0DE)
        for _ in range(300):
            blob = reference.encode(wide_value(rng))
            assert_same_decoding(blob)
            for mutant in mutants(rng, blob):
                assert_same_decoding(mutant)

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_blobs_around_the_depth_limit(self, depth):
        rng = random.Random(1000 + depth)
        leaves = [b"N", b"T\x01", b"T\x02", b"I\x00" + (1).to_bytes(4, "big") + b"\x05",
                  b"I\x03" + (0).to_bytes(4, "big"), b"S" + (2).to_bytes(4, "big") + b"ok",
                  b"S" + (2).to_bytes(4, "big") + b"\xff\xfe", b"B" + (9).to_bytes(4, "big"),
                  b"L" + (0).to_bytes(4, "big"), b"I\x00", b"T", b""]
        for leaf_blob in leaves:
            blob = deep_blob(rng, depth, leaf_blob)
            assert_same_decoding(blob)
            for mutant in mutants(rng, blob):
                assert_same_decoding(mutant)

    def test_the_new_rejections_are_the_only_difference(self):
        # Accepted by the reference as False and 5, neither of which
        # re-encodes to these bytes; rejected by the production codec.
        for blob in (b"T\x02", b"I\x07" + (1).to_bytes(4, "big") + b"\x05"):
            assert reference.encode(reference.decode(blob)) != blob
            with pytest.raises(DecodingError, match="non-canonical"):
                codec.decode(blob)
