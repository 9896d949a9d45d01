"""Seeded property-based round-trip tests for the codec and framing layers.

A seeded generator produces random values from the codec's full type lattice
(including deep nesting and adversarial string/byte content) and asserts the
two properties the rest of the system depends on:

* ``decode(encode(v)) == v`` for every encodable value, and the encoding is
  canonical (re-encoding the decoded value is byte-identical);
* every strict prefix of a valid encoding raises ``DecodingError`` — the
  codec never mistakes truncated input for a complete value;
* every mutant of a valid encoding (bytes flipped, inserted, deleted or cut
  off) either raises ``DecodingError`` or re-encodes to exactly its own
  bytes — the decoder accepts canonical encodings only.
"""

import random

import pytest

from repro.errors import DecodingError
from repro.wire.codec import decode, encode
from repro.wire.framing import MAX_FRAME_SIZE, FrameReader, frame_message, split_frames

ROUNDS = 60


def random_value(rng: random.Random, depth: int = 0):
    """One random value from the codec's supported type lattice."""
    choices = ["none", "bool", "int", "bytes", "str"]
    if depth < 4:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        magnitude = rng.choice([0, 1, 255, 2**31, 2**64, rng.getrandbits(200)])
        return magnitude if rng.random() < 0.5 else -magnitude
    if kind == "bytes":
        return rng.randbytes(rng.randrange(0, 40))
    if kind == "str":
        alphabet = "abc\x00é€\U0001f511 "
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    keys = {f"k{rng.randrange(100)}" for _ in range(rng.randrange(0, 5))}
    return {key: random_value(rng, depth + 1) for key in keys}


MUTATION_ROUNDS = 400


def mutants(rng: random.Random, blob: bytes, count: int = 8) -> list[bytes]:
    """``count`` seeded mutants of ``blob``: a byte replaced, a byte inserted,
    a byte deleted, or the tail cut off. Replacements favour the small
    values (0, 1, 2, 0xFF) that sit next to canonical tag, sign, bool and
    length bytes."""
    out = []
    for _ in range(count):
        kind = rng.randrange(4)
        position = rng.randrange(len(blob) + (kind == 1))
        byte = rng.choice([0, 1, 2, 0xFF, rng.randrange(256)])
        if kind == 0:
            mutant = blob[:position] + bytes([byte]) + blob[position + 1:]
        elif kind == 1:
            mutant = blob[:position] + bytes([byte]) + blob[position:]
        elif kind == 2:
            mutant = blob[:position] + blob[position + 1:]
        else:
            mutant = blob[:position]
        out.append(mutant)
    return out


class TestCodecProperties:
    def test_round_trip_and_canonical(self):
        rng = random.Random(0xC0DEC)
        for _ in range(ROUNDS):
            value = random_value(rng)
            blob = encode(value)
            decoded = decode(blob)
            assert decoded == value
            assert encode(decoded) == blob  # canonical: one encoding per value

    def test_every_strict_prefix_raises(self):
        rng = random.Random(0xBADC0DE)
        for _ in range(ROUNDS // 3):
            blob = encode(random_value(rng))
            for cut in range(len(blob)):
                with pytest.raises(DecodingError):
                    decode(blob[:cut])

    def test_trailing_garbage_raises(self):
        rng = random.Random(3)
        for _ in range(ROUNDS // 3):
            blob = encode(random_value(rng))
            with pytest.raises(DecodingError):
                decode(blob + b"\x00")

    def test_unknown_tag_raises(self):
        with pytest.raises(DecodingError, match="unknown tag"):
            decode(b"Zjunk")

    def test_non_canonical_int_encodings_rejected(self):
        # Leading-zero magnitude and negative zero both have canonical forms.
        with pytest.raises(DecodingError):
            decode(b"I\x00" + (2).to_bytes(4, "big") + b"\x00\x01")
        with pytest.raises(DecodingError):
            decode(b"I\x01" + (0).to_bytes(4, "big"))

    def test_mutants_are_rejected_or_canonical(self):
        rng = random.Random(0x5EED)
        checked = 0
        for _ in range(MUTATION_ROUNDS):
            blob = encode(random_value(rng))
            for mutant in mutants(rng, blob):
                try:
                    value = decode(mutant)
                except DecodingError:
                    continue
                assert encode(value) == mutant, (mutant, value)
                checked += 1
        assert checked > 100  # the property saw many accepted mutants too

    @pytest.mark.parametrize("blob", [
        b"T\x02", b"T\xff",
        b"I\x02" + (1).to_bytes(4, "big") + b"\x05",
        b"I\x07" + (0).to_bytes(4, "big"),
        b"L" + (1).to_bytes(4, "big") + b"T\x02",
        b"D" + (1).to_bytes(4, "big") + (1).to_bytes(4, "big") + b"k"
        + b"I\x02" + (1).to_bytes(4, "big") + b"\x05",
    ])
    def test_non_canonical_bool_and_sign_bytes_rejected(self, blob):
        with pytest.raises(DecodingError, match="non-canonical (bool|int sign) byte"):
            decode(blob)

    def test_unsorted_dict_keys_rejected(self):
        blob = bytearray(b"D" + (2).to_bytes(4, "big"))
        for key in ("b", "a"):  # wrong order on the wire
            raw = key.encode()
            blob += len(raw).to_bytes(4, "big") + raw + b"N"
        with pytest.raises(DecodingError, match="canonical order"):
            decode(bytes(blob))


class TestFramingProperties:
    def test_frame_stream_round_trip_arbitrary_chunking(self):
        rng = random.Random(0xF4A3)
        for _ in range(ROUNDS // 3):
            payloads = [rng.randbytes(rng.randrange(0, 200))
                        for _ in range(rng.randrange(1, 8))]
            stream = b"".join(frame_message(p) for p in payloads)
            assert split_frames(stream) == payloads

            reader = FrameReader()
            received = []
            position = 0
            while position < len(stream):
                step = rng.randrange(1, 17)
                received.extend(reader.feed(stream[position:position + step]))
                position += step
            assert received == payloads
            assert reader.pending_bytes == 0

    def test_truncated_stream_reports_partial_frame(self):
        rng = random.Random(5)
        for _ in range(ROUNDS // 3):
            payload = rng.randbytes(rng.randrange(1, 64))
            stream = frame_message(payload)
            cut = rng.randrange(1, len(stream))
            with pytest.raises(DecodingError, match="partial"):
                split_frames(stream[:cut])

    def test_oversized_frame_rejected_on_both_sides(self):
        with pytest.raises(DecodingError):
            frame_message(b"x" * (MAX_FRAME_SIZE + 1))
        oversized_header = (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(DecodingError, match="maximum"):
            FrameReader().feed(oversized_header)
