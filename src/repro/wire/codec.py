"""A deterministic, self-describing binary codec.

The format is deliberately tiny — a tag byte followed by a big-endian length
and the payload — and biased toward canonical output:

* dictionary keys are sorted lexicographically before encoding, so two
  semantically equal dicts always serialize identically;
* integers use a minimal-length two's-complement-free encoding (sign byte +
  magnitude), so there is exactly one encoding per value;
* no floats: protocol messages that need fractional values carry scaled
  integers instead, which keeps encodings exact and comparable.

Decoding enforces the same promise from the other side: a leading-zero or
negative-zero int, a sign or bool byte other than 0 or 1, unsorted dict keys
and trailing bytes are all rejected, so every accepted input re-encodes to
exactly its own bytes (what :func:`canonical_digest` relies on).

Tags::

    N  None          I  int            B  bytes        S  str (UTF-8)
    T  True/False    L  list           D  dict

The implementation is the throughput floor of the whole system — every RPC
frame, sandbox boundary copy, and digest passes through here — so both
directions are written allocation-lean: encoding appends into one shared
``bytearray`` (no per-value generator frames or intermediate joins), and
decoding walks integer offsets with the length/bounds checks inlined and
reads lengths with ``unpack_from`` instead of slicing. Inside dict and list
loops the common leaves (int, str, bool) are encoded and decoded in place
rather than by a recursive call; they are most of the values in a batched
RPC frame. Each in-place path makes the same checks, in the same order and
with the same messages, as the recursive one, and a leaf one level past the
depth limit still takes the recursive path and its error.
"""

from __future__ import annotations

import struct

from repro.crypto.hashes import sha256
from repro.errors import DecodingError, EncodingError

__all__ = ["encode", "decode", "canonical_digest"]

_MAX_DEPTH = 64

# A big-endian 4-byte length, alone, after a tag byte, or after an int's tag
# and sign bytes: one ``pack`` per header instead of an append per part.
_pack_length = struct.Struct(">I").pack
_unpack_length = struct.Struct(">I").unpack_from
_pack_header = struct.Struct(">BI").pack
_pack_int_header = struct.Struct(">BBI").pack


def encode(value) -> bytes:
    """Encode a Python value into canonical bytes.

    Supported types: ``None``, ``bool``, ``int``, ``bytes``, ``str``, ``list``,
    ``tuple`` (encoded as a list), and ``dict`` with string keys.
    """
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


def _encode_into(out: bytearray, value, depth: int) -> None:
    # Exact-type checks first, ordered by frequency on the RPC hot path.
    # ``type(x) is int`` is both faster than isinstance and safely excludes
    # bool (a subclass of int, which must encode as T, not I); subclasses
    # fall through to the isinstance chain at the bottom.
    if depth > _MAX_DEPTH:
        raise EncodingError("value nesting too deep to encode")
    kind = type(value)
    if kind is int:
        if value >= 0:
            size = (value.bit_length() + 7) >> 3
            out += _pack_int_header(0x49, 0, size)
        else:
            value = -value
            size = (value.bit_length() + 7) >> 3
            out += _pack_int_header(0x49, 1, size)
        if size:
            out += value.to_bytes(size, "big")
    elif kind is str:
        raw = value.encode("utf-8")
        size = len(raw)
        if size > 0xFFFFFFFF:
            raise EncodingError("length out of range")
        out += _pack_header(0x53, size)
        out += raw
    elif kind is bytes:
        size = len(value)
        if size > 0xFFFFFFFF:
            raise EncodingError("length out of range")
        out += _pack_header(0x42, size)
        out += value
    elif kind is dict:
        size = len(value)
        if size > 0xFFFFFFFF:
            raise EncodingError("length out of range")
        try:
            keys = sorted(value)
        except TypeError:
            raise EncodingError("dict keys must be strings") from None
        out += _pack_header(0x44, size)
        next_depth = depth + 1
        inline = next_depth <= _MAX_DEPTH
        for key in keys:
            if type(key) is not str:
                raise EncodingError("dict keys must be strings")
            raw = key.encode("utf-8")
            out += _pack_length(len(raw))
            out += raw
            item = value[key]
            kind = type(item)
            if not inline:
                _encode_into(out, item, next_depth)
            elif kind is int:
                if item >= 0:
                    size = (item.bit_length() + 7) >> 3
                    out += _pack_int_header(0x49, 0, size)
                else:
                    item = -item
                    size = (item.bit_length() + 7) >> 3
                    out += _pack_int_header(0x49, 1, size)
                if size:
                    out += item.to_bytes(size, "big")
            elif kind is str:
                raw = item.encode("utf-8")
                size = len(raw)
                if size > 0xFFFFFFFF:
                    raise EncodingError("length out of range")
                out += _pack_header(0x53, size)
                out += raw
            elif kind is bool:
                out += b"T\x01" if item else b"T\x00"
            else:
                _encode_into(out, item, next_depth)
    elif kind is list or kind is tuple:
        size = len(value)
        if size > 0xFFFFFFFF:
            raise EncodingError("length out of range")
        out += _pack_header(0x4C, size)
        next_depth = depth + 1
        inline = next_depth <= _MAX_DEPTH
        for item in value:
            kind = type(item)
            if not inline:
                _encode_into(out, item, next_depth)
            elif kind is int:
                if item >= 0:
                    size = (item.bit_length() + 7) >> 3
                    out += _pack_int_header(0x49, 0, size)
                else:
                    item = -item
                    size = (item.bit_length() + 7) >> 3
                    out += _pack_int_header(0x49, 1, size)
                if size:
                    out += item.to_bytes(size, "big")
            elif kind is str:
                raw = item.encode("utf-8")
                size = len(raw)
                if size > 0xFFFFFFFF:
                    raise EncodingError("length out of range")
                out += _pack_header(0x53, size)
                out += raw
            elif kind is bool:
                out += b"T\x01" if item else b"T\x00"
            else:
                _encode_into(out, item, next_depth)
    elif value is None:
        out += b"N"
    elif kind is bool:
        out += b"T\x01" if value else b"T\x00"
    elif kind is bytearray:
        size = len(value)
        if size > 0xFFFFFFFF:
            raise EncodingError("length out of range")
        out += _pack_header(0x42, size)
        out += value
    # Subclass fallbacks, in the original precedence order (bool before int).
    elif isinstance(value, bool):
        out += b"T\x01" if value else b"T\x00"
    elif isinstance(value, int):
        _encode_into(out, int(value), depth)
    elif isinstance(value, bytes):
        _encode_into(out, bytes(value), depth)
    elif isinstance(value, bytearray):
        _encode_into(out, bytes(value), depth)
    elif isinstance(value, str):
        _encode_into(out, str(value), depth)
    elif isinstance(value, (list, tuple)):
        _encode_into(out, list(value), depth)
    elif isinstance(value, dict):
        _encode_into(out, dict(value), depth)
    else:
        raise EncodingError(f"cannot encode values of type {type(value).__name__}")


def decode(data: bytes):
    """Decode bytes produced by :func:`encode`; rejects trailing garbage."""
    value, offset = _decode_value(data, 0, 0)
    if offset != len(data):
        raise DecodingError("trailing bytes after decoded value")
    return value


def _decode_value(data: bytes, offset: int, depth: int):
    if depth > _MAX_DEPTH:
        raise DecodingError("value nesting too deep to decode")
    size = len(data)
    if offset >= size:
        raise DecodingError("unexpected end of input")
    tag = data[offset]
    offset += 1
    if tag == 0x49:  # I
        if offset >= size:
            raise DecodingError("truncated int sign")
        negative = data[offset]
        if negative > 1:
            raise DecodingError("non-canonical int sign byte")
        end = offset + 5
        if end > size:
            raise DecodingError("truncated input")
        offset = end + _unpack_length(data, end - 4)[0]
        if offset > size:
            raise DecodingError("truncated input")
        raw = data[end:offset]
        magnitude = int.from_bytes(raw, "big")
        if magnitude == 0 and negative:
            raise DecodingError("non-canonical negative zero")
        if raw and raw[0] == 0:
            raise DecodingError("non-canonical int with leading zero")
        return (-magnitude if negative else magnitude), offset
    if tag == 0x44:  # D
        end = offset + 4
        if end > size:
            raise DecodingError("truncated input")
        count = _unpack_length(data, offset)[0]
        offset = end
        result = {}
        previous_key = None
        next_depth = depth + 1
        inline = next_depth <= _MAX_DEPTH
        for _ in range(count):
            end = offset + 4
            if end > size:
                raise DecodingError("truncated input")
            offset = end + _unpack_length(data, offset)[0]
            if offset > size:
                raise DecodingError("truncated input")
            try:
                key = data[end:offset].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodingError("invalid UTF-8 in dict key") from exc
            if previous_key is not None and key <= previous_key:
                raise DecodingError("dict keys not in canonical order")
            previous_key = key
            tag = data[offset] if inline and offset < size else 0
            if tag == 0x49:  # I
                offset += 1
                if offset >= size:
                    raise DecodingError("truncated int sign")
                negative = data[offset]
                if negative > 1:
                    raise DecodingError("non-canonical int sign byte")
                end = offset + 5
                if end > size:
                    raise DecodingError("truncated input")
                offset = end + _unpack_length(data, end - 4)[0]
                if offset > size:
                    raise DecodingError("truncated input")
                raw = data[end:offset]
                magnitude = int.from_bytes(raw, "big")
                if magnitude == 0 and negative:
                    raise DecodingError("non-canonical negative zero")
                if raw and raw[0] == 0:
                    raise DecodingError("non-canonical int with leading zero")
                result[key] = -magnitude if negative else magnitude
            elif tag == 0x53:  # S
                end = offset + 5
                if end > size:
                    raise DecodingError("truncated input")
                offset = end + _unpack_length(data, end - 4)[0]
                if offset > size:
                    raise DecodingError("truncated input")
                try:
                    result[key] = data[end:offset].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DecodingError("invalid UTF-8 in string") from exc
            elif tag == 0x54:  # T
                offset += 1
                if offset >= size:
                    raise DecodingError("truncated bool")
                flag = data[offset]
                if flag > 1:
                    raise DecodingError("non-canonical bool byte")
                offset += 1
                result[key] = flag == 1
            else:
                result[key], offset = _decode_value(data, offset, next_depth)
        return result, offset
    if tag == 0x4C:  # L
        end = offset + 4
        if end > size:
            raise DecodingError("truncated input")
        count = _unpack_length(data, offset)[0]
        offset = end
        items = []
        append = items.append
        next_depth = depth + 1
        inline = next_depth <= _MAX_DEPTH
        for _ in range(count):
            tag = data[offset] if inline and offset < size else 0
            if tag == 0x49:  # I
                offset += 1
                if offset >= size:
                    raise DecodingError("truncated int sign")
                negative = data[offset]
                if negative > 1:
                    raise DecodingError("non-canonical int sign byte")
                end = offset + 5
                if end > size:
                    raise DecodingError("truncated input")
                offset = end + _unpack_length(data, end - 4)[0]
                if offset > size:
                    raise DecodingError("truncated input")
                raw = data[end:offset]
                magnitude = int.from_bytes(raw, "big")
                if magnitude == 0 and negative:
                    raise DecodingError("non-canonical negative zero")
                if raw and raw[0] == 0:
                    raise DecodingError("non-canonical int with leading zero")
                append(-magnitude if negative else magnitude)
            elif tag == 0x53:  # S
                end = offset + 5
                if end > size:
                    raise DecodingError("truncated input")
                offset = end + _unpack_length(data, end - 4)[0]
                if offset > size:
                    raise DecodingError("truncated input")
                try:
                    append(data[end:offset].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise DecodingError("invalid UTF-8 in string") from exc
            elif tag == 0x54:  # T
                offset += 1
                if offset >= size:
                    raise DecodingError("truncated bool")
                flag = data[offset]
                if flag > 1:
                    raise DecodingError("non-canonical bool byte")
                offset += 1
                append(flag == 1)
            else:
                item, offset = _decode_value(data, offset, next_depth)
                append(item)
        return items, offset
    if tag == 0x42:  # B
        end = offset + 4
        if end > size:
            raise DecodingError("truncated input")
        offset = end + _unpack_length(data, end - 4)[0]
        if offset > size:
            raise DecodingError("truncated input")
        return data[end:offset], offset
    if tag == 0x53:  # S
        end = offset + 4
        if end > size:
            raise DecodingError("truncated input")
        offset = end + _unpack_length(data, end - 4)[0]
        if offset > size:
            raise DecodingError("truncated input")
        try:
            return data[end:offset].decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise DecodingError("invalid UTF-8 in string") from exc
    if tag == 0x4E:  # N
        return None, offset
    if tag == 0x54:  # T
        if offset >= size:
            raise DecodingError("truncated bool")
        flag = data[offset]
        if flag > 1:
            raise DecodingError("non-canonical bool byte")
        return flag == 1, offset + 1
    raise DecodingError(f"unknown tag {data[offset - 1:offset]!r}")


def canonical_digest(value) -> bytes:
    """SHA-256 over the canonical encoding of ``value``.

    This is how the framework computes code-package digests, update-manifest
    digests, and the signed payloads of tree heads: the digest of a structure
    is well-defined regardless of which party computes it.
    """
    return sha256(encode(value))
