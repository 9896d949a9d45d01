"""How fast this machine runs Python right now, measured by a fixed loop.

On a shared host the same work can take half again as long from one minute
to the next. The benchmark samples a fixed pure-Python loop between the
intervals it times and scales each interval to the loop's reference rate,
so a slow or fast spell of the host cancels out while a change in the
program does not: the loop is part of the benchmark and never calls the
program.

The loop mixes the kinds of work the request path does, weighted toward
the allocation-heavy codec work that the most host-sensitive workloads do:
building and parsing a tagged binary batch of sixteen calls (the wire
codec), copying and hashing a 16 KiB slice of a 4 MiB buffer (vsock
forwarding and its integrity check), modular multiplication of 256-bit
integers (the curve and field code) and an opcode dispatch loop (the WVM
interpreter).
"""

from __future__ import annotations

import hashlib
import struct
import time

# Loop units per second on the reference host (2 vCPU x86-64 Linux VM,
# Python 3.11) at its usual speed. Only a scale: scaled figures read as if
# measured on that host.
REFERENCE_RATE = 6000.0

_PRIME = 2**256 - 2**32 - 977  # the secp256k1 field prime
_PROGRAM = [(1, 7), (2, 3), (3, 0), (4, 5), (1, 11), (5, 0), (2, 13), (6, 0)] * 6
_SLICE = 16 * 1024
_BUFFER = bytes(range(256)) * (4 * 1024 * 1024 // 256)


def _pack(out: bytearray, value) -> None:
    if isinstance(value, dict):
        out += struct.pack(">BI", 1, len(value))
        for key, item in value.items():
            _pack(out, key)
            _pack(out, item)
    elif isinstance(value, list):
        out += struct.pack(">BI", 2, len(value))
        for item in value:
            _pack(out, item)
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += struct.pack(">BI", 3, len(raw)) + raw
    else:
        raw = value.encode()
        out += struct.pack(">BI", 4, len(raw)) + raw


def _unpack(data: bytes, offset: int):
    tag, length = struct.unpack_from(">BI", data, offset)
    offset += 5
    if tag == 1:
        result = {}
        for _ in range(length):
            key, offset = _unpack(data, offset)
            result[key], offset = _unpack(data, offset)
        return result, offset
    if tag == 2:
        items = []
        for _ in range(length):
            item, offset = _unpack(data, offset)
            items.append(item)
        return items, offset
    raw = data[offset:offset + length]
    offset += length
    if tag == 3:
        return int.from_bytes(raw, "big", signed=True), offset
    return raw.decode(), offset


def _dispatch(seed: int) -> int:
    stack = [seed]
    for opcode, operand in _PROGRAM:
        if opcode == 1:
            stack.append(operand)
        elif opcode == 2:
            stack.append(stack.pop() * operand)
        elif opcode == 3:
            stack.append(stack.pop() + stack.pop())
        elif opcode == 4:
            stack.append(stack.pop() ^ operand)
        elif opcode == 5:
            stack.append(stack.pop() % 1_000_003)
        else:
            stack.append(stack[-1] & 0xFFFF)
    return stack[-1]


def _unit(state: int) -> int:
    record = {"id": state, "method": "invoke_many",
              "params": {"entry": "store_share",
                         "params_list": [{"user": f"user-{index:06d}-{state:09d}",
                                          "index": index % 4 + 1,
                                          "value": state * index + 2**247}
                                         for index in range(16)]}}
    out = bytearray()
    _pack(out, record)
    decoded, _ = _unpack(bytes(out), 0)
    start = (state % (len(_BUFFER) // _SLICE)) * _SLICE
    digest = hashlib.sha256(bytes(out) + _BUFFER[start:start + _SLICE]).digest()
    value = int.from_bytes(digest, "big") ^ decoded["id"]
    for _ in range(4):
        value = value * value % _PRIME
    return (value ^ _dispatch(state)) & 0xFFFFFFFF


def loop_rate(seconds: float = 0.1) -> float:
    """Units of the fixed loop per second over about ``seconds``."""
    units = 0
    state = 1
    start = time.perf_counter()
    while True:
        for _ in range(10):
            state = _unit(state)
        units += 10
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units / elapsed


class SpeedProbe:
    """Samples the loop between the intervals one measurement times.

    Each interval is scaled by the mean of the samples just before and just
    after it, so the scaling follows the host's speed as it changes during a
    run. The time the samples take is kept, so a trace can leave it out.
    """

    def __init__(self):
        self.spent_s = 0.0
        self._last = self._sample()

    def _sample(self) -> float:
        start = time.perf_counter()
        rate = loop_rate()
        self.spent_s += time.perf_counter() - start
        return rate

    def scale(self) -> float:
        """Reference rate over the loop's rate around the interval just ended.

        Multiply a rate measured in that interval by it, or divide a
        duration by it, to read the figure at reference speed.
        """
        before, self._last = self._last, self._sample()
        return 2.0 * REFERENCE_RATE / (before + self._last)
