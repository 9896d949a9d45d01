"""WVM modules and functions.

A module is a set of named functions plus exported entry points. Modules are
what the application developer ships in a code package: the framework measures
the module's canonical encoding, records the digest in the append-only log,
and instantiates it inside the sandbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import AssemblerError
from repro.sandbox.wvm.blocks import translate
from repro.sandbox.wvm.instructions import Opcode
from repro.wire.codec import canonical_digest, decode, encode

__all__ = ["WvmFunction", "WvmModule"]


@dataclass(frozen=True)
class WvmFunction:
    """One function: a name, parameter count, local count, and instruction list.

    Instructions are ``(opcode, immediate)`` pairs; the immediate is ``None``
    for opcodes that do not take one.
    """

    name: str
    num_params: int
    num_locals: int
    code: tuple

    def __post_init__(self):
        if self.num_params < 0 or self.num_locals < self.num_params:
            raise AssemblerError(
                f"function {self.name!r}: locals must include parameters"
            )

    @cached_property
    def blocks(self) -> tuple:
        """The code as a pc-indexed basic-block table (see ``blocks.py``).

        Built on first use and kept on the function, so it lives exactly as
        long as the code it was translated from.
        """
        return translate(self.code, self.num_locals)


@dataclass(frozen=True)
class WvmModule:
    """A compiled WVM module: functions by index plus named exports."""

    functions: tuple
    exports: dict

    def function_index(self, name: str) -> int:
        """Index of the exported function called ``name``."""
        try:
            return self.exports[name]
        except KeyError as exc:
            raise AssemblerError(f"module does not export {name!r}") from exc

    def function(self, index: int) -> WvmFunction:
        """The function at ``index``."""
        if not 0 <= index < len(self.functions):
            raise AssemblerError(f"no function at index {index}")
        return self.functions[index]

    # ------------------------------------------------------------------
    # Serialization — this is the artifact whose digest goes in the log.
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical binary encoding of the module."""
        return encode({
            "format": "wvm-module-v1",
            "functions": [
                {
                    "name": f.name,
                    "num_params": f.num_params,
                    "num_locals": f.num_locals,
                    "code": [
                        [int(op), imm if imm is not None else None]
                        for op, imm in f.code
                    ],
                }
                for f in self.functions
            ],
            "exports": {name: index for name, index in self.exports.items()},
        })

    @classmethod
    def from_bytes(cls, data: bytes) -> "WvmModule":
        """Decode a module from its canonical encoding."""
        try:
            raw = decode(data)
        except Exception as exc:
            raise AssemblerError(f"not a WVM module: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("format") != "wvm-module-v1":
            raise AssemblerError("not a WVM module")
        functions = []
        for f in raw["functions"]:
            code = tuple(
                (Opcode(op), imm)
                for op, imm in (tuple(pair) for pair in f["code"])
            )
            functions.append(WvmFunction(
                name=str(f["name"]),
                num_params=int(f["num_params"]),
                num_locals=int(f["num_locals"]),
                code=code,
            ))
        exports = {str(k): int(v) for k, v in raw["exports"].items()}
        return cls(functions=tuple(functions), exports=exports)

    def digest(self) -> bytes:
        """The code digest the framework records in the append-only log."""
        return canonical_digest(self.to_bytes())
