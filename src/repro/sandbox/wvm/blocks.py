"""Translation of WVM functions into straight-line basic blocks.

:class:`~repro.sandbox.wvm.vm.WvmInstance` runs code through the blocks
built here and keeps its per-instruction loop as the exact reference for
everything a block cannot run whole (see ``vm.py``).

A function's code is cut into basic blocks. The leaders are pc 0, every jump
target, and the instruction after any JMP/JZ/JNZ/CALL/RET/HALT/HOSTCALL. Each
block's body becomes one generated Python function, ``run(s, L, M) -> pc``,
over the operand stack ``s``, the frame's locals ``L`` and linear memory
``M``. Its source is built only from the fixed per-opcode templates in
``_TEMPLATES``; the one thing inlined into them is an immediate whose
``type(imm) is int`` (plus the pcs and fuel figures the translator computed),
written in hex because Python's limit on int-to-decimal conversion does not
apply to power-of-two bases and a module may carry an immediate of any size.
A block ends with a jump (which it takes itself), falls through into the next
leader, or stops before an instruction it does not run:

* CALL, RET, HALT and HOSTCALL get a ``_Block`` with ``run=None``; the
  instance executes them between blocks;
* anything the templates cannot prove safe — a non-``Opcode`` opcode, an
  immediate that is not an ``int``, a local index outside the frame, a jump
  target outside ``0..len(code)``, a malformed instruction — gets no entry at
  all, and so does the end of the code. Reaching such a pc hands the rest of
  the invocation to the reference loop, which raises whatever it raises.

Each block records its fuel ``cost``, the stack depth it ``need``s on entry
and its ``peak`` growth over the entry depth, which is all the instance
checks before running it whole. The checks inside a template are only the
data-dependent ones (zero divisor, shift range, memory bounds); they raise
:class:`BlockFault` carrying the fuel of the block prefix up to and
including the faulting instruction, which is what the reference loop would
have charged.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import MemoryLimitError, WvmTrapError
from repro.sandbox.wvm.instructions import DEFAULT_FUEL_COST, FUEL_COST, Opcode

__all__ = ["BlockFault", "translate"]


class BlockFault(Exception):
    """A data-dependent trap inside a translated block.

    ``fuel`` is what the block charged up to and including the faulting
    instruction; ``error`` is the exception the reference loop raises there.
    """

    def __init__(self, fuel: int, error: Exception):
        super().__init__(fuel, error)
        self.fuel = fuel
        self.error = error


class _Block(NamedTuple):
    run: Callable | None   # None: a CALL/RET/HALT/HOSTCALL the instance runs
    cost: int              # fuel charged when the block runs whole
    need: int              # operand-stack depth required on entry
    peak: int              # largest stack growth over the entry depth


_BIN = "b = s.pop()\ns[-1] = s[-1] {} b"
_CMP = "b = s.pop()\ns[-1] = 1 if s[-1] {} b else 0"
_SHIFT = ("b = s.pop()\n"
          "if b < 0 or b > 4096: raise BlockFault({{fuel}}, "
          "WvmTrapError('shift amount out of range'))\n"
          "s[-1] = s[-1] {} b")
_MEMORY_FAULT = "raise _memory_fault({fuel}, a)"

#: opcode -> (values popped, values pushed, source). ``{imm}`` is the int
#: immediate as a hex literal, ``{fuel}`` the block's fuel up to and including
#: this op.
_TEMPLATES = {
    Opcode.PUSH: (0, 1, "s.append({imm})"),
    Opcode.POP: (1, 0, "s.pop()"),
    Opcode.DUP: (1, 2, "s.append(s[-1])"),
    Opcode.SWAP: (2, 2, "s[-2], s[-1] = s[-1], s[-2]"),
    Opcode.LOAD: (0, 1, "s.append(L[{imm}])"),
    Opcode.STORE: (1, 0, "L[{imm}] = s.pop()"),
    Opcode.ADD: (2, 1, _BIN.format("+")),
    Opcode.SUB: (2, 1, _BIN.format("-")),
    Opcode.MUL: (2, 1, _BIN.format("*")),
    Opcode.DIV: (2, 1, "b = s.pop()\n"
                       "if b == 0: raise BlockFault({fuel}, WvmTrapError('division by zero'))\n"
                       "s[-1] = s[-1] // b"),
    Opcode.MOD: (2, 1, "b = s.pop()\n"
                       "if b == 0: raise BlockFault({fuel}, WvmTrapError('modulo by zero'))\n"
                       "s[-1] = s[-1] % b"),
    Opcode.NEG: (1, 1, "s[-1] = -s[-1]"),
    Opcode.SHL: (2, 1, _SHIFT.format("<<")),
    Opcode.SHR: (2, 1, _SHIFT.format(">>")),
    Opcode.AND: (2, 1, _BIN.format("&")),
    Opcode.OR: (2, 1, _BIN.format("|")),
    Opcode.XOR: (2, 1, _BIN.format("^")),
    Opcode.NOT: (1, 1, "s[-1] = 0 if s[-1] else 1"),
    Opcode.EQ: (2, 1, _CMP.format("==")),
    Opcode.NE: (2, 1, _CMP.format("!=")),
    Opcode.LT: (2, 1, _CMP.format("<")),
    Opcode.LE: (2, 1, _CMP.format("<=")),
    Opcode.GT: (2, 1, _CMP.format(">")),
    Opcode.GE: (2, 1, _CMP.format(">=")),
    Opcode.NOP: (0, 0, "pass"),
    Opcode.MSTORE: (2, 0, "v = s.pop()\na = s.pop()\n"
                          "if not 0 <= a < len(M): " + _MEMORY_FAULT + "\n"
                          "M[a] = v & 0xFF"),
    Opcode.MLOAD: (1, 1, "a = s[-1]\n"
                         "if not 0 <= a < len(M): " + _MEMORY_FAULT + "\n"
                         "s[-1] = M[a]"),
    Opcode.MSIZE: (0, 1, "s.append(len(M))"),
    Opcode.JMP: (0, 0, "return {imm}"),
    Opcode.JZ: (1, 0, "return {imm} if s.pop() == 0 else {next}"),
    Opcode.JNZ: (1, 0, "return {imm} if s.pop() != 0 else {next}"),
}

_JUMPS = frozenset({Opcode.JMP, Opcode.JZ, Opcode.JNZ})
_CONTROL = frozenset({Opcode.CALL, Opcode.RET, Opcode.HALT, Opcode.HOSTCALL})
_TAKES_INT = frozenset({Opcode.PUSH, Opcode.LOAD, Opcode.STORE, Opcode.CALL,
                        Opcode.HOSTCALL}) | _JUMPS


def _memory_fault(fuel: int, address: int) -> BlockFault:
    try:
        error = MemoryLimitError(f"memory access at {address} outside linear memory")
    except ValueError as exc:  # an address too long to print: the reference raises this
        error = exc
    return BlockFault(fuel, error)


def _cost(opcode: Opcode) -> int:
    return FUEL_COST.get(opcode, DEFAULT_FUEL_COST)


def _translatable(instruction, code_len: int, num_locals: int) -> bool:
    """Whether the block path may run ``instruction`` (else the reference loop does)."""
    if type(instruction) is not tuple or len(instruction) != 2:
        return False
    opcode, immediate = instruction
    if type(opcode) is not Opcode:
        return False
    if opcode not in _TAKES_INT:
        return True
    if type(immediate) is not int:
        return False
    if opcode is Opcode.LOAD or opcode is Opcode.STORE:
        return 0 <= immediate < num_locals
    if opcode in _JUMPS:
        return 0 <= immediate <= code_len
    return True


def translate(code: tuple, num_locals: int) -> tuple:
    """Translate ``code`` into a block table indexed by pc (``len(code) + 1`` entries).

    An entry is a ``_Block`` at every leader that starts a body and at every
    CALL/RET/HALT/HOSTCALL, and ``None`` wherever the reference loop must
    take over.
    """
    code_len = len(code)
    ok = [_translatable(instruction, code_len, num_locals) for instruction in code]
    leaders = {0}
    for pc, instruction in enumerate(code):
        if not ok[pc]:
            continue
        opcode, immediate = instruction
        if opcode in _JUMPS:
            leaders.add(immediate)
        if opcode in _JUMPS or opcode in _CONTROL:
            leaders.add(pc + 1)

    table: list = [None] * (code_len + 1)
    sources = []
    bodies = []
    for start in sorted(leaders):
        if start >= code_len or not ok[start] or code[start][0] in _CONTROL:
            continue
        lines = []
        cost = depth = need = peak = 0
        pc = start
        while True:
            opcode, immediate = code[pc]
            pops, pushes, template = _TEMPLATES[opcode]
            cost += _cost(opcode)
            need = max(need, pops - depth)
            depth += pushes - pops
            peak = max(peak, depth)
            literal = hex(immediate) if opcode in _TAKES_INT else None
            lines.append(template.format(imm=literal, fuel=cost, next=pc + 1))
            pc += 1
            if opcode in _JUMPS:
                break
            if (pc >= code_len or pc in leaders or not ok[pc]
                    or code[pc][0] in _CONTROL):
                lines.append(f"return {pc}")
                break
        body = "\n".join(lines).replace("\n", "\n    ")
        sources.append(f"def _block_{start}(s, L, M):\n    {body}\n")
        bodies.append((start, cost, need, peak))

    for pc, instruction in enumerate(code):
        if ok[pc] and instruction[0] in _CONTROL:
            table[pc] = _Block(None, _cost(instruction[0]), 0, 0)

    namespace = {"BlockFault": BlockFault, "WvmTrapError": WvmTrapError,
                 "_memory_fault": _memory_fault}
    exec(compile("\n".join(sources), "<wvm-blocks>", "exec"), namespace)
    for start, cost, need, peak in bodies:
        table[start] = _Block(namespace[f"_block_{start}"], cost, need, peak)
    return tuple(table)
