"""The WVM interpreter.

Execution model:

* an *instance* binds a module to limits (fuel, memory, stack depth) and a set
  of host functions;
* invoking an export pushes a frame with the arguments in locals and runs the
  function's basic blocks (``blocks.py``): each block is a generated Python
  function that executes a straight-line run of instructions at once, and
  CALL/RET/HALT/HOSTCALL run between blocks;
* every instruction is metered; containment violations (bad memory accesses,
  unknown host functions, stack overflow) trap rather than touching anything
  outside the instance.

The per-instruction loop in :meth:`WvmInstance._run` is the reference
semantics. A block runs whole only when nothing but its data can make it
trap: its full fuel cost fits under the limit and the stack is deep enough
for it and has room for its growth. Otherwise — and at any instruction the
translator would not compile, or a control op whose checks would fail — the
rest of the invocation continues in ``_run`` from the same pc, stack, locals
and fuel, so every trap happens at the same instruction, with the same
message and the same ``fuel_used``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    FuelExhaustedError,
    MemoryLimitError,
    SandboxEscapeError,
    WvmTrapError,
)
from repro.sandbox.wvm.blocks import BlockFault
from repro.sandbox.wvm.instructions import DEFAULT_FUEL_COST, FUEL_COST, Opcode
from repro.sandbox.wvm.module import WvmModule

__all__ = ["WvmLimits", "HostFunction", "WvmInstance"]


@dataclass(frozen=True)
class WvmLimits:
    """Resource limits enforced on a WVM instance."""

    max_fuel: int = 10_000_000
    memory_bytes: int = 64 * 1024
    max_stack_depth: int = 1024
    max_call_depth: int = 128


@dataclass(frozen=True)
class HostFunction:
    """A host function exposed to sandboxed code.

    Args:
        name: symbolic name (for diagnostics).
        arity: number of integer arguments popped from the stack.
        fn: the Python callable; must return an int (or None, treated as 0).
    """

    name: str
    arity: int
    fn: Callable


@dataclass
class _Frame:
    function_index: int
    pc: int
    locals: list


class WvmInstance:
    """One sandboxed instantiation of a WVM module."""

    def __init__(self, module: WvmModule, limits: WvmLimits | None = None,
                 host_functions: dict[int, HostFunction] | None = None):
        self.module = module
        self.limits = limits or WvmLimits()
        self.host_functions = dict(host_functions or {})
        self.memory = bytearray(self.limits.memory_bytes)
        self.fuel_used = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def invoke(self, entry: str, args: list[int]) -> int:
        """Run the exported function ``entry`` with integer ``args``.

        Returns the value left on top of the stack when the program halts or
        the entry function returns.
        """
        function_index = self.module.function_index(entry)
        function = self.module.function(function_index)
        if len(args) != function.num_params:
            raise WvmTrapError(
                f"{entry} expects {function.num_params} arguments, got {len(args)}"
            )
        for arg in args:
            if not isinstance(arg, int) or isinstance(arg, bool):
                raise SandboxEscapeError("only integers may cross the sandbox boundary")
        stack: list[int] = []
        frames = [self._new_frame(function_index, args)]
        return self._run_blocks(stack, frames)

    # ------------------------------------------------------------------
    # Interpreter core
    # ------------------------------------------------------------------
    def _new_frame(self, function_index: int, args: list[int]) -> _Frame:
        function = self.module.function(function_index)
        local_slots = [0] * function.num_locals
        local_slots[: len(args)] = list(args)
        return _Frame(function_index=function_index, pc=0, locals=local_slots)

    def _run_blocks(self, stack: list[int], frames: list[_Frame]) -> int:
        # Runs the current frame's block table (``WvmFunction.blocks``) as the
        # module docstring describes; a ``break`` hands the same state to
        # ``_run``. The stack check lets a block grow the stack up to
        # ``max_stack_depth`` itself: PUSH traps only on a stack already there.
        max_stack = self.limits.max_stack_depth
        max_fuel = self.limits.max_fuel
        max_calls = self.limits.max_call_depth
        memory = self.memory
        functions = self.module.functions
        module_function = self.module.function
        fuel = self.fuel_used
        frame = frames[-1]
        function = module_function(frame.function_index)
        code, blocks = function.code, function.blocks
        pc = frame.pc
        locals_ = frame.locals
        try:
            while True:
                block = blocks[pc]
                if block is None:
                    break
                run, cost, need, peak = block
                depth = len(stack)
                if fuel + cost > max_fuel or depth < need or depth + peak > max_stack:
                    break
                if run is not None:
                    pc = run(stack, locals_, memory)
                    fuel += cost
                    continue
                opcode, immediate = code[pc]
                if opcode is Opcode.RET:
                    fuel += cost
                    value = stack.pop() if stack else 0
                    frames.pop()
                    if not frames:
                        return value
                    stack.append(value)
                    frame = frames[-1]
                    function = module_function(frame.function_index)
                    code, blocks = function.code, function.blocks
                    pc = frame.pc
                    locals_ = frame.locals
                elif opcode is Opcode.HALT:
                    fuel += cost
                    return stack.pop() if stack else 0
                elif opcode is Opcode.CALL:
                    if len(frames) >= max_calls or not 0 <= immediate < len(functions):
                        break
                    function = functions[immediate]
                    if depth < function.num_params:
                        break
                    fuel += cost
                    args = [stack.pop() for _ in range(function.num_params)][::-1]
                    frame.pc = pc + 1
                    frame = self._new_frame(immediate, args)
                    frames.append(frame)
                    code, blocks = function.code, function.blocks
                    pc = 0
                    locals_ = frame.locals
                else:  # HOSTCALL
                    host = self.host_functions.get(immediate)
                    if host is None or depth < host.arity:
                        break
                    fuel += cost
                    args = [stack.pop() for _ in range(host.arity)][::-1]
                    try:
                        result = host.fn(*args)
                        stack.append(int(result) if result is not None else 0)
                    except IndexError:
                        raise WvmTrapError("operand stack underflow") from None
                    pc += 1
        except BlockFault as fault:
            fuel += fault.fuel
            raise fault.error from None
        finally:
            self.fuel_used = fuel
        frame.pc = pc
        return self._run(stack, frames)

    def _run(self, stack: list[int], frames: list[_Frame]) -> int:
        # The reference semantics: one Python iteration per WVM instruction,
        # resuming from ``frame.pc`` and ``self.fuel_used``. ``_run_blocks``
        # hands over to it whenever a block or control op could trap for a
        # reason other than its data, so trap messages, fuel charges and the
        # charge-before-execute order are defined here alone. Frame state
        # (code, pc, locals) is kept in local variables and re-synced only on
        # CALL/RET, fuel accounting is a local accumulator written back in
        # the ``finally``, and stack underflow is detected by catching the
        # pop's IndexError instead of pre-checking.
        limits = self.limits
        memory = self.memory
        memory_len = len(memory)
        max_stack = limits.max_stack_depth
        max_fuel = limits.max_fuel
        fuel = self.fuel_used
        get_cost = FUEL_COST.get
        module_function = self.module.function
        push = stack.append
        if not frames:
            raise WvmTrapError("program ended without HALT or RET")
        frame = frames[-1]
        code = module_function(frame.function_index).code
        code_len = len(code)
        pc = frame.pc
        locals_ = frame.locals
        try:
            while True:
                if pc >= code_len:
                    raise WvmTrapError("execution ran off the end of a function")
                opcode, immediate = code[pc]
                pc += 1
                fuel += get_cost(opcode, DEFAULT_FUEL_COST)
                if fuel > max_fuel:
                    raise FuelExhaustedError(
                        f"program exceeded fuel limit of {max_fuel}"
                    )
                try:
                    if opcode is Opcode.PUSH:
                        if len(stack) >= max_stack:
                            raise WvmTrapError("operand stack overflow")
                        push(immediate)
                    elif opcode is Opcode.LOAD:
                        if immediate is None or not 0 <= immediate < len(locals_):
                            raise WvmTrapError(f"local index {immediate} out of range")
                        push(locals_[immediate])
                    elif opcode is Opcode.STORE:
                        if immediate is None or not 0 <= immediate < len(locals_):
                            raise WvmTrapError(f"local index {immediate} out of range")
                        locals_[immediate] = stack.pop()
                    elif opcode is Opcode.ADD:
                        b = stack.pop()
                        a = stack.pop()
                        push(a + b)
                    elif opcode is Opcode.SUB:
                        b = stack.pop()
                        a = stack.pop()
                        push(a - b)
                    elif opcode is Opcode.MUL:
                        b = stack.pop()
                        a = stack.pop()
                        push(a * b)
                    elif opcode is Opcode.DIV:
                        b = stack.pop()
                        a = stack.pop()
                        if b == 0:
                            raise WvmTrapError("division by zero")
                        push(a // b)
                    elif opcode is Opcode.MOD:
                        b = stack.pop()
                        a = stack.pop()
                        if b == 0:
                            raise WvmTrapError("modulo by zero")
                        push(a % b)
                    elif opcode is Opcode.NEG:
                        push(-stack.pop())
                    elif opcode is Opcode.SHL:
                        b = stack.pop()
                        a = stack.pop()
                        if b < 0 or b > 4096:
                            raise WvmTrapError("shift amount out of range")
                        push(a << b)
                    elif opcode is Opcode.SHR:
                        b = stack.pop()
                        a = stack.pop()
                        if b < 0 or b > 4096:
                            raise WvmTrapError("shift amount out of range")
                        push(a >> b)
                    elif opcode is Opcode.AND:
                        b = stack.pop()
                        a = stack.pop()
                        push(a & b)
                    elif opcode is Opcode.OR:
                        b = stack.pop()
                        a = stack.pop()
                        push(a | b)
                    elif opcode is Opcode.XOR:
                        b = stack.pop()
                        a = stack.pop()
                        push(a ^ b)
                    elif opcode is Opcode.NOT:
                        push(0 if stack.pop() else 1)
                    elif opcode in (Opcode.EQ, Opcode.NE, Opcode.LT,
                                    Opcode.LE, Opcode.GT, Opcode.GE):
                        b = stack.pop()
                        a = stack.pop()
                        push(1 if _compare(opcode, a, b) else 0)
                    elif opcode is Opcode.POP:
                        stack.pop()
                    elif opcode is Opcode.DUP:
                        value = stack.pop()
                        push(value)
                        push(value)
                    elif opcode is Opcode.SWAP:
                        b = stack.pop()
                        a = stack.pop()
                        push(b)
                        push(a)
                    elif opcode is Opcode.JMP:
                        if immediate is None or not 0 <= immediate <= code_len:
                            raise WvmTrapError(f"jump target {immediate} out of range")
                        pc = immediate
                    elif opcode is Opcode.JZ:
                        if stack.pop() == 0:
                            if immediate is None or not 0 <= immediate <= code_len:
                                raise WvmTrapError(f"jump target {immediate} out of range")
                            pc = immediate
                    elif opcode is Opcode.JNZ:
                        if stack.pop() != 0:
                            if immediate is None or not 0 <= immediate <= code_len:
                                raise WvmTrapError(f"jump target {immediate} out of range")
                            pc = immediate
                    elif opcode is Opcode.CALL:
                        if len(frames) >= limits.max_call_depth:
                            raise WvmTrapError("call depth exceeded")
                        callee = module_function(immediate)
                        if len(stack) < callee.num_params:
                            raise WvmTrapError(
                                f"not enough arguments on stack for {callee.name}")
                        args = [stack.pop() for _ in range(callee.num_params)][::-1]
                        frame.pc = pc
                        frame = self._new_frame(immediate, args)
                        frames.append(frame)
                        code = callee.code
                        code_len = len(code)
                        pc = 0
                        locals_ = frame.locals
                    elif opcode is Opcode.RET:
                        value = stack.pop() if stack else 0
                        frames.pop()
                        if not frames:
                            return value
                        push(value)
                        frame = frames[-1]
                        code = module_function(frame.function_index).code
                        code_len = len(code)
                        pc = frame.pc
                        locals_ = frame.locals
                    elif opcode is Opcode.HALT:
                        return stack.pop() if stack else 0
                    elif opcode is Opcode.NOP:
                        pass
                    elif opcode is Opcode.MSTORE:
                        value = stack.pop()
                        address = stack.pop()
                        if not 0 <= address < memory_len:
                            raise MemoryLimitError(
                                f"memory access at {address} outside linear memory")
                        memory[address] = value & 0xFF
                    elif opcode is Opcode.MLOAD:
                        address = stack.pop()
                        if not 0 <= address < memory_len:
                            raise MemoryLimitError(
                                f"memory access at {address} outside linear memory")
                        push(memory[address])
                    elif opcode is Opcode.MSIZE:
                        push(memory_len)
                    elif opcode is Opcode.HOSTCALL:
                        host = self.host_functions.get(immediate)
                        if host is None:
                            raise SandboxEscapeError(
                                f"program called unavailable host function {immediate}"
                            )
                        if len(stack) < host.arity:
                            raise WvmTrapError(
                                f"host function {host.name} needs {host.arity} arguments")
                        args = [stack.pop() for _ in range(host.arity)][::-1]
                        result = host.fn(*args)
                        push(int(result) if result is not None else 0)
                    else:  # pragma: no cover - the enum is exhaustive
                        raise WvmTrapError(f"unimplemented opcode {opcode!r}")
                except IndexError:
                    raise WvmTrapError("operand stack underflow") from None
        finally:
            self.fuel_used = fuel


def _compare(opcode: Opcode, a: int, b: int) -> bool:
    if opcode is Opcode.EQ:
        return a == b
    if opcode is Opcode.NE:
        return a != b
    if opcode is Opcode.LT:
        return a < b
    if opcode is Opcode.LE:
        return a <= b
    if opcode is Opcode.GT:
        return a > b
    return a >= b
