"""Differential tests: the block-translated WVM path against the reference loop.

``WvmInstance.invoke`` runs translated basic blocks and hands anything it
cannot run whole to ``WvmInstance._run``, the per-instruction loop. Calling
``_run`` directly on a fresh instance is the oracle: for every program, input
and limit both must give the same value or the same exception type and
message, the same ``fuel_used`` and the same linear memory.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bilinear import BilinearGroup
from repro.sandbox.programs import bls_share_module, fibonacci_module, modexp_module
from repro.sandbox.wvm.assembler import assemble
from repro.sandbox.wvm.instructions import Opcode
from repro.sandbox.wvm.module import WvmFunction, WvmModule
from repro.sandbox.wvm.vm import HostFunction, WvmInstance, WvmLimits
from repro.sandbox.wvm_executor import default_host_functions


def _host_raises_index_error():
    raise IndexError("host-side")


HOSTS = {
    1: HostFunction("add", 2, lambda a, b: a + b),
    2: HostFunction("nothing", 1, lambda a: None),
    3: HostFunction("broken", 0, _host_raises_index_error),
    4: HostFunction("half", 1, lambda a: a // 2),
}


def _outcome(instance, run):
    try:
        result = ("value", run())
    except Exception as exc:  # the outcome under test is the exception itself
        result = (type(exc).__name__, str(exc))
    return result, instance.fuel_used, bytes(instance.memory)


def assert_paths_agree(module, entry, args, limits, hosts=HOSTS):
    """Run ``entry`` through ``invoke`` and through the reference loop; compare."""
    fast = WvmInstance(module, limits, hosts)
    reference = WvmInstance(module, limits, hosts)
    index = module.function_index(entry)
    expected = _outcome(reference, lambda: reference._run(
        [], [reference._new_frame(index, list(args))]))
    actual = _outcome(fast, lambda: fast.invoke(entry, list(args)))
    assert actual == expected
    return actual


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
# Programs are decoded from one drawn byte string, four bytes an instruction:
# a draw per field costs more in hypothesis than running the program does.
_OPCODES = list(Opcode)
_NO_IMMEDIATE = [op for op in Opcode if op not in (
    Opcode.PUSH, Opcode.LOAD, Opcode.STORE, Opcode.JMP, Opcode.JZ, Opcode.JNZ,
    Opcode.CALL, Opcode.HOSTCALL)]
_POPS = {Opcode.POP: 1, Opcode.DUP: 1, Opcode.SWAP: 2, Opcode.STORE: 1,
         Opcode.NEG: 1, Opcode.NOT: 1, Opcode.JZ: 1, Opcode.JNZ: 1,
         Opcode.MLOAD: 1, Opcode.MSTORE: 2, Opcode.PUSH: 0, Opcode.LOAD: 0,
         Opcode.MSIZE: 0, Opcode.NOP: 0, Opcode.JMP: 0, Opcode.RET: 0,
         Opcode.HALT: 0, Opcode.CALL: 0, Opcode.HOSTCALL: 0}
_PUSHES = {Opcode.PUSH, Opcode.LOAD, Opcode.MSIZE, Opcode.DUP, Opcode.CALL,
           Opcode.HOSTCALL}
_JUNK = [None, True, 1.5, "x", -1]
_CODE = st.binary(max_size=4 * 24)
_SMALL = st.integers(0, 2)
_ARGS = {n: st.lists(st.integers(-50, 50), min_size=n, max_size=n) for n in range(3)}
_LIMITS = st.builds(WvmLimits, max_fuel=st.integers(1, 400),
                    memory_bytes=st.integers(1, 24),
                    max_stack_depth=st.integers(1, 10),
                    max_call_depth=st.integers(1, 4))


def _instruction(chunk, code_len, num_locals, num_functions, depth, well_formed):
    """Decode one instruction from four drawn bytes.

    Well-formed code only uses ops the (straight-line) stack depth allows and
    in-range locals, targets and callees; ill-formed code adds out-of-range
    and non-int immediates, raw-int and unknown opcodes and malformed tuples.
    """
    pick, arg = chunk[0], chunk[1]
    big = int.from_bytes(chunk[2:4], "big", signed=True) << (arg % 64)
    if pick % 2:
        choices = ([op for op in _OPCODES if _POPS.get(op, 2) <= depth]
                   if well_formed else _OPCODES)
        opcode = choices[pick // 2 % len(choices)]
    else:  # bias towards the producers so programs get past their first ops
        opcode = (Opcode.PUSH, Opcode.LOAD)[pick // 2 % 2]
    if not well_formed:
        if arg == 255:
            return [(opcode,), (int(opcode), None), (0x7F, None)][big % 3]
        if arg % 10 == 9:
            return (opcode, _JUNK[big % len(_JUNK)])
    if opcode in _NO_IMMEDIATE:
        return (opcode, None)
    if opcode is Opcode.PUSH:
        return (opcode, big if arg % 4 == 0 else arg % 12 - 2)
    if opcode in (Opcode.LOAD, Opcode.STORE):
        if not well_formed:
            return (opcode, arg % (num_locals + 3) - 1)
        if num_locals == 0:
            return (Opcode.PUSH, arg)
        return (opcode, arg % num_locals)
    if opcode in (Opcode.JMP, Opcode.JZ, Opcode.JNZ):
        return (opcode, arg % (code_len + 1) if well_formed else arg % (code_len + 3) - 1)
    if opcode is Opcode.CALL:
        return (opcode, arg % num_functions if well_formed else arg % (num_functions + 2) - 1)
    return (opcode, arg % 6)  # HOSTCALL: 1-4 exist, 0 and 5 do not


@st.composite
def _function(draw, index, num_functions, well_formed):
    num_params = draw(_SMALL)
    num_locals = num_params + draw(_SMALL)
    raw_code = draw(_CODE)
    chunks = [raw_code[i:i + 4].ljust(4, b"\0") for i in range(0, len(raw_code), 4)]
    code = []
    depth = 0
    for chunk in chunks:
        instruction = _instruction(chunk, len(chunks), num_locals, num_functions,
                                   depth, well_formed)
        code.append(instruction)
        opcode = instruction[0]
        if opcode in _PUSHES:
            depth += 1
        else:
            depth = max(0, depth - _POPS.get(opcode, 1))
    if well_formed:
        code.append((Opcode.RET if index else Opcode.HALT, None))
    return WvmFunction(f"f{index}", num_params, num_locals, tuple(code))


@st.composite
def programs(draw):
    well_formed = draw(st.booleans())
    num_functions = 1 + draw(_SMALL)
    functions = tuple(draw(_function(i, num_functions, well_formed))
                      for i in range(num_functions))
    module = WvmModule(functions=functions,
                       exports={f.name: i for i, f in enumerate(functions)})
    entry = functions[0]
    return module, entry.name, draw(_ARGS[entry.num_params]), draw(_LIMITS)


@settings(max_examples=200, deadline=None)
@given(case=programs())
def test_random_programs_match_the_reference_loop(case):
    module, entry, args, limits = case
    assert_paths_agree(module, entry, args, limits)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(case=programs())
def test_random_programs_match_the_reference_loop_at_length(case):
    module, entry, args, limits = case
    assert_paths_agree(module, entry, args, limits)


# ----------------------------------------------------------------------
# Every trap a block can hit, at every fuel and stack limit around it
# ----------------------------------------------------------------------
_SNIPPETS = {
    "division": "push 7\n push 3\n mstore\n push 1\n push 0\n div\n push 2",
    "modulo": "push 1\n load 0\n mod\n push 4\n push 9\n mstore",
    "shift-left": "push 2\n push 5\n mstore\n push 1\n push 4096\n shl\n push 4097\n shl",
    "shift-right": "push 1\n push 0\n shr\n push -1\n shr",
    "load-bounds": "push 3\n push 1\n mstore\n push 7\n mload\n push 8\n mload",
    "store-bounds": "push -1\n push 1\n mstore",
    "stack-growth": "push 1\n push 2\n dup\n load 0\n push 3\n swap\n push 4",
    "underflow": "push 1\n add",
    "loop": "top:\n load 0\n push 1\n sub\n dup\n store 0\n jnz top\n push 6",
    "call": "push 3\n call helper\n push 2\n mul",
    "recursion": "load 0\n call countdown",
    "bad-jump": "load 0\n jnz -1\n push 0\n jz 99",
    "bad-local": "load 0\n jz skip\n load 5\nskip:\n push 1\n store 9",
    "host": "push 1\n push 2\n hostcall 1\n push 5\n hostcall 2\n add\n hostcall 4",
    "host-arity": "push 1\n hostcall 1",
    "host-index-error": "push 1\n hostcall 3",
    "host-missing": "push 1\n hostcall 9",
}


@pytest.mark.parametrize("name", sorted(_SNIPPETS))
def test_snippets_match_at_every_limit(name):
    module = assemble(
        "func helper(params=1, locals=1)\n load 0\n push 2\n add\n ret\nendfunc\n"
        "func countdown(params=1, locals=1)\n load 0\n jz done\n load 0\n push 1\n"
        " sub\n call countdown\n ret\ndone:\n push 7\n ret\nendfunc\n"
        f"func main(params=1, locals=1) export\n {_SNIPPETS[name]}\n halt\nendfunc"
    )
    for max_fuel in [*range(1, 25), 40, 10_000]:
        for max_stack in range(1, 7):
            for arg in (0, 1, 3):
                limits = WvmLimits(max_fuel=max_fuel, memory_bytes=8,
                                   max_stack_depth=max_stack, max_call_depth=2)
                assert_paths_agree(module, "main", [arg], limits)


# An immediate too long for Python's int-to-decimal limit, which the module
# codec carries in binary: it must neither break translation nor change what
# a trap at it reports.
_HUGE = 2**20000
_HUGE_PROGRAMS = {
    "value": [(Opcode.PUSH, _HUGE)],
    "negated": [(Opcode.PUSH, -_HUGE), (Opcode.PUSH, 1), (Opcode.ADD, None)],
    "load-at": [(Opcode.PUSH, _HUGE), (Opcode.MLOAD, None)],
    "store-at": [(Opcode.PUSH, _HUGE), (Opcode.PUSH, 1), (Opcode.MSTORE, None)],
    "shift-by": [(Opcode.PUSH, 1), (Opcode.PUSH, _HUGE), (Opcode.SHL, None)],
    "branch": [(Opcode.PUSH, _HUGE), (Opcode.JNZ, 3), (Opcode.PUSH, 0),
               (Opcode.PUSH, 5)],
}


@pytest.mark.parametrize("name", sorted(_HUGE_PROGRAMS))
def test_huge_immediates_match_the_reference_loop(name):
    code = (*_HUGE_PROGRAMS[name], (Opcode.HALT, None))
    module = WvmModule.from_bytes(WvmModule(
        functions=(WvmFunction("main", 0, 0, code),), exports={"main": 0}).to_bytes())
    assert module.functions[0].code == code
    for max_fuel in [*range(1, 8), 10_000]:
        for max_stack in range(1, 4):
            assert_paths_agree(module, "main", [],
                               WvmLimits(max_fuel=max_fuel, memory_bytes=8,
                                         max_stack_depth=max_stack))
    assert module.functions[0].blocks[0] is not None


@pytest.mark.parametrize("op", [op.name.lower() for op in Opcode if op.name in (
    "ADD SUB MUL DIV MOD NEG SHL SHR AND OR XOR NOT EQ NE LT LE GT GE DUP SWAP POP")])
def test_every_stack_op_computes_what_the_reference_does(op):
    module = assemble(f"func f(params=1, locals=1) export\n push 1\n push 5\n load 0\n"
                      f" {op}\n sub\n halt\nendfunc")
    for arg in (-2, 0, 3, 5):
        assert_paths_agree(module, "f", [arg], WvmLimits())


# ----------------------------------------------------------------------
# The bundled programs
# ----------------------------------------------------------------------
_GROUP = BilinearGroup()
_BUNDLED = {
    "bls_share": (bls_share_module, [0xC0FFEE, 3, (_GROUP.order * 7) // 11, _GROUP.order]),
    "modexp": (modexp_module, [7, 2**64 + 13, 2**127 - 1]),
    "fibonacci": (fibonacci_module, [90]),
}


def _full_fuel(name):
    build, args = _BUNDLED[name]
    instance = WvmInstance(build(), WvmLimits(), default_host_functions())
    instance.invoke(name, list(args))
    return instance.fuel_used


@pytest.mark.parametrize("name", sorted(_BUNDLED))
def test_bundled_programs_match_across_fuel_limits(name):
    build, args = _BUNDLED[name]
    module = build()
    full = _full_fuel(name)
    limits = sorted({1, 2, 3, 7, 10, 11, 12, 13, 50, 499, full - 1, full, full + 1}
                    | set(range(1, 2001, 97)))
    for max_fuel in limits:
        assert_paths_agree(module, name, args, WvmLimits(max_fuel=max_fuel),
                           default_host_functions())


@pytest.mark.parametrize("name", sorted(_BUNDLED))
def test_bundled_programs_never_leave_the_block_path(name, monkeypatch):
    build, args = _BUNDLED[name]
    instance = WvmInstance(build(), WvmLimits(), default_host_functions())

    def no_fallback(stack, frames):
        raise AssertionError("fell back to the per-instruction loop")

    monkeypatch.setattr(instance, "_run", no_fallback)
    instance.invoke(name, list(args))
    assert instance.fuel_used == _full_fuel(name)


def test_translation_is_lazy_and_kept_on_the_function():
    module = fibonacci_module()
    function = module.functions[0]
    WvmInstance(module)
    assert "blocks" not in vars(function)
    WvmInstance(module).invoke("fibonacci", [10])
    blocks = function.blocks
    WvmInstance(module).invoke("fibonacci", [12])
    assert function.blocks is blocks
    assert len(blocks) == len(function.code) + 1
