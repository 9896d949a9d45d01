"""Unit and property tests for the WVM assembler and interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AssemblerError,
    FuelExhaustedError,
    MemoryLimitError,
    SandboxEscapeError,
    WvmTrapError,
)
from repro.sandbox.wvm.assembler import assemble
from repro.sandbox.wvm.instructions import Opcode
from repro.sandbox.wvm.module import WvmFunction, WvmModule
from repro.sandbox.wvm.vm import HostFunction, WvmInstance, WvmLimits


def run(source: str, entry: str, args, limits=None, host=None) -> int:
    module = assemble(source)
    instance = WvmInstance(module, limits or WvmLimits(), host or {})
    return instance.invoke(entry, list(args))


ADD_PROGRAM = """
func add(params=2, locals=2) export
    load 0
    load 1
    add
    halt
endfunc
"""


class TestAssembler:
    def test_assemble_and_run_simple_program(self):
        assert run(ADD_PROGRAM, "add", [2, 3]) == 5

    def test_comments_and_blank_lines_ignored(self):
        source = "; leading comment\n" + ADD_PROGRAM + "\n; trailing comment\n"
        assert run(source, "add", [7, 8]) == 15

    def test_labels_resolve(self):
        source = """
        func first_nonzero(params=2, locals=2) export
            load 0
            jnz take_first
            load 1
            halt
        take_first:
            load 0
            halt
        endfunc
        """
        assert run(source, "first_nonzero", [0, 9]) == 9
        assert run(source, "first_nonzero", [4, 9]) == 4

    def test_unknown_opcode_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0) export\n    frobnicate\nendfunc")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0) export\n    jmp nowhere\nendfunc")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(
                "func f(params=0, locals=0) export\nx:\nx:\n    halt\nendfunc"
            )

    def test_missing_endfunc_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0) export\n    halt")

    def test_instruction_outside_function_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("push 1")

    def test_module_without_exports_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0)\n    halt\nendfunc")

    def test_operand_arity_enforced(self):
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0) export\n    add 3\nendfunc")
        with pytest.raises(AssemblerError):
            assemble("func f(params=0, locals=0) export\n    push\nendfunc")

    def test_call_by_function_name(self):
        source = """
        func helper(params=1, locals=1)
            load 0
            push 10
            mul
            ret
        endfunc
        func main(params=1, locals=1) export
            load 0
            call helper
            halt
        endfunc
        """
        assert run(source, "main", [7]) == 70

    def test_locals_must_include_params(self):
        with pytest.raises(AssemblerError):
            WvmFunction("bad", num_params=3, num_locals=1, code=tuple())


class TestModuleSerialization:
    def test_round_trip(self):
        module = assemble(ADD_PROGRAM)
        restored = WvmModule.from_bytes(module.to_bytes())
        assert restored == module
        assert WvmInstance(restored).invoke("add", [1, 2]) == 3

    def test_digest_stable_and_content_sensitive(self):
        module = assemble(ADD_PROGRAM)
        assert module.digest() == assemble(ADD_PROGRAM).digest()
        other = assemble(ADD_PROGRAM.replace("add", "sub").replace("func sub", "func add")
                         .replace('"add"', '"add"'))
        assert module.digest() != other.digest()

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(AssemblerError):
            WvmModule.from_bytes(b"not a module")

    def test_export_listing_and_lookup(self):
        module = assemble(ADD_PROGRAM)
        assert module.function(module.function_index("add")) is not None
        with pytest.raises(AssemblerError):
            module.function_index("missing")
        with pytest.raises(AssemblerError):
            module.function(10)


class TestInterpreter:
    def test_arithmetic_operations(self):
        source = """
        func calc(params=2, locals=2) export
            load 0
            load 1
            mul
            load 0
            load 1
            sub
            add
            halt
        endfunc
        """
        # a*b + (a-b)
        assert run(source, "calc", [7, 3]) == 21 + 4

    def test_division_and_modulo(self):
        source = """
        func f(params=2, locals=2) export
            load 0
            load 1
            div
            load 0
            load 1
            mod
            add
            halt
        endfunc
        """
        assert run(source, "f", [17, 5]) == 3 + 2

    def test_division_by_zero_traps(self):
        source = "func f(params=0, locals=0) export\n push 1\n push 0\n div\n halt\nendfunc"
        with pytest.raises(WvmTrapError):
            run(source, "f", [])

    def test_comparisons(self):
        source = """
        func f(params=2, locals=2) export
            load 0
            load 1
            lt
            halt
        endfunc
        """
        assert run(source, "f", [1, 2]) == 1
        assert run(source, "f", [2, 1]) == 0

    def test_bitwise_and_shifts(self):
        source = """
        func f(params=1, locals=1) export
            load 0
            push 1
            shl
            push 255
            and
            halt
        endfunc
        """
        assert run(source, "f", [0b1011]) == (0b1011 << 1) & 255

    def test_stack_underflow_traps(self):
        source = "func f(params=0, locals=0) export\n add\n halt\nendfunc"
        with pytest.raises(WvmTrapError):
            run(source, "f", [])

    def test_wrong_argument_count_rejected(self):
        with pytest.raises(WvmTrapError):
            run(ADD_PROGRAM, "add", [1])

    def test_non_integer_argument_rejected(self):
        with pytest.raises(SandboxEscapeError):
            run(ADD_PROGRAM, "add", [1, "two"])

    def test_memory_store_load(self):
        source = """
        func f(params=1, locals=1) export
            push 10
            load 0
            mstore
            push 10
            mload
            halt
        endfunc
        """
        assert run(source, "f", [200]) == 200

    def test_memory_bounds_checked(self):
        source = "func f(params=0, locals=0) export\n push 999999\n mload\n halt\nendfunc"
        with pytest.raises(MemoryLimitError):
            run(source, "f", [], limits=WvmLimits(memory_bytes=64))

    def test_msize(self):
        source = "func f(params=0, locals=0) export\n msize\n halt\nendfunc"
        assert run(source, "f", [], limits=WvmLimits(memory_bytes=128)) == 128

    def test_fuel_exhaustion(self):
        infinite_loop = """
        func spin(params=0, locals=0) export
        top:
            jmp top
        endfunc
        """
        with pytest.raises(FuelExhaustedError):
            run(infinite_loop, "spin", [], limits=WvmLimits(max_fuel=1000))

    def test_fuel_accounting_reported(self):
        module = assemble(ADD_PROGRAM)
        instance = WvmInstance(module)
        instance.invoke("add", [1, 2])
        assert instance.fuel_used > 0
        assert instance.fuel_used <= instance.limits.max_fuel

    def test_call_depth_limit(self):
        source = """
        func recurse(params=0, locals=0) export
            call recurse
            halt
        endfunc
        """
        with pytest.raises(WvmTrapError):
            run(source, "recurse", [], limits=WvmLimits(max_call_depth=10))

    def test_unknown_hostcall_is_escape_error(self):
        source = "func f(params=0, locals=0) export\n push 1\n hostcall 99\n halt\nendfunc"
        with pytest.raises(SandboxEscapeError):
            run(source, "f", [])

    def test_hostcall_dispatch(self):
        source = "func f(params=1, locals=1) export\n load 0\n hostcall 5\n halt\nendfunc"
        host = {5: HostFunction("triple", 1, lambda x: x * 3)}
        assert run(source, "f", [14], host=host) == 42

    def test_falling_off_function_end_traps(self):
        source = "func f(params=0, locals=0) export\n push 1\n pop\nendfunc"
        with pytest.raises(WvmTrapError):
            run(source, "f", [])

    def test_ret_from_entry_function_returns_value(self):
        source = "func f(params=1, locals=1) export\n load 0\n ret\nendfunc"
        assert run(source, "f", [77]) == 77

    def test_stack_overflow_guard(self):
        source = """
        func f(params=0, locals=0) export
        top:
            push 1
            jmp top
        endfunc
        """
        with pytest.raises((WvmTrapError, FuelExhaustedError)):
            run(source, "f", [], limits=WvmLimits(max_stack_depth=64, max_fuel=10_000))

    def test_local_index_out_of_range(self):
        source = "func f(params=0, locals=1) export\n load 5\n halt\nendfunc"
        with pytest.raises(WvmTrapError):
            run(source, "f", [])


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=-(2**64), max_value=2**64), b=st.integers(min_value=-(2**64), max_value=2**64))
def test_property_add_program_matches_python(a, b):
    assert run(ADD_PROGRAM, "add", [a, b]) == a + b
