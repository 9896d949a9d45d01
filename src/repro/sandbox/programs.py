"""Bundled WVM programs.

These are the "application binaries" the examples and benchmarks load into the
sandbox. The headline program is :func:`bls_share_module`, the WVM version of
the paper's evaluated application: producing one BLS threshold-signature share.
Its structure mirrors what a native BLS library does — hash the message into
the signature group, then perform a double-and-add scalar multiplication by the
signer's key share — with the group arithmetic expressed over the simulated
bilinear group's exponent representation.

Host-function index assignments (see :class:`repro.sandbox.wvm_executor.WvmExecutor`):

======  ====================================================  =====
index   meaning                                               arity
======  ====================================================  =====
1       ``hash_to_g1(message_int, message_len) -> exponent``  2
======  ====================================================  =====
"""

from __future__ import annotations

from repro.sandbox.wvm.assembler import assemble
from repro.sandbox.wvm.module import WvmModule

__all__ = [
    "HOST_HASH_TO_G1",
    "bls_share_source",
    "bls_share_module",
    "modexp_module",
    "fibonacci_module",
]

HOST_HASH_TO_G1 = 1

_BLS_SHARE_ASM = """
; Produce a BLS threshold-signature share.
;
; bls_share(message_int, message_len, share_value, group_order)
;   h     = hash_to_g1(message_int, message_len)   (host intrinsic, WASI-style import)
;   sigma = share_value * h  (mod group_order), computed by double-and-add
; returns sigma (the exponent form of the share's G1 element).
; message_len is carried separately so messages with leading zero bytes (and
; the empty message) hash exactly as their raw bytes would.

func scalar_mul(params=3, locals=4) export
    ; locals: 0=scalar 1=base 2=modulus 3=accumulator
    push 0
    store 3
loop:
    load 0
    jz done
    load 0
    push 1
    and
    jz skip_add
    load 3
    load 1
    add
    load 2
    mod
    store 3
skip_add:
    load 1
    load 1
    add
    load 2
    mod
    store 1
    load 0
    push 1
    shr
    store 0
    jmp loop
done:
    load 3
    ret
endfunc

func bls_share(params=4, locals=5) export
    ; locals: 0=message_int 1=message_len 2=share_value 3=group_order 4=h
    load 0
    load 1
    hostcall 1
    store 4
    load 2
    load 4
    load 3
    call scalar_mul
    halt
endfunc
"""

_MODEXP_ASM = """
; modexp(base, exponent, modulus) by square-and-multiply.
func modexp(params=3, locals=4) export
    ; locals: 0=base 1=exponent 2=modulus 3=result
    push 1
    store 3
    load 0
    load 2
    mod
    store 0
loop:
    load 1
    jz done
    load 1
    push 1
    and
    jz skip_mul
    load 3
    load 0
    mul
    load 2
    mod
    store 3
skip_mul:
    load 0
    load 0
    mul
    load 2
    mod
    store 0
    load 1
    push 1
    shr
    store 1
    jmp loop
done:
    load 3
    halt
endfunc
"""

_FIBONACCI_ASM = """
; fibonacci(n): iterative, used by sandbox unit tests and the fuel ablation.
func fibonacci(params=1, locals=4) export
    ; locals: 0=n 1=a 2=b 3=tmp
    push 0
    store 1
    push 1
    store 2
loop:
    load 0
    jz done
    load 2
    store 3
    load 1
    load 2
    add
    store 2
    load 3
    store 1
    load 0
    push 1
    sub
    store 0
    jmp loop
done:
    load 1
    halt
endfunc
"""


def bls_share_source() -> str:
    """Assembly text of the BLS signature-share application."""
    return _BLS_SHARE_ASM


def bls_share_module() -> WvmModule:
    """The assembled BLS signature-share module."""
    return assemble(_BLS_SHARE_ASM)


def modexp_module() -> WvmModule:
    """The assembled modular-exponentiation module."""
    return assemble(_MODEXP_ASM)


def fibonacci_module() -> WvmModule:
    """The assembled Fibonacci module (test and metering workloads)."""
    return assemble(_FIBONACCI_ASM)
