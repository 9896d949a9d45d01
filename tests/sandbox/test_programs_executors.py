"""Unit tests for the bundled WVM programs and the executor interface."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bilinear import BLS_SCALAR_ORDER, BilinearGroup
from repro.crypto.bls import BlsThresholdScheme
from repro.errors import SandboxError
from repro.sandbox.executor import Executor
from repro.sandbox.native import NativeExecutor
from repro.sandbox.programs import (
    bls_share_module,
    fibonacci_module,
    modexp_module,
)
from repro.sandbox.wvm.vm import WvmLimits
from repro.sandbox.wvm_executor import WvmExecutor

GROUP = BilinearGroup()


class TestModexpProgram:
    @pytest.mark.parametrize(
        "base,exponent,modulus",
        [(2, 10, 1000), (3, 0, 7), (0, 5, 13), (7, 128, 101), (123456789, 65537, 2**61 - 1)],
    )
    def test_matches_python_pow(self, base, exponent, modulus):
        executor = WvmExecutor(modexp_module())
        result = executor.invoke("modexp", [base, exponent, modulus])
        assert result.value == pow(base, exponent, modulus)
        assert result.fuel_used > 0

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=2**128),
        exponent=st.integers(min_value=0, max_value=2**20),
        modulus=st.integers(min_value=2, max_value=2**128),
    )
    def test_property_matches_python_pow(self, base, exponent, modulus):
        executor = WvmExecutor(modexp_module(), limits=WvmLimits(max_fuel=50_000_000))
        assert executor.invoke("modexp", [base, exponent, modulus]).value == pow(
            base, exponent, modulus
        )


class TestFibonacciProgram:
    def test_known_values(self):
        executor = WvmExecutor(fibonacci_module())
        values = [executor.invoke("fibonacci", [n]).value for n in range(10)]
        assert values == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


class TestBlsShareProgram:
    def test_scalar_mul_matches_modular_multiplication(self):
        executor = WvmExecutor(bls_share_module())
        scalar, base = 0xDEADBEEF, 0xC0FFEE
        result = executor.invoke("scalar_mul", [scalar, base, BLS_SCALAR_ORDER])
        assert result.value == (scalar * base) % BLS_SCALAR_ORDER

    def test_bls_share_matches_native_threshold_share(self):
        """The sandboxed program must produce the same share a native signer would."""
        scheme = BlsThresholdScheme(2, 3)
        _, shares = scheme.keygen(seed=b"sandbox-equivalence")
        message = b"transfer 10 BTC"
        message_int = int.from_bytes(message, "big")

        executor = WvmExecutor(bls_share_module())
        for share in shares:
            sandboxed = executor.invoke(
                "bls_share", [message_int, len(message), share.value, BLS_SCALAR_ORDER]
            )
            native = scheme.sign_share(share, message)
            assert sandboxed.value == native.signature.element.exponent

    def test_combined_signature_from_sandboxed_shares_verifies(self):
        scheme = BlsThresholdScheme(2, 3)
        public_key, shares = scheme.keygen(seed=b"sandbox-combine")
        message = b"custody withdrawal"
        message_int = int.from_bytes(message, "big")
        executor = WvmExecutor(bls_share_module())

        from repro.crypto.bilinear import G1Element
        from repro.crypto.bls import BlsSignature, BlsSignatureShare

        partials = []
        for share in shares[:2]:
            value = executor.invoke(
                "bls_share", [message_int, len(message), share.value, BLS_SCALAR_ORDER]
            ).value
            partials.append(BlsSignatureShare(share.index, BlsSignature(G1Element(value))))
        combined = scheme.combine(partials)
        assert scheme.verify(public_key, message, combined)

    def test_fuel_scales_with_scalar_size(self):
        executor = WvmExecutor(bls_share_module())
        small = executor.invoke("scalar_mul", [3, 5, BLS_SCALAR_ORDER]).fuel_used
        large = executor.invoke(
            "scalar_mul", [BLS_SCALAR_ORDER - 2, 5, BLS_SCALAR_ORDER]
        ).fuel_used
        assert large > small * 10


class TestExecutors:
    def test_executor_base_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().invoke("x", [])

    def test_native_executor_registration_and_invoke(self):
        executor = NativeExecutor()
        executor.register("double", lambda x: 2 * x)
        result = executor.invoke("double", [21])
        assert result.value == 42
        assert result.fuel_used == 0
        assert result.environment == "native"

    def test_native_executor_unknown_entry(self):
        with pytest.raises(SandboxError):
            NativeExecutor().invoke("missing", [])

    def test_wvm_executor_describe(self):
        executor = WvmExecutor(modexp_module())
        description = executor.describe()
        assert description["name"] == "wvm-sandbox"
        assert len(description["module_digest"]) == 64

    def test_wvm_executor_accumulates_fuel(self):
        executor = WvmExecutor(fibonacci_module())
        executor.invoke("fibonacci", [10])
        executor.invoke("fibonacci", [10])
        assert executor.total_fuel_used > 0

    def test_native_and_sandboxed_results_agree(self):
        """The same operation under both environments yields identical values."""
        def native_scalar_mul(scalar, base, modulus):
            accumulator = 0
            while scalar:
                if scalar & 1:
                    accumulator = (accumulator + base) % modulus
                base = (base + base) % modulus
                scalar >>= 1
            return accumulator

        native = NativeExecutor({"scalar_mul": native_scalar_mul})
        sandboxed = WvmExecutor(bls_share_module())
        args = [987654321, 123456789, BLS_SCALAR_ORDER]
        assert native.invoke("scalar_mul", args).value == sandboxed.invoke("scalar_mul", args).value
