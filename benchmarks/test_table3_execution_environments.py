"""Table 3 — processing time for one BLS threshold-signature share.

The paper (§5, Table 3) reports the time to produce one BLS threshold
signature share under three execution environments on AWS:

==================  ===============  =========
Execution env       Processing time  Increase
==================  ===============  =========
Baseline (native)   10.2 ms          —
Sandbox             14.9 ms          +46.1 %
TEE + Sandbox       15.8 ms          +54.9 %
==================  ===============  =========

Here the same operation — hash the message into G1, multiply by the signer's
key share — runs under:

* ``baseline``      — native Python (no sandbox, no TEE),
* ``sandbox``       — the WVM bytecode sandbox, and
* ``tee_sandbox``   — the WVM sandbox inside a simulated Nitro-style enclave,
  with the request and response crossing the two vsock-style socket hops the
  paper identifies as the source of TEE overhead.

Absolute numbers and the sandbox/native ratio differ from the paper (the WVM
is an interpreter, not a JIT-compiled Wasm runtime; see docs/performance.md), but
the ordering — baseline < sandbox ≤ TEE + sandbox, with the TEE adding a small
increment on top of sandboxing — is the result being reproduced.
"""

from __future__ import annotations

import pytest

from repro.crypto.bilinear import BilinearGroup

_GROUP = BilinearGroup()


def native_sign_share(message_int: int, message_len: int, share: int, order: int) -> int:
    """The baseline row: the same share computation as plain Python.

    Structurally identical to the WVM program: hash-to-G1 followed by a
    double-and-add scalar multiplication by the key share.
    """
    message = message_int.to_bytes(max(message_len, (message_int.bit_length() + 7) // 8), "big") \
        if message_len else b""
    h = _GROUP.hash_to_g1(message).exponent
    accumulator = 0
    base = h
    scalar = share
    while scalar:
        if scalar & 1:
            accumulator = (accumulator + base) % order
        base = (base + base) % order
        scalar >>= 1
    return accumulator


@pytest.mark.benchmark(group="table3-bls-share")
def test_table3_row_baseline(benchmark, table3_request):
    """Table 3 row 1: native execution (no TEE, no sandbox)."""
    message_int, message_len, share, order = table3_request
    result = benchmark(native_sign_share, message_int, message_len, share, order)
    assert result > 0


@pytest.mark.benchmark(group="table3-bls-share")
def test_table3_row_sandbox(benchmark, table3_request, sandbox_executor):
    """Table 3 row 2: the WVM sandbox only."""
    result = benchmark(lambda: sandbox_executor.invoke("bls_share", table3_request).value)
    message_int, message_len, share, order = table3_request
    assert result == native_sign_share(message_int, message_len, share, order)


@pytest.mark.benchmark(group="table3-bls-share")
def test_table3_row_tee_sandbox(benchmark, table3_request, tee_domain):
    """Table 3 row 3: the WVM sandbox inside a simulated TEE behind vsock hops."""
    result = benchmark(
        lambda: tee_domain.invoke_application("bls_share", table3_request)["value"]
    )
    message_int, message_len, share, order = table3_request
    assert result == native_sign_share(message_int, message_len, share, order)


@pytest.mark.benchmark(group="table3-summary")
def test_table3_shape_summary(benchmark, table3_request, sandbox_executor, tee_domain, capsys):
    """Regenerate the Table 3 rows and check the qualitative shape.

    This benchmark measures all three environments back-to-back (interleaved
    trials, median-of-N) and prints the table the paper reports, so the bench
    log contains the reproduced rows alongside the raw pytest-benchmark
    statistics.
    """
    import time

    message_int, message_len, share, order = table3_request
    trials = 60

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def run_all():
        # Interleave the three environments round-robin so slow drift (GC,
        # CPU frequency, background load) affects all rows equally, then take
        # per-environment medians.
        samples = {"baseline": [], "sandbox": [], "tee": []}
        for _ in range(trials):
            samples["baseline"].append(
                timed(lambda: native_sign_share(message_int, message_len, share, order))
            )
            samples["sandbox"].append(
                timed(lambda: sandbox_executor.invoke("bls_share", table3_request))
            )
            samples["tee"].append(
                timed(lambda: tee_domain.invoke_application("bls_share", table3_request))
            )

        def median(values):
            ordered = sorted(values)
            return ordered[len(ordered) // 2]

        return median(samples["baseline"]), median(samples["sandbox"]), median(samples["tee"])

    baseline, sandbox, tee = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def row(name, value, base):
        increase = "—" if value == base else f"+{(value - base) / base * 100:.1f}%"
        return f"{name:<18} {value * 1000:>10.3f} ms   {increase}"

    lines = [
        "",
        "Table 3 (reproduced): BLS threshold signature share processing time",
        row("Baseline", baseline, baseline),
        row("Sandbox", sandbox, baseline),
        row("TEE + Sandbox", tee, baseline),
        "paper reference:    10.2 ms / 14.9 ms (+46.1%) / 15.8 ms (+54.9%)",
    ]
    with capsys.disabled():
        print("\n".join(lines))

    # The qualitative shape from the paper: sandboxing costs extra, and the
    # TEE adds on top of (or is comparable to) the sandbox, never below the
    # native baseline.
    assert sandbox > baseline
    assert tee > baseline
