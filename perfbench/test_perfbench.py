"""Self-checks of the benchmark itself.

They confirm that every layer boundary is wrapped wherever the program binds
it, that each layer is charged on the workload it dominates and reads zero
where that workload bypasses it, that the deterministic counts repeat for a
seed, and that a wrong answer or a broken invariant fails the run instead of
producing numbers. From the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

Traced runs use the benchmark's workloads shrunk to a size a test can
afford, each in a fresh interpreter: module-level caches (memoized
attestation, EC tables) would otherwise change the counts between runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Ops per closed-loop repetition, or per open-loop scenario.
SMALL_OPS = {"keybackup-batched": 256, "odoh-batched": 64,
             "custody-sign": 32, "keybackup-open-reshard": 150}
SMALL = {name: replace(workloads.WORKLOADS[name], ops=ops)
         for name, ops in SMALL_OPS.items()}

TRACED_RUN = """
import json, sys
from dataclasses import replace
import workloads
workload = replace(workloads.WORKLOADS[sys.argv[1]], ops=int(sys.argv[2]))
print(json.dumps(workloads.traced_run(workload, int(sys.argv[3]))))
"""

CAPACITY = """
import json, sys
import workloads
workloads.CAPACITY_OPS = 200
workload = workloads.WORKLOADS["keybackup-open-reshard"]
print(json.dumps(workloads.capacity_sweep(workload, int(sys.argv[1]))))
"""

# Layer metrics each workload must charge (the table in README.md), and
# those it bypasses and so must leave at zero.
CHARGED = {
    "keybackup-batched": [
        "wire.encode.calls", "wire.decode.calls", "net.rpc.sync_call.calls",
        "net.vsock.forward.bytes", "sandbox.invoke_many.calls",
        "crypto.shamir.self_ms", "crypto.hash.bytes", "enclave.attest.calls",
        "enclave.vendor.verify.calls", "core.deploy.self_ms",
        "core.invoke_batch.self_ms", "core.framework.invoke_many.self_ms",
        "service.scatter.calls", "service.ring.lookup.calls",
        "apps.client.self_ms", "sim.driver.self_ms"],
    "odoh-batched": ["crypto.ec_mul.calls", "wire.decode.calls",
                     "apps.client.self_ms", "sim.driver.self_ms"],
    "custody-sign": ["sandbox.wvm.invoke.calls", "sandbox.wvm.fuel_used",
                     "crypto.bls.self_ms", "apps.client.self_ms",
                     "sim.driver.self_ms"],
    "keybackup-open-reshard": [
        "net.messages_per_op", "net.eventloop.self_ms",
        "net.transport.deliver.self_ms", "net.queue.depth_max",
        "net.queue.wait_sim_ms_p99", "service.reshard.self_ms",
        "service.reshard.keys_moved", "service.reshard.records_moved",
        "transparency.publish.calls", "transparency.verify.calls",
        "transparency.verify.cost_units", "sim.arrival_lag_ms_max",
        "apps.client.self_ms", "sim.driver.self_ms"],
}
BYPASSED = {
    "keybackup-batched": ["sandbox.wvm.fuel_used", "crypto.bls.self_ms",
                          "net.eventloop.self_ms", "net.queue.depth_max",
                          "service.reshard.keys_moved",
                          "transparency.publish.calls"],
    "odoh-batched": ["sandbox.wvm.fuel_used", "crypto.bls.self_ms",
                     "net.eventloop.self_ms", "service.reshard.keys_moved"],
    "custody-sign": ["net.eventloop.self_ms", "service.reshard.keys_moved",
                     "transparency.verify.calls"],
    "keybackup-open-reshard": ["sandbox.wvm.fuel_used", "crypto.bls.self_ms"],
}
# The layer a workload exists to stress has its largest self time.
DOMINANT = {"odoh-batched": "crypto.ec_mul", "custody-sign": "sandbox.wvm.invoke"}
# Counts that must repeat exactly for a seed.
DETERMINISTIC = ["wire.encode.calls", "wire.decode.calls", "net.messages_per_op",
                 "net.bytes_per_op", "sandbox.wvm.fuel_used",
                 "crypto.ec_mul.calls", "service.reshard.keys_moved"]


def fresh_interpreter(code: str, *args) -> dict:
    """Run ``code`` in a new interpreter; return the JSON it printed last."""
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED="0",
                 PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)])))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(name: str, seed: int = 1) -> dict:
    return fresh_interpreter(TRACED_RUN, name, SMALL_OPS[name], seed)


@pytest.fixture(scope="module")
def first_traces():
    return {name: traced(name) for name in SMALL_OPS}


def test_every_boundary_is_wrapped_wherever_it_is_bound():
    from repro.net import eventloop, rpc
    from repro.sandbox import pysandbox
    from repro.wire import codec

    originals = {(module, path): layers.resolve(module, path)[2]
                 for module, path, *_ in layers.BOUNDARIES + layers.COUNTERS}
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.unbound_references() == []
        for (module, path), original in originals.items():
            assert layers.resolve(module, path)[2] is not original, path
        # ``from repro.wire.codec import decode`` copied the function.
        assert rpc.decode is eventloop.decode is pysandbox.decode is codec.decode
        assert codec.decode is not originals["repro.wire.codec", "decode"]
    finally:
        tracer.uninstall()
    for (module, path), original in originals.items():
        assert layers.resolve(module, path)[2] is original, path
    assert rpc.decode is originals["repro.wire.codec", "decode"]


def test_a_missed_rebinding_is_reported(monkeypatch):
    """A copy the tracer cannot see would read as a free layer."""
    from repro.net import rpc
    from repro.wire import codec

    monkeypatch.setattr(rpc, "decode_alias", codec.decode, raising=False)
    tracer = layers.Tracer()
    tracer.install()
    try:
        missed = tracer.unbound_references()
    finally:
        tracer.uninstall()
    assert missed == ["repro.net.rpc.decode_alias -> repro.wire.codec.decode"]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_each_layer_is_charged_where_it_works(first_traces, name):
    values = first_traces[name]["layers"]
    assert set(values) == {metric for metric, _ in layers.PER_LAYER_METRICS}
    assert [metric for metric in CHARGED[name] if not values[metric] > 0] == []
    assert [metric for metric in BYPASSED[name] if values[metric] != 0] == []
    if name in DOMINANT:
        self_ms = {metric.removesuffix(".self_ms"): value
                   for metric, value in values.items() if metric.endswith(".self_ms")}
        assert max(self_ms, key=self_ms.get) == DOMINANT[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_counts_repeat_for_a_seed(first_traces, name):
    first, again = first_traces[name], traced(name)
    assert ({metric: again["layers"][metric] for metric in DETERMINISTIC}
            == {metric: first["layers"][metric] for metric in DETERMINISTIC})
    assert ((again["sim_p50_ms"], again["sim_p99_ms"])
            == (first["sim_p50_ms"], first["sim_p99_ms"]))


@pytest.mark.slow
def test_a_second_seed_changes_the_inputs(first_traces):
    other = traced("keybackup-open-reshard", seed=2)
    assert other["sim_p99_ms"] != first_traces["keybackup-open-reshard"]["sim_p99_ms"]


@pytest.mark.slow
def test_capacity_repeats_for_a_seed():
    first, again = fresh_interpreter(CAPACITY, 1), fresh_interpreter(CAPACITY, 1)
    assert first == again
    assert first["sim_capacity_ops_s"] in workloads.CAPACITY_RATES


def test_a_wrong_recovered_key_fails_the_run(monkeypatch):
    from repro.apps.keybackup import KeyBackupClient

    recover_keys = KeyBackupClient.recover_keys

    def off_by_one(client, user_ids):
        values = recover_keys(client, user_ids)
        return [values[0] + 1, *values[1:]]

    monkeypatch.setattr(KeyBackupClient, "recover_keys", off_by_one)
    # One wrong key in each of the two 128-op spans.
    with pytest.raises(workloads.BenchmarkError, match="2 failed ops"):
        workloads.measure(SMALL["keybackup-batched"], 1)


def test_a_signature_that_does_not_verify_fails_the_run(monkeypatch):
    from repro.apps.threshold_sign import CustodyClient

    sign_transactions = CustodyClient.sign_transactions
    monkeypatch.setattr(CustodyClient, "verify", lambda client, transaction: False)
    with pytest.raises(workloads.BenchmarkError, match="32 failed ops"):
        workloads.measure(SMALL["custody-sign"], 1)
    assert CustodyClient.sign_transactions is sign_transactions


def test_a_broken_scenario_invariant_fails_the_run(monkeypatch):
    from repro.sim.scenarios.runner import ScenarioRunner
    from repro.sim.scenarios.spec import InvariantResult

    monkeypatch.setattr(ScenarioRunner, "_conservation_invariant",
                        lambda runner, ctx: InvariantResult(
                            "network-conserves-messages", False, "forced"))
    with pytest.raises(workloads.BenchmarkError, match="network-conserves-messages"):
        workloads.run_open(SMALL["keybackup-open-reshard"], 1)


@pytest.mark.slow
def test_the_command_prints_the_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keybackup-batched",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert ({name: metric["unit"] for name, metric in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_the_command_needs_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keybackup-batched"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
