"""Tests for the batched invocation pipeline: sandbox → framework → deployment."""

import pytest

from repro.core.deployment import CHUNK_SIZE, Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.errors import RpcError, SandboxError
from repro.net.latency import lan_profile
from repro.net.transport import Network
from repro.sandbox.pysandbox import PythonSandbox

COUNTER_APP = '''
def init(config):
    return {"total": 0}

def handle(method, params, state):
    if method == "add":
        state["total"] = state["total"] + params["n"]
        return {"total": state["total"]}
    if method == "get":
        return {"total": state["total"]}
    if method == "fail":
        raise ValueError("requested failure")
    raise ValueError("unknown method: " + method)
'''


def make_deployment(routed: bool):
    developer = DeveloperIdentity("batch-test-developer")
    deployment = Deployment("batch-test", developer,
                            DeploymentConfig(num_domains=3))
    package = CodePackage("counter", "1.0.0", "python", COUNTER_APP)
    deployment.publish_and_install(package)
    network = None
    if routed:
        network = Network(clock=deployment.clock, default_latency=lan_profile())
        deployment.route_via_network(network, attempts=1)
    return deployment, network


class TestSandboxInvokeMany:
    def test_batch_matches_sequential_invokes(self):
        batch_sandbox = PythonSandbox(COUNTER_APP)
        sequential_sandbox = PythonSandbox(COUNTER_APP)
        calls = [{"method": "add", "params": {"n": i}} for i in range(10)]
        batch_results = batch_sandbox.invoke_many(calls)
        sequential_results = [
            sequential_sandbox.invoke("add", {"n": i}) for i in range(10)
        ]
        assert [r["value"] for r in batch_results] == sequential_results
        assert batch_sandbox.invocations == sequential_sandbox.invocations == 10

    def test_per_call_error_isolation(self):
        sandbox = PythonSandbox(COUNTER_APP)
        results = sandbox.invoke_many([
            {"method": "add", "params": {"n": 1}},
            {"method": "fail", "params": None},
            {"method": "add", "params": {"n": 2}},
        ])
        assert results[0]["ok"] and results[0]["value"]["total"] == 1
        assert not results[1]["ok"] and "requested failure" in results[1]["error"]
        assert results[2]["ok"] and results[2]["value"]["total"] == 3

    def test_single_invoke_still_raises(self):
        sandbox = PythonSandbox(COUNTER_APP)
        with pytest.raises(SandboxError):
            sandbox.invoke("fail", None)


class TestDeploymentInvokeBatch:
    @pytest.mark.parametrize("routed", [False, True])
    def test_batch_matches_sequential_invoke(self, routed):
        deployment, network = make_deployment(routed)
        network = network or deployment.network
        count = 2 * CHUNK_SIZE + 25
        calls = [("add", {"n": i}) for i in range(count)]
        sent = network.stats.messages_sent
        results = deployment.invoke_batch(1, calls)
        assert [r["value"]["total"] for r in results] == [
            sum(range(i + 1)) for i in range(count)
        ]
        # Three chunks, one framed payload each way.
        assert network.stats.messages_sent - sent == 2
        server = deployment.servers[deployment.domains[1].domain_id]
        assert server.batches_served == 1
        check = deployment.invoke(1, "get", {})
        assert check["value"]["total"] == sum(range(count))

    @pytest.mark.parametrize("routed", [False, True])
    def test_per_call_errors_are_instances_not_raises(self, routed):
        deployment, _ = make_deployment(routed)
        results = deployment.invoke_batch(0, [
            ("add", {"n": 5}), ("fail", None), ("add", {"n": 7}),
        ])
        assert results[0]["value"]["total"] == 5
        assert isinstance(results[1], RpcError)
        assert "requested failure" in str(results[1])
        assert results[2]["value"]["total"] == 12

    def test_heterogeneous_batch_uses_calls_form(self):
        deployment, _ = make_deployment(True)
        results = deployment.invoke_batch(2, [
            ("add", {"n": 3}), ("get", {}), ("add", {"n": 4}),
        ])
        assert results[0]["value"]["total"] == 3
        assert results[1]["value"]["total"] == 3
        assert results[2]["value"]["total"] == 7

    def test_empty_batch(self):
        deployment, _ = make_deployment(False)
        assert deployment.invoke_batch(0, []) == []

    def test_state_agrees_between_batched_and_unbatched_domains(self):
        """The same workload through both paths leaves identical app state."""
        deployment, _ = make_deployment(True)
        for i in range(12):
            deployment.invoke(0, "add", {"n": i})
        deployment.invoke_batch(1, [("add", {"n": i}) for i in range(12)])
        unbatched_total = deployment.invoke(0, "get", {})["value"]["total"]
        batched_total = deployment.invoke(1, "get", {})["value"]["total"]
        assert unbatched_total == batched_total == sum(range(12))

    def test_batch_traffic_is_subject_to_faults(self):
        """A partitioned domain fails the whole batch with per-call errors."""
        deployment, network = make_deployment(True)
        network.partition(deployment.client_address, deployment.domains[1].domain_id)
        results = deployment.invoke_batch(1, [("add", {"n": 1}), ("get", {})])
        assert all(isinstance(result, Exception) for result in results)

    def test_wvm_app_batches_too(self):
        from repro.sandbox.programs import bls_share_source

        developer = DeveloperIdentity("batch-wvm-developer")
        deployment = Deployment("batch-wvm", developer,
                                DeploymentConfig(num_domains=2))
        package = CodePackage("bls-custody", "1.0.0", "wvm", bls_share_source())
        deployment.publish_and_install(package)
        from repro.crypto.bilinear import BLS_SCALAR_ORDER

        message_int = int.from_bytes(b"tx", "big")
        calls = [("bls_share", [message_int + i, 2, 12345, BLS_SCALAR_ORDER])
                 for i in range(3)]
        batched = deployment.invoke_batch(1, calls)
        sequential = [deployment.invoke(1, "bls_share", list(params))
                      for _, params in calls]
        assert [r["value"] for r in batched] == [r["value"] for r in sequential]


class TestEnclaveBoundaryOnBatchPath:
    def test_compromised_enclave_rejects_batches_without_vsock(self):
        """Regression: the raw fast path must still cross the enclave boundary.

        Without vsock hops the batch is dispatched directly; it must still go
        through enclave.call so a compromised enclave rejects batched invokes
        exactly as it rejects single ones.
        """
        developer = DeveloperIdentity("novsock-developer")
        deployment = Deployment("novsock", developer,
                                DeploymentConfig(num_domains=2, use_vsock=False))
        package = CodePackage("counter", "1.0.0", "python", COUNTER_APP)
        deployment.publish_and_install(package)
        network = Network(clock=deployment.clock, default_latency=lan_profile())
        deployment.route_via_network(network, attempts=1)
        deployment.domains[1].compromise()
        with pytest.raises(RpcError, match="Compromised"):
            deployment.invoke(1, "get", {})
        batch_results = deployment.invoke_batch(1, [("get", {}), ("add", {"n": 1})])
        assert all(isinstance(result, RpcError) for result in batch_results)
        assert "Compromised" in str(batch_results[0])


class TestColumnarChunk:
    """A homogeneous chunk of dict params sends its field names once."""

    def test_chunk_forms(self):
        pairs = [("add", {"n": 1, "tag": "a"}), ("add", {"tag": "b", "n": 2})]
        assert Deployment._batch_params(pairs) == {
            "entry": "add", "fields": ["n", "tag"],
            "params_list": [[1, "a"], [2, "b"]]}
        assert Deployment._batch_params([("add", {"n": 1}), ("add", {"n": 2})]) == {
            "entry": "add", "fields": ["n"], "params_list": [[1], [2]]}
        # Everything else keeps its earlier form: a single call, list params
        # (WVM apps), empty or differing key sets, and mixed entry points.
        assert Deployment._batch_params([("get", {}), ("get", {})]) == {
            "entry": "get", "params_list": [{}, {}]}
        assert Deployment._batch_params([("add", {"n": 1}), ("add", {"n": 1, "m": 2})]) == {
            "entry": "add", "params_list": [{"n": 1}, {"n": 1, "m": 2}]}
        assert Deployment._batch_params([("add", {"n": 1}), ("add", [1])]) == {
            "entry": "add", "params_list": [{"n": 1}, [1]]}
        assert Deployment._batch_params([("add", {"n": 1})]) == {
            "entry": "add", "params_list": [{"n": 1}]}
        assert Deployment._batch_params([("f", [1, 2]), ("f", [3, 4])]) == {
            "entry": "f", "params_list": [[1, 2], [3, 4]]}
        assert Deployment._batch_params([("add", {"n": 1}), ("add", {"m": 1})]) == {
            "entry": "add", "params_list": [{"n": 1}, {"m": 1}]}
        assert "calls" in Deployment._batch_params([("add", {"n": 1}), ("get", {"n": 1})])

    @pytest.mark.parametrize("params", [
        {"entry": "add", "fields": ["n", "n"], "params_list": [[1, 1], [2, 2]]},
        {"entry": "add", "fields": ["n", "m"], "params_list": [[1, 1], [2, 2]]},
        {"entry": "add", "fields": [1], "params_list": [[1], [2]]},
        {"entry": "add", "fields": "n", "params_list": [[1], [2]]},
        {"entry": "add", "fields": ["n"], "params_list": [[1], [2, 3]]},
        {"entry": "add", "fields": ["n"], "params_list": [[1], []]},
        {"entry": "add", "fields": ["n"], "params_list": [[1], {"n": 2}]},
    ])
    def test_malformed_columnar_chunk_fails_whole(self, params):
        deployment, network = make_deployment(True)
        client = deployment._route.clients[0]
        results = client.call_many([("invoke_many", params)], attempts=1,
                                   return_errors=True)
        # One error envelope for the whole chunk, and no call ran.
        assert len(results) == 1 and isinstance(results[0], RpcError)
        assert "FrameworkError" in str(results[0])
        assert deployment.invoke(0, "get", {})["value"]["total"] == 0

    def test_columnar_chunk_charged_per_row(self):
        from repro.net.rpc import RpcServer

        rows = [[index] for index in range(128)]
        request = {"id": 1, "method": "invoke_many",
                   "params": {"entry": "add", "fields": ["n"], "params_list": rows}}
        assert RpcServer._request_weight(request) == 128

        developer = DeveloperIdentity("columnar-weight-developer")
        deployment = Deployment("columnar-weight", developer,
                                DeploymentConfig(num_domains=1))
        deployment.publish_and_install(
            CodePackage("counter", "1.0.0", "python", COUNTER_APP))
        deployment.set_service_time(0.001)
        network = Network(clock=deployment.clock, default_latency=lan_profile())
        servers = deployment.route_via_network(network, attempts=1)
        results = deployment.invoke_batch(0, [("add", {"n": i}) for i in range(128)])
        assert results[-1]["value"]["total"] == sum(range(128))
        (server,) = servers.values()
        assert server.queue.total_units == 128


@pytest.mark.parametrize("app", ["keybackup", "prio"])
def test_parallel_batched_matches_serial(app):
    """Columnar chunks cross the parallel executor's pipes like the sim wire."""
    from repro.sim import MultiClientWorkload

    reports = [MultiClientWorkload(app, num_clients=16, batch_size=16, shards=2,
                                   seed=21, parallel=parallel, workers=2).run()
               for parallel in (False, True)]
    serial, parallel = reports
    assert parallel.parallel and not serial.parallel
    assert serial.succeeded == parallel.succeeded == 16
    assert serial.failures == parallel.failures == []
    assert serial.consistency_issues == parallel.consistency_issues == []
