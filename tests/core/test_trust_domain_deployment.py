"""Unit and integration tests for trust domains and deployments."""

import pytest

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.core.trust_domain import TrustDomain, expected_framework_measurement
from repro.crypto.bilinear import BLS_SCALAR_ORDER
from repro.enclave.tee import HardwareType
from repro.enclave.vendor import HardwareVendor
from repro.errors import DeploymentError, RpcError
from repro.net.rpc import RpcClient, RpcServer
from repro.net.transport import Network
from repro.sandbox.programs import bls_share_source


def wvm_package(version="1.0.0"):
    return CodePackage("custody", version, "wvm", bls_share_source())


class TestTrustDomain:
    def test_nitro_domain_attests_to_framework_measurement(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d1", HardwareType.NITRO, developer.public_key,
                             vendor=HardwareVendor("aws-nitro-sim"))
        response = domain.audit_response(b"nonce")
        assert response["attestation"] is not None
        assert response["attestation"]["pcrs"]["0"] == expected_framework_measurement().digest

    def test_sgx_domain_attests(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d2", HardwareType.SGX, developer.public_key,
                             vendor=HardwareVendor("intel-sgx-sim"))
        response = domain.audit_response(b"nonce")
        assert response["attestation"]["format"] == "sgx-quote-v1"
        assert response["attestation"]["mrenclave"] == expected_framework_measurement().digest

    def test_developer_domain_has_no_attestation(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d0", HardwareType.NONE, developer.public_key)
        response = domain.audit_response(b"nonce")
        assert response["attestation"] is None
        assert response["hardware_type"] == "none"

    def test_enclave_domain_requires_vendor(self):
        developer = DeveloperIdentity("acme")
        with pytest.raises(DeploymentError):
            TrustDomain("d", HardwareType.NITRO, developer.public_key)

    def test_requests_traverse_vsock_hops(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d1", HardwareType.NITRO, developer.public_key,
                             vendor=HardwareVendor("aws-nitro-sim"), use_vsock=True)
        package = wvm_package()
        domain.install_update(developer.sign_update(package, 0), package)
        before = domain.vsock.total_forwarded_messages
        domain.invoke_application("scalar_mul", [2, 3, BLS_SCALAR_ORDER])
        # One request in through both hops plus one response out through both.
        assert domain.vsock.total_forwarded_messages == before + 4

    def test_install_and_invoke_through_domain(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d1", HardwareType.SGX, developer.public_key,
                             vendor=HardwareVendor("intel-sgx-sim"))
        package = wvm_package()
        result = domain.install_update(developer.sign_update(package, 0), package)
        assert result["installed"] is True
        invocation = domain.invoke_application("scalar_mul", [5, 6, BLS_SCALAR_ORDER])
        assert invocation["value"] == 30
        state = domain.get_state()
        assert state["app_version"] == "1.0.0"

    def test_compromise_marks_domain(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d1", HardwareType.NITRO, developer.public_key,
                             vendor=HardwareVendor("aws-nitro-sim"))
        assert not domain.compromised
        domain.compromise()
        assert domain.compromised

    def test_developer_domain_compromise_is_noop(self):
        developer = DeveloperIdentity("acme")
        domain = TrustDomain("d0", HardwareType.NONE, developer.public_key)
        domain.compromise()
        assert not domain.compromised


class TestDeployment:
    def test_default_layout_matches_figure_2(self):
        deployment = Deployment("fig2", DeveloperIdentity("acme"))
        assert len(deployment.domains) == 2
        assert deployment.domains[0].hardware_type == HardwareType.NONE
        assert deployment.domains[1].hardware_type == HardwareType.NITRO

    def test_heterogeneous_hardware_assignment(self):
        deployment = Deployment("het", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=5))
        census = deployment.hardware_census()
        assert census["none"] == 1
        assert census["nitro"] == 2
        assert census["sgx"] == 2

    def test_homogeneous_configuration(self):
        deployment = Deployment("homo", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=4, heterogeneous=False))
        census = deployment.hardware_census()
        assert census["nitro"] == 3
        assert "sgx" not in census

    def test_without_developer_domain(self):
        deployment = Deployment("all-tee", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=3, include_developer_domain=False))
        assert all(domain.enclave is not None for domain in deployment.domains)

    def test_invalid_config_rejected(self):
        with pytest.raises(DeploymentError):
            DeploymentConfig(num_domains=0)

    def test_publish_and_install_reaches_every_domain(self):
        deployment = Deployment("dep", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=3))
        package = wvm_package()
        manifest = deployment.publish_and_install(package)
        assert manifest.sequence == 0
        assert deployment.current_sequence == 0
        for domain in deployment.domains:
            assert domain.get_state()["app_digest"] == package.digest()
        assert deployment.release_log.size == 1
        assert deployment.registry.contains(package.digest())

    def test_sequential_updates_increment_sequence(self):
        deployment = Deployment("dep", DeveloperIdentity("acme"))
        deployment.publish_and_install(wvm_package("1.0.0"))
        manifest = deployment.publish_and_install(wvm_package("1.1.0"))
        assert manifest.sequence == 1
        for domain in deployment.domains:
            assert domain.get_state()["sequence"] == 1

    def test_invoke_all_collects_every_domain(self):
        deployment = Deployment("dep", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=3))
        deployment.publish_and_install(wvm_package())
        sent = deployment.network.stats.messages_sent
        results = [deployment.invoke(index, "scalar_mul", [3, 4, BLS_SCALAR_ORDER])
                   for index in range(3)]
        assert [r["value"] for r in results] == [12, 12, 12]
        # One request and one response per domain on the deployment's own
        # network.
        assert deployment.network.stats.messages_sent - sent == 6

    def test_enclave_domains_listing(self):
        deployment = Deployment("dep", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=4))
        assert len(deployment.enclave_domains()) == 3


class TestDeploymentOverRpc:
    def test_audit_and_invoke_over_the_simulated_network(self):
        deployment = Deployment("netdep", DeveloperIdentity("acme"),
                                DeploymentConfig(num_domains=2))
        deployment.publish_and_install(wvm_package())
        network = Network()
        deployment.attach_to_network(network)

        client_endpoint = network.endpoint("client")
        rpc = RpcClient(network, client_endpoint, "netdep-domain-1")
        state = rpc.call("get_state", {})
        assert state["app_version"] == "1.0.0"

        audit = rpc.call("audit", {"nonce": b"\x01" * 32})
        assert audit["attestation"] is not None

        invocation = rpc.call("invoke", {"entry": "scalar_mul",
                                         "params": [6, 7, BLS_SCALAR_ORDER]})
        assert invocation["value"] == 42

    def test_rpc_error_propagates_for_bad_update(self):
        deployment = Deployment("netdep2", DeveloperIdentity("acme"))
        network = Network()
        deployment.attach_to_network(network)
        rpc = RpcClient(network, network.endpoint("client"), "netdep2-domain-1")
        impostor = DeveloperIdentity("impostor")
        package = wvm_package()
        with pytest.raises(RpcError):
            rpc.call("install_update", {
                "manifest": impostor.sign_update(package, 0).to_dict(),
                "package": package.to_dict(),
            })
