"""Unit tests for the RPC layer and vsock-style proxy chain."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.package import DeveloperIdentity
from repro.core.trust_domain import TrustDomain
from repro.enclave.tee import HardwareType
from repro.enclave.vendor import HardwareVendor
from repro.errors import RpcError
from repro.net.rpc import BoundedIdSet, RpcClient, RpcServer
from repro.net.transport import Network
from repro.net.vsock import SocketHop, VsockProxyChain


def make_rpc_pair():
    network = Network()
    server_endpoint = network.endpoint("server")
    client_endpoint = network.endpoint("client")
    server = RpcServer(server_endpoint)
    client = RpcClient(network, client_endpoint, "server")
    return network, server, client


class TestRpc:
    def test_simple_call(self):
        _, server, client = make_rpc_pair()
        server.register("add", lambda params: params["a"] + params["b"])
        assert client.call("add", {"a": 2, "b": 3}) == 5

    def test_call_with_none_params(self):
        _, server, client = make_rpc_pair()
        server.register("ping", lambda params: "pong")
        assert client.call("ping") == "pong"

    def test_unknown_method(self):
        _, server, client = make_rpc_pair()
        with pytest.raises(RpcError):
            client.call("missing")

    def test_handler_exception_propagates_as_rpc_error(self):
        _, server, client = make_rpc_pair()

        def explode(params):
            raise ValueError("boom")

        server.register("explode", explode)
        with pytest.raises(RpcError, match="boom"):
            client.call("explode")

    def test_multiple_sequential_calls(self):
        _, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        for i in range(10):
            assert client.call("echo", {"i": i}) == {"i": i}
        assert server.requests_served == 10

    def test_binary_payloads(self):
        _, server, client = make_rpc_pair()
        server.register("rev", lambda params: params[::-1])
        assert client.call("rev", b"\x01\x02\x03") == b"\x03\x02\x01"

    def test_registered_methods_listing(self):
        _, server, _ = make_rpc_pair()
        server.register("b", lambda p: p)
        server.register("a", lambda p: p)
        assert server.registered_methods() == ["a", "b"]

    def test_two_clients_one_server(self):
        network = Network()
        server_endpoint = network.endpoint("server")
        server = RpcServer(server_endpoint)
        server.register("whoami", lambda params: params["name"])
        client_a = RpcClient(network, network.endpoint("a"), "server")
        client_b = RpcClient(network, network.endpoint("b"), "server")
        assert client_a.call("whoami", {"name": "a"}) == "a"
        assert client_b.call("whoami", {"name": "b"}) == "b"


class TestVsock:
    def test_single_hop_round_trip(self):
        hop = SocketHop("test-hop")
        assert hop.forward(b"payload") == b"payload"
        assert hop.stats.forwarded_messages == 1
        assert hop.stats.forwarded_bytes == len(b"payload") + 4

    def test_large_payload_forwarded_in_chunks(self):
        hop = SocketHop("big")
        payload = b"\xab" * 100_000
        assert hop.forward(payload) == payload

    def test_chain_request_and_response(self):
        chain = VsockProxyChain.nitro_style()
        assert chain.request(b"req") == b"req"
        assert chain.respond(b"resp") == b"resp"

    def test_round_trip_traverses_all_hops_twice(self):
        chain = VsockProxyChain.nitro_style()
        assert chain.respond(chain.request(b"x")) == b"x"
        for hop in chain.hops:
            assert hop.stats.forwarded_messages == 2

    def test_latency_is_recorded_and_claimed_once(self):
        chain = VsockProxyChain.nitro_style()
        chain.respond(chain.request(b"x" * 1000))
        assert chain.total_simulated_latency > 0
        assert chain.claim_delay() == chain.total_simulated_latency
        assert chain.claim_delay() == 0.0

    def test_empty_payload(self):
        hop = SocketHop("empty")
        assert hop.forward(b"") == b""


def routed_domain():
    """An enclave domain served on a zero-latency network whose clock it
    shares, as a plane's domains do; and a client for it."""
    network = Network()
    domain = TrustDomain("d0", HardwareType.NITRO, DeveloperIdentity("acme").public_key,
                         vendor=HardwareVendor("aws-nitro-sim"), clock=network.clock)
    domain.register_rpc(RpcServer(network.endpoint(domain.domain_id)))
    return network, domain, RpcClient(network, network.endpoint("client"), "d0")


class TestHopDelay:
    """A request pays the hops it crossed, on its own response; the shared
    clock never moves inside a handler."""

    def test_forwarding_leaves_every_clock_unmoved(self):
        network, domain, _ = routed_domain()
        domain.get_state()
        domain.vsock.respond(domain.vsock.request(b"x" * 1000))
        assert domain.vsock.total_simulated_latency > 0
        assert network.clock.now() == 0.0

    def test_latency_charged_to_the_response(self):
        network, domain, client = routed_domain()
        client.call("get_state", {})
        # A zero-latency network: the round trip is the four hop crossings.
        assert network.clock.now() > 0
        assert network.clock.now() == domain.vsock.total_simulated_latency

    def test_an_in_process_call_leaves_no_delay_for_the_next_rpc(self):
        elapsed = []
        for in_process_calls in (0, 2):
            network, domain, client = routed_domain()
            for _ in range(in_process_calls):
                domain.get_state()
            client.call("get_state", {})
            elapsed.append(network.clock.now())
        assert elapsed[0] > 0
        assert elapsed[1] == elapsed[0]


class TestBoundedIdSetProperties:
    """Property tests for the completed-id window behind duplicate filtering."""

    @settings(max_examples=100, deadline=None)
    @given(
        maxlen=st.integers(min_value=1, max_value=16),
        items=st.lists(st.integers(min_value=0, max_value=31), max_size=64),
    )
    def test_members_and_order_stay_in_lockstep(self, maxlen, items):
        """After ANY add sequence: len(_members) == len(_order) <= maxlen.

        The set and the eviction ring must never drift apart — a divergence
        means either a member that can no longer be evicted (unbounded
        memory) or a ring entry whose membership was already forgotten
        (premature re-admission of a duplicate response).
        """
        ids = BoundedIdSet(maxlen=maxlen)
        for item in items:
            ids.add(item)
            assert len(ids._members) == len(ids._order) <= maxlen
            assert set(ids._order) == ids._members
            assert item in ids

    @settings(max_examples=100, deadline=None)
    @given(
        maxlen=st.integers(min_value=1, max_value=8),
        items=st.lists(st.integers(min_value=0, max_value=15), max_size=48),
    )
    def test_exactly_the_most_recent_unique_items_remain(self, maxlen, items):
        """The survivors match a plain-list reference model of the window.

        Re-adding a *present* item is a no-op (it must not refresh recency —
        the window models completion time, not last-duplicate time), but an
        item evicted earlier may legitimately re-enter as a fresh addition.
        The reference model is a list trimmed to ``maxlen`` on every insert.
        """
        ids = BoundedIdSet(maxlen=maxlen)
        model: list = []
        for item in items:
            ids.add(item)
            if item not in model:
                model.append(item)
                if len(model) > maxlen:
                    model.pop(0)
        assert list(ids._order) == model
        assert ids._members == set(model)
