"""Decode-once response routing on RPC client endpoints.

Every client endpoint has one :class:`~repro.net.rpc.ResponseDemux`: it
decodes each delivered response frame once and routes it by request id, to
the event-loop task waiting on that id or into a held map the owning batch
claims later. These tests pin the decode count to the number of response
frames delivered, and check the held map drains once batches resolve.
"""

import pytest

from repro.net.eventloop import EventLoop, Sleep
from repro.net.rpc import RpcClient, RpcServer, ServiceTimeModel
from repro.net.transport import Network
from repro.sim.faults import DuplicateFault, FaultPlan, ReshardService
from repro.sim.workload import MultiClientWorkload
from repro.wire.framing import split_frames


@pytest.fixture
def client_frames(monkeypatch):
    """Frame count of every message delivered to an RPC client endpoint."""
    counts = []
    original = Network.deliver_next

    def counting_deliver(network):
        message = original(network)
        if message is not None and hasattr(
                network._endpoints.get(message.destination), "rpc_completed_ids"):
            counts.append(len(split_frames(message.payload)))
        return message

    monkeypatch.setattr(Network, "deliver_next", counting_deliver)
    return counts


class TestScatterGroups:
    def test_later_group_lands_while_waiting_on_an_earlier_one(
            self, response_decodes, client_frames):
        """One task scatters to two servers through one client endpoint and
        waits group by group, as ``PendingScatter.wait_event`` does. The fast
        group's response lands while the task is blocked on the slow group;
        it is decoded on delivery and claimed later without a second decode.
        """
        network = Network()
        slow = RpcServer(network.endpoint("alpha"),
                         service_model=ServiceTimeModel(per_request=0.01))
        fast = RpcServer(network.endpoint("beta"))
        for server in (slow, fast):
            server.register("echo", lambda params: params)
        endpoint = network.endpoint("client")
        clients = [RpcClient(network, endpoint, name) for name in ("alpha", "beta")]
        loop = EventLoop(network, trace=True)
        results = []

        def scatter():
            groups = [client.begin_many([("echo", f"{group}-{call}")
                                         for call in range(3)])
                      for group, client in enumerate(clients)]
            for batch in groups:
                yield from batch.wait_event()
                results.append(batch.collect())

        loop.spawn(scatter(), name="scatter")
        loop.run()

        assert results == [[f"{group}-{call}" for call in range(3)]
                           for group in range(2)]
        deliveries = [detail for _, kind, detail in loop.trace if kind == "deliver"]
        assert deliveries.index("beta->client") < deliveries.index("alpha->client")
        # Blocked once, on group 0; group 1 was complete when it registered.
        assert [kind for _, kind, name in loop.trace
                if name == "scatter" and kind in ("wait", "ready")] == [
                    "wait", "ready", "ready"]
        assert len(response_decodes) == sum(client_frames) == 6
        assert len(set(response_decodes)) == 6
        assert endpoint.rpc_demux.held == {}
        assert endpoint.rpc_demux.watchers == {}


class TestHeldResponsesAreBounded:
    def test_duplicates_leave_nothing_held_at_quiescence(self):
        """A duplicate that lands after its batch claimed the first copy, but
        before the batch resolved, is purged when the batch completes.

        The window opens when a task's response arrives during another
        task's synchronous pump (as a live reshard's quiesce barrier does
        inside the event loop): the first copy wakes the waiting task, and
        the duplicate lands before that task runs again.
        """
        network = Network()
        server = RpcServer(network.endpoint("server"))
        server.register("echo", lambda params: params)
        endpoint = network.endpoint("client")
        client = RpcClient(network, endpoint, "server")
        FaultPlan(rules=[DuplicateFault(destination="client", copies=2)],
                  seed=7).install(network)
        loop = EventLoop(network)
        results = {}
        held_while_pumping = []

        def waiter(tag):
            batch = client.begin_many([("echo", tag), ("echo", tag * 2)])
            yield from batch.wait_event()
            results[tag] = batch.collect()

        def pumper():
            results["ping"] = client.call("echo", "ping")  # pumps to idle
            held_while_pumping.append(len(endpoint.rpc_demux.held))
            yield Sleep(0.0)

        for tag in range(4):
            loop.spawn(waiter(tag))
        loop.spawn(pumper())
        loop.run()

        assert results == {"ping": "ping",
                           **{tag: [tag, tag * 2] for tag in range(4)}}
        assert network.stats.messages_duplicated > 0
        assert held_while_pumping[0] > 0  # the window really opened
        assert endpoint.rpc_demux.held == {}
        assert endpoint.rpc_demux.watchers == {}


class TestConcurrentReshardRun:
    def test_client_decodes_equal_response_frames_delivered(
            self, response_decodes, client_frames):
        """Keybackup on 2 shards under concurrent load, with a live 2->4
        reshard mid-run: the post-migration backlog must not be re-decoded,
        so every response frame delivered to a client endpoint is decoded
        exactly once."""
        report = MultiClientWorkload(
            "keybackup", num_clients=80, seed=2022, shards=2, concurrent=True,
            arrival_rate=50_000.0, service_time=0.0004,
            events=(ReshardService(at_op=60, shards=4),)).run()
        assert report.failed == 0 and report.consistent
        assert report.final_shards == 4
        assert sum(client_frames) > 0
        assert len(response_decodes) == sum(client_frames)
