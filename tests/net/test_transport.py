"""Unit tests for the in-memory network transport."""

import pytest

from repro.errors import NetworkError, TransportClosedError
from repro.net.clock import SimClock
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.transport import FaultDecision, Network


class TestEndpointsAndDelivery:
    def test_send_and_receive(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        alice.send("bob", b"hi bob")
        assert network.run_until_idle() == 1
        message = bob.receive()
        assert message.payload == b"hi bob"
        assert message.source == "alice"
        assert bob.receive() is None

    def test_handler_invoked(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        seen = []
        bob.on_message = lambda m: seen.append(m.payload)
        alice.send("bob", b"one")
        alice.send("bob", b"two")
        network.run_until_idle()
        assert seen == [b"one", b"two"]

    def test_duplicate_address_rejected(self):
        network = Network()
        network.endpoint("x")
        with pytest.raises(NetworkError):
            network.endpoint("x")

    def test_unknown_destination_rejected(self):
        network = Network()
        alice = network.endpoint("alice")
        with pytest.raises(NetworkError):
            alice.send("nobody", b"hello?")

    def test_closed_endpoint_rejects_io(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.close()
        with pytest.raises(TransportClosedError):
            alice.send("bob", b"x")
        with pytest.raises(TransportClosedError):
            alice.receive()

    def test_messages_to_closed_endpoint_dropped(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        alice.send("bob", b"x")
        bob.close()
        assert network.run_until_idle() == 0

    def test_addresses_listed(self):
        network = Network()
        network.endpoint("b")
        network.endpoint("a")
        assert network.addresses() == ["a", "b"]

    def test_pending_count(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.send("bob", b"x")
        assert network.pending() == 1
        network.run_until_idle()
        assert network.pending() == 0


class TestLatencyAccounting:
    def test_clock_advances_by_link_latency(self):
        clock = SimClock()
        network = Network(clock=clock, default_latency=ConstantLatency(0.010))
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.send("bob", b"x")
        network.run_until_idle()
        assert clock.now() == pytest.approx(0.010)

    def test_per_link_latency_override(self):
        clock = SimClock()
        network = Network(clock=clock)
        alice = network.endpoint("alice")
        network.endpoint("bob")
        network.set_link_latency("alice", "bob", ConstantLatency(0.5))
        alice.send("bob", b"x")
        network.run_until_idle()
        assert clock.now() == pytest.approx(0.5)

    def test_stats_collected(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.send("bob", b"12345")
        alice.send("bob", b"678")
        network.run_until_idle()
        assert network.stats.messages_sent == 2
        assert network.stats.bytes_sent == 8
        assert network.stats.messages_delivered == 2
        assert network.stats.per_link[("alice", "bob")]["messages"] == 2


class TestPartitions:
    def test_partitioned_link_drops_traffic(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.partition("alice", "bob")
        alice.send("bob", b"lost")
        network.run_until_idle()
        assert bob.receive() is None

    def test_heal_restores_traffic(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.partition("alice", "bob")
        network.heal("alice", "bob")
        alice.send("bob", b"found")
        network.run_until_idle()
        assert bob.receive().payload == b"found"

    def test_partition_is_symmetric_by_default(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.partition("alice", "bob")
        bob.send("alice", b"x")
        network.run_until_idle()
        assert alice.receive() is None


class TestConservation:
    """Every message that enters the network is counted exactly once.

    ``sent + duplicated == delivered + dropped (+ pending)`` — the identity
    the scenario runner asserts after every run. Each test here targets a
    path that used to leak from the accounting.
    """

    def test_clean_traffic_conserves(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.send("bob", b"x")
        assert network.stats.conserved(pending=network.pending())
        network.run_until_idle()
        assert network.stats.conserved()

    def test_closed_destination_drop_is_recorded(self):
        """The delivery-time drop (endpoint closed after send) must count."""
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        alice.send("bob", b"x")
        bob.close()
        network.run_until_idle()
        assert network.stats.messages_dropped == 1
        assert network.stats.conserved(), network.stats.conservation_detail()

    def test_downed_destination_drop_is_recorded(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        alice.send("bob", b"x")
        network.crash("bob")
        network.run_until_idle()
        assert network.stats.messages_dropped == 1
        assert network.stats.conserved(), network.stats.conservation_detail()

    def test_partitioned_send_counts_as_sent_and_dropped(self):
        network = Network()
        alice = network.endpoint("alice")
        network.endpoint("bob")
        network.partition("alice", "bob")
        alice.send("bob", b"x")
        assert network.stats.messages_sent == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.conserved()

    def test_fault_dropped_send_charges_no_latency(self):
        """A message that never rode the wire must not inflate total_latency
        (it used to charge its sampled link latency despite being dropped)."""
        network = Network(default_latency=ConstantLatency(0.01))
        alice = network.endpoint("alice")
        network.endpoint("bob")
        network.add_fault_hook(lambda message: FaultDecision(drop=True))
        alice.send("bob", b"x")
        assert network.stats.messages_dropped == 1
        assert network.stats.total_latency == 0.0
        assert network.stats.conserved()

    def test_duplicate_copies_get_independent_delivery_times(self):
        """Fault-injected duplicates must not arrive in lockstep with the
        original: each copy samples its own link latency (they used to share
        one deliver_at, so reordering between copies was impossible)."""
        class Stepped(LatencyModel):
            """Each sample is 10 ms longer than the last."""

            def __init__(self):
                self.samples = 0

            def sample(self, size_bytes):
                self.samples += 1
                return 0.01 * self.samples

        clock = SimClock()
        network = Network(clock=clock, default_latency=Stepped())
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        arrivals = []
        bob.on_message = lambda message: arrivals.append(clock.now())
        network.add_fault_hook(lambda message: FaultDecision(duplicates=2))
        alice.send("bob", b"x")
        network.run_until_idle()
        assert len(arrivals) == 3
        assert len(set(arrivals)) == 3
        assert network.stats.messages_duplicated == 2
        assert network.stats.conserved(), network.stats.conservation_detail()
