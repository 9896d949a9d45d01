"""Tests for the discrete-event scheduler and the observable service queue.

The event loop is what turns the transport's delivery heap into genuine
request concurrency: tasks yield on send/receive instead of pumping the
network, so overlapping ops, retransmission after loss, queueing, and
head-of-line blocking all become directly testable — deterministically.
"""

import random

import pytest

from repro.errors import SimulationError, TimeoutError
from repro.net.eventloop import (
    EventLoop,
    Park,
    Signal,
    Sleep,
    WaitBatch,
    drive,
    drive_all,
    live,
)
from repro.net.latency import ConstantLatency
from repro.net.rpc import RpcClient, RpcServer, ServiceQueue, ServiceTimeModel
from repro.net.transport import FaultDecision, Network


def make_rpc_pair(network=None):
    network = network or Network()
    server = RpcServer(network.endpoint("server"))
    client = RpcClient(network, network.endpoint("client"), "server")
    return network, server, client


class TestSleepScheduling:
    def test_sleeps_interleave_in_timestamp_order(self):
        network = Network()
        loop = EventLoop(network)
        events = []

        def task(name, naps):
            for nap in naps:
                yield Sleep(nap)
                events.append((round(network.clock.now(), 6), name))

        loop.spawn(task("a", [0.3, 0.3]))  # wakes at 0.3, 0.6
        loop.spawn(task("b", [0.2, 0.2]))  # wakes at 0.2, 0.4
        loop.run()
        assert events == [(0.2, "b"), (0.3, "a"), (0.4, "b"), (0.6, "a")]

    def test_start_at_delays_a_task_until_its_arrival_time(self):
        network = Network()
        loop = EventLoop(network)
        seen = []

        def task():
            seen.append(network.clock.now())
            yield Sleep(0.0)

        loop.spawn(task(), start_at=1.5)
        loop.run()
        assert seen == [1.5]

    def test_done_tasks_expose_results(self):
        loop = EventLoop(Network())

        def task():
            yield Sleep(0.01)
            return 42

        handle = loop.spawn(task())
        loop.run()
        assert handle.done and handle.result == 42


class TestWaitBatch:
    def test_wait_batch_resolves_an_rpc_without_manual_pumping(self):
        network, server, client = make_rpc_pair()
        server.register("add", lambda params: params["a"] + params["b"])
        results = []

        def task():
            batch = client.begin_many([("add", {"a": 2, "b": 3})])
            yield WaitBatch(batch)
            results.extend(batch.collect())

        loop = EventLoop(network)
        loop.spawn(task())
        loop.run()
        assert results == [5]

    def test_two_tasks_on_one_endpoint_get_their_own_responses(self):
        """Response routing is by request id, not by arrival order.

        Both tasks share one client endpoint (and therefore one response
        demux), so a broadcast or positional scheme would cross their answers.
        """
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        results = {}

        def task(tag):
            batch = client.begin_many([("echo", tag)])
            yield WaitBatch(batch)
            results[tag] = batch.collect()

        loop = EventLoop(network)
        loop.spawn(task("first"))
        loop.spawn(task("second"))
        loop.run()
        assert results == {"first": ["first"], "second": ["second"]}

    def test_timeout_wakes_the_task_to_retransmit(self):
        """A lost request is retransmitted after the wait times out, and the
        retry succeeds — the event-loop analogue of ``collect``'s retries."""
        network, server, client = make_rpc_pair()
        server.register("ping", lambda params: "pong")
        drops = {"remaining": 1}

        def drop_first(message):
            if message.destination == "server" and drops["remaining"] > 0:
                drops["remaining"] -= 1
                return FaultDecision(drop=True)
            return None

        network.add_fault_hook(drop_first)
        results = []

        def task():
            batch = client.begin_many([("ping", None)])
            yield from batch.wait_event(attempts=3, timeout=0.05)
            results.extend(batch.collect())

        loop = EventLoop(network)
        loop.spawn(task())
        loop.run()
        assert results == ["pong"]
        assert client.retries >= 1

    def test_exhausted_attempts_surface_timeouts_not_hangs(self):
        network, server, client = make_rpc_pair()
        server.register("ping", lambda params: "pong")
        network.add_fault_hook(lambda message: FaultDecision(drop=True)
                               if message.destination == "server" else None)
        outcomes = []

        def task():
            batch = client.begin_many([("ping", None)])
            yield from batch.wait_event(attempts=2, timeout=0.05)
            outcomes.extend(batch.collect(return_errors=True))

        loop = EventLoop(network)
        loop.spawn(task())
        loop.run()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TimeoutError)


class TestDeterminism:
    def _traced_run(self, seed):
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        loop = EventLoop(network, trace=True)
        rng = random.Random(seed)

        def task(index):
            yield Sleep(rng.uniform(0.0, 0.01))
            batch = client.begin_many([("echo", index)])
            yield WaitBatch(batch)
            batch.collect()

        for index in range(10):
            loop.spawn(task(index), name=f"op-{index}")
        loop.run()
        return loop.trace

    def test_same_seed_yields_an_identical_event_trace(self):
        assert self._traced_run(7) == self._traced_run(7)

    def test_different_seeds_diverge(self):
        assert self._traced_run(7) != self._traced_run(8)


class TestEventBudget:
    def test_runaway_loop_raises_instead_of_hanging(self):
        loop = EventLoop(Network(), max_events=50)

        def spinner():
            while True:
                yield Sleep(0.001)

        loop.spawn(spinner())
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            loop.run()

    def test_unknown_command_is_rejected(self):
        loop = EventLoop(Network())

        def confused():
            yield "not a command"

        loop.spawn(confused())
        with pytest.raises(SimulationError, match="unsupported command"):
            loop.run()


class TestServiceQueue:
    def test_depth_tracks_units_on_the_serial_timeline(self):
        queue = ServiceQueue()
        assert queue.enqueue(0.0, 3, 0.3) == pytest.approx(0.3)
        # Units complete at 0.1, 0.2, 0.3 on the serial timeline.
        assert queue.depth(0.05) == 3
        assert queue.depth(0.15) == 2
        assert queue.depth(0.35) == 0
        assert queue.max_depth == 3
        assert queue.total_units == 3

    def test_busy_until_semantics_are_preserved(self):
        """A second arrival waits for the first to drain — the exact
        busy-until behavior the scatter-overlap pin depends on."""
        queue = ServiceQueue()
        queue.enqueue(0.0, 1, 0.1)
        # Arrives at 0.04 while the first request is still in service.
        assert queue.enqueue(0.04, 1, 0.1) == pytest.approx(0.16)
        assert queue.busy_until == pytest.approx(0.2)

    def test_head_of_line_blocking_charges_the_latecomer(self):
        queue = ServiceQueue()
        queue.enqueue(0.0, 10, 1.0)  # a heavy batch holds the head
        delay = queue.enqueue(0.0, 1, 0.01)  # a tiny request behind it
        assert delay == pytest.approx(1.01)
        assert queue.max_depth == 11

    def test_server_queue_depth_is_observable_under_concurrency(self):
        network, server, client = make_rpc_pair()
        server.service_model = ServiceTimeModel(per_request=0.01)
        server.register("work", lambda params: params)
        loop = EventLoop(network)

        def task(index):
            batch = client.begin_many([("work", index)])
            yield WaitBatch(batch)
            batch.collect()

        for index in range(5):
            loop.spawn(task(index))
        loop.run()
        # All five requests hit the wire together, so they pile up behind
        # the serial queue; by the end everything has drained.
        assert server.max_queue_depth >= 2
        assert server.queue_depth() == 0
        assert server.busy_until > 0.0


class TestDrive:
    """The synchronous driver runs the same task generators as the loop."""

    def test_drive_pumps_a_waitbatch_and_advances_sleeps(self):
        network, server, client = make_rpc_pair()
        server.register("add", lambda params: params["a"] + params["b"])

        def task():
            yield Sleep(0.5)
            batch = client.begin_many([("add", {"a": 2, "b": 3})])
            woke = yield WaitBatch(batch)
            return woke, batch.collect()

        assert drive(task(), network.clock) == ("complete", [5])
        assert network.clock.now() >= 0.5

    def test_drive_and_the_loop_give_the_same_wire_traffic_and_time(self):
        def run(driver):
            network, server, client = make_rpc_pair(
                Network(default_latency=ConstantLatency(0.003)))
            server.service_model = ServiceTimeModel(per_request=0.001)
            server.register("echo", lambda params: params)
            batch = client.begin_many([("echo", index) for index in range(5)])
            driver(network, batch.wait_event())
            return (batch.collect(), network.stats.messages_sent,
                    network.stats.bytes_sent, network.clock.now())

        def on_loop(network, gen):
            loop = EventLoop(network)
            loop.spawn(gen)
            loop.run()

        def synchronously(network, gen):
            drive(gen, network.clock)

        assert run(on_loop) == run(synchronously)

    def test_drive_without_a_clock_rejects_a_sleep(self):
        def task():
            yield Sleep(0.1)

        with pytest.raises(SimulationError):
            drive(task())

    def test_drive_rejects_unknown_commands(self):
        def task():
            yield "not a command"

        with pytest.raises(SimulationError):
            drive(task(), Network().clock)


class TestDriveAll:
    """The lockstep driver runs several task generators side by side."""

    @staticmethod
    def echo_task(client, value):
        batch = client.begin_many([("echo", value)])
        yield from batch.wait_event()
        [result] = batch.collect(return_errors=True)
        return result

    def test_results_in_input_order_and_a_raise_fails_only_its_generator(self):
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)

        def crashes_after_a_wave():
            yield from self.echo_task(client, "answered")
            raise RuntimeError("boom")

        def crashes_at_once():
            raise ValueError("early")
            yield  # pragma: no cover - makes this a generator

        def no_waves():
            yield from ()
            return "none"

        def bad_command():
            yield "not a command"

        results = drive_all([
            self.echo_task(client, 1), crashes_after_a_wave(),
            self.echo_task(client, 2), crashes_at_once(), no_waves(),
            bad_command(), self.echo_task(client, 3)])
        assert results[0] == 1 and results[2] == 2 and results[6] == 3
        assert isinstance(results[1], RuntimeError)
        assert isinstance(results[3], ValueError)
        assert results[4] == "none"
        assert isinstance(results[5], SimulationError)
        assert drive_all([]) == []

    def test_every_batch_is_on_the_wire_before_the_first_pump(self):
        networks = [Network(default_latency=ConstantLatency(0.003))
                    for _ in range(2)]
        clients = []
        for network in networks:
            for name in ("a", "b"):
                server = RpcServer(network.endpoint(f"server-{name}"))
                server.service_model = ServiceTimeModel(per_request=0.001)
                server.register("echo", lambda params: params)
                clients.append(RpcClient(
                    network, network.endpoint(f"client-{name}"),
                    f"server-{name}"))
        pumps = []
        for network in networks:
            pump = network.run_until_idle

            def counted(pump=pump, network=network):
                pumps.append((network, network.pending()))
                return pump()

            network.run_until_idle = counted
        results = drive_all(self.echo_task(client, index)
                            for index, client in enumerate(clients))
        assert results == [0, 1, 2, 3]
        # One round: each distinct network pumped once, with both of its
        # batches already queued.
        assert pumps == [(networks[0], 2), (networks[1], 2)]
        # The two servers of a network served side by side: one round trip
        # plus one service slot, not two of each.
        assert all(network.clock.now() == pytest.approx(0.007)
                   for network in networks)

    def test_a_batch_that_loses_traffic_is_retransmitted_after_idle(self):
        network, server, client = make_rpc_pair()
        server.register("echo", lambda params: params)
        drops = {"remaining": 1}

        def drop_first(message):
            if message.destination == "server" and drops["remaining"] > 0:
                drops["remaining"] -= 1
                return FaultDecision(drop=True)
            return None

        network.add_fault_hook(drop_first)
        wakes = []

        def watched():
            batch = client.begin_many([("echo", "x")])
            for attempt in range(3):
                if attempt:
                    client.endpoint.send("server", batch.requests[0][2])
                wakes.append((yield WaitBatch(batch)))
                if wakes[-1] == "complete":
                    break
            return batch.found

        [found] = drive_all([watched()])
        assert wakes == ["idle", "complete"]
        assert [response["result"] for response in found.values()] == ["x"]
        # The batch's own retransmission rides the same cue.
        drops["remaining"] = 1
        assert drive_all([self.echo_task(client, "y")]) == ["y"]
        assert client.retries == 1


class TestLive:
    """Synchronous waits inside ``live`` pump the running loop."""

    def test_run_cannot_be_reentered(self):
        network = Network()
        loop = EventLoop(network)

        def nested():
            loop.run()
            yield Sleep(0.0)

        loop.spawn(nested())
        with pytest.raises(SimulationError, match="re-enter"):
            loop.run()

    @pytest.mark.parametrize("inside_live", [False, True])
    def test_a_synchronous_call_freezes_the_loop_unless_live(self, inside_live):
        network, server, client = make_rpc_pair(
            Network(default_latency=ConstantLatency(0.01)))
        server.register("echo", lambda params: params)
        loop = EventLoop(network)
        stamps = {}

        def caller():
            if inside_live:
                with live(network):
                    stamps["answer"] = client.call("echo", "hi")
            else:
                stamps["answer"] = client.call("echo", "hi")
            stamps["answered"] = network.clock.now()
            yield Sleep(0.0)

        def ticker():
            stamps["ticked"] = network.clock.now()
            yield Sleep(0.0)

        loop.spawn(caller())
        loop.spawn(ticker(), start_at=0.005)
        loop.run()
        assert stamps["answer"] == "hi"
        assert stamps["answered"] == pytest.approx(0.02)
        # Frozen, the ticker due at 5 ms starts only after the 20 ms call;
        # live, it runs on time while the call waits.
        assert stamps["ticked"] == pytest.approx(0.005 if inside_live else 0.02)

    def test_park_resumes_on_its_signal_or_when_nothing_can_fire_it(self):
        loop = EventLoop(Network())
        signal, orphan = Signal(), Signal()
        wakes = []

        def parked(name, target):
            wakes.append((name, (yield Park(target))))

        def firer():
            yield Sleep(0.1)
            signal.fire()

        loop.spawn(parked("signalled", signal))
        loop.spawn(parked("orphan", orphan))
        loop.spawn(firer())
        loop.run()
        assert wakes == [("signalled", "signalled"), ("orphan", "idle")]
        # A fired signal stays fired: parking on it resumes at once, and the
        # synchronous driver answers the same way.
        assert drive(parked("late", signal)) is None
        assert wakes[-1] == ("late", "signalled")
        assert drive(parked("never", Signal())) is None
        assert wakes[-1] == ("never", "idle")
