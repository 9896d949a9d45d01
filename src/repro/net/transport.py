"""An in-memory simulated network of addressable endpoints.

The network is single-threaded: sends enqueue messages on a delivery-time
heap, and deliveries happen in timestamp order, invoking receiver handlers
(or parking messages in inboxes for endpoints that poll). Latency is charged
to a :class:`~repro.net.clock.SimClock` per link, and per-endpoint statistics
are collected for the benchmark harness.

Two drivers consume the queue:

* :meth:`Network.run_until_idle` drains it synchronously — the original
  pump-to-quiescence model, still used by direct calls and unit tests;
* :meth:`Network.deliver_next` delivers exactly one message, which is what
  the discrete-event scheduler (:mod:`repro.net.eventloop`) interleaves with
  task timers so thousands of requests can be genuinely in flight at once.
  Both drivers hand each message to the same receiver (its endpoint's
  ``on_message`` handler, or its inbox), so an RPC client endpoint's response
  demux (:class:`repro.net.rpc.ResponseDemux`) routes responses to waiting
  tasks no matter which driver performed the delivery.

Message accounting is conservative: every send is either delivered, dropped
(partition, fault, crashed or closed destination), or still pending, so
``sent + duplicated == delivered + dropped + pending`` holds at all times
(see :meth:`NetworkStats.conserved`).

Adversarial network conditions are injected through two mechanisms:

* *fault hooks* (:meth:`Network.add_fault_hook`) inspect every message at send
  time and return a :class:`FaultDecision` — drop it, delay it (which, under
  delivery-time ordering, reorders it past later traffic), or duplicate it;
* *crashed endpoints* (:meth:`Network.crash` / :meth:`Network.recover`) model a
  party that is down: traffic addressed to it while down is dropped at
  delivery time, exactly as a real peer would simply never read it.

The scenario engine (:mod:`repro.sim.faults`) builds its fault plans on top of
these hooks.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.errors import NetworkError, TransportClosedError
from repro.net.clock import SimClock
from repro.net.latency import LatencyModel, NoLatency

__all__ = ["Message", "FaultDecision", "NetworkStats", "Endpoint", "Network"]


@dataclass(frozen=True)
class Message:
    """A message in flight: source, destination, payload, and delivery time."""

    source: str
    destination: str
    payload: bytes
    sent_at: float
    deliver_at: float


@dataclass(frozen=True)
class FaultDecision:
    """What a fault hook wants done with one message.

    Attributes:
        drop: discard the message instead of delivering it.
        extra_delay: additional delivery delay in seconds (on top of the link
            latency); under delivery-time ordering a delayed message is
            reordered past anything that overtakes it.
        duplicates: number of extra copies to enqueue.
    """

    drop: bool = False
    extra_delay: float = 0.0
    duplicates: int = 0


@dataclass
class NetworkStats:
    """Aggregate statistics the benchmarks and ablations report."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    total_latency: float = 0.0
    per_link: dict = field(default_factory=dict)

    def record_send(self, source: str, destination: str, size: int, latency: float) -> None:
        """Record one message send on the (source, destination) link."""
        self.messages_sent += 1
        self.bytes_sent += size
        self.total_latency += latency
        key = (source, destination)
        link = self.per_link.setdefault(key, {"messages": 0, "bytes": 0})
        link["messages"] += 1
        link["bytes"] += size

    def record_delivery(self) -> None:
        """Record one successful delivery."""
        self.messages_delivered += 1

    def record_drop(self) -> None:
        """Record one message lost to a partition, fault, or crashed endpoint."""
        self.messages_dropped += 1

    def conserved(self, pending: int = 0) -> bool:
        """Whether every message is accounted for.

        ``sent + duplicated == delivered + dropped + pending``: duplicates
        enter the queue without counting as sends, and every queue entry ends
        as exactly one delivery or one drop, so the identity must hold at any
        quiescent point (and, with ``pending``, at any point at all).
        """
        return (self.messages_sent + self.messages_duplicated
                == self.messages_delivered + self.messages_dropped + pending)

    def conservation_detail(self, pending: int = 0) -> str:
        """Human-readable form of the conservation identity (for invariants)."""
        return (f"sent {self.messages_sent} + duplicated "
                f"{self.messages_duplicated} vs delivered "
                f"{self.messages_delivered} + dropped {self.messages_dropped}"
                + (f" + pending {pending}" if pending else ""))


class Endpoint:
    """A network endpoint identified by a string address.

    Endpoints either register an ``on_message`` handler (RPC servers, and RPC
    clients through their response demux) or poll :meth:`receive` for parked
    messages.
    """

    def __init__(self, network: "Network", address: str):
        self.network = network
        self.address = address
        self.inbox: deque[Message] = deque()
        self.on_message: Optional[Callable[[Message], None]] = None
        self._closed = False

    def send(self, destination: str, payload: bytes, extra_delay: float = 0.0) -> None:
        """Send raw bytes to another endpoint's address.

        ``extra_delay`` adds sender-side processing time (seconds) on top of
        the link latency — e.g. an RPC server holding a response until its
        serial service queue drains (see ``RpcServer.service_model``).
        """
        if self._closed:
            raise TransportClosedError(f"endpoint {self.address} is closed")
        self.network.send(self.address, destination, payload, extra_delay=extra_delay)

    def receive(self) -> Optional[Message]:
        """Pop the oldest parked message, or ``None`` when the inbox is empty."""
        if self._closed:
            raise TransportClosedError(f"endpoint {self.address} is closed")
        if self.inbox:
            return self.inbox.popleft()
        return None

    def close(self) -> None:
        """Close the endpoint; subsequent sends and receives raise."""
        self._closed = True
        self.network._unregister(self.address)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed


class Network:
    """The simulated network fabric connecting all endpoints.

    Args:
        clock: simulated clock to charge latency against (a fresh one by default).
        default_latency: latency model used for links without an explicit model.
    """

    def __init__(self, clock: SimClock | None = None, default_latency: LatencyModel | None = None):
        self.clock = clock or SimClock()
        self.default_latency = default_latency or NoLatency()
        self.stats = NetworkStats()
        self._endpoints: dict[str, Endpoint] = {}
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        # A heap of (deliver_at, sequence, message): messages are delivered in
        # timestamp order with FIFO tie-breaking, so equal-latency traffic
        # behaves exactly as the original FIFO queue did.
        self._queue: list[tuple[float, int, Message]] = []
        self._sequence = itertools.count()
        self._partitions: set[tuple[str, str]] = set()
        self._fault_hooks: list[Callable[[Message], Optional[FaultDecision]]] = []
        self._down: set[str] = set()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def endpoint(self, address: str) -> Endpoint:
        """Create (and register) a new endpoint at ``address``."""
        if address in self._endpoints:
            raise NetworkError(f"address {address!r} already registered")
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def _unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def set_link_latency(self, source: str, destination: str, model: LatencyModel,
                         symmetric: bool = True) -> None:
        """Assign a latency model to a directed link (both directions by default)."""
        self._link_latency[(source, destination)] = model
        if symmetric:
            self._link_latency[(destination, source)] = model

    def partition(self, source: str, destination: str, symmetric: bool = True) -> None:
        """Drop all traffic on a link (fault injection for audits under partition)."""
        self._partitions.add((source, destination))
        if symmetric:
            self._partitions.add((destination, source))

    def heal(self, source: str, destination: str, symmetric: bool = True) -> None:
        """Remove a partition installed by :meth:`partition`."""
        self._partitions.discard((source, destination))
        if symmetric:
            self._partitions.discard((destination, source))

    def addresses(self) -> list[str]:
        """All registered endpoint addresses."""
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def add_fault_hook(self, hook: Callable[[Message], Optional[FaultDecision]]) -> None:
        """Install a hook consulted on every send.

        The hook receives the in-flight :class:`Message` and returns a
        :class:`FaultDecision` (or ``None`` for "no opinion"). Decisions from
        multiple hooks compose: any drop wins, delays add, duplicates add.
        """
        self._fault_hooks.append(hook)

    def remove_fault_hook(self, hook: Callable) -> None:
        """Remove a previously installed fault hook (no-op if absent)."""
        if hook in self._fault_hooks:
            self._fault_hooks.remove(hook)

    def crash(self, address: str) -> None:
        """Take an endpoint down: traffic addressed to it is dropped on delivery."""
        self._down.add(address)

    def recover(self, address: str) -> None:
        """Bring a crashed endpoint back; messages sent from now on are delivered."""
        self._down.discard(address)

    def is_down(self, address: str) -> bool:
        """Whether :meth:`crash` has marked this address down."""
        return address in self._down

    def _consult_faults(self, message: Message) -> FaultDecision:
        drop = False
        extra_delay = 0.0
        duplicates = 0
        for hook in self._fault_hooks:
            decision = hook(message)
            if decision is None:
                continue
            drop = drop or decision.drop
            extra_delay += decision.extra_delay
            duplicates += decision.duplicates
        return FaultDecision(drop=drop, extra_delay=extra_delay, duplicates=duplicates)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str, payload: bytes,
             extra_delay: float = 0.0) -> None:
        """Enqueue a message for delivery; latency is charged at delivery time.

        ``extra_delay`` models sender-side processing time: it pushes the
        delivery timestamp out without counting as link latency in the stats.
        """
        if destination not in self._endpoints:
            raise NetworkError(f"no endpoint registered at {destination!r}")
        if (source, destination) in self._partitions:
            # Partitioned links silently lose traffic, as a real network
            # would. The bytes still left the sender, so the send is recorded
            # (keeping sent == delivered + dropped conservative) — but with
            # zero latency, since nothing ever traverses the link.
            self.stats.record_send(source, destination, len(payload), 0.0)
            self.stats.record_drop()
            return
        model = self._link_latency.get((source, destination), self.default_latency)
        latency = model.sample(len(payload))
        message = Message(
            source=source,
            destination=destination,
            payload=bytes(payload),
            sent_at=self.clock.now(),
            deliver_at=self.clock.now() + latency + max(0.0, extra_delay),
        )
        decision = self._consult_faults(message) if self._fault_hooks else None
        if decision is not None and decision.drop:
            # The latency sample above is kept (seeded latency models stay on
            # the same stream whether or not a fault fires) but none of it is
            # charged to total_latency: a dropped message has no delivery
            # latency, and charging it inflated every mean-latency report.
            self.stats.record_send(source, destination, len(payload), 0.0)
            self.stats.record_drop()
            return
        self.stats.record_send(source, destination, len(payload), latency)
        if decision is not None and decision.extra_delay > 0:
            message = replace(message, deliver_at=message.deliver_at + decision.extra_delay)
        self._enqueue(message)
        if decision is not None and decision.duplicates > 0:
            fault_delay = decision.extra_delay if decision.extra_delay > 0 else 0.0
            base = message.sent_at + max(0.0, extra_delay) + fault_delay
            for _ in range(decision.duplicates):
                # Each copy samples its own link latency, so a duplicate can
                # arrive before *or* after the original — dedup is exercised
                # under genuine reordering, not a same-instant echo.
                self._enqueue(replace(
                    message, deliver_at=base + model.sample(len(payload))))
                self.stats.messages_duplicated += 1

    def _enqueue(self, message: Message) -> None:
        heapq.heappush(self._queue, (message.deliver_at, next(self._sequence), message))

    def next_delivery_at(self) -> Optional[float]:
        """Timestamp of the earliest queued message, or ``None`` when idle."""
        if not self._queue:
            return None
        return self._queue[0][0]

    def deliver_next(self) -> Optional[Message]:
        """Deliver the earliest queued message; returns it, or ``None``.

        Undeliverable entries at the head of the queue (closed or unregistered
        destination, crashed party) are recorded as drops and skipped, so a
        ``None`` return means the queue is empty. The clock advances to the
        delivered message's timestamp.
        """
        while self._queue:
            _, _, message = heapq.heappop(self._queue)
            endpoint = self._endpoints.get(message.destination)
            if endpoint is None or endpoint.closed:
                # The destination disappeared while the bytes were in flight;
                # they are lost, and the stats must say so or the conservation
                # identity (sent + duplicated == delivered + dropped) breaks.
                self.stats.record_drop()
                continue
            if message.destination in self._down:
                # A crashed party never reads the bytes; they are simply lost.
                self.stats.record_drop()
                continue
            self.clock.advance_to(message.deliver_at)
            self.stats.record_delivery()
            if endpoint.on_message is not None:
                endpoint.on_message(message)
            else:
                endpoint.inbox.append(message)
            return message
        return None

    def run_until_idle(self, max_steps: int = 100_000) -> int:
        """Deliver queued messages until the queue is empty; returns deliveries made."""
        delivered = 0
        steps = 0
        while self._queue:
            steps += 1
            if steps > max_steps:
                raise NetworkError("network did not quiesce (possible message loop)")
            if self.deliver_next() is not None:
                delivered += 1
        return delivered

    def pending(self) -> int:
        """Number of undelivered messages."""
        return len(self._queue)
