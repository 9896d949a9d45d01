"""A discrete-event scheduler: genuinely concurrent tasks over the network.

The synchronous model (``Network.run_until_idle``) can only *fake* request
concurrency: every payload must be on the wire before the first pump, and
nothing new can enter the network while it drains. This module adds the real
thing — an event loop over the existing :class:`~repro.net.clock.SimClock`
and the transport's delivery-time heap, with simulated tasks that yield on
send/receive instead of pumping:

* a :class:`SimTask` wraps a plain Python generator. The generator yields
  *commands* — :class:`Sleep` to advance simulated time, :class:`WaitBatch`
  to block on an in-flight :class:`~repro.net.rpc.PendingRpcBatch` — and is
  resumed with a wake reason (``"complete"``, ``"timeout"``, ``"elapsed"``,
  or ``"idle"``);
* the :class:`EventLoop` interleaves network deliveries and task timers in
  timestamp order, so hundreds of requests are concurrently in flight: new
  arrivals start while earlier responses are still queued behind a server's
  serial service queue, which is what makes queueing, head-of-line blocking,
  and p99-under-load measurable at all;
* responses are routed to waiting tasks by request id: a waiting batch
  registers one watcher per pending id on its client endpoint's
  :class:`~repro.net.rpc.ResponseDemux`, which decodes every delivered frame
  once and hands it to that watcher, so a payload wakes exactly the task
  whose batch it answers — no O(tasks) broadcast per delivery;
* everything is deterministic under a fixed seed: the ready queue is FIFO,
  timers tie-break by creation order, and the optional event ``trace``
  records every scheduling decision so two identically seeded runs can be
  compared event by event.

The same task generators also run without the loop: :func:`drive` is the
synchronous driver of the same commands. It answers each ``WaitBatch`` by
pumping the network until idle and claiming the batch's responses, and each
``Sleep`` by advancing the clock, so one application flow serves both a
batched span (one task, driven to completion) and a concurrent op (one of many
tasks on the loop).

Synchronous code composes with the loop: a task may call code that pumps
``run_until_idle`` internally (e.g. a live reshard's quiesce barrier). The
demux is the endpoint's own receive handler, so it routes a response the same
way whichever driver delivered it: a watched id wakes its task, and any other
id is held, decoded, until the batch that owns it registers its wait (for
instance a later shard group of the same scatter) and claims it without a
second decode.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import SimulationError
from repro.net.transport import Network
# Unused here since responses are decoded by repro.net.rpc.ResponseDemux; kept
# because perfbench's tracer test still reads repro.net.eventloop.decode.
from repro.wire.codec import decode  # noqa: F401

__all__ = ["Sleep", "WaitBatch", "SimTask", "EventLoop", "drive"]


@dataclass(frozen=True)
class Sleep:
    """Yielded by a task to advance simulated time; resumed with ``"elapsed"``."""

    seconds: float


@dataclass
class WaitBatch:
    """Yielded by a task to block on an in-flight RPC batch.

    ``batch`` is a :class:`~repro.net.rpc.PendingRpcBatch` (anything with a
    ``client`` whose ``demux`` is the endpoint's
    :class:`~repro.net.rpc.ResponseDemux`, a ``pending`` id set, and a
    ``found`` response dict works).
    The task resumes with ``"complete"`` once every pending response arrived,
    ``"timeout"`` after ``timeout`` simulated seconds, or ``"idle"`` if the
    whole simulation ran out of events first (lost traffic, no timers) — the
    last two are the task's cue to retransmit.
    """

    batch: object
    timeout: float = 0.25


def drive(gen: Generator, clock=None):
    """Run a task generator to completion, synchronously; return its result.

    The pump-until-idle driver of the commands :class:`EventLoop` schedules:
    a :class:`WaitBatch` is answered by running the batch's network until
    idle and claiming its held responses (resumed with ``"complete"``, or
    ``"idle"`` when some stayed unanswered, the cue to retransmit), a
    :class:`Sleep` by advancing ``clock``. Nothing else is in flight, so
    timeouts never fire: the network drains before every resume. A generator
    that never sleeps needs no ``clock``; one that does without it is an
    error.
    """
    value = None
    while True:
        try:
            command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(command, WaitBatch):
            batch = command.batch
            batch.client.network.run_until_idle()
            batch.client.demux.take(batch.pending, batch.found)
            value = "idle" if batch.pending else "complete"
        elif isinstance(command, Sleep) and clock is not None:
            clock.advance(max(0.0, command.seconds))
            value = "elapsed"
        else:
            raise SimulationError(f"drive() got unsupported command {command!r}")


class SimTask:
    """One simulated task: a generator plus its scheduling state."""

    def __init__(self, name: str, gen: Generator):
        self.name = name
        self.gen = gen
        self.done = False
        self.result = None
        # Bumped on every wake; timers remember the generation they were
        # scheduled under, so a stale timer (its task was woken by something
        # else first) is recognized and discarded instead of double-waking.
        self.wake_generation = 0
        self.waiting_batch = None  # the WaitBatch.batch currently blocking us


class EventLoop:
    """Runs simulated tasks against one :class:`~repro.net.transport.Network`.

    Args:
        network: the transport whose delivery queue drives the simulation.
        max_events: hard budget on scheduling events; exceeding it raises
            :class:`~repro.errors.SimulationError` instead of spinning forever
            (a non-quiescing loop must fail fast, not hang CI).
        trace: record a ``(sim_time, kind, detail)`` tuple per scheduling
            event in :attr:`trace` — the deterministic-replay property tests
            compare these traces across identically seeded runs.
    """

    def __init__(self, network: Network, max_events: int = 1_000_000,
                 trace: bool = False):
        self.network = network
        self.clock = network.clock
        self.max_events = max_events
        self.trace: list | None = [] if trace else None
        self.tasks: list[SimTask] = []
        self._ready: deque = deque()  # (task, wake value)
        self._timers: list = []  # heap of (at, seq, task, generation, kind)
        self._seq = itertools.count()
        self._events = 0

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str | None = None,
              start_at: float | None = None) -> SimTask:
        """Register a task; it starts immediately or at ``start_at`` sim time."""
        task = SimTask(name or f"task-{len(self.tasks)}", gen)
        self.tasks.append(task)
        self._trace("spawn", task.name)
        if start_at is None or start_at <= self.clock.now():
            self._ready.append((task, None))
        else:
            self._schedule(task, start_at, "start")
        return task

    def run(self) -> int:
        """Run until every task finished (or timed out its retries).

        Returns the number of scheduling events processed. Raises
        :class:`~repro.errors.SimulationError` when ``max_events`` is
        exceeded — the fail-fast guard against a non-quiescing loop.
        """
        while True:
            while self._ready:
                task, value = self._ready.popleft()
                if task.done:
                    continue
                self._step(task, value)
            if not self._advance():
                return self._events

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _step(self, task: SimTask, value) -> None:
        self._count_event()
        try:
            command = task.gen.send(value)
        except StopIteration as stop:
            task.done = True
            task.result = stop.value
            self._trace("done", task.name)
            return
        if isinstance(command, Sleep):
            self._trace("sleep", task.name)
            self._schedule(task, self.clock.now() + max(0.0, command.seconds),
                           "sleep")
        elif isinstance(command, WaitBatch):
            self._register_wait(task, command)
        else:
            raise SimulationError(
                f"task {task.name} yielded unsupported command {command!r}")

    def _schedule(self, task: SimTask, at: float, kind: str) -> None:
        heapq.heappush(self._timers,
                       (at, next(self._seq), task, task.wake_generation, kind))

    def _wake(self, task: SimTask, value) -> None:
        task.wake_generation += 1  # invalidates any outstanding timer
        task.waiting_batch = None
        self._ready.append((task, value))

    def _register_wait(self, task: SimTask, command: WaitBatch) -> None:
        batch = command.batch
        demux = batch.client.demux
        # Responses that landed before this wait (another task's delivery, a
        # synchronous pump, or an earlier group of this task's own scatter)
        # are held decoded by the demux; claim them first so a satisfied
        # batch never blocks.
        demux.take(batch.pending, batch.found)
        if not batch.pending:
            self._trace("ready", task.name)
            self._wake(task, "complete")
            return

        def claim(request_id, response):
            batch.found[request_id] = response
            batch.pending.discard(request_id)
            if not batch.pending and not task.done:
                self._trace("ready", task.name)
                self._wake(task, "complete")

        for request_id in batch.pending:
            demux.watchers[request_id] = claim
        task.waiting_batch = batch
        self._trace("wait", task.name)
        self._schedule(task, self.clock.now() + max(0.0, command.timeout),
                       "timeout")

    def _deregister(self, task: SimTask) -> None:
        batch = task.waiting_batch
        if batch is None:
            return
        watchers = batch.client.demux.watchers
        for request_id in batch.pending:
            watchers.pop(request_id, None)
        task.waiting_batch = None

    # ------------------------------------------------------------------
    # Event sources: deliveries and timers
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Process the next event in timestamp order; False when fully idle."""
        next_delivery = self.network.next_delivery_at()
        next_timer = self._next_timer_at()
        if next_delivery is None and next_timer is None:
            return self._wake_idle()
        if next_timer is None or (next_delivery is not None
                                  and next_delivery <= next_timer):
            self._count_event()
            message = self.network.deliver_next()
            if message is not None:
                self._trace("deliver",
                            f"{message.source}->{message.destination}")
            return True
        return self._fire_timer()

    def _next_timer_at(self) -> Optional[float]:
        while self._timers:
            at, _, task, generation, _ = self._timers[0]
            if task.done or generation != task.wake_generation:
                heapq.heappop(self._timers)  # stale: task was woken elsewhere
                continue
            return at
        return None

    def _fire_timer(self) -> bool:
        at, _, task, _, kind = heapq.heappop(self._timers)
        self.clock.advance_to(at)
        self._count_event()
        if kind == "timeout":
            self._deregister(task)
            self._trace("timeout", task.name)
            self._wake(task, "timeout")
        elif kind == "start":
            self._trace("start", task.name)
            self._wake(task, None)
        else:
            self._trace("elapsed", task.name)
            self._wake(task, "elapsed")
        return True

    def _wake_idle(self) -> bool:
        """No deliveries, no timers: wake batch-waiters so they retransmit."""
        woke = False
        for task in self.tasks:
            if not task.done and task.waiting_batch is not None:
                self._deregister(task)
                self._trace("idle", task.name)
                self._wake(task, "idle")
                woke = True
        return woke

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _count_event(self) -> None:
        self._events += 1
        if self._events > self.max_events:
            raise SimulationError(
                f"event loop exceeded {self.max_events} events without "
                "quiescing (runaway retransmission or a task that never ends)")

    def _trace(self, kind: str, detail: str) -> None:
        if self.trace is not None:
            self.trace.append((round(self.clock.now(), 9), kind, detail))
