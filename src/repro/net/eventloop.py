"""A discrete-event scheduler: genuinely concurrent tasks over the network.

The synchronous model (``Network.run_until_idle``) can only *fake* request
concurrency: every payload must be on the wire before the first pump, and
nothing new can enter the network while it drains. This module adds the real
thing — an event loop over the existing :class:`~repro.net.clock.SimClock`
and the transport's delivery-time heap, with simulated tasks that yield on
send/receive instead of pumping:

* a :class:`SimTask` wraps a plain Python generator. The generator yields
  *commands* — :class:`Sleep` to advance simulated time, :class:`WaitBatch`
  to block on an in-flight :class:`~repro.net.rpc.PendingRpcBatch`,
  :class:`Park` to wait without a timeout until a :class:`Signal` fires —
  and is resumed with a wake reason (``"complete"``, ``"timeout"``,
  ``"elapsed"``, ``"signalled"``, or ``"idle"``);
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
``Sleep`` by advancing the clock, so one application flow serves a batched
span (one task, driven to completion), a single client call (the flow over a
list of one, unwrapped by :func:`one_op`) and a concurrent op (one of many
tasks on the loop). :func:`drive_all` drives several generators in lockstep,
waves on the wire together, so independent flows (a reshard's migration
groups) overlap in simulated time without an event loop.

Synchronous code composes with the loop. By default a synchronous wait
inside a task pumps the network to idle, freezing every other task while it
does (an audit event does this). Inside :func:`live`, which an epoch
transition runs in, it does not stop the world: :func:`drive` and
:func:`drive_all` hand a generator that waits on the loop's network to the
loop as a task and pump the loop (its private ``_pump``, never a re-entrant
:meth:`EventLoop.run`) until the task is done, and :func:`settle` pumps it
until the messages in flight have arrived, so deliveries, timers and every
other task's steps go on meanwhile. A task waits for such a transition with
:class:`Park` on a :class:`Signal` the plane fires at commit or abort. The
demux is the endpoint's own receive handler, so it routes a response the
same way whichever driver delivered it: a watched id wakes its task, and any
other id is held, decoded, until the batch that owns it registers its wait
(for instance a later shard group of the same scatter) and claims it without
a second decode.
"""

from __future__ import annotations

import contextlib
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

__all__ = ["Sleep", "WaitBatch", "Park", "Signal", "SimTask", "EventLoop",
           "drive", "drive_all", "one_op", "live", "settle"]

# The loop running each network right now, by ``id(network)``: set for the
# duration of :meth:`EventLoop.run`, read by the synchronous drivers.
_running: dict = {}


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


class Signal:
    """A one-shot wake-up: every task parked on it resumes when it fires.

    A fired signal stays fired, so a task that parks on it afterwards
    resumes at once.
    """

    def __init__(self):
        self.fired = False
        self._waiters: list = []

    def fire(self) -> None:
        """Wake every parked task, in the order they parked."""
        self.fired = True
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake()


@dataclass(frozen=True)
class Park:
    """Yielded by a task to wait, without a timeout, until ``signal`` fires.

    Resumed with ``"signalled"``, or with ``"idle"`` when nothing else is
    left to run (no delivery, timer or batch wait that could fire it).
    :func:`drive` answers at once: ``"signalled"`` if the signal already
    fired, else ``"idle"``, since nothing runs beside a synchronous caller.
    """

    signal: Signal


@contextlib.contextmanager
def live(network):
    """Inside this block, synchronous waits on ``network`` pump the
    :class:`EventLoop` running it instead of freezing it (see the module
    doc); without a running loop it changes nothing."""
    loop = _running.get(id(network))
    if loop is None:
        yield
        return
    loop._live += 1
    try:
        yield
    finally:
        loop._live -= 1


def _live_loop(network) -> "EventLoop | None":
    loop = _running.get(id(network))
    return loop if loop is not None and loop._live else None


def _running_loop(command, clock) -> "EventLoop | None":
    """The live loop that can answer ``command``: the one running the
    waited batch's network, or for a sleep or park one on ``clock`` (any
    live loop when ``clock`` is ``None``)."""
    if isinstance(command, WaitBatch):
        return _live_loop(command.batch.client.network)
    for loop in _running.values():
        if loop._live and (clock is None or loop.clock is clock):
            return loop
    return None


def drive(gen: Generator, clock=None):
    """Run a task generator to completion, synchronously; return its result.

    The pump-until-idle driver of the commands :class:`EventLoop` schedules:
    a :class:`WaitBatch` is answered by running the batch's network until
    idle and claiming its held responses (resumed with ``"complete"``, or
    ``"idle"`` when some stayed unanswered, the cue to retransmit), a
    :class:`Sleep` by advancing ``clock``. Nothing else is in flight, so
    timeouts never fire: the network drains before every resume. A generator
    that never sleeps needs no ``clock``; one that does without it is an
    error. A :class:`Park` resumes at once (see there).

    Inside :func:`live`, the generator's first command that the running
    :class:`EventLoop` can answer (a wait on its network, or a sleep or
    park on ``clock``) hands the rest of it to the loop as a task, and
    ``drive`` pumps the loop until that task is done, then returns its
    result or raises its exception.
    """
    value = None
    while True:
        try:
            command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        loop = _running_loop(command, clock)
        if loop is not None:
            [(ok, result)] = loop._run_tasks([_resumed(gen, command)], "drive")
            if not ok:
                raise result
            return result
        if isinstance(command, WaitBatch):
            batch = command.batch
            batch.client.network.run_until_idle()
            batch.client.demux.take(batch.pending, batch.found)
            value = "idle" if batch.pending else "complete"
        elif isinstance(command, Park):
            value = "signalled" if command.signal.fired else "idle"
        elif isinstance(command, Sleep) and clock is not None:
            clock.advance(max(0.0, command.seconds))
            value = "elapsed"
        else:
            raise SimulationError(f"drive() got unsupported command {command!r}")


def drive_all(gens) -> list:
    """Run several task generators side by side, synchronously; return their
    results in input order.

    Each round steps every live generator to its next :class:`WaitBatch`,
    so all their batches are on the wire before anything is delivered, then
    pumps each distinct network to idle once and answers every wait, as
    :func:`drive` does: ``"complete"``, or ``"idle"`` when some responses
    stayed unanswered (the cue to retransmit). A generator that raises gets
    its exception as its result and the others run on; one that yields
    anything but a :class:`WaitBatch` is closed with a
    :class:`~repro.errors.SimulationError` as its result.

    Inside :func:`live`, when an :class:`EventLoop` runs the network of the
    first wave, that generator and every one not yet started become tasks
    on the loop (``drive_all-<i>``), and the loop is pumped until all of
    them are done, so other tasks keep running beside the groups.
    """
    gens = list(gens)
    results: list = [None] * len(gens)
    values: list = [None] * len(gens)
    active = list(range(len(gens)))
    first_round = True
    while active:
        waiting = []
        for position, index in enumerate(active):
            try:
                command = gens[index].send(values[index])
            except StopIteration as stop:
                results[index] = stop.value
                continue
            except Exception as exc:
                results[index] = exc
                continue
            loop = (_running_loop(command, None)
                    if first_round and not waiting else None)
            if loop is not None:
                rest = active[position:]
                handed = [_resumed(gens[index], command)] + [
                    gens[other] for other in rest[1:]]
                for other, (_, result) in zip(
                        rest, loop._run_tasks(handed, "drive_all")):
                    results[other] = result
                return results
            if not isinstance(command, WaitBatch):
                gens[index].close()
                results[index] = SimulationError(
                    f"drive_all() got unsupported command {command!r}")
                continue
            waiting.append((index, command.batch))
        first_round = False
        networks = {id(batch.client.network): batch.client.network
                    for _, batch in waiting}
        for network in networks.values():
            network.run_until_idle()
        for index, batch in waiting:
            batch.client.demux.take(batch.pending, batch.found)
            values[index] = "idle" if batch.pending else "complete"
        active = [index for index, _ in waiting]
    return results


def _resumed(gen: Generator, command):
    """The rest of ``gen``, whose last yield was ``command``, as a task."""
    value = yield command
    while True:
        try:
            command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield command


def _captured(gen: Generator):
    """Run ``gen``; return ``(True, result)`` or ``(False, exception)``."""
    try:
        return True, (yield from gen)
    except Exception as exc:
        return False, exc


def settle(network) -> bool:
    """Deliver every message in flight on ``network`` now, inside :func:`live`.

    The quiesce barrier of a live transition: the running
    :class:`EventLoop` is pumped until the last message queued at the call
    has been delivered (or dropped), while other tasks go on. Returns
    ``False``, touching nothing, outside :func:`live` or without a loop.
    """
    loop = _live_loop(network)
    if loop is None:
        return False
    horizon = network.latest_delivery_at()

    def arrived() -> bool:
        at = network.next_delivery_at()
        return at is None or at > horizon

    if horizon is not None:
        loop._pump(arrived)
    return True


def one_op(flow: Generator):
    """A flow over a list of one op, as a task generator of that op alone.

    Returns the one outcome, or raises it when it is an exception. A single
    client call is :func:`drive` of this; a concurrent op task runs it on the
    :class:`EventLoop`.
    """
    [outcome] = yield from flow
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
        self.parked = None  # the Signal a Park is waiting on


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
        self._live = 0  # open live() blocks on this loop's network

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
        exceeded — the fail-fast guard against a non-quiescing loop — or
        when the network already has a running loop (code inside a task
        waits through :func:`drive`, which pumps this one instead).
        """
        key = id(self.network)
        if key in _running:
            raise SimulationError("an event loop is already running this "
                                  "network; never re-enter EventLoop.run")
        _running[key] = self
        try:
            self._pump()
        finally:
            del _running[key]
        return self._events

    def _pump(self, done=None) -> None:
        """Step ready tasks first, then process the next event, until the
        loop is idle or, from synchronous code inside a running loop, until
        ``done()`` holds. The task whose step called it is not among those
        it steps (it is mid-step, neither ready nor waiting)."""
        while done is None or not done():
            if self._ready:
                task, value = self._ready.popleft()
                if not task.done:
                    self._step(task, value)
            elif not self._advance():
                if done is None:
                    return
                raise SimulationError(
                    "event loop went idle before a synchronous wait resolved")

    def _run_tasks(self, gens: list, name: str) -> list:
        """Spawn ``gens`` as tasks ``<name>-<i>`` and pump until all are
        done; returns ``(True, result)`` or ``(False, exception)`` each."""
        tasks = [self.spawn(_captured(gen), name=f"{name}-{index}")
                 for index, gen in enumerate(gens)]
        self._pump(lambda: all(task.done for task in tasks))
        return [task.result for task in tasks]

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
        elif isinstance(command, Park):
            self._park(task, command.signal)
        else:
            raise SimulationError(
                f"task {task.name} yielded unsupported command {command!r}")

    def _schedule(self, task: SimTask, at: float, kind: str) -> None:
        heapq.heappush(self._timers,
                       (at, next(self._seq), task, task.wake_generation, kind))

    def _wake(self, task: SimTask, value) -> None:
        task.wake_generation += 1  # invalidates any outstanding timer
        task.waiting_batch = None
        task.parked = None
        self._ready.append((task, value))

    def _park(self, task: SimTask, signal: Signal) -> None:
        if signal.fired:
            self._trace("ready", task.name)
            self._wake(task, "signalled")
            return
        generation = task.wake_generation

        def wake():
            # Stale once the task was woken otherwise (an idle wake).
            if not task.done and task.wake_generation == generation:
                self._trace("signalled", task.name)
                self._wake(task, "signalled")

        signal._waiters.append(wake)
        task.parked = signal
        self._trace("park", task.name)

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
        """No deliveries, no timers: wake batch-waiters so they retransmit,
        or, when there are none, parked tasks (nothing is left to fire
        their signal)."""
        woke = False
        for task in self.tasks:
            if not task.done and task.waiting_batch is not None:
                self._deregister(task)
                self._trace("idle", task.name)
                self._wake(task, "idle")
                woke = True
        if woke:
            return True
        for task in self.tasks:
            if not task.done and task.parked is not None:
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
