"""True-parallel shard execution: worker processes serving real wire bytes.

The discrete-event core is — deliberately — single-threaded: one Python
process advances one simulated clock, which is what makes every run
deterministic and every fault injectable. The flip side is that its
wall-clock throughput numbers measure one interpreter doing all shards' work
serially, so "4 shards" never shows up as wall-clock parallelism.

This module adds the other execution mode. A :class:`ParallelShardExecutor`
spawns one OS process per worker; each worker rebuilds the *same* deployment
the parent built (the build runs under the crypto layer's seeded DRBG, so
keys and enclave state come out identical) and serves its assigned shards
through :meth:`repro.net.rpc.RpcServer.dispatch_payload` — the full trust
domain stack, vsock hops and sandbox included, minus only the simulated
transport.

The executor is a transport beneath the ordinary RPC client: it offers the
slice of :class:`~repro.net.transport.Network` that
:class:`~repro.net.rpc.RpcClient` and :func:`~repro.net.eventloop.drive`
use, so the parent routes with ``plane.route_via_network(executor,
attempts=1)`` and every request is a :class:`~repro.net.rpc.PendingRpcBatch`
whose wire bytes cross an OS pipe instead of the event heap.

What this mode is and is not:

* **Wall-clock only.** There is no shared simulated clock across processes,
  so parallel runs report wall seconds and leave ``sim_seconds`` at zero.
  Sim-time numbers from a parallel run would be meaningless and are never
  produced.
* **Not deterministic.** OS scheduling orders worker progress; per-worker
  DRBG streams diverge from the serial run's single stream. Same-seed replay
  reproduces application *state* (the build is seeded) but not byte-for-byte
  traffic. The discrete-event engine remains the default for that reason.
* **No fault injection.** Pipes do not drop, reorder, or duplicate; fault
  rules and scheduled events belong to the simulated transport.

Shard ``i`` is owned by worker ``i % workers``; every request addressed to a
domain of shard ``i`` is serviced by that worker's copy of the deployment, so
per-shard state (stored key shares, accepted submissions, proxy views) stays
exactly as consistent as the serial engine keeps it. Consistency checks and
post-run reads route through the same executor and therefore see worker
state, not the parent's stale copy.
"""

from __future__ import annotations

import itertools
import multiprocessing
from collections import deque

from repro.errors import RpcError, TimeoutError
from repro.net.transport import Endpoint, Message
from repro.wire.codec import decode, encode
from repro.wire.framing import frame_message, split_frames

__all__ = ["ParallelShardExecutor"]

# How long (wall seconds) the parent waits for a worker to finish building
# its deployment before declaring the fleet dead. Builds are CPU-bound key
# generation; a loaded CI box can be slow, so the bound is generous.
_READY_TIMEOUT = 120.0
_RESULT_TIMEOUT = 120.0


def _worker_main(app: str, seed: int, ops: int, shards: int,
                 worker_index: int, conn) -> None:
    """Entry point of one worker process.

    Rebuilds the application deployment deterministically, attaches every
    shard's trust domains as RPC servers, then serves ``(seq, address,
    source, payload)`` requests from the pipe until the ``None`` sentinel.
    The response is whatever :meth:`RpcServer.dispatch_payload` returns —
    the same batched response payload the networked server would send.
    """
    from repro.crypto import rng as crypto_rng
    from repro.net.latency import lan_profile
    from repro.net.transport import Network
    from repro.sim.scenarios.apps import make_driver

    # The DRBG context stays entered for the worker's lifetime: the build
    # consumes the same draw sequence as the parent's build (identical keys),
    # and request handling keeps drawing from the worker's own stream.
    rng_context = crypto_rng.deterministic(seed)
    rng_context.__enter__()
    try:
        plane = make_driver(app, seed, ops, shards=shards).plane
        network = Network(clock=plane.clock, default_latency=lan_profile())
        servers = {}
        for shard in plane.shards:
            servers.update(shard.attach_to_network(network))
    except Exception as exc:  # surface build failures instead of hanging
        conn.send(("failed", worker_index, f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("ready", worker_index, sorted(servers)))
    while True:
        try:
            item = conn.recv()
        except EOFError:  # parent died; nothing left to serve
            return
        if item is None:
            return
        seq, address, source, payload = item
        server = servers.get(address)
        if server is None:
            conn.send((seq, b"", f"worker {worker_index} serves no address "
                                 f"{address!r}"))
            continue
        try:
            response = server.dispatch_payload(payload, source)
        except Exception as exc:  # a server must answer, never kill the pipe
            conn.send((seq, b"", f"{type(exc).__name__}: {exc}"))
        else:
            conn.send((seq, response, None))


class ParallelShardExecutor:
    """A fleet of worker processes serving one application's shards.

    Args:
        app: workload application name (``keybackup``, ``prio``, ...).
        seed: the workload seed — workers rebuild their deployments under
            this seed, which is what makes their state match the parent's.
        ops: total operation count (the drivers materialize per-op inputs).
        shards: shard count of the service plane.
        workers: process count; shard ``i`` is owned by worker
            ``i % workers``, so extra workers beyond the shard count idle.
    """

    def __init__(self, app: str, seed: int, ops: int, shards: int,
                 workers: int = 4):
        if workers < 1:
            raise ValueError("a parallel executor needs at least one worker")
        self.app = app
        self.seed = seed
        self.ops = ops
        self.shards = shards
        self.workers = workers
        self.clock = None  # the plane's clock, set by start()
        self._seq = itertools.count(1)
        self._processes: list = []
        self._connections: list = []
        self._owner: dict[str, int] = {}        # address -> worker index
        self._seq_worker: dict[int, int] = {}   # in-flight seq -> worker
        # Out-of-turn responses, (payload, error text or None) per seq, kept
        # for the caller that owns the seq.
        self._results: dict[int, tuple] = {}
        self._endpoints: dict[str, Endpoint] = {}
        # Payloads sent and not yet answered, in submission order:
        # (seq, source, destination, payload).
        self._in_flight: deque = deque()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, plane) -> None:
        """Spawn the workers and wait until every one has built its shards.

        ``plane`` is the *parent's* service plane; its shard layout provides
        the address → shard mapping (worker-side layouts are identical
        because both builds are seeded). Startup cost — process spawn plus a
        full deployment build per worker — happens here, outside any
        measurement window.
        """
        if self._started:
            return
        context = multiprocessing.get_context("spawn")
        for worker_index in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(self.app, self.seed, self.ops, self.shards,
                      worker_index, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._connections.append(parent_conn)
        for worker_index, conn in enumerate(self._connections):
            if not conn.poll(_READY_TIMEOUT):
                self.shutdown()
                raise RpcError(f"parallel worker {worker_index} did not "
                               f"come up within {_READY_TIMEOUT:.0f}s")
            try:
                status, _, detail = conn.recv()
            except EOFError:
                # poll() reports a closed pipe as readable: the worker died
                # before it said anything (e.g. a spawned child that could
                # not re-import an unguarded main module).
                self.shutdown()
                raise RpcError(f"parallel worker {worker_index} exited "
                               "before reporting ready") from None
            if status != "ready":
                self.shutdown()
                raise RpcError(f"parallel worker {worker_index} failed to "
                               f"build its shards: {detail}")
        for shard_index, shard in enumerate(plane.shards):
            owner = shard_index % self.workers
            for domain in shard.domains:
                self._owner[domain.domain_id] = owner
        self.clock = plane.clock
        self._started = True

    def shutdown(self) -> None:
        """Stop every worker (sentinel first, terminate stragglers)."""
        for conn in self._connections:
            try:
                conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._connections:
            conn.close()
        self._processes = []
        self._connections = []
        self._started = False

    # ------------------------------------------------------------------
    # Transport: the slice of Network that RpcClient and drive() use
    # ------------------------------------------------------------------
    def endpoint(self, address: str) -> Endpoint:
        """A client endpoint whose sends travel to the workers' pipes."""
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def send(self, source: str, destination: str, payload: bytes,
             extra_delay: float = 0.0) -> None:
        """Ship ``payload`` to the worker serving ``destination``; pipes have
        no simulated time, so ``extra_delay`` is ignored."""
        seq = self.submit(destination, source, payload)
        self._in_flight.append((seq, source, destination, payload))

    def run_until_idle(self) -> None:
        """Hand every in-flight payload's response, in submission order, to
        its sending endpoint's ``on_message`` (the RPC response demux).

        A worker's error reply becomes one error envelope per request of the
        payload it answers, so it fails only those requests, as a networked
        server's handler error would.
        """
        while self._in_flight:
            seq, source, destination, payload = self._in_flight.popleft()
            response, error = self._await(seq)
            if error is not None:
                response = b"".join(
                    frame_message(encode({
                        "id": decode(frame)["id"],
                        "error": f"parallel request {seq} failed: {error}"}))
                    for frame in split_frames(payload))
            # No simulated time crosses the pipes (see the module docstring).
            self._endpoints[source].on_message(
                Message(destination, source, response, 0.0, 0.0))

    # ------------------------------------------------------------------
    # Request shuttle
    # ------------------------------------------------------------------
    def submit(self, address: str, source: str, payload: bytes) -> int:
        """Ship one request payload to the worker owning ``address``.

        Returns a sequence token for :meth:`result`. The write happens
        immediately and does not wait for the response — submitting to
        several workers before collecting any result is what makes their
        work genuinely overlap on multicore hosts.
        """
        owner = self._owner.get(address)
        if owner is None:
            raise RpcError(f"no parallel worker serves address {address!r}")
        seq = next(self._seq)
        try:
            self._connections[owner].send((seq, address, source, payload))
        except OSError:
            raise RpcError(f"parallel worker {owner} died before request "
                           f"{seq} was sent") from None
        self._seq_worker[seq] = owner
        return seq

    def result(self, seq: int) -> bytes:
        """Block until the response for ``seq`` arrives; return its bytes.

        Responses to other in-flight requests that arrive first — failures
        included — are buffered for their own callers, so an error is only
        ever raised against the request it answers.
        """
        response, error = self._await(seq)
        if error is not None:
            raise RpcError(f"parallel request {seq} failed: {error}")
        return response

    def _await(self, seq: int) -> tuple:
        """Block for ``seq``'s ``(response bytes, error text or None)``."""
        if seq not in self._results:
            owner = self._seq_worker.get(seq)
            if owner is None:
                raise RpcError(f"unknown parallel request {seq}")
            conn = self._connections[owner]
            while seq not in self._results:
                if not conn.poll(_RESULT_TIMEOUT):
                    raise TimeoutError(f"parallel worker {owner} sent no "
                                       f"response for request {seq}")
                try:
                    got_seq, response, error = conn.recv()
                except EOFError:
                    raise RpcError(f"parallel worker {owner} died while "
                                   f"serving request {seq}") from None
                self._seq_worker.pop(got_seq, None)
                self._results[got_seq] = (response, error)
        return self._results.pop(seq)
