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
transport. Requests travel as the exact serialize-once wire bytes the
networked path uses, shuttled over OS pipes instead of the event heap.

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

from repro.errors import RpcError, TimeoutError
from repro.wire.codec import decode, encode
from repro.wire.framing import frame_message, split_frames

__all__ = ["ParallelShardExecutor", "ExecutorRpcClient", "ExecutorRpcBatch"]

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
        self.requests_sent = 0
        self._request_ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._processes: list = []
        self._connections: list = []
        self._owner: dict[str, int] = {}        # address -> worker index
        self._seq_worker: dict[int, int] = {}   # in-flight seq -> worker
        # Out-of-turn responses, (payload, error text or None) per seq, kept
        # for the caller that owns the seq.
        self._results: dict[int, tuple] = {}
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
            status, _, detail = conn.recv()
            if status != "ready":
                self.shutdown()
                raise RpcError(f"parallel worker {worker_index} failed to "
                               f"build its shards: {detail}")
        for shard_index, shard in enumerate(plane.shards):
            owner = shard_index % self.workers
            for domain in shard.domains:
                self._owner[domain.domain_id] = owner
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
    # Request shuttle
    # ------------------------------------------------------------------
    def next_request_id(self) -> int:
        """A fleet-unique RPC request id (at-most-once caches key on it)."""
        return next(self._request_ids)

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
        self._connections[owner].send((seq, address, source, payload))
        self._seq_worker[seq] = owner
        self.requests_sent += 1
        return seq

    def result(self, seq: int) -> bytes:
        """Block until the response for ``seq`` arrives; return its bytes.

        Responses to other in-flight requests that arrive first — failures
        included — are buffered for their own callers, so an error is only
        ever raised against the request it answers.
        """
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
        response, error = self._results.pop(seq)
        if error is not None:
            raise RpcError(f"parallel request {seq} failed: {error}")
        return response

    def clients_for(self, deployment) -> list:
        """One :class:`ExecutorRpcClient` per trust domain of ``deployment``.

        The drop-in replacement for the networked RPC clients that
        :meth:`Deployment.route_via_network` installs.
        """
        source = f"{deployment.name}-client"
        return [ExecutorRpcClient(self, domain.domain_id, source)
                for domain in deployment.domains]


class ExecutorRpcClient:
    """RPC-client facade over the executor's pipes.

    Call-compatible with the slice of :class:`repro.net.rpc.RpcClient` the
    deployment layer uses (``call``, ``call_with_retry``, ``begin_many``,
    ``retries``), so :class:`~repro.core.deployment.PendingInvokeBatch` and
    the scatter/gather plane work unchanged on top of it. Requests are the
    same framed envelope bytes the networked client puts on the wire; pipes
    are lossless and ordered, so there is exactly one attempt and
    ``retries`` stays zero.
    """

    def __init__(self, executor: ParallelShardExecutor, server_address: str,
                 source: str):
        self.executor = executor
        self.server_address = server_address
        self.source = source
        self.retries = 0

    def call(self, method: str, params=None):
        """Call ``method`` on the owning worker and return the result."""
        return self.call_with_retry(method, params, attempts=1)

    def call_with_retry(self, method: str, params=None, attempts: int = 3):
        """Single-attempt call (the pipe cannot lose the request)."""
        del attempts  # lossless transport; signature kept for compatibility
        results = self.begin_many([(method, params)]).collect(
            attempts=1, return_errors=False)
        return results[0]

    def begin_many(self, calls) -> "ExecutorRpcBatch":
        """Frame a batch, ship it to the owning worker, return the handle."""
        calls = list(calls)
        requests = []
        for method, params in calls:
            request_id = self.executor.next_request_id()
            requests.append((request_id, method, frame_message(encode(
                {"id": request_id, "method": method, "params": params}
            ))))
        seq = None
        if requests:
            seq = self.executor.submit(
                self.server_address, self.source,
                b"".join(frame for _, _, frame in requests))
        return ExecutorRpcBatch(self, requests, seq)


class ExecutorRpcBatch:
    """An in-flight batch on the executor; mirrors ``PendingRpcBatch``.

    ``collect`` blocks on the owning worker's response payload, matches
    response frames to requests by id, and reports failures exactly as the
    networked batch does: with ``return_errors`` they become exception
    instances in the result list, otherwise the first failure raises.
    """

    def __init__(self, client: ExecutorRpcClient, requests: list,
                 seq: int | None):
        self.client = client
        self.requests = requests
        self._seq = seq
        self._found: dict[int, dict] | None = None

    def wait_event(self, attempts: int = 3, timeout: float = 0.25):
        """Task-generator form of the wait: there is nothing to yield on.

        The response travels over the worker's pipe, not the simulated
        network, so the generator finishes at once and :meth:`collect`
        blocks on the pipe; flows run unchanged in parallel mode.
        """
        del attempts, timeout  # lossless transport, no simulated clock
        return
        yield

    def collect(self, attempts: int = 3, return_errors: bool = False):
        """Gather this batch's results, in call order."""
        del attempts  # lossless transport
        if self._found is None:
            self._found = {}
            if self._seq is not None:
                payload = self.client.executor.result(self._seq)
                for frame in split_frames(payload):
                    response = decode(frame)
                    if isinstance(response, dict) and "id" in response:
                        self._found[response["id"]] = response
        results = []
        for request_id, method, _ in self.requests:
            response = self._found.get(request_id)
            if response is None:
                outcome = TimeoutError(
                    f"no response to parallel request {request_id} "
                    f"from {self.client.server_address}")
            elif response.get("error") is not None:
                outcome = RpcError(f"{method} failed: {response['error']}")
            else:
                results.append(response.get("result"))
                continue
            if not return_errors:
                raise outcome
            results.append(outcome)
        return results
