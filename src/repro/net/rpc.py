"""A small request/response RPC layer over the simulated transport.

Trust domains expose their framework operations (attest, fetch log, submit
update, invoke application) as named RPC methods; clients and auditors call
them through :class:`RpcClient`. Requests and responses are encoded with the
canonical codec and framed, so the bytes on the simulated wire look like the
bytes a real deployment would exchange.

The layer is hardened for adversarial networks: servers give at-most-once
semantics (a retransmitted request is answered from a response cache instead
of being re-executed, so retries cannot double-apply state changes), and
:meth:`RpcClient.call_with_retry` retransmits the *same* request bytes after a
timeout, which is what makes that dedup effective.

For throughput, the layer also supports batching: :meth:`RpcClient.call_many`
packs many requests into one framed payload (the server's frame loop already
handles multi-frame payloads), matches responses out of order, and after a
timeout retransmits only the still-unanswered requests. The server batches
its responses per source payload, so a request batch costs one message each
way instead of one round trip per request.

A single call is a batch of one, so :class:`PendingRpcBatch` alone sends,
retransmits and matches requests, over the simulated network or, in parallel
mode, a :class:`repro.service.parallel.ParallelShardExecutor` transport.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import DecodingError, RpcError, TimeoutError
from repro.net.eventloop import WaitBatch, drive
from repro.net.transport import Endpoint, Message, Network
from repro.net.vsock import VsockProxyChain
from repro.wire.codec import decode, encode
from repro.wire.framing import frame_message, split_frames

__all__ = ["RpcServer", "RpcClient", "BoundedIdSet", "ResponseDemux",
           "PendingRpcBatch", "ServiceTimeModel", "ServiceQueue"]

# How many completed request ids each endpoint remembers for duplicate-response
# filtering. Old duplicates beyond this window are indistinguishable from
# unrelated traffic and get held by the endpoint's ResponseDemux instead of
# discarded, which is harmless; the bound is what keeps memory flat under
# sustained traffic.
COMPLETED_ID_WINDOW = 4096


class BoundedIdSet:
    """A set that remembers only the most recently added ``maxlen`` items.

    Insertion order is tracked in a ring; adding beyond the bound evicts the
    oldest member. Lookup stays O(1). Used for the per-endpoint record of
    completed RPC request ids, which would otherwise grow without bound under
    sustained traffic.
    """

    def __init__(self, maxlen: int = COMPLETED_ID_WINDOW):
        if maxlen < 1:
            raise ValueError("maxlen must be at least 1")
        self.maxlen = maxlen
        self._order: deque = deque()
        self._members: set = set()

    def add(self, item) -> None:
        """Remember ``item``, evicting the oldest member beyond the bound."""
        if item in self._members:
            return
        self._members.add(item)
        self._order.append(item)
        while len(self._order) > self.maxlen:
            self._members.discard(self._order.popleft())

    def __contains__(self, item) -> bool:
        return item in self._members

    def __len__(self) -> int:
        return len(self._members)


class ResponseDemux:
    """Routes one client endpoint's responses by request id, decoding once.

    Installed as the client endpoint's ``on_message`` by the first
    :class:`RpcClient` built on it and shared by every client on that
    endpoint, so it sees each delivery whichever driver performed it
    (``run_until_idle`` or the event loop's ``deliver_next``). Each response
    frame is decoded exactly once, on delivery, and then either handed to the
    watcher registered for its request id (an event-loop task blocked on it)
    or held until a caller claims it with :meth:`take`. Duplicates of
    completed or already-held responses are dropped on arrival.
    """

    def __init__(self, completed: BoundedIdSet):
        self.completed = completed
        self.held: dict = {}      # request id -> decoded response
        self.watchers: dict = {}  # request id -> callable(request_id, response)

    def deliver(self, message: Message) -> None:
        """Decode ``message``'s response frames and route each by id."""
        try:
            frames = split_frames(message.payload)
        except DecodingError:
            return  # corrupted response; the retry path handles it
        for frame in frames:
            try:
                response = decode(frame)
            except DecodingError:
                continue
            request_id = response.get("id") if isinstance(response, dict) else None
            if (request_id is None or request_id in self.completed
                    or request_id in self.held):
                continue
            watcher = self.watchers.pop(request_id, None)
            if watcher is None:
                self.held[request_id] = response
            else:
                watcher(request_id, response)

    def take(self, pending: set, found: dict) -> None:
        """Move held responses for the ``pending`` ids into ``found``."""
        for request_id in [rid for rid in pending if rid in self.held]:
            found[request_id] = self.held.pop(request_id)
            pending.discard(request_id)

    def complete(self, request_ids) -> None:
        """Record ``request_ids`` as completed and drop any copy still held.

        A duplicate that arrived after its batch claimed the first copy, but
        before the batch resolved, would otherwise be held forever.
        """
        for request_id in request_ids:
            self.completed.add(request_id)
            self.held.pop(request_id, None)


@dataclass(frozen=True)
class ServiceTimeModel:
    """How long one server takes to process requests, in simulated seconds.

    A server with a service model is a *serial busy-until queue*: requests are
    processed one after another, each costing ``per_request`` seconds, and a
    response leaves only when the queue has drained to it. Without a model,
    servers answer in zero simulated time — which makes every deployment
    look infinitely fast and hides the benefit of horizontal sharding
    entirely. Installing a model is what makes shard parallelism measurable
    in sim time: two shards each own a queue, so their service time
    genuinely overlaps.
    """

    per_request: float = 0.0


class ServiceQueue:
    """Observable accounting for a server's serial service queue.

    The busy-until scalar says *when* the server drains but not *how deep* the
    line is. This queue keeps both: every admitted work unit (one application
    call) gets a completion timestamp on the server's serial timeline, so
    ``depth(now)`` is the number of units still queued or in service and
    ``max_depth`` is the high-water mark — the head-of-line blocking that the
    capacity model in docs/performance.md describes, now measurable.
    """

    def __init__(self):
        self.busy_until = 0.0
        self.max_depth = 0
        self.total_units = 0
        self._completions: list[float] = []  # heap of per-unit finish times

    def enqueue(self, now: float, units: int, cost: float) -> float:
        """Admit ``units`` work units costing ``cost`` seconds in total.

        Returns the delay until the *last* of them completes (the response
        leaves when the whole payload's work has drained), preserving the
        busy-until semantics exactly.
        """
        self._expire(now)
        start = max(now, self.busy_until)
        self.busy_until = start + cost
        per_unit = cost / units if units > 0 else 0.0
        for index in range(1, units + 1):
            heapq.heappush(self._completions, start + per_unit * index)
        self.total_units += units
        self.max_depth = max(self.max_depth, len(self._completions))
        return self.busy_until - now

    def depth(self, now: float) -> int:
        """Work units still queued or in service at simulated time ``now``."""
        self._expire(now)
        return len(self._completions)

    def _expire(self, now: float) -> None:
        while self._completions and self._completions[0] <= now:
            heapq.heappop(self._completions)


class RpcServer:
    """Dispatches incoming RPC requests to registered handler functions.

    Handlers take the decoded ``params`` value and return an encodable result;
    exceptions they raise are reported to the caller as :class:`RpcError`.

    A payload may carry many framed requests (a client-side batch); every
    response frame for one incoming payload is concatenated and sent back as a
    single payload, so batch traffic stays batched on the return path.

    Args:
        at_most_once: cache responses by ``(source, request id)`` and answer
            retransmissions from the cache instead of re-executing the handler.
        cache_size: number of cached responses kept for deduplication.
        service_model: optional :class:`ServiceTimeModel` making this server a
            serial busy-until queue in simulated time (settable later via the
            ``service_model`` attribute; ``None`` means zero service time).

    A backend whose handlers cross socket hops (a trust domain's
    :class:`~repro.net.vsock.VsockProxyChain`) sets the ``hops`` attribute:
    the hop delay a delivered payload accrues is added to its responses'
    delivery, so each request pays its own hops and the shared clock never
    moves inside a handler.
    """

    def __init__(self, endpoint: Endpoint, name: str | None = None,
                 at_most_once: bool = True, cache_size: int = 1024,
                 service_model: ServiceTimeModel | None = None):
        self.endpoint = endpoint
        self.name = name or endpoint.address
        self._handlers: dict[str, Callable] = {}
        self._raw_handlers: dict[str, Callable] = {}
        self.requests_served = 0
        self.duplicates_answered = 0
        self.malformed_frames = 0
        self.batches_served = 0
        self.service_model = service_model
        self.queue = ServiceQueue()
        self.hops: VsockProxyChain | None = None
        self._at_most_once = at_most_once
        self._cache_size = cache_size
        self._response_cache: OrderedDict[tuple, bytes] = OrderedDict()
        endpoint.on_message = self._handle_message

    def register(self, method: str, handler: Callable) -> None:
        """Register ``handler`` for ``method`` (overwrites any previous handler)."""
        self._handlers[method] = handler

    def register_raw(self, method: str, handler: Callable) -> None:
        """Register a raw byte-level handler for ``method``.

        A raw handler receives ``(request_dict, request_frame_bytes)`` and
        returns the *encoded response envelope* (``{"id": ..., "result"/
        "error": ...}``) as bytes. This lets a backend forward the original
        wire bytes through its own transport (e.g. the vsock hops into an
        enclave) and serialize the response exactly once, instead of the
        server decoding and re-encoding the payload at every layer — the
        fast path for high-throughput batch methods. Raw handlers take
        precedence over :meth:`register` handlers for the same method; their
        exceptions are answered as error envelopes like any handler's.
        """
        self._raw_handlers[method] = handler

    def registered_methods(self) -> list[str]:
        """Names of all registered methods (normal and raw)."""
        return sorted(set(self._handlers) | set(self._raw_handlers))

    def _handle_message(self, message: Message) -> None:
        self._hop_delay()  # accrued outside a delivery: charged to nobody
        outgoing, executed, frame_count = self._process_payload(
            message.payload, message.source)
        hop_delay = self._hop_delay()
        if outgoing:
            if frame_count > 1:
                self.batches_served += 1
            self.endpoint.send(
                message.source, outgoing,
                extra_delay=self._service_delay(executed) + hop_delay)

    def dispatch_payload(self, payload: bytes, source: str) -> bytes:
        """Process one request payload and return the response payload bytes.

        The network-free half of :meth:`_handle_message`: same frame loop,
        at-most-once cache, raw-handler fast path, and counters — but the
        response bytes are *returned* instead of sent through the simulated
        endpoint, and no simulated service or hop time is charged (there is
        no simulated clock where this runs). This is the serving entry point
        for worker processes in :mod:`repro.service.parallel`, which shuttle
        the same wire bytes over OS pipes instead of the discrete-event
        transport.
        """
        outgoing, _, frame_count = self._process_payload(payload, source)
        if outgoing and frame_count > 1:
            self.batches_served += 1
        return outgoing

    def _process_payload(self, payload: bytes,
                         source: str) -> tuple[bytes, int, int]:
        """Run the frame loop over ``payload``; return (response_bytes,
        executed work units, frame count)."""
        try:
            frames = split_frames(payload)
        except DecodingError:
            self.malformed_frames += 1
            return b"", 0, 0
        outgoing: list[bytes] = []
        executed = 0
        for frame in frames:
            try:
                request = decode(frame)
            except DecodingError:
                # A corrupted request has no recoverable id to answer; drop it
                # and let the client's retransmission carry the day.
                self.malformed_frames += 1
                continue
            key = None
            if self._at_most_once and isinstance(request, dict) and "id" in request:
                key = (source, request["id"])
                cached = self._response_cache.get(key)
                if cached is not None:
                    self.duplicates_answered += 1
                    outgoing.append(cached)
                    continue
            executed += self._request_weight(request) if self.service_model else 1
            raw_handler = None
            if (self._raw_handlers and isinstance(request, dict)
                    and "method" in request and "id" in request):
                raw_handler = self._raw_handlers.get(request["method"])
            if raw_handler is not None:
                try:
                    body = raw_handler(request, frame)
                except Exception as exc:  # answered like any handler error
                    body = encode({"id": request["id"],
                                   "error": f"{type(exc).__name__}: {exc}"})
                else:
                    self.requests_served += 1
                response = frame_message(body)
            else:
                response = frame_message(encode(self._dispatch(request)))
            if key is not None:
                self._response_cache[key] = response
                while len(self._response_cache) > self._cache_size:
                    self._response_cache.popitem(last=False)
            outgoing.append(response)
        return b"".join(outgoing), executed, len(frames)

    @staticmethod
    def _request_weight(request) -> int:
        """How many serial work units one request frame costs the server.

        A batched ``invoke_many`` frame carries many application calls in one
        envelope; the service queue must charge per *call*, or batching would
        not just amortize round trips but make server work itself free and no
        amount of sharding would ever be measurable. Non-batch requests weigh
        one unit.
        """
        params = request.get("params") if isinstance(request, dict) else None
        if isinstance(params, dict):
            for field_name in ("params_list", "calls"):
                inner = params.get(field_name)
                if isinstance(inner, list):
                    return max(1, len(inner))
        return 1

    @property
    def busy_until(self) -> float:
        """When the serial service queue drains (simulated seconds)."""
        return self.queue.busy_until

    @busy_until.setter
    def busy_until(self, value: float) -> None:
        self.queue.busy_until = value

    def queue_depth(self) -> int:
        """Work units still queued or in service right now."""
        return self.queue.depth(self.endpoint.network.clock.now())

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of the service queue over this server's lifetime."""
        return self.queue.max_depth

    def _service_delay(self, executed: int) -> float:
        """Seconds this payload's responses wait for the serial service queue.

        Requests join the queue behind whatever the server is still busy with
        (``busy_until``); duplicates answered from the response cache are free.
        """
        if self.service_model is None or executed == 0:
            return 0.0
        now = self.endpoint.network.clock.now()
        return self.queue.enqueue(
            now, executed, executed * self.service_model.per_request)

    def _hop_delay(self) -> float:
        """Claim the delay ``hops`` accrued since the last claim (0 without hops)."""
        return self.hops.claim_delay() if self.hops is not None else 0.0

    def _dispatch(self, request) -> dict:
        if not isinstance(request, dict) or "method" not in request or "id" not in request:
            return {"id": request.get("id") if isinstance(request, dict) else None,
                    "error": "malformed request"}
        method = request["method"]
        handler = self._handlers.get(method)
        if handler is None:
            return {"id": request["id"], "error": f"unknown method {method!r}"}
        try:
            result = handler(request.get("params"))
        except Exception as exc:  # deliberately broad: server must answer the caller
            return {"id": request["id"], "error": f"{type(exc).__name__}: {exc}"}
        self.requests_served += 1
        return {"id": request["id"], "result": result}


class RpcClient:
    """Issues RPC calls to a server address over a network or executor."""

    def __init__(self, network: Network, endpoint: Endpoint, server_address: str):
        self.network = network
        self.endpoint = endpoint
        self.server_address = server_address
        self.retries = 0
        # Request ids are drawn from one counter per *network*, not per
        # process: ids must be unique across every client that can reach a
        # server (at-most-once dedup keys on them), but they must NOT depend
        # on process history — the id is encoded into the request bytes, so
        # its digit width feeds the byte-proportional service-cost model,
        # and a process-global counter would make replay latencies depend on
        # how much traffic *earlier* simulations happened to send.
        if not hasattr(network, "rpc_request_ids"):
            network.rpc_request_ids = itertools.count(1)
        self._ids = network.rpc_request_ids
        # One demux per endpoint, shared by every client on it, so any of
        # them can claim a response or discard a stale duplicate no matter
        # which client issued the request. The completed-id record is bounded
        # (see BoundedIdSet) so sustained traffic cannot leak memory.
        if not hasattr(endpoint, "rpc_demux"):
            if not hasattr(endpoint, "rpc_completed_ids"):
                endpoint.rpc_completed_ids = BoundedIdSet()
            endpoint.rpc_demux = ResponseDemux(endpoint.rpc_completed_ids)
            endpoint.on_message = endpoint.rpc_demux.deliver
        self.demux: ResponseDemux = endpoint.rpc_demux

    def call(self, method: str, params=None):
        """Call ``method`` with ``params`` and return the decoded result.

        Raises:
            RpcError: the server reported an application-level error.
            TimeoutError: no response arrived after the network went idle.
        """
        return self.call_with_retry(method, params, attempts=1)

    def call_with_retry(self, method: str, params=None, attempts: int = 3):
        """Call ``method``, retransmitting after timeouts up to ``attempts`` times.

        A one-request batch (:meth:`begin_many`): every attempt resends the
        *same* request id and bytes, so an at-most-once server deduplicates
        re-deliveries and the handler runs at most one time no matter how
        lossy the network is.

        Raises:
            RpcError: the server reported an application-level error.
            TimeoutError: every attempt timed out.
        """
        [result] = self.begin_many([(method, params)]).collect(
            attempts=attempts)
        return result

    def call_many(self, calls, attempts: int = 3, return_errors: bool = False):
        """Issue many calls as one batched payload and return their results.

        ``calls`` is a sequence of ``(method, params)`` pairs. All requests are
        framed individually and concatenated into a single payload — one
        message on the wire no matter how many calls ride in it — and the
        server answers with one batched response payload. Responses are
        matched to requests by id, so they may arrive out of order (or split
        across payloads) without confusing the pairing.

        After a timeout only the still-unanswered requests are retransmitted,
        with their original ids and bytes, so an at-most-once server executes
        each call exactly once even when a batch is partially lost.

        Args:
            calls: ``(method, params)`` pairs, in result order.
            attempts: total send attempts for any individual request.
            return_errors: when true, failures become exception *instances*
                in the result list instead of raising — :class:`RpcError` for
                a server-reported error, :class:`TimeoutError` for a call
                unanswered on every attempt — so one failed call cannot mask
                the rest of the batch.

        Raises:
            RpcError: a call failed and ``return_errors`` is false.
            TimeoutError: a call went unanswered on every attempt and
                ``return_errors`` is false.
        """
        return self.begin_many(calls).collect(attempts=attempts,
                                              return_errors=return_errors)

    def begin_many(self, calls) -> "PendingRpcBatch":
        """Send a batch of calls *without* pumping the network; return a handle.

        This is the split-phase half of :meth:`call_many`: the batch payload
        is enqueued on the wire immediately, but no delivery happens until
        someone runs the network (usually :meth:`PendingRpcBatch.collect`).
        Splitting send from gather is what lets a caller scatter batches to
        *several* servers first and pump the network once — the round trips
        and the servers' service time then overlap in simulated time instead
        of serializing, which is the mechanism behind shard scaling
        (see :mod:`repro.service`).
        """
        calls = list(calls)
        requests = []
        for method, params in calls:
            request_id = next(self._ids)
            requests.append((request_id, method, frame_message(encode(
                {"id": request_id, "method": method, "params": params}
            ))))
        if requests:
            self.endpoint.send(self.server_address,
                               b"".join(frame for _, _, frame in requests))
        return PendingRpcBatch(self, requests)


class PendingRpcBatch:
    """An in-flight batch created by :meth:`RpcClient.begin_many`.

    The batch payload is already on the wire; :meth:`collect` pumps the
    network, matches responses by id, and retransmits only the unanswered
    requests — exactly :meth:`RpcClient.call_many` semantics, just with the
    send and the gather decoupled so several batches (to different servers)
    can be in flight before the first delivery happens. ``collect`` is
    idempotent: the first call resolves the batch and later calls return the
    same results.
    """

    def __init__(self, client: RpcClient, requests: list):
        self.client = client
        self.requests = requests
        self.pending = {request_id for request_id, _, _ in requests}
        self.found: dict[int, dict] = {}
        self._resolved = False

    def collect(self, attempts: int = 3, return_errors: bool = False):
        """Gather this batch's results (pump, drain, retransmit as needed).

        Args/semantics match :meth:`RpcClient.call_many`: results are in call
        order; with ``return_errors`` failures become exception instances,
        otherwise the first failure raises.
        """
        if not self._resolved:
            drive(self.wait_event(attempts=attempts), self.client.network.clock)
        if self.pending and not return_errors:
            raise TimeoutError(
                f"{len(self.pending)} of {len(self.requests)} batched requests "
                f"to {self.client.server_address} went unanswered"
            )
        results = []
        for request_id, method, _ in self.requests:
            if request_id in self.pending:
                results.append(TimeoutError(
                    f"no response to batched request {request_id} "
                    f"from {self.client.server_address}"
                ))
                continue
            response = self.found[request_id]
            if "error" in response and response["error"] is not None:
                error = RpcError(f"{method} failed: {response['error']}")
                if not return_errors:
                    raise error
                results.append(error)
            else:
                results.append(response.get("result"))
        return results

    def wait_event(self, attempts: int = 3, timeout: float = 0.25):
        """Resolve this batch as a task generator.

        It yields :class:`~repro.net.eventloop.WaitBatch` commands and
        resumes when every response arrived (``"complete"``), ``timeout``
        simulated seconds elapsed (``"timeout"``), or the network went fully
        idle (``"idle"``). On the latter two it retransmits only the
        still-unanswered requests, with their original ids and bytes, so an
        at-most-once server dedups re-delivery. Under an
        :class:`~repro.net.eventloop.EventLoop` other tasks' requests stay
        genuinely in flight alongside this one; :meth:`collect` runs it
        through the synchronous :func:`~repro.net.eventloop.drive`. After
        the generator returns, :meth:`collect` unpacks results without
        pumping.
        """
        client = self.client
        if not self._resolved:
            for attempt in range(max(1, attempts)):
                if not self.pending:
                    break
                if attempt > 0:
                    client.retries += len(self.pending)
                    client.endpoint.send(client.server_address, b"".join(
                        frame for request_id, _, frame in self.requests
                        if request_id in self.pending
                    ))
                yield WaitBatch(self, timeout)
            client.demux.complete(request_id for request_id, _, _ in self.requests)
            self._resolved = True
