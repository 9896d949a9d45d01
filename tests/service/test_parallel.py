"""Tests for the parallel executor's request shuttle (no worker processes).

The worker side of each pipe is driven by hand from the test, so response
ordering — the thing these tests are about — is chosen, not raced.
"""

import multiprocessing

import pytest

from repro.errors import RpcError
from repro.net.rpc import RpcClient
from repro.service.parallel import ParallelShardExecutor
from repro.wire.codec import decode, encode
from repro.wire.framing import frame_message, split_frames


@pytest.fixture
def shuttle():
    """An executor wired to one in-process pipe; yields (executor, worker end)."""
    executor = ParallelShardExecutor("keybackup", seed=2022, ops=2, shards=1,
                                     workers=1)
    parent_conn, worker_conn = multiprocessing.Pipe()
    executor._connections.append(parent_conn)
    executor._owner["svc-domain-0"] = 0
    yield executor, worker_conn
    parent_conn.close()
    worker_conn.close()


def test_error_for_another_request_is_kept_for_its_owner(shuttle):
    executor, worker = shuttle
    first = executor.submit("svc-domain-0", "svc-client", b"first")
    second = executor.submit("svc-domain-0", "svc-client", b"second")
    assert [worker.recv()[0] for _ in range(2)] == [first, second]
    # The second request fails, and its error reaches the pipe before the
    # first request's answer does.
    worker.send((second, b"", "RuntimeError: boom"))
    worker.send((first, b"answer", None))

    assert executor.result(first) == b"answer"
    with pytest.raises(RpcError, match="boom"):
        executor.result(second)


def test_unknown_request_is_still_rejected(shuttle):
    executor, _ = shuttle
    with pytest.raises(RpcError, match="unknown parallel request"):
        executor.result(99)


def _answer(payload: bytes, result) -> bytes:
    """The response payload a server would send for every request in ``payload``."""
    return b"".join(frame_message(encode({"id": decode(frame)["id"],
                                          "result": result}))
                    for frame in split_frames(payload))


def test_a_worker_error_fails_only_the_requests_it_answers(shuttle):
    executor, worker = shuttle
    client_a = RpcClient(executor, executor.endpoint("a-client"), "svc-domain-0")
    client_b = RpcClient(executor, executor.endpoint("b-client"), "svc-domain-0")
    batch_a = client_a.begin_many([("invoke", 1), ("invoke", 2)])
    batch_b = client_b.begin_many([("invoke", 3)])
    (seq_a, _, _, payload_a), (seq_b, _, _, _) = worker.recv(), worker.recv()
    # B's payload fails at the worker, and that reply reaches the pipe first.
    worker.send((seq_b, b"", "RuntimeError: boom"))
    worker.send((seq_a, _answer(payload_a, "ok"), None))

    assert batch_a.collect(attempts=1) == ["ok", "ok"]
    with pytest.raises(RpcError,
                       match=f"parallel request {seq_b} failed: RuntimeError: boom"):
        batch_b.collect(attempts=1)


def test_a_single_call_is_a_batch_of_one_over_the_executor(shuttle):
    executor, worker = shuttle
    client = RpcClient(executor, executor.endpoint("svc-client"), "svc-domain-0")
    # Request ids come from the transport's own counter, so the first call is
    # request 1 in the executor's first payload; its answer can be queued on
    # the pipe before the call blocks on it.
    worker.send((1, frame_message(encode({"id": 1, "result": 7})), None))
    assert client.call_with_retry("get_state", {}) == 7
    seq, address, source, payload = worker.recv()
    assert (seq, address, source) == (1, "svc-domain-0", "svc-client")
    assert decode(split_frames(payload)[0])["method"] == "get_state"
    assert client.retries == 0


def test_a_send_to_a_dead_worker_is_an_rpc_error(shuttle):
    executor, worker = shuttle
    worker.close()
    with pytest.raises(RpcError, match="died"):
        executor.submit("svc-domain-0", "svc-client", b"request")
