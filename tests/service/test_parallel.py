"""Tests for the parallel executor's request shuttle (no worker processes).

The worker side of each pipe is driven by hand from the test, so response
ordering — the thing these tests are about — is chosen, not raced.
"""

import multiprocessing

import pytest

from repro.errors import RpcError
from repro.service.parallel import ParallelShardExecutor


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
