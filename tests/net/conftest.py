"""Fixtures shared by the net-layer tests."""

import pytest

from repro.net import rpc


@pytest.fixture
def response_decodes(monkeypatch):
    """Request ids of the response frames the RPC layer decodes, in order."""
    seen = []
    original = rpc.decode

    def counting_decode(frame):
        value = original(frame)
        if isinstance(value, dict) and "method" not in value:
            seen.append(value.get("id"))
        return value

    monkeypatch.setattr(rpc, "decode", counting_decode)
    return seen
