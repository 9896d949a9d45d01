"""vsock-style socket hops between a host and its enclave.

AWS Nitro enclaves have no network interface of their own: all traffic enters
through a vsock socket on the parent instance and is forwarded into the
enclave, and the paper's prototype adds a second socket inside the enclave
between the framework and the sandboxed application. Table 3 attributes the
TEE overhead ("54.9% vs 46.1%") to exactly these two extra sockets.

:class:`SocketHop` models one such hop: forwarding a payload performs real
work (framing, buffer copies, an integrity checksum — the kind of per-byte
cost a real proxy pays) and records a small simulated latency.
:class:`VsockProxyChain` composes hops so a deployment can describe the full
client → host proxy → enclave framework → sandboxed app path.

A hop never touches a clock. The delay it records is charged to the request
that crossed it: :class:`repro.net.rpc.RpcServer` claims what its domain's
chain accrued while it processed a delivered payload
(:meth:`VsockProxyChain.claim_delay`) and adds it to that payload's response
delivery, next to the service-queue wait. So a request pays its own hops and
no one else's, and the shards of a plane do not queue behind one global hop.
Delay accrued outside a delivered message (an in-process
:meth:`repro.core.trust_domain.TrustDomain.handle`, or the parallel
executor's ``dispatch_payload``) stays in ``stats.simulated_latency`` but is
charged to nobody.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import sha256
from repro.errors import NetworkError
from repro.net.latency import LatencyModel, vsock_profile
from repro.wire.framing import FrameReader, frame_message

__all__ = ["SocketHop", "VsockProxyChain"]

_COPY_CHUNK = 4096


@dataclass
class HopStats:
    """Per-hop forwarding statistics."""

    forwarded_messages: int = 0
    forwarded_bytes: int = 0
    simulated_latency: float = 0.0


class SocketHop:
    """One socket forwarding hop (e.g. host→enclave vsock, or framework→app socket).

    Forwarding is deliberately implemented as real work — piecewise buffer
    copies through a reassembly buffer plus a checksum — because the paper's
    measured TEE overhead is the CPU and syscall cost of moving bytes through
    extra sockets, not propagation delay.
    """

    def __init__(self, name: str, latency: LatencyModel | None = None):
        self.name = name
        self.latency = latency or vsock_profile()
        self.stats = HopStats()
        # Delay recorded since the chain's last claim_delay().
        self.unclaimed_delay = 0.0
        self._reader = FrameReader()

    def forward(self, payload: bytes) -> bytes:
        """Forward a payload across the hop and return it on the far side."""
        framed = frame_message(payload)
        # Chunked copy through the hop's staging buffer, as a socket proxy would.
        staging = bytearray()
        for start in range(0, len(framed), _COPY_CHUNK):
            staging += framed[start:start + _COPY_CHUNK]
        frames = self._reader.feed(bytes(staging))
        if len(frames) != 1:
            raise NetworkError(f"hop {self.name} expected one frame, saw {len(frames)}")
        delivered = frames[0]
        # Integrity checksum on both sides, mirroring TLS/AEAD per-record costs.
        if sha256(delivered) != sha256(payload):
            raise NetworkError(f"hop {self.name} corrupted a payload")
        delay = self.latency.sample(len(framed))
        self.unclaimed_delay += delay
        self.stats.forwarded_messages += 1
        self.stats.forwarded_bytes += len(framed)
        self.stats.simulated_latency += delay
        return delivered


class VsockProxyChain:
    """A chain of socket hops a request traverses in order (and in reverse for replies)."""

    def __init__(self, hops: list[SocketHop]):
        self.hops = list(hops)

    @classmethod
    def nitro_style(cls) -> "VsockProxyChain":
        """The paper's deployment: client→framework vsock hop + framework→app socket hop."""
        return cls([
            SocketHop("host-to-enclave-vsock"),
            SocketHop("framework-to-sandbox-socket"),
        ])

    def request(self, payload: bytes) -> bytes:
        """Carry a request payload inward through every hop."""
        for hop in self.hops:
            payload = hop.forward(payload)
        return payload

    def respond(self, payload: bytes) -> bytes:
        """Carry a response payload back outward through every hop in reverse."""
        for hop in reversed(self.hops):
            payload = hop.forward(payload)
        return payload

    @property
    def total_simulated_latency(self) -> float:
        """Total simulated latency recorded across all hops."""
        return sum(h.stats.simulated_latency for h in self.hops)

    def claim_delay(self) -> float:
        """Return the delay the hops recorded since the last claim, and reset it."""
        delay = 0.0
        for hop in self.hops:
            delay += hop.unclaimed_delay
            hop.unclaimed_delay = 0.0
        return delay
