"""One trust domain: secure hardware + framework + the sockets between them.

A trust domain bundles:

* a simulated enclave (Nitro-style or SGX-style) whose measured launch image
  is the framework's published source — or no enclave at all for "trust
  domain 0", the domain the developer runs herself (§3.2, Figure 2);
* a :class:`~repro.core.framework.TrustDomainFramework` instance registered as
  the enclave's entry point;
* a vsock-style proxy chain in front of the enclave, reproducing the two
  extra socket hops the paper identifies as the source of TEE overhead; and
* an RPC surface so deployments, clients, and auditors reach the domain over
  the simulated network.
"""

from __future__ import annotations

from typing import Optional

from repro.core.framework import TrustDomainFramework, framework_source
from repro.core.package import CodePackage, UpdateManifest
from repro.crypto.keys import VerifyingKey
from repro.enclave.measurement import Measurement, measure_code
from repro.enclave.nitro import NitroStyleEnclave
from repro.enclave.sgx import SgxStyleEnclave
from repro.enclave.tee import EnclaveBase, HardwareType
from repro.enclave.vendor import HardwareVendor
from repro.errors import DeploymentError
from repro.net.clock import SimClock
from repro.net.rpc import RpcServer
from repro.net.vsock import VsockProxyChain
from repro.sandbox.wvm.vm import WvmLimits
from repro.wire.codec import decode, encode

__all__ = ["TrustDomain", "expected_framework_measurement", "FRAMEWORK_CODE_LABEL"]

FRAMEWORK_CODE_LABEL = "repro-framework"


def expected_framework_measurement() -> Measurement:
    """The measurement every honest enclave-backed trust domain should attest to.

    Clients compute it themselves from the framework's published source; they
    never take the deployment's word for it.
    """
    return measure_code(framework_source().encode("utf-8"), FRAMEWORK_CODE_LABEL)


class TrustDomain:
    """A single trust domain in a distributed-trust deployment."""

    def __init__(self, domain_id: str, hardware_type: HardwareType,
                 developer_public_key: VerifyingKey,
                 vendor: HardwareVendor | None = None,
                 clock: SimClock | None = None,
                 use_vsock: bool = True,
                 wvm_limits: WvmLimits | None = None):
        self.domain_id = domain_id
        self.hardware_type = hardware_type
        self.clock = clock or SimClock()
        self.framework = TrustDomainFramework(
            domain_id, developer_public_key, clock=self.clock, wvm_limits=wvm_limits
        )
        self.enclave: Optional[EnclaveBase] = None
        self.vsock: Optional[VsockProxyChain] = None

        framework_code = framework_source().encode("utf-8")
        if hardware_type == HardwareType.NITRO:
            if vendor is None:
                raise DeploymentError("Nitro-style domains need a hardware vendor")
            self.enclave = NitroStyleEnclave(domain_id, vendor, framework_code,
                                             code_label=FRAMEWORK_CODE_LABEL)
        elif hardware_type == HardwareType.SGX:
            if vendor is None:
                raise DeploymentError("SGX-style domains need a hardware vendor")
            self.enclave = SgxStyleEnclave(domain_id, vendor, framework_code,
                                           code_label=FRAMEWORK_CODE_LABEL)
        elif hardware_type != HardwareType.NONE:
            raise DeploymentError(f"unknown hardware type {hardware_type!r}")

        if self.enclave is not None:
            self.enclave.set_entry_point(self.framework.dispatch)
            # Seal the developer key the way a real provisioning step would.
            self.enclave.memory.write("developer_public_key", developer_public_key.to_bytes())
            if use_vsock:
                self.vsock = VsockProxyChain.nitro_style()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle(self, method: str, params=None):
        """Carry one request to the framework through this domain's full path.

        For enclave-backed domains the request and response traverse the
        vsock-style socket hops (host → enclave, framework → sandbox); for
        trust domain 0 the framework is called directly. The hops' delay is
        charged only when an RPC delivery carried the request (see
        :meth:`register_rpc`); an in-process call charges it to nobody.
        """
        if self.enclave is None:
            return self.framework.dispatch(method, params)
        if self.vsock is not None:
            request_bytes = self.vsock.request(encode({"method": method, "params": params}))
            request = decode(request_bytes)
            result = self.enclave.call(request["method"], request["params"])
            response_bytes = self.vsock.respond(encode({"result": result}))
            return decode(response_bytes)["result"]
        return self.enclave.call(method, params)

    # ------------------------------------------------------------------
    # Convenience wrappers used by deployments and tests
    # ------------------------------------------------------------------
    def install_update(self, manifest: UpdateManifest, package: CodePackage) -> dict:
        """Install a signed update through the domain's request path."""
        return self.handle("install_update", {
            "manifest": manifest.to_dict(),
            "package": package.to_dict(),
        })

    def invoke_application(self, entry: str, params) -> dict:
        """Invoke the running application through the domain's request path."""
        return self.handle("invoke", {"entry": entry, "params": params})

    def _invoke_many_wire(self, request: dict, frame: bytes) -> bytes:
        """Raw RPC fast path for batched invocation (see ``RpcServer.register_raw``).

        The batch is decoded exactly once (by the RPC server, for routing and
        dedup); the resulting object graph is by construction a fresh
        plain-data copy, so it doubles as the sandbox's inbound boundary copy
        (``wire`` flag below). The original frame still travels through the
        vsock hops as opaque bytes — per-byte forwarding is the TEE cost the
        paper measures, and it must not be optimized away — and the response
        envelope is serialized once on the way out; those envelope bytes are
        the only thing that leaves the domain, which is what lets the
        redundant per-layer codec round trips be cut. A non-encodable
        application result fails its whole chunk with one error envelope
        (the per-call isolation of
        :meth:`TrustDomainFramework.invoke_application_many` still covers
        ordinary application exceptions).
        """
        if self.enclave is not None and self.vsock is not None:
            self.vsock.request(frame)
            params = request.get("params") or {}
            params["wire"] = True
            try:
                envelope = {"id": request["id"],
                            "result": self.enclave.call("invoke_many", params)}
            except Exception as exc:
                envelope = {"id": request["id"], "error": f"{type(exc).__name__}: {exc}"}
            return self.vsock.respond(encode(envelope))
        # No vsock hops to traverse. The params still came straight off the
        # RPC server's decoder, so the same fresh-plain-data argument applies
        # — but an enclave-backed domain must still cross the enclave
        # boundary (and its compromised/operational check), exactly like
        # :meth:`handle`.
        params = request.get("params") or {}
        params["wire"] = True
        try:
            if self.enclave is not None:
                result = self.enclave.call("invoke_many", params)
            else:
                result = self.framework.dispatch("invoke_many", params)
            envelope = {"id": request["id"], "result": result}
        except Exception as exc:
            envelope = {"id": request["id"], "error": f"{type(exc).__name__}: {exc}"}
        return encode(envelope)

    def get_state(self) -> dict:
        """Fetch the framework's current state snapshot."""
        return self.handle("get_state", {})

    # ------------------------------------------------------------------
    # Audit surface
    # ------------------------------------------------------------------
    def audit_response(self, nonce: bytes) -> dict:
        """Answer a client's audit challenge.

        Returns the attestation evidence (when secure hardware is present),
        the current application digest and version, the full digest-log
        export, and the attested log head, all as plain data.
        """
        user_data = self.framework.audit_user_data()
        state = self.framework.state()
        response = {
            "domain_id": self.domain_id,
            "hardware_type": self.hardware_type.value,
            "nonce": bytes(nonce),
            "user_data": user_data,
            "app_digest": state.app_digest,
            "app_version": state.app_version,
            "sequence": state.sequence,
            "log_head": state.log_head,
            "log": self.framework.log_export(),
            "announcements": [a.to_dict() for a in self.framework.announcements()],
            "attestation": None,
        }
        if self.enclave is not None:
            evidence = self.enclave.attest(nonce, user_data=user_data)
            response["attestation"] = evidence.to_dict()
        return response

    # ------------------------------------------------------------------
    # RPC integration
    # ------------------------------------------------------------------
    def register_rpc(self, server: RpcServer) -> None:
        """Expose this domain's operations on an RPC server.

        The server charges the delay of this domain's vsock hops to the
        response of the payload that crossed them.
        """
        server.hops = self.vsock
        server.register("audit", lambda params: self.audit_response(params["nonce"]))
        server.register("install_update", lambda params: self.handle("install_update", params))
        server.register("invoke", lambda params: self.handle("invoke", params))
        server.register_raw("invoke_many", self._invoke_many_wire)
        server.register("get_state", lambda params: self.handle("get_state", params))
        server.register("get_log", lambda params: self.handle("get_log", params))
        server.register(
            "get_announcements", lambda params: self.handle("get_announcements", params)
        )

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def compromise(self) -> None:
        """Mark this domain's enclave as exploited (no-op for trust domain 0)."""
        if self.enclave is not None:
            self.enclave.mark_compromised()

    @property
    def compromised(self) -> bool:
        """Whether this domain's enclave has been marked exploited."""
        return self.enclave is not None and self.enclave.compromised
