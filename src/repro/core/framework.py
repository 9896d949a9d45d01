"""The application-independent framework (the code sealed into every TEE).

This is the layer of indirection §4.1 of the paper introduces. Instead of
sealing the application itself into the enclave (which would make updates
impossible), the enclave seals this framework plus the developer's public key.
The framework then:

* accepts application code and signed code updates, verifying each manifest
  against the sealed developer key and enforcing a strictly increasing
  sequence number (no replay, no rollback);
* **announces** every update to clients *before* switching to the new code —
  because the new code is untrusted, the announcement cannot be left to it;
* appends the digest of every version it has ever run to an append-only
  per-TEE digest log (a hash chain), so a malicious developer cannot erase
  evidence of malicious code;
* executes the application inside a sandbox (WVM bytecode or restricted
  Python) so the application cannot tamper with the framework, the log, or
  the sealed key; and
* answers audit queries: current digest, digest history, and the binding that
  goes into attestation user data.

The framework is deliberately application-independent: nothing in this module
knows anything about key backup, threshold signing, or private aggregation.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass

from repro.core.package import CodePackage, UpdateManifest
from repro.crypto.keys import VerifyingKey
from repro.errors import FrameworkError, UnauthorizedUpdateError, UpdateRejectedError
from repro.net.clock import SimClock
from repro.sandbox.pysandbox import PythonSandbox
from repro.sandbox.wvm.assembler import assemble
from repro.sandbox.wvm.vm import WvmLimits
from repro.sandbox.wvm_executor import WvmExecutor
from repro.transparency.log import DigestLog
from repro.wire.codec import canonical_digest, encode

__all__ = ["framework_source", "UpdateAnnouncement", "FrameworkState", "TrustDomainFramework"]


def framework_source() -> str:
    """The framework's own published source code.

    This is the text the developer open-sources and whose measurement clients
    expect to see in every attestation: the enclave is provisioned with exactly
    these bytes.
    """
    return inspect.getsource(sys.modules[__name__])


@dataclass(frozen=True)
class UpdateAnnouncement:
    """A notification that the framework is about to switch to new code."""

    sequence: int
    version: str
    package_digest: bytes
    announced_at: float

    def to_dict(self) -> dict:
        """Plain-data form served to clients."""
        return {
            "sequence": self.sequence,
            "version": self.version,
            "package_digest": self.package_digest,
            "announced_at_us": int(self.announced_at * 1_000_000),
        }


@dataclass(frozen=True)
class FrameworkState:
    """A snapshot of what the framework is currently running."""

    domain_id: str
    app_digest: bytes
    app_version: str
    sequence: int
    log_head: bytes
    log_length: int


class TrustDomainFramework:
    """One trust domain's instance of the application-independent framework."""

    def __init__(self, domain_id: str, developer_public_key: VerifyingKey,
                 clock: SimClock | None = None, wvm_limits: WvmLimits | None = None):
        self.domain_id = domain_id
        self._developer_key = developer_public_key
        self._clock = clock or SimClock()
        self._wvm_limits = wvm_limits or WvmLimits()
        self._log = DigestLog(domain_id)
        self._announcements: list[UpdateAnnouncement] = []
        self._current_package: CodePackage | None = None
        self._current_manifest: UpdateManifest | None = None
        self._sequence = -1
        self._wvm_executor: WvmExecutor | None = None
        self._python_sandbox: PythonSandbox | None = None
        self.update_listeners = []

    # ------------------------------------------------------------------
    # Enclave entry point
    # ------------------------------------------------------------------
    def dispatch(self, method: str, params=None):
        """Route a request from outside the enclave to a framework operation.

        This is the single entry point installed on the simulated enclave; it
        accepts and returns plain data only.
        """
        handlers = {
            "install_update": self._rpc_install_update,
            "invoke": self._rpc_invoke,
            "invoke_many": self._rpc_invoke_many,
            "get_state": self._rpc_get_state,
            "get_log": self._rpc_get_log,
            "get_announcements": self._rpc_get_announcements,
            "health": lambda _params: {"ok": True, "domain_id": self.domain_id},
        }
        handler = handlers.get(method)
        if handler is None:
            raise FrameworkError(f"framework has no method {method!r}")
        return handler(params or {})

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def install_update(self, manifest: UpdateManifest, package: CodePackage) -> dict:
        """Verify and install a signed code update.

        The order of operations is the one the paper's design requires:
        announce first, log second, only then run the new code.
        """
        if not manifest.verify(self._developer_key):
            raise UnauthorizedUpdateError(
                f"{self.domain_id}: update signature does not verify under the sealed developer key"
            )
        digest = package.digest()
        if digest != manifest.package_digest:
            raise UpdateRejectedError(
                f"{self.domain_id}: package digest does not match the signed manifest"
            )
        if manifest.version != package.version or manifest.package_name != package.name:
            raise UpdateRejectedError(f"{self.domain_id}: manifest metadata mismatch")
        if manifest.sequence != self._sequence + 1:
            raise UpdateRejectedError(
                f"{self.domain_id}: expected update sequence {self._sequence + 1}, "
                f"got {manifest.sequence} (replay or rollback)"
            )

        # 1. Announce the pending update so clients learn about it even if the
        #    new code is malicious and would rather stay quiet.
        announcement = UpdateAnnouncement(
            sequence=manifest.sequence,
            version=package.version,
            package_digest=digest,
            announced_at=self._clock.now(),
        )
        self._announcements.append(announcement)
        for listener in self.update_listeners:
            listener(announcement)

        # 2. Record the digest in the append-only log.
        self._log.append(digest, package.version, self._clock.now())

        # 3. Instantiate the new code inside a fresh sandbox.
        self._load_package(package)
        self._current_package = package
        self._current_manifest = manifest
        self._sequence = manifest.sequence
        return {
            "installed": True,
            "sequence": self._sequence,
            "package_digest": digest,
            "log_head": self._log.head(),
        }

    def _load_package(self, package: CodePackage) -> None:
        if package.language == "wvm":
            module = assemble(package.source)
            self._wvm_executor = WvmExecutor(module, limits=self._wvm_limits)
            self._python_sandbox = None
        else:
            previous_state = self._python_sandbox.state if self._python_sandbox else None
            config = {"previous_state": previous_state} if previous_state is not None else {}
            self._python_sandbox = PythonSandbox(package.source, config=config)
            self._wvm_executor = None

    # ------------------------------------------------------------------
    # Application invocation
    # ------------------------------------------------------------------
    def invoke_application(self, entry: str, params):
        """Run one application request inside the sandbox."""
        if self._current_package is None:
            raise FrameworkError(f"{self.domain_id}: no application installed")
        if self._current_package.language == "wvm":
            if not isinstance(params, list):
                raise FrameworkError("WVM applications take a list of integer arguments")
            result = self._wvm_executor.invoke(entry, params)
            return {"value": result.value, "fuel_used": result.fuel_used}
        return {"value": self._python_sandbox.invoke(entry, params), "fuel_used": 0}

    def invoke_application_many(self, calls: list, wire_boundary: bool = False) -> list:
        """Run a batch of application requests with one sandbox boundary crossing.

        ``calls`` is a list of ``{"entry": str, "params": ...}`` dicts. Each
        outcome is either the same shape :meth:`invoke_application` returns or
        ``{"error": text}``, so a failing request is isolated from the rest of
        the batch. Python applications cross the sandbox's codec boundary once
        for the whole batch; WVM applications execute per call in a fresh
        instance, and their only boundary is a list of integers, so there is
        no per-call codec cost to amortize.

        ``wire_boundary`` asserts that ``calls`` was just produced by the
        canonical wire decoder — already a fresh plain-data copy — so the
        sandbox may skip its redundant inbound boundary copy.
        """
        if self._current_package is None:
            raise FrameworkError(f"{self.domain_id}: no application installed")
        if self._current_package.language == "wvm":
            outcomes = []
            for call in calls:
                try:
                    outcomes.append(self.invoke_application(call["entry"], call.get("params")))
                except Exception as exc:
                    outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            return outcomes
        sandbox_calls = [
            {"method": call["entry"], "params": call.get("params")} for call in calls
        ]
        outcomes = []
        # Batched outcomes skip the per-call ``fuel_used`` field: Python apps
        # never burn fuel, and at batch scale every wrapper key costs wire
        # bytes and codec time per operation.
        for result in self._python_sandbox.invoke_many(sandbox_calls,
                                                       wire_boundary=wire_boundary):
            if result["ok"]:
                outcomes.append({"value": result["value"]})
            else:
                outcomes.append({"error": result["error"]})
        return outcomes

    # ------------------------------------------------------------------
    # Audit surface
    # ------------------------------------------------------------------
    def state(self) -> FrameworkState:
        """A snapshot of the currently running code and log position."""
        return FrameworkState(
            domain_id=self.domain_id,
            app_digest=self.current_digest(),
            app_version=self._current_package.version if self._current_package else "",
            sequence=self._sequence,
            log_head=self._log.head(),
            log_length=len(self._log),
        )

    def current_digest(self) -> bytes:
        """Digest of the application code currently running (empty before install)."""
        if self._current_package is None:
            return b""
        return self._current_package.digest()

    @property
    def current_package(self) -> CodePackage | None:
        """The application package currently running (``None`` before install)."""
        return self._current_package

    def application_state(self):
        """The sandboxed application's live state (``None`` for WVM apps).

        This models *host-level* visibility into the domain and exists for the
        simulation's probes — adversary memory extraction and the scenario
        engine's privacy invariants. Remote clients can never call it; it is
        deliberately not exposed through :meth:`dispatch`.
        """
        if self._python_sandbox is None:
            return None
        return self._python_sandbox.state

    def log_export(self) -> list[dict]:
        """The full digest history, for clients and auditors."""
        return self._log.export()

    def log_head(self) -> bytes:
        """The current head of the per-TEE digest log."""
        return self._log.head()

    def announcements(self) -> list[UpdateAnnouncement]:
        """Every update announcement made so far."""
        return list(self._announcements)

    def audit_user_data(self) -> bytes:
        """The binding included in attestation user data.

        Committing to both the current application digest and the log head
        means a single attestation pins the domain to its entire code history.
        """
        return canonical_digest({
            "domain_id": self.domain_id,
            "app_digest": self.current_digest(),
            "log_head": self._log.head(),
            "sequence": self._sequence,
        })

    # ------------------------------------------------------------------
    # RPC adapters (plain-data in, plain-data out)
    # ------------------------------------------------------------------
    def _rpc_install_update(self, params: dict) -> dict:
        manifest = UpdateManifest.from_dict(params["manifest"])
        package = CodePackage.from_dict(params["package"])
        return self.install_update(manifest, package)

    def _rpc_invoke(self, params: dict) -> dict:
        return self.invoke_application(params["entry"], params.get("params"))

    def _rpc_invoke_many(self, params: dict) -> list:
        calls = params.get("calls")
        if calls is None:
            # Homogeneous batch: the entry name is sent once for the whole
            # batch instead of once per call (the common shape under load).
            entry = params["entry"]
            fields = params.get("fields")
            if fields is None:
                calls = [{"entry": entry, "params": call_params}
                         for call_params in params["params_list"]]
            else:
                calls = [{"entry": entry, "params": call_params}
                         for call_params in _rows_to_dicts(fields, params["params_list"])]
        return self.invoke_application_many(
            calls, wire_boundary=bool(params.get("wire"))
        )

    def _rpc_get_state(self, _params: dict) -> dict:
        state = self.state()
        return {
            "domain_id": state.domain_id,
            "app_digest": state.app_digest,
            "app_version": state.app_version,
            "sequence": state.sequence,
            "log_head": state.log_head,
            "log_length": state.log_length,
        }

    def _rpc_get_log(self, _params: dict) -> list:
        return self.log_export()

    def _rpc_get_announcements(self, _params: dict) -> list:
        return [announcement.to_dict() for announcement in self._announcements]


def _rows_to_dicts(fields, rows) -> list:
    """Rebuild the params dicts of a columnar ``invoke_many`` chunk.

    ``fields`` must be strictly increasing distinct strings (the sorted key
    set the client sent once) and every row a list of exactly that many
    values; anything else fails the whole chunk, as a non-encodable result
    does. Each dict is built from freshly decoded values, so the wire
    boundary's fresh-copy argument holds for it as for the dict form.
    """
    if (type(fields) is not list
            or not all(type(name) is str for name in fields)
            or not all(a < b for a, b in zip(fields, fields[1:]))):
        raise FrameworkError("invoke_many fields must be strictly increasing strings")
    if type(rows) is not list:
        raise FrameworkError("invoke_many params_list must be a list of rows")
    width = len(fields)
    params_list = []
    for row in rows:
        if type(row) is not list or len(row) != width:
            raise FrameworkError(
                f"invoke_many row does not match its {width} fields")
        params_list.append(dict(zip(fields, row)))
    return params_list
