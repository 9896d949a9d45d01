"""A restricted-namespace Python sandbox for high-level application packages.

The WVM covers low-level, bignum-style application code (like the BLS custody
app the paper benchmarks). The richer example applications — key backup,
Prio-style aggregation, ODoH-style DNS — are written as small Python modules.
This sandbox runs them the way the paper's framework runs Wasm code:

* the application source is executed in a namespace with a minimal builtin
  set: no ``import``, no ``open``, no ``eval``/``exec``, no attribute escape
  hatches like ``__import__``;
* the application exposes ``init(config) -> state`` and
  ``handle(method, params, state) -> result``;
* everything crossing the boundary is round-tripped through the canonical
  codec, so only plain data (no object references) enters or leaves;
* application exceptions surface as :class:`~repro.errors.SandboxError` and
  never take down the framework.

This is a *containment policy enforced on cooperative plain-data code*, not a
hardened Python jail (CPython cannot provide one); docs/architecture.md
("Simulated substitutions") notes the limitation. What matters for the reproduction is that the framework treats
application code as untrusted input behind a narrow, data-only interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SandboxError, SandboxEscapeError
from repro.wire.codec import decode, encode

__all__ = ["SandboxPolicy", "PythonSandbox"]

_SAFE_BUILTINS = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "bytes": bytes,
    "bytearray": bytearray,
    "dict": dict,
    "divmod": divmod,
    "enumerate": enumerate,
    "filter": filter,
    "frozenset": frozenset,
    "int": int,
    "isinstance": isinstance,
    "len": len,
    "list": list,
    "map": map,
    "max": max,
    "min": min,
    "pow": pow,
    "range": range,
    "repr": repr,
    "reversed": reversed,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
    "zip": zip,
    # Exceptions the application may legitimately raise or catch.
    "Exception": Exception,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "TypeError": TypeError,
    "ArithmeticError": ArithmeticError,
    "ZeroDivisionError": ZeroDivisionError,
}

_FORBIDDEN_TOKENS = ("__import__", "__builtins__", "__subclasses__", "__globals__",
                     "__getattribute__", "eval(", "exec(", "compile(", "globals(",
                     "locals(", "open(", "breakpoint(")


@dataclass(frozen=True)
class SandboxPolicy:
    """Limits applied to a Python application package."""

    max_source_bytes: int = 256 * 1024
    max_result_bytes: int = 4 * 1024 * 1024
    forbid_dunder_access: bool = True


class PythonSandbox:
    """Loads and runs one Python application package in a restricted namespace."""

    name = "python-sandbox"

    def __init__(self, source: str, config: dict | None = None,
                 policy: SandboxPolicy | None = None):
        self.policy = policy or SandboxPolicy()
        self._validate_source(source)
        self.source = source
        self._namespace = {"__builtins__": dict(_SAFE_BUILTINS)}
        try:
            exec(compile(source, "<sandboxed-app>", "exec"), self._namespace)  # noqa: S102
        except Exception as exc:
            raise SandboxError(f"application failed to load: {exc}") from exc
        if "handle" not in self._namespace or not callable(self._namespace["handle"]):
            raise SandboxError("application must define a callable handle(method, params, state)")
        self.state = self._call_init(config or {})
        self.invocations = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _validate_source(self, source: str) -> None:
        if len(source.encode("utf-8")) > self.policy.max_source_bytes:
            raise SandboxError("application source exceeds the size limit")
        if self.policy.forbid_dunder_access:
            for token in _FORBIDDEN_TOKENS:
                if token in source:
                    raise SandboxEscapeError(
                        f"application source uses forbidden construct {token!r}"
                    )
        if "import " in source or source.lstrip().startswith("import"):
            raise SandboxEscapeError("application source may not import modules")

    def _call_init(self, config: dict):
        init = self._namespace.get("init")
        if init is None:
            return {}
        try:
            return init(self._copy_in(config))
        except Exception as exc:
            raise SandboxError(f"application init failed: {exc}") from exc

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def invoke(self, method: str, params):
        """Run ``handle(method, params, state)`` inside the sandbox.

        The parameters and result are round-tripped through the canonical
        codec, so only plain data crosses the boundary in either direction.
        """
        handler = self._namespace["handle"]
        try:
            result = handler(method, self._copy_in(params), self.state)
        except SandboxEscapeError:
            raise
        except Exception as exc:
            raise SandboxError(f"application error in {method!r}: {exc}") from exc
        self.invocations += 1
        return self._copy_out(result)

    def invoke_many(self, calls: list, wire_boundary: bool = False) -> list:
        """Run many ``handle`` calls with one boundary copy each way.

        ``calls`` is a list of ``{"method": str, "params": ...}`` dicts. The
        whole batch is copied across the sandbox boundary in a single codec
        round trip (instead of one per call), which is what makes the batched
        request pipeline cheap: per call, only the handler itself runs.

        ``wire_boundary=True`` is for callers on the wire fast path: the
        inbound copy is skipped because decoder output is already a fresh
        plain-data graph, and the outbound copy is skipped because the caller
        immediately serializes the outcomes into the response envelope — that
        encode validates plain data, and only the envelope bytes leave the
        domain, so there is nothing left to alias.

        Application errors are isolated per call: each outcome is either
        ``{"ok": True, "value": result}`` or ``{"ok": False, "error": text}``,
        so one failing request cannot poison the rest of the batch.
        """
        handler = self._namespace["handle"]
        copied_calls = calls if wire_boundary else self._copy_in(calls)
        outcomes = []
        raw_results = []
        for call in copied_calls:
            try:
                result = handler(call["method"], call.get("params"), self.state)
            except SandboxEscapeError:
                raise
            except Exception as exc:
                outcomes.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
                raw_results.append(None)
                continue
            self.invocations += 1
            outcomes.append({"ok": True})
            raw_results.append(result)
        if wire_boundary:
            for outcome, result in zip(outcomes, raw_results):
                if outcome["ok"]:
                    outcome["value"] = result
            return outcomes
        try:
            copied_results = self._copy_out(raw_results)
        except SandboxError:
            # One oversized or non-plain result must not fail the whole batch;
            # redo the boundary copy per call to isolate the offender.
            copied_results = []
            for outcome, result in zip(outcomes, raw_results):
                if not outcome["ok"]:
                    copied_results.append(None)
                    continue
                try:
                    copied_results.append(self._copy_out(result))
                except SandboxError as exc:
                    outcome["ok"] = False
                    outcome["error"] = str(exc)
                    copied_results.append(None)
        for outcome, result in zip(outcomes, copied_results):
            if outcome["ok"]:
                outcome["value"] = result
        return outcomes

    # ------------------------------------------------------------------
    # Boundary copies
    # ------------------------------------------------------------------
    @staticmethod
    def _copy_in(value):
        try:
            return decode(encode(value))
        except Exception as exc:
            raise SandboxError(f"parameters are not plain data: {exc}") from exc

    def _copy_out(self, value):
        try:
            encoded = encode(value)
        except Exception as exc:
            raise SandboxEscapeError(
                f"application returned a non-plain-data result: {exc}"
            ) from exc
        if len(encoded) > self.policy.max_result_bytes:
            raise SandboxError("application result exceeds the size limit")
        return decode(encoded)
