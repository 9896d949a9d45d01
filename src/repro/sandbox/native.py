"""Native (unsandboxed) execution — Table 3's "Baseline" row.

The native executor simply calls registered Python functions. It exists so the
benchmark harness can run *exactly the same application operation* with and
without the sandbox and with and without the simulated TEE.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SandboxError
from repro.sandbox.executor import ExecutionResult, Executor

__all__ = ["NativeExecutor"]


class NativeExecutor(Executor):
    """Runs application entry points as plain Python calls (no containment)."""

    name = "native"

    def __init__(self, entry_points: dict[str, Callable] | None = None):
        self._entry_points: dict[str, Callable] = dict(entry_points or {})

    def register(self, entry: str, fn: Callable) -> None:
        """Register a callable as an entry point."""
        self._entry_points[entry] = fn

    def invoke(self, entry: str, args: list) -> ExecutionResult:
        """Call the entry point directly."""
        fn = self._entry_points.get(entry)
        if fn is None:
            raise SandboxError(f"no native entry point named {entry!r}")
        return ExecutionResult(value=fn(*args), fuel_used=0, environment=self.name)
