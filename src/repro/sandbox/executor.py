"""The common executor interface shared by every execution environment.

Table 3 of the paper compares the *same* application operation under three
execution environments (native, sandbox, TEE + sandbox). Giving all of them a
single interface keeps that comparison honest: the framework and the benchmark
harness call :meth:`Executor.invoke` and only the environment changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["ExecutionResult", "Executor"]


@dataclass(frozen=True)
class ExecutionResult:
    """The outcome of invoking an application entry point.

    Attributes:
        value: the application's return value (plain data only).
        fuel_used: interpreter fuel consumed (0 for native execution).
        environment: label of the environment that produced the result.
    """

    value: Any
    fuel_used: int = 0
    environment: str = "native"


class Executor:
    """Abstract execution environment for application code."""

    #: short label used in benchmark output ("native", "wvm-sandbox", ...)
    name = "abstract"

    def invoke(self, entry: str, args: list) -> ExecutionResult:
        """Invoke the application entry point ``entry`` with ``args``."""
        raise NotImplementedError
