"""Log monitors.

A monitor is the third-party-auditor role the paper describes: it follows a
public log over time, verifies that every new tree head is consistent with the
previous one, inspects new entries, and raises alerts. Application developers
can also run monitors over their *own* deployments to detect compromise of
their publishing keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.transparency.ct_log import CtLog, SignedTreeHead

__all__ = ["MonitorAlert", "LogMonitor"]


@dataclass(frozen=True)
class MonitorAlert:
    """One alert raised by a monitor."""

    kind: str
    detail: str
    tree_size: int


class LogMonitor:
    """Follows a CT-style log, checking consistency and inspecting new entries.

    Args:
        log: the log to follow (in a real deployment this would be an RPC
            client; the object only needs ``signed_tree_head``,
            ``consistency_proof``, ``entries`` and ``public_key``).
        entry_inspector: optional callable applied to every new entry; it may
            return an alert string to flag the entry (e.g. "release not
            announced by the developer").
    """

    def __init__(self, log: CtLog, entry_inspector: Callable[[bytes], str | None] | None = None):
        self.log = log
        self.entry_inspector = entry_inspector
        self.last_head: SignedTreeHead | None = None
        self.alerts: list[MonitorAlert] = []
        self.entries_seen = 0

    def poll(self) -> list[MonitorAlert]:
        """Fetch the current tree head, verify it, and inspect new entries.

        Returns the alerts raised by this poll (also appended to
        :attr:`alerts`).
        """
        new_alerts: list[MonitorAlert] = []
        head = self.log.signed_tree_head()
        if not head.verify(self.log.public_key):
            new_alerts.append(MonitorAlert("bad-signature", "tree head signature invalid",
                                           head.tree_size))
            self.alerts.extend(new_alerts)
            return new_alerts

        if self.last_head is not None:
            if head.tree_size < self.last_head.tree_size:
                new_alerts.append(MonitorAlert(
                    "truncation", "log shrank between polls", head.tree_size
                ))
            else:
                proof = self.log.consistency_proof(self.last_head.tree_size, head.tree_size)
                if not proof.verify(self.last_head.root_hash, head.root_hash):
                    new_alerts.append(MonitorAlert(
                        "inconsistency", "consistency proof failed between polls", head.tree_size
                    ))

        if not new_alerts:
            new_entries = self.log.entries()[self.entries_seen:head.tree_size]
            for offset, entry in enumerate(new_entries):
                if self.entry_inspector is not None:
                    verdict = self.entry_inspector(entry)
                    if verdict:
                        new_alerts.append(MonitorAlert(
                            "suspicious-entry", verdict, self.entries_seen + offset + 1
                        ))
            self.entries_seen = head.tree_size
            self.last_head = head

        self.alerts.extend(new_alerts)
        return new_alerts

    @property
    def healthy(self) -> bool:
        """True when no alert has ever been raised."""
        return not self.alerts
