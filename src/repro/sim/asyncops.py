"""The key-backup op, defined once.

Each application writes its batched operation once, as a task generator over
a list of ops in its client (for example
:meth:`~repro.apps.keybackup.KeyBackupClient.backup_flow`), and the scenario
drivers (:mod:`repro.sim.scenarios.apps`) call their client's flow directly.

Key backup's op is two client flows, store then recover-and-compare, with a
hook between them that the key-backup driver uses for its
record-conservation bookkeeping, so it is written here, once:
:func:`keybackup_op`. The driver's batched span runs it over the span's items
with :func:`~repro.net.eventloop.drive`, and a concurrent op runs it over a
list of one as an :class:`~repro.net.eventloop.EventLoop` task. The
benchmark's layer tracer also wraps this function by name, to charge each
step of an open-loop op to the client layer.
"""

from __future__ import annotations

from repro.errors import ApplicationError

__all__ = ["keybackup_op"]


def keybackup_op(client, items, timeout: float = 0.25, on_stored=None):
    """Back up every ``(user_id, secret)`` item, then recover and compare it.

    A task generator over the client's ``backup_flow`` and ``recover_flow``.
    ``on_stored`` receives the items whose shares every domain stored, once
    the store wave is done, and only those are recovered. Returns one outcome
    per item, in order: ``True``, the failed step's exception, or an
    :class:`ApplicationError` when the recovered key differs.
    """
    outcomes = yield from client.backup_flow(items, timeout)
    stored = [position for position, outcome in enumerate(outcomes)
              if not isinstance(outcome, Exception)]
    if on_stored is not None:
        on_stored([items[position] for position in stored])
    recovered = yield from client.recover_flow(
        [items[position][0] for position in stored], timeout=timeout)
    for position, value in zip(stored, recovered):
        user_id, secret = items[position]
        if isinstance(value, Exception):
            outcomes[position] = value
        elif value != secret:
            outcomes[position] = ApplicationError(
                f"recovered key for {user_id!r} does not match the original")
        else:
            outcomes[position] = True
    return outcomes
