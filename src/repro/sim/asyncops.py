"""The key-backup op as one event-loop task.

Each application writes its batched operation once, as a task generator over
a list of ops in its client (for example
:meth:`~repro.apps.keybackup.KeyBackupClient.backup_flow`). The batched span
runs that generator synchronously through :func:`~repro.net.eventloop.drive`;
a concurrent op runs the same generator on a list of one as an
:class:`~repro.net.eventloop.EventLoop` task. Most scenario drivers
(:mod:`repro.sim.scenarios.apps`) call their client's flow directly.

:func:`keybackup_op` remains as its own function because it composes two
client flows, store then recover-and-compare, with a hook between them
that the key-backup driver uses for its record-conservation bookkeeping.
The benchmark's layer tracer also wraps this function by name, to charge
each step of an open-loop op to the client layer.
"""

from __future__ import annotations

from repro.errors import ApplicationError
from repro.net.eventloop import one_op

__all__ = ["keybackup_op"]


def keybackup_op(client, user_id: str, secret: int, timeout: float = 0.25,
                 on_stored=None):
    """Back up ``secret`` for ``user_id``, then recover and compare it.

    A task generator over the client's list-of-one flows. ``on_stored``
    fires once every domain stored its share. Raises the failed step's
    exception, or :class:`ApplicationError` when the recovered key differs.
    """
    yield from one_op(client.backup_flow([(user_id, secret)], timeout))
    if on_stored is not None:
        on_stored()
    recovered = yield from one_op(client.recover_flow([user_id], timeout=timeout))
    if recovered != secret:
        raise ApplicationError(f"recovered key for {user_id!r} does not match")
    return True
