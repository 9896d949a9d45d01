"""Per-application operation flows for the overlapping op schedule.

Each ``*_op`` function returns a generator that performs ONE end-to-end
application operation — the same wire traffic and crypto as the synchronous
client methods — but yields :class:`~repro.net.eventloop.WaitBatch` /
:class:`~repro.net.eventloop.Sleep` commands instead of pumping the network.
Run under :class:`~repro.net.eventloop.EventLoop`, hundreds of these ops are
genuinely in flight at once: their requests interleave on the wire and queue
behind the servers' serial service queues, which is what makes queueing and
tail latency measurable (and what lets a live reshard commit while requests
are actually outstanding).

All flows scatter through :meth:`ShardedService.begin_scatter`, so keyed
routing — including epoch overrides after a reshard — is re-resolved on
every wave. An op whose key is caught mid-migration backs off a few
simulated milliseconds and retries; the epoch router's fail-safe
(:class:`~repro.errors.KeyMigratingError`) stays an availability blip, not
an op failure, under a live reshard.

Each app's scenario driver (:mod:`repro.sim.scenarios.apps`) wraps its flow
in ``op_task`` with the driver's own bookkeeping, and the op loop
(:func:`repro.sim.scenarios.runner.run_ops`) spawns those tasks for both
harnesses. Application modules are imported lazily so ``repro.sim`` keeps
importing without the apps package.
"""

from __future__ import annotations

from repro.errors import ApplicationError, KeyMigratingError, ReproError
from repro.net.eventloop import Sleep

__all__ = ["scatter_wave", "keybackup_op", "prio_op", "sign_op", "odoh_op",
           "MIGRATION_RETRIES", "MIGRATION_RETRY_DELAY"]

# How many times one wave retries calls that hit a mid-migration key, and how
# long (simulated seconds) it sleeps between tries. Bounded: a key pinned by
# a *failed* migration routes fine via its epoch override, so only an actual
# in-progress epoch transition ever costs a retry.
MIGRATION_RETRIES = 4
MIGRATION_RETRY_DELAY = 0.002


def scatter_wave(plane, calls, timeout: float = 0.25):
    """Scatter ``calls`` and wait inside the event loop; returns outcomes.

    A generator: yields through :meth:`PendingScatter.wait_event` and returns
    one outcome per call, in order. Calls that resolve to
    :class:`~repro.errors.KeyMigratingError` are retried (all together, after
    a short simulated back-off) so the caller sees the post-epoch routing;
    every other exception is passed through as an outcome for the caller to
    interpret.
    """
    calls = list(calls)
    outcomes: list = [None] * len(calls)
    slots = list(range(len(calls)))
    live = calls
    for round_index in range(MIGRATION_RETRIES + 1):
        results = yield from plane.begin_scatter(live).wait_event(timeout=timeout)
        retry_slots: list[int] = []
        for slot, result in zip(slots, results):
            if (isinstance(result, KeyMigratingError)
                    and round_index < MIGRATION_RETRIES):
                retry_slots.append(slot)
            else:
                outcomes[slot] = result
        if not retry_slots:
            break
        slots = retry_slots
        live = [calls[slot] for slot in retry_slots]
        yield Sleep(MIGRATION_RETRY_DELAY)
    return outcomes


def _raise_outcome(outcome, context: str):
    """Re-raise an exception outcome as the op's failure."""
    if isinstance(outcome, ReproError):
        raise outcome
    raise ApplicationError(f"{context}: {outcome}")


def keybackup_op(client, user_id: str, secret: int, timeout: float = 0.25,
                 on_stored=None):
    """Back up ``secret`` for ``user_id`` and recover-verify it, eventfully.

    The async form of ``backup_key`` + ``recover_key_any``: one store wave to
    every domain of the user's shard, then an optimistic fetch wave to the
    first ``threshold`` domains with a per-domain failover walk for
    stragglers. ``on_stored`` fires once every domain stored its share —
    scenario drivers hang their record-conservation bookkeeping on it.
    """
    from repro.crypto.shamir import Share

    plane = client.session.plane
    num_domains = client.service.num_domains
    threshold = client.service.threshold
    shares = client.sharing.split(secret)
    results = yield from scatter_wave(plane, [
        (user_id, domain_index, "store_share", {
            "user": user_id,
            "index": shares[domain_index].index,
            "value": shares[domain_index].value,
        })
        for domain_index in range(num_domains)
    ], timeout)
    for domain_index, result in enumerate(results):
        if isinstance(result, Exception):
            _raise_outcome(result, f"domain {domain_index} failed to store a "
                                   f"share for {user_id!r}")
        if not result["value"]["stored"]:
            raise ApplicationError(
                f"domain {domain_index} refused to store a share for {user_id!r}")
    if on_stored is not None:
        on_stored()
    found: list[Share] = []
    wave = list(range(threshold))
    while wave and len(found) < threshold:
        results = yield from scatter_wave(plane, [
            (user_id, domain_index, "fetch_share", {"user": user_id})
            for domain_index in wave
        ], timeout)
        for result in results:
            if not isinstance(result, Exception) and result["value"]["found"]:
                found.append(Share(result["value"]["index"],
                                   result["value"]["value"]))
        next_domain = wave[-1] + 1
        wave = ([next_domain]
                if len(found) < threshold and next_domain < num_domains else [])
    if len(found) < threshold:
        raise ApplicationError(
            f"only {len(found)} of the required {threshold} domains produced "
            f"a share for {user_id!r}")
    if client.sharing.reconstruct(found[:threshold]) != secret:
        raise ApplicationError(f"recovered key for {user_id!r} does not match")
    return True


def prio_op(client, value: int, op_index: int, timeout: float = 0.25):
    """Submit one telemetry value, eventfully (the async form of ``submit``).

    All of the value's additive shares scatter in one wave keyed by the op's
    submission key, so every share lands on the same shard — the
    torn-submission invariant stays per shard. Raises
    ``PartialSubmissionError`` when only some servers accepted the share.
    """
    from repro.apps.prio import PartialSubmissionError

    service = client.service
    if not 0 <= value <= service.max_value:
        raise ApplicationError(
            f"value {value} outside the allowed range [0, {service.max_value}]")
    plane = client.session.plane
    key = client.submission_key(op_index)
    shares = client._additive_shares(value, service.num_servers)
    results = yield from scatter_wave(plane, [
        (key, server_index, "submit_share", {"share": shares[server_index]})
        for server_index in range(service.num_servers)
    ], timeout)
    accepted: list[int] = []
    error: Exception | None = None
    for server_index, result in enumerate(results):
        if isinstance(result, Exception):
            error = error or result
        elif not result["value"]["accepted"]:
            error = error or ApplicationError(
                f"server {server_index} rejected the share")
        else:
            accepted.append(server_index)
    if error is None:
        return True
    if accepted:
        raise PartialSubmissionError(
            f"submission torn: servers {accepted} accepted a share but "
            "another server did not", accepted)
    _raise_outcome(error, "submission failed")


def sign_op(client, message: bytes, timeout: float = 0.25):
    """Threshold-sign ``message``, eventfully, with per-signer failover.

    Asks the first ``threshold`` signers for their shares in one wave;
    signers that fail are replaced from the remaining ones, one further wave
    at a time, until a quorum is in hand. Combines, verifies, and returns
    the ``SignedTransaction``.
    """
    from repro.apps.threshold_sign import (
        BLS_SCALAR_ORDER,
        BlsSignature,
        BlsSignatureShare,
        G1Element,
        SignedTransaction,
    )

    service = client.service
    plane = client.session.plane
    threshold = service.threshold
    candidate_signers = list(range(1, service.num_signers + 1))
    message_int = int.from_bytes(message, "big") if message else 0
    partials = []
    cursor = 0
    while len(partials) < threshold and cursor < len(candidate_signers):
        wave = candidate_signers[cursor:cursor + (threshold - len(partials))]
        cursor += len(wave)
        results = yield from scatter_wave(plane, [
            (message, signer_index, "bls_share",
             [message_int, len(message),
              service.share_for_signer(signer_index).value, BLS_SCALAR_ORDER])
            for signer_index in wave
        ], timeout)
        for signer_index, result in zip(wave, results):
            if isinstance(result, Exception):
                continue  # crashed, partitioned, or compromised signer
            partials.append(BlsSignatureShare(
                signer_index, BlsSignature(G1Element(result["value"]))))
    if len(partials) < threshold:
        raise ApplicationError(
            f"only {len(partials)} of the required {threshold} signers "
            "produced a signature share")
    signature = service.scheme.combine(partials)
    if not service.scheme.verify(service.group_public_key, message, signature):
        raise ApplicationError("combined threshold signature failed verification")
    return SignedTransaction(
        message=message, signature=signature,
        signer_indices=tuple(partial.signer_index for partial in partials))


def odoh_op(client, name: str, timeout: float = 0.25):
    """Resolve ``name`` obliviously, eventfully (the async ``resolve``).

    Proxy hop then resolver hop, each its own wave. Both waves route by
    hashing the *name* locally (the key never rides the wire), and routing is
    re-resolved per wave — so a reshard that commits between the hops still
    finds the records on the post-epoch shard. Returns the ``DnsResponse``.
    """
    from repro.apps.odoh import PROXY_DOMAIN, RESOLVER_DOMAIN

    service = client.service
    plane = service.plane
    envelope, key = client._encrypt_query(name)
    forwarded = yield from scatter_wave(
        plane, [(name, PROXY_DOMAIN, "forward", envelope)], timeout)
    if isinstance(forwarded[0], Exception):
        _raise_outcome(forwarded[0], f"proxy hop failed for {name!r}")
    relayed = forwarded[0]["value"]
    try:
        plain_name = service._decrypt_query(relayed)
    except (ReproError, KeyError, TypeError) as exc:
        raise ApplicationError(
            f"proxy returned an undecryptable envelope for {name!r}: {exc}")
    answers = yield from scatter_wave(
        plane, [(name, RESOLVER_DOMAIN, "resolve_plaintext",
                 {"name": plain_name})], timeout)
    if isinstance(answers[0], Exception):
        _raise_outcome(answers[0], f"resolver hop failed for {name!r}")
    encrypted_response = service._encrypt_response(relayed, answers[0]["value"])
    return client._decrypt_response(name, key, encrypted_response)
