"""Application drivers: the one definition of each app's workload.

A driver builds its application's deployment and a seeded list of inputs,
and runs those operations through the *public client API* (so requests
traverse the full framework → enclave → sandbox path, over the simulated
network once routed). It offers each operation in the two shapes the op
loop (:func:`repro.sim.scenarios.runner.run_ops`) schedules — a span
through the app's batched API (:meth:`~ScenarioDriver.run_span`; a serial
run is spans of one op), or a generator for the event loop
(:meth:`~ScenarioDriver.op_task`; the span's client flow over a list of one
op) — plus the routing key of each op and the
application-specific safety invariants checked at the end of the run. Both
harnesses, :class:`~repro.sim.scenarios.runner.ScenarioRunner` and
:class:`~repro.sim.workload.MultiClientWorkload`, and the parallel workers
build their apps through :func:`make_driver`.
"""

from __future__ import annotations

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment
from repro.apps.prio import (
    FIELD_MODULUS,
    PartialSubmissionError,
    PrivateAggregationClient,
    PrivateAggregationDeployment,
)
from repro.apps.threshold_sign import CustodyClient, CustodyDeployment
from repro.core.client import AuditingClient
from repro.crypto.bls import BlsThresholdScheme
from repro.crypto.shamir import Share
from repro.errors import ApplicationError, ReproError, ThresholdError
from repro.net.eventloop import drive, one_op
from repro.sim.adversary import attacker_reach
from repro.sim.asyncops import keybackup_op
from repro.sim.scenarios.spec import InvariantResult

__all__ = [
    "ScenarioDriver",
    "KeyBackupDriver",
    "ThresholdSignDriver",
    "PrioDriver",
    "OdohDriver",
    "make_driver",
]


class ScenarioDriver:
    """Base class of one application's workload definition.

    Subclasses build ``self.service``, the app's deployment, across
    ``shards`` service-plane shards; the driver's ``plane`` is what a
    harness routes (for the classic ``shards=1`` layout it wraps exactly the
    legacy deployment).
    """

    app_name = "?"

    def __init__(self, seed: int, regions: tuple = ()):
        # Imported here: the load harness module imports this engine.
        from repro.sim.workload import WorkloadGenerator

        self.regions = tuple(regions)
        self.workload = WorkloadGenerator(seed)

    @property
    def deployment(self):
        """The primary shard's deployment."""
        return self.service.deployment

    @property
    def plane(self):
        """The sharded service plane a harness routes."""
        return self.service.plane

    def routing_key(self, op_index: int):
        """The key the service plane routes operation ``op_index`` by."""
        raise NotImplementedError

    def run_span(self, start: int, count: int) -> list:
        """Run ops ``start .. start + count - 1`` through the batched API.

        Records each op's effect for :meth:`finish`; returns one outcome per
        op, in order: ``True`` or the exception instance that failed it.
        """
        raise NotImplementedError

    def op_task(self, ctx, op_index: int, timeout: float = 0.25):
        """The op as a generator for the discrete-event loop.

        The client flow :meth:`run_span` drives, over a list of one op, with
        the same bookkeeping; it yields while its requests are outstanding
        so other ops can interleave, and raises the op's failure.
        """
        raise NotImplementedError

    def finish(self, ctx) -> list[InvariantResult]:
        """Application-specific safety invariants, checked after the workload."""
        raise NotImplementedError

    def audit_outcome(self):
        """Run a full client audit; returns ``(ok, evidence kinds)``.

        Audits every shard the way any end user would — attestation against
        vendor roots, digest-log verification, agreement among domains bound
        to the same package, and the release-registry cross-check — and ANDs
        the verdicts (shards grown by a mid-run reshard included).
        """
        client = AuditingClient(self.deployment.vendor_registry)
        ok = True
        kinds = set()
        for shard in self.plane.shards:
            report = client.audit_deployment(shard)
            ok = ok and report.ok
            kinds.update(evidence.kind for evidence in report.evidence)
        return ok, kinds


class KeyBackupDriver(ScenarioDriver):
    """Back up a fresh user key each op, then recover and compare it."""

    app_name = "keybackup"

    def __init__(self, seed: int, ops: int, shards: int = 1, regions: tuple = ()):
        super().__init__(seed, regions)
        self.service = KeyBackupDeployment(num_domains=4, threshold=3, shards=shards,
                                           regions=self.regions)
        self.client = KeyBackupClient(self.service, audit_before_use=False)
        self._users = self.workload.user_ids(ops)
        self._secrets = self.workload.secrets(ops, bits=248)
        self.backed_up: list[tuple[str, int]] = []

    def routing_key(self, op_index: int):
        return self._users[op_index]

    # Both shapes run keybackup_op. backed_up records at store-completion
    # (not op completion): the record-conservation check must count a user
    # whose shares all landed even if the op's recover leg later failed.
    def run_span(self, start: int, count: int) -> list:
        span = list(zip(self._users[start:start + count],
                        self._secrets[start:start + count]))
        return drive(keybackup_op(_BatchedCalls(self.client), span,
                                  on_stored=self.backed_up.extend))

    def op_task(self, ctx, op_index: int, timeout: float = 0.25):
        return one_op(keybackup_op(
            self.client, [(self._users[op_index], self._secrets[op_index])],
            timeout, on_stored=self.backed_up.extend))

    def finish(self, ctx) -> list[InvariantResult]:
        invariants = [self._secrecy_invariant()]
        if ctx.resharded:
            invariants.append(self._conservation_invariant())
        return invariants

    def _secrecy_invariant(self) -> InvariantResult:
        """Steal every share the attacker reads on its best shard (each
        user's shares live on one shard) and try to rebuild each user's key
        from them alone: below the threshold that must be impossible."""
        threshold = self.service.threshold
        worst = max(attacker_reach(self.plane, ["shares"]),
                    key=lambda reach: reach.breached_count)
        stolen: dict[str, list[Share]] = {}
        for values in worst.extracted_values.values():
            for user, share in (values.get("shares") or {}).items():
                stolen.setdefault(user, []).append(
                    Share(share["index"], share["value"]))
        secrets = dict(self.backed_up)
        recovered = []
        for user, shares in sorted(stolen.items()):
            try:
                value = self.client.sharing.reconstruct(shares)
            except ReproError:
                continue
            if value == secrets.get(user):
                recovered.append(user)
        detail = (f"attacker reads {worst.breached_count} of "
                  f"{self.service.num_domains} shares, threshold is {threshold}")
        if recovered:
            detail += (f"; it rebuilt {len(recovered)} user key(s) from the "
                       f"stolen shares: {recovered[:3]}")
        elif stolen:
            detail += (f"; no key rebuilds from the shares it stole of "
                       f"{len(stolen)} user(s)")
        return InvariantResult(
            "key-stays-secret-below-threshold",
            worst.breached_count < threshold and not recovered, detail)

    def _conservation_invariant(self) -> InvariantResult:
        """Across the epoch boundary: every backed-up key recoverable, no
        user's share set authoritative on two shards."""
        users = [user for user, _ in self.backed_up]
        try:
            recovered = self.client.recover_keys(users)
        except ReproError as exc:
            recovered = [exc] * len(users)
        lost = [user for (user, secret), outcome in zip(self.backed_up, recovered)
                if isinstance(outcome, Exception) or outcome != secret]
        duplicated = []
        for user, _ in self.backed_up:
            holders = [
                shard_index
                for shard_index, shard in enumerate(self.plane.shards)
                if any(user in (domain.framework.application_state() or {})
                       .get("shares", {})
                       for domain in shard.domains)
            ]
            if len(holders) > 1:
                duplicated.append((user, holders))
        ok = not lost and not duplicated
        detail = (f"{len(self.backed_up)} keys recoverable after the epoch "
                  "flip; each user's shares live on exactly one shard")
        if lost:
            detail = f"records lost across the epoch boundary: {lost[:3]}"
        elif duplicated:
            detail = f"records duplicated across shards: {duplicated[:3]}"
        return InvariantResult("reshard-conserves-records", ok, detail)


class _BatchedCalls:
    """A key-backup client's batch API as the two steps of :func:`keybackup_op`.

    A span stores through ``backup_keys`` and recovers through
    ``recover_keys``, the calls a user's batch makes (and the ones the
    benchmark's layer tracer charges to the client layer). Each call runs
    its flow to completion, so the step itself never waits.
    """

    def __init__(self, client: KeyBackupClient):
        self.client = client

    def backup_flow(self, items, timeout):
        return self.client.backup_keys(items)
        yield  # a task generator with nothing left to wait for

    def recover_flow(self, user_ids, timeout):
        return self.client.recover_keys(user_ids)
        yield


class ThresholdSignDriver(ScenarioDriver):
    """Sign one transaction per op with failover across signers."""

    app_name = "threshold_sign"

    def __init__(self, seed: int, ops: int, shards: int = 1, regions: tuple = ()):
        super().__init__(seed, regions)
        self.service = CustodyDeployment(threshold=2, num_signers=3,
                                         keygen_seed=seed.to_bytes(8, "big"),
                                         shards=shards, regions=self.regions)
        self.client = CustodyClient(self.service, audit_before_use=False)
        self._messages = self.workload.messages(ops)

    def routing_key(self, op_index: int):
        return self._messages[op_index]

    def run_span(self, start: int, count: int) -> list:
        # The flow verifies each combined signature under the group key.
        return self.client.sign_transactions(self._messages[start:start + count])

    def op_task(self, ctx, op_index: int, timeout: float = 0.25):
        return one_op(self.client.sign_flow([self._messages[op_index]],
                                            timeout=timeout))

    def finish(self, ctx) -> list[InvariantResult]:
        # Steal every key share the fallen TEEs expose and try to sign with
        # them alone: below the threshold the forgery must be impossible.
        # Shares are replicated across shards, so stealing signer i's share on
        # two shards yields one unique share, not two.
        stolen_by_index: dict[int, Share] = {}
        reaches = attacker_reach(self.plane, ["bls_key_share"])
        for shard, reach in zip(self.plane.shards, reaches):
            for signer_index, domain in enumerate(shard.domains[1:], start=1):
                if domain.domain_id in reach.domains_breached:
                    stolen_by_index[signer_index] = Share(
                        signer_index,
                        reach.extracted_values[domain.domain_id]["bls_key_share"])
        stolen = [stolen_by_index[index] for index in sorted(stolen_by_index)]
        scheme = BlsThresholdScheme(self.service.threshold, self.service.num_signers)
        if len(stolen) >= self.service.threshold:
            ok = False
            detail = f"{len(stolen)} shares stolen — at or above threshold {self.service.threshold}"
        else:
            message = b"forged transfer of all funds"
            partials = [scheme.sign_share(share, message) for share in stolen]
            try:
                scheme.combine(partials)
            except ThresholdError:
                ok = True
            else:
                ok = False
            detail = (f"attacker holds {len(stolen)} of the {self.service.threshold} "
                      "shares needed; forgery attempt rejected" if ok else
                      "forgery with sub-threshold shares unexpectedly combined")
        invariants = [InvariantResult("stolen-shares-cannot-sign-below-threshold",
                                      ok, detail)]
        if ctx.resharded:
            invariants.append(self._reshard_signing_invariant(ctx))
        return invariants

    def _reshard_signing_invariant(self, ctx) -> InvariantResult:
        """A grown shard's replicated signer group signs under the same key."""
        old_count = min(r.old_shard_count for r in ctx.reshard_reports)
        probe = None
        for attempt in range(256):
            candidate = f"reshard-probe-{attempt}".encode()
            if self.plane.shard_for(candidate) >= old_count:
                probe = candidate
                break
        if probe is None:
            return InvariantResult(
                "reshard-preserves-signing", False,
                "no probe message routed to a grown shard (ring broken?)")
        try:
            transaction = self.client.sign_transaction(probe)
        except ReproError as exc:
            return InvariantResult(
                "reshard-preserves-signing", False,
                f"signing on a grown shard failed: {type(exc).__name__}")
        ok = self.client.verify(transaction)
        return InvariantResult(
            "reshard-preserves-signing", ok,
            f"shard {self.plane.shard_for(probe)} (grown this epoch) signed "
            "under the original group public key" if ok else
            "a grown shard produced a signature that does not verify")


class PrioDriver(ScenarioDriver):
    """Submit one telemetry value per op; verify the aggregate at the end."""

    app_name = "prio"

    def __init__(self, seed: int, ops: int, shards: int = 1, regions: tuple = (),
                 tag_prefix: str = "scenario"):
        super().__init__(seed, regions)
        self.service = PrivateAggregationDeployment(num_servers=3, max_value=100,
                                                    shards=shards,
                                                    regions=self.regions)
        # A fixed session tag keeps submission→shard routing (and therefore
        # the whole report) deterministic per seed. Each harness keeps its
        # own prefix: seeded expectations are tuned to the placement it gives.
        self.client = PrivateAggregationClient(self.service, audit_before_use=False,
                                               session_tag=f"{tag_prefix}-{seed}")
        self._values = self.workload.telemetry_values(ops, 0, self.service.max_value)
        self.accepted_values: list[int] = []
        self.torn_values: list[int] = []
        self.failed_values: list[int] = []

    def routing_key(self, op_index: int):
        # One submission per op, counter starting at zero: the op's index is
        # its submission index.
        return self.client.submission_key(op_index)

    def _record(self, value: int, outcome) -> None:
        """Book one submission's outcome: ``True`` or the exception."""
        if outcome is True:
            self.accepted_values.append(value)
        elif isinstance(outcome, PartialSubmissionError):
            self.torn_values.append(value)
        else:
            # A "clean" failure from the client's view — but a server may
            # still have accepted a share whose response was lost in flight.
            self.failed_values.append(value)

    def run_span(self, start: int, count: int) -> list:
        values = self._values[start:start + count]
        return self._settle(values, self.client.submit_many(values))

    def op_task(self, ctx, op_index: int, timeout: float = 0.25):
        def flow():
            value = self._values[op_index]
            return self._settle([value], (yield from self.client.submit_flow(
                [(op_index, value)], timeout)))

        return one_op(flow())

    def _settle(self, values: list, outcomes: list) -> list:
        """Book every submission's outcome; returns the outcomes."""
        for value, outcome in zip(values, outcomes):
            self._record(value, outcome)
        return outcomes

    def finish(self, ctx) -> list[InvariantResult]:
        invariants = [self._aggregate_invariant()]
        total = self.service.num_servers
        # Every server runs in a TEE, so each readable domain is a fallen one.
        breached = max(reach.breached_count for reach in attacker_reach(self.plane))
        invariants.append(InvariantResult(
            "no-single-server-learns-values", breached < total,
            f"{breached} of {total} aggregation servers readable by the attacker; "
            "individual values stay hidden while any server remains honest",
        ))
        return invariants

    def _aggregate_invariant(self) -> InvariantResult:
        """The aggregate is exact, or aggregation refuses.

        Aggregation needs every server (the sum of all share vectors), so a
        compromised or otherwise refusing server is a *refusal*, never a
        silently wrong sum; torn submissions leave the servers disagreeing,
        which must refuse too. But a submission the client counts as torn or
        failed may have reached every server with only its responses lost,
        so an aggregate passes when the accepted values plus some subset of
        those explain it.
        """
        torn, failed = len(self.torn_values), len(self.failed_values)
        name = ("torn-submissions-detected" if torn
                else "aggregate-matches-accepted-submissions")
        try:
            result = self.service.aggregate()
        except ReproError as exc:
            if isinstance(exc, ApplicationError) and not torn + failed:
                raise
            if torn:
                detail = (f"{torn} torn submissions made the servers disagree "
                          "and aggregation refused to proceed")
            elif failed:
                detail = (f"{failed} failed submissions (or an untrusted server) "
                          "left aggregation refusing to answer "
                          f"({type(exc).__name__})")
            else:
                detail = ("aggregation refused to answer rather than publish a "
                          f"sum from an untrusted fleet ({type(exc).__name__})")
            return InvariantResult(name, True, detail)
        accepted = len(self.accepted_values)
        landed = result["submissions"] - accepted
        ok = self._explains(landed, result["sum"])
        detail = f"{accepted} submissions aggregated exactly"
        if not ok:
            detail = (f"the aggregate of {result['submissions']} submissions "
                      f"matches neither the {accepted} accepted ones nor them "
                      f"plus any of the {torn + failed} torn or failed ones")
        elif landed:
            detail = (f"{accepted} accepted submissions plus {landed} of the "
                      f"{torn + failed} torn or failed ones (responses lost) "
                      "aggregated exactly")
        return InvariantResult(name, ok, detail)

    def _explains(self, landed: int, total: int) -> bool:
        """Whether ``landed`` torn or failed values and the accepted ones can
        sum to ``total``. Values are bounded by ``max_value``, so the
        reachable ``(count, sum)`` pairs stay few; no subset is enumerated."""
        reachable = {(0, 0)}
        for value in self.torn_values + self.failed_values:
            reachable |= {(count + 1, partial + value)
                          for count, partial in reachable}
        accepted = sum(self.accepted_values)
        return any(count == landed
                   and (accepted + partial) % FIELD_MODULUS == total
                   for count, partial in reachable)


class OdohDriver(ScenarioDriver):
    """Resolve one name per op through the proxy/resolver split."""

    app_name = "odoh"

    def __init__(self, seed: int, ops: int, shards: int = 1, regions: tuple = ()):
        super().__init__(seed, regions)
        self._names = self.workload.dns_queries(ops)
        self.records = {
            name: f"10.{i // 250}.{i % 250}.7" for i, name in enumerate(self._names)
        }
        self.service = ObliviousDnsDeployment(records=self.records, shards=shards,
                                              regions=self.regions)
        self.client = ObliviousDnsClient(self.service, audit_before_use=False)
        self.resolved = 0

    def routing_key(self, op_index: int):
        return self._names[op_index]

    def _check(self, name: str, response) -> None:
        if not response.found or response.address != self.records[name]:
            raise ApplicationError(f"wrong answer for {name!r}")
        self.resolved += 1

    def run_span(self, start: int, count: int) -> list:
        span = self._names[start:start + count]
        return self._settle(span, self.client.resolve_many(span))

    def op_task(self, ctx, op_index: int, timeout: float = 0.25):
        def flow():
            names = self._names[op_index:op_index + 1]
            return self._settle(names, (yield from self.client.resolve_flow(
                names, timeout)))

        return one_op(flow())

    def _settle(self, names: list, outcomes: list) -> list:
        """Check every resolved response; a wrong answer fails its op."""
        for position, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                continue
            try:
                self._check(names[position], outcome)
            except ApplicationError as exc:
                outcomes[position] = exc
            else:
                outcomes[position] = True
        return outcomes

    def finish(self, ctx) -> list[InvariantResult]:
        view = self.service.proxy_view()
        leaked = [item for item in view if not isinstance(item, int)]
        names_seen = [item for item in view if item in self.records]
        # The view must actually cover the traffic: an empty recording would
        # make this invariant vacuous, not satisfied. Migration traffic goes
        # operator→resolver, so a reshard must add *zero* names here.
        ok = not leaked and not names_seen and len(view) >= self.resolved
        invariants = [InvariantResult(
            "proxy-never-sees-query-names", ok,
            f"proxy recorded {len(view)} ciphertext lengths and zero names "
            f"across {self.resolved} resolutions",
        )]
        if ctx.resharded:
            invariants.append(self._conservation_invariant())
        return invariants

    def _conservation_invariant(self) -> InvariantResult:
        """Across the epoch boundary: every record resolvable on exactly one
        shard, and resolvable through the full proxy path.

        A record whose owning shard hosts a compromised domain is exempt
        from the resolve probe: the breached TEE refusing service is the
        fail-safe behavior the design demands, not a record the migration
        lost (the record's presence in the resolver's state is still
        checked above).
        """
        holders: dict[str, list[int]] = {name: [] for name in self.records}
        for shard_index, shard in enumerate(self.plane.shards):
            state = (shard.domains[1].framework.application_state() or {})
            for name in state.get("records", {}):
                if name in holders:
                    holders[name].append(shard_index)
        lost = sorted(name for name, found in holders.items() if not found)
        duplicated = sorted(name for name, found in holders.items()
                            if len(found) > 1)
        # Every odoh domain runs in a TEE: a readable domain is a fallen one.
        breached_shards = {
            shard_index
            for shard_index, reach in enumerate(attacker_reach(self.plane))
            if reach.domains_breached
        }
        unresolvable = []
        refused = 0
        if not lost and not duplicated:
            for name in sorted(self.records):
                if holders[name][0] in breached_shards:
                    refused += 1
                    continue
                try:
                    response = self.client.resolve(name)
                except ReproError:
                    unresolvable.append(name)
                    continue
                if not response.found or response.address != self.records[name]:
                    unresolvable.append(name)
        ok = not lost and not duplicated and not unresolvable
        detail = (f"{len(self.records)} records each owned by exactly one "
                  "shard and resolvable after the epoch flip")
        if refused:
            detail += (f" ({refused} on compromised shards, whose TEEs "
                       "fail safe and refuse to serve)")
        if lost:
            detail = f"records lost across the epoch boundary: {lost[:3]}"
        elif duplicated:
            detail = f"records duplicated across shards: {duplicated[:3]}"
        elif unresolvable:
            detail = f"records unresolvable after the reshard: {unresolvable[:3]}"
        return InvariantResult("reshard-conserves-records", ok, detail)


_DRIVERS = {driver.app_name: driver for driver in (
    KeyBackupDriver, ThresholdSignDriver, PrioDriver, OdohDriver)}


def make_driver(app: str, seed: int, ops: int, shards: int = 1,
                regions: tuple = (), tag_prefix: str = "scenario") -> ScenarioDriver:
    """Instantiate the driver for ``app`` with a seeded workload of ``ops``
    operations, deployed across ``shards`` service-plane shards (optionally
    placed round-robin across ``regions``). ``tag_prefix`` names the prio
    client's session tag (``{tag_prefix}-{seed}``); other apps ignore it."""
    try:
        factory = _DRIVERS[app]
    except KeyError:
        raise ValueError(f"no scenario driver for app {app!r}") from None
    options = {"tag_prefix": tag_prefix} if factory is PrioDriver else {}
    return factory(seed, ops, shards=shards, regions=tuple(regions), **options)
