"""Prio-style private aggregation (the private-analytics deployments of §2).

Clients hold small integer telemetry values (e.g. "how many times did feature
X crash today"). Each client splits its value into additive shares — one per
aggregation server — so no server learns any individual's value, yet the sum
of all servers' accumulators equals the sum over all clients. This mirrors the
Prio deployments the paper surveys (Firefox telemetry, the ENPA COVID-19
analytics), with the trust domains bootstrapped by the framework instead of by
bespoke cross-organization coordination.

Clients range-check each value before sharing it, and each server accepts
only shares that are field elements (a lightweight stand-in for Prio's
zero-knowledge SNIPs; docs/architecture.md, "Simulated substitutions", notes
the substitution).
"""

from __future__ import annotations

from repro.crypto import rng
from repro.core.package import CodePackage, DeveloperIdentity
from repro.errors import ApplicationError
from repro.service import (
    AppClient,
    AppService,
    PackageBinding,
    ServiceSpec,
    ShardMigrator,
)

__all__ = [
    "PRIO_APP_SOURCE",
    "PartialSubmissionError",
    "PrivateAggregationDeployment",
    "PrivateAggregationClient",
]


class PartialSubmissionError(ApplicationError):
    """A submission reached some servers but not all of them.

    A torn submission leaves the servers disagreeing on their submission
    counts, which :meth:`PrivateAggregationDeployment.aggregate` detects and
    refuses to sum over. The scenario engine uses :attr:`accepted_servers` to
    distinguish clean failures (no server took the share) from torn ones.
    """

    def __init__(self, message: str, accepted_servers: list[int]):
        super().__init__(message)
        self.accepted_servers = list(accepted_servers)

# All shares live in a prime field large enough that sums never wrap.
FIELD_MODULUS = 2**61 - 1

PRIO_APP_SOURCE = '''
FIELD_MODULUS = 2305843009213693951  # 2**61 - 1

def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"accumulator": 0, "submissions": 0, "max_value": config.get("max_value", 1000)}

def handle(method, params, state):
    if method == "configure":
        state["max_value"] = params["max_value"]
        return {"configured": True}
    if method == "submit_share":
        share = params["share"]
        if not isinstance(share, int) or not 0 <= share < FIELD_MODULUS:
            raise ValueError("share out of field range")
        state["accumulator"] = (state["accumulator"] + share) % FIELD_MODULUS
        state["submissions"] = state["submissions"] + 1
        return {"accepted": True, "submissions": state["submissions"]}
    if method == "read_partial_sum":
        return {"partial_sum": state["accumulator"], "submissions": state["submissions"],
                "sealed": state.get("sealed") is not None}
    if method == "seal_accumulator":
        # First step of a shrink evacuation: snapshot the accumulator so the
        # operator can fold it into a surviving shard. Idempotent — a retry
        # gets the same snapshot (same seal_seq) until clear_sealed. The
        # live accumulator keeps serving; clear_sealed subtracts exactly the
        # sealed portion, so submissions arriving mid-evacuation survive.
        sealed = state.get("sealed")
        if sealed is None:
            seq = state.get("seal_seq", 0) + 1
            state["seal_seq"] = seq
            sealed = {"partial_sum": state["accumulator"],
                      "submissions": state["submissions"],
                      "seal_seq": seq}
            state["sealed"] = sealed
        return sealed
    if method == "absorb":
        # Fold a retiring shard's sealed accumulator share into this one.
        # Deduplicated by token so a torn evacuation retried end to end can
        # never double-count.
        token = params["token"]
        absorbed = state.get("absorbed", [])
        if token not in absorbed:
            absorbed.append(token)
            state["absorbed"] = absorbed
            state["accumulator"] = (state["accumulator"] + params["partial_sum"]) % FIELD_MODULUS
            state["submissions"] = state["submissions"] + params["submissions"]
        return {"absorbed": True, "submissions": state["submissions"]}
    if method == "clear_sealed":
        # Last step: the sealed portion now provably lives on the target, so
        # subtract it here (copy-then-delete, not move-then-hope).
        sealed = state.get("sealed")
        if sealed is not None:
            state["accumulator"] = (state["accumulator"] - sealed["partial_sum"]) % FIELD_MODULUS
            state["submissions"] = state["submissions"] - sealed["submissions"]
            state["sealed"] = None
        return {"cleared": True}
    if method == "reset":
        state["accumulator"] = 0
        state["submissions"] = 0
        state["sealed"] = None
        return {"reset": True}
    raise ValueError("unknown method: " + method)
'''

APP_NAME = "prio-aggregation"
APP_VERSION = "1.0.0"


class _PrioShardMigrator(ShardMigrator):
    """Grow configures fresh shards; shrink folds accumulators sideways.

    Additive aggregation composes across shards — on a *grow* every shard's
    partial sums and submission counters stay exactly where they are and
    :meth:`PrivateAggregationDeployment.aggregate` keeps summing over all of
    them, so the epoch transition only has to configure the new server
    groups. No routing key ever addresses an accumulator, so keyed
    migration (:meth:`shard_keys`) stays empty in both directions.

    A *shrink* is where that unkeyed state matters: a retiring shard's
    accumulator shares must fold into a survivor before the shard detaches,
    or their submissions vanish from the aggregate. :meth:`residue` reports
    the shares still holding state and :meth:`evacuate` moves them with a
    seal → absorb → clear protocol that is idempotent end to end — a torn
    evacuation retried by ``finish_reshard`` can neither lose nor
    double-count a share (absorbs deduplicate by seal token).
    """

    def __init__(self, service: "PrivateAggregationDeployment"):
        self.service = service

    def provision(self, plane, new_shard_indices: list[int]) -> None:
        for shard_index in new_shard_indices:
            for server_index in range(self.service.num_servers):
                plane.invoke_on_shard(shard_index, server_index, "configure",
                                      {"max_value": self.service.max_value})

    def residue(self, plane, shard_index: int) -> int:
        """Accumulator shares on ``shard_index`` still holding state."""
        residue = 0
        for server_index in range(self.service.num_servers):
            share = plane.invoke_on_shard(shard_index, server_index,
                                          "read_partial_sum", {})["value"]
            if share["submissions"] or share.get("sealed"):
                residue += 1
        return residue

    def evacuate(self, plane, source: int, target: int) -> int:
        """Fold ``source``'s accumulator shares into ``target``, share-wise.

        Server ``i`` of the retiring shard folds into server ``i`` of the
        survivor, so no party ever sees more than its own share of any sum
        — the privacy argument is untouched by elasticity.
        """
        moved = 0
        for server_index in range(self.service.num_servers):
            sealed = plane.invoke_on_shard(source, server_index,
                                           "seal_accumulator", {})["value"]
            if sealed["submissions"] or sealed["partial_sum"]:
                token = (f"shard{source}:server{server_index}:"
                         f"seal{sealed['seal_seq']}")
                plane.invoke_on_shard(target, server_index, "absorb",
                                      {"token": token,
                                       "partial_sum": sealed["partial_sum"],
                                       "submissions": sealed["submissions"]})
                moved += 1
            plane.invoke_on_shard(source, server_index, "clear_sealed", {})
        return moved


class PrivateAggregationDeployment(AppService):
    """The analytics operator's side: aggregation servers as trust domains.

    With ``shards > 1`` the service runs several independent aggregation
    server groups; a submission's shares all land on one shard (picked by
    consistent hashing of the submission key), and :meth:`aggregate` combines
    the shard sums — additive aggregation composes across shards for free.
    """

    def __init__(self, num_servers: int = 2, max_value: int = 1000,
                 developer: DeveloperIdentity | None = None, shards: int = 1,
                 regions: tuple[str, ...] = ()):
        if num_servers < 2:
            raise ApplicationError("private aggregation needs at least two servers")
        self.num_servers = num_servers
        self.max_value = max_value
        developer = developer or DeveloperIdentity("analytics-developer")
        # Aggregation servers must all be enclave-backed: the operator should
        # not be able to read any server's accumulator share directly.
        package = CodePackage(APP_NAME, APP_VERSION, "python", PRIO_APP_SOURCE)
        super().__init__(developer, ServiceSpec(
            name=APP_NAME,
            packages=(PackageBinding(package),),
            domains_per_shard=num_servers,
            shard_count=shards,
            include_developer_domain=False,
            regions=tuple(regions),
        ), _PrioShardMigrator(self))
        for shard_index in range(self.plane.num_shards):
            for index in range(num_servers):
                self.plane.invoke_on_shard(shard_index, index, "configure",
                                           {"max_value": max_value})

    # ------------------------------------------------------------------
    # Aggregation (operator side)
    # ------------------------------------------------------------------
    def aggregate(self) -> dict:
        """Combine every server's partial sum into the final aggregate.

        Within a shard the servers must agree on the submission count (a torn
        submission shows up as disagreement and refuses the aggregate);
        across shards the sums and counts simply add.
        """
        total = 0
        total_submissions = 0
        for shard_index in range(self.plane.num_shards):
            partials = []
            submissions = set()
            for index in range(self.num_servers):
                response = self.plane.invoke_on_shard(
                    shard_index, index, "read_partial_sum", {})["value"]
                partials.append(response["partial_sum"])
                submissions.add(response["submissions"])
            if len(submissions) != 1:
                raise ApplicationError(
                    "aggregation servers disagree on the number of submissions"
                )
            total = (total + sum(partials)) % FIELD_MODULUS
            total_submissions += submissions.pop()
        return {"sum": total, "submissions": total_submissions}

    def reset(self) -> None:
        """Clear every server's accumulator (start a new collection epoch)."""
        for shard_index in range(self.plane.num_shards):
            for index in range(self.num_servers):
                self.plane.invoke_on_shard(shard_index, index, "reset", {})


class PrivateAggregationClient(AppClient):
    """One telemetry client: audits the servers, then submits shared values."""

    # Telemetry clients audit once per session, then keep submitting.
    audit_policy = "once"

    def __init__(self, service: PrivateAggregationDeployment, audit_before_use: bool = True,
                 session_tag: str | None = None):
        super().__init__(service, audit_before_use)
        # Submissions carry no natural key; a session-unique tag plus a
        # counter spreads them across shards while keeping every share of
        # one value on one shard (the torn-submission invariant is per
        # shard). The tag must differ between independent clients — a bare
        # counter would start every session at the same key and pile the
        # whole fleet's first submissions onto one shard. Pass an explicit
        # ``session_tag`` for reproducible routing (the load harness does).
        self._session_tag = session_tag or rng.token_hex(8)
        self._submission_counter = 0

    def submission_key(self, index: int) -> str:
        """The routing key of this session's ``index``-th submission.

        Deterministic given the session tag, so harnesses that need to know
        where a submission will land (per-shard attribution, capacity
        planning) derive it here instead of duplicating the format.
        """
        return f"{self._session_tag}/submission-{index}"

    def submit(self, value: int) -> None:
        """Split ``value`` into additive shares and send one to each server.

        :meth:`submit_many` over this one value; raises its failure
        (:class:`PartialSubmissionError` when only some servers took a share).
        """
        [outcome] = self.submit_many([value])
        if isinstance(outcome, Exception):
            raise outcome

    def submit_many(self, values: list[int]) -> list:
        """Submit many telemetry values with one batched request per server.

        Each in-range value takes the session's next submission index (a
        rejected value uses none), and the batch runs through
        :meth:`submit_flow`; returns one outcome per value, in order.
        """
        items = []
        for value in values:
            items.append((self._submission_counter, value))
            if 0 <= value <= self.service.max_value:
                self._submission_counter += 1
        return self._run(self.submit_flow(items))

    def submit_flow(self, items, timeout: float = 0.25):
        """Submit ``(submission index, value)`` pairs in one wave; a task generator.

        Each value is additively shared, one share per server, and every
        share of one value routes by that submission's
        :meth:`submission_key`, so a value lands on one shard and the
        torn-submission invariant stays per shard. The whole batch scatters
        at once. Returns one outcome per item, in order: ``True`` for a fully
        accepted submission, or an exception instance —
        :class:`ApplicationError` for an out-of-range or rejected value,
        :class:`PartialSubmissionError` when only some servers accepted the
        value's share (a torn submission the aggregate check will catch),
        otherwise the failed call's exception.
        """
        num_servers = self.service.num_servers
        outcomes: list = [None] * len(items)
        shares: dict[int, list[int]] = {}  # position -> that value's shares
        for position, (_, value) in enumerate(items):
            if 0 <= value <= self.service.max_value:
                shares[position] = self._additive_shares(value, num_servers)
            else:
                outcomes[position] = ApplicationError(
                    f"value {value} outside the allowed range "
                    f"[0, {self.service.max_value}]")
        positions = list(shares)
        sent = [(server_index, position)
                for server_index in range(num_servers) for position in positions]
        results = yield from self.session.scatter_wave([
            (self.submission_key(items[position][0]), server_index, "submit_share",
             {"share": shares[position][server_index]})
            for server_index, position in sent
        ], timeout)
        accepted: dict[int, list[int]] = {position: [] for position in positions}
        errors: dict[int, Exception] = {}
        for (server_index, position), result in zip(sent, results):
            if isinstance(result, Exception):
                errors.setdefault(position, result)
            elif not result["value"]["accepted"]:
                errors.setdefault(position, ApplicationError(
                    f"server {server_index} rejected the share"))
            else:
                accepted[position].append(server_index)
        for position in positions:
            if position not in errors:
                outcomes[position] = True
            elif accepted[position]:
                outcomes[position] = PartialSubmissionError(
                    f"submission torn: servers {accepted[position]} accepted a "
                    "share but another server did not", accepted[position])
            else:
                outcomes[position] = errors[position]
        return outcomes

    @staticmethod
    def _additive_shares(value: int, count: int) -> list[int]:
        shares = [rng.randbelow(FIELD_MODULUS) for _ in range(count - 1)]
        last = (value - sum(shares)) % FIELD_MODULUS
        shares.append(last)
        return shares
