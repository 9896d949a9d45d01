"""Secret-key backup across trust domains (the paper's Figure 1 application).

A user splits a secret key (for end-to-end encrypted messaging, a
cryptocurrency wallet, ...) into Shamir shares and stores one share in each
trust domain. Even an attacker who steals the application developer's
credentials cannot reassemble the key, because the shares held by
enclave-backed domains live in isolated memory the developer cannot read.

The sandboxed application code (``KEY_BACKUP_APP_SOURCE``) is deliberately
simple — store a share, return it on request, delete on request — because the
interesting guarantees come from the framework around it, not from the app.

The deployment is declared as a :class:`~repro.service.ServiceSpec` and can
be horizontally sharded (``shards=N``): users are placed on shards by
consistent hashing of their user id, each shard being a full trust-domain
deployment holding that user's ``num_domains`` shares. The client is a thin
adapter over :class:`~repro.service.ServiceClient` — the session facade owns
audit-before-use and keyed scatter; this module owns the Shamir crypto, the
per-user bookkeeping, and the recovery flow's walk across domains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.errors import (
    ApplicationError,
    MisbehaviorDetected,
    ReproError,
    ReshardError,
)
from repro.net.eventloop import drive, one_op
from repro.service import (
    PackageBinding,
    ServiceClient,
    ServiceSpec,
    ShardMigrator,
)

__all__ = ["KEY_BACKUP_APP_SOURCE", "KeyBackupDeployment", "KeyBackupClient"]

KEY_BACKUP_APP_SOURCE = '''
def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"shares": {}}

def handle(method, params, state):
    if method == "store_share":
        user = params["user"]
        if user in state["shares"] and not params.get("overwrite", False):
            raise ValueError("share already stored for this user")
        state["shares"][user] = {"index": params["index"], "value": params["value"]}
        return {"stored": True}
    if method == "fetch_share":
        share = state["shares"].get(params["user"])
        if share is None:
            return {"found": False}
        return {"found": True, "index": share["index"], "value": share["value"]}
    if method == "delete_share":
        existed = params["user"] in state["shares"]
        if existed:
            del state["shares"][params["user"]]
        return {"deleted": existed}
    if method == "count_users":
        return {"users": len(state["shares"])}
    if method == "list_users":
        return {"users": sorted(state["shares"].keys())}
    raise ValueError("unknown method: " + method)
'''

APP_NAME = "key-backup"
APP_VERSION = "1.0.0"


class _KeyBackupShardMigrator(ShardMigrator):
    """Moves users' Shamir-share records between shards during a reshard.

    A user's records are their shares, one per domain that holds one; the
    base class's copy-then-delete protocol moves them. A user whose copy
    fails stays authoritative on the source (partial target writes are
    rolled back), so a crashed domain or a partition mid-handoff pins the
    user to their old shard instead of losing records.

    The hooks send one call per user per domain, and each call holds the
    domain's service queue, so a wave carries at most 16 users: live ops
    queue behind one bounded wave, never behind a whole group's export.
    """

    keys_per_wave = 16

    def __init__(self, service: "KeyBackupDeployment"):
        self.service = service

    def shard_keys(self, plane, shard_index: int) -> list:
        # Every domain of the shard holds one share per user, so any
        # reachable domain can enumerate the shard's users; the union
        # tolerates torn backups that reached only some domains. All domains
        # are asked in one wave.
        users: set[str] = set()
        reachable = 0
        for result in plane.scatter_to_shards([
                (shard_index, domain_index, "list_users", {})
                for domain_index in range(self.service.num_domains)]):
            if isinstance(result, Exception):
                continue
            reachable += 1
            users.update(result["value"]["users"])
        if reachable == 0:
            raise ReshardError(
                f"no domain of shard {shard_index} answered the user "
                "enumeration; aborting instead of guessing the key set"
            )
        return sorted(users)

    def export(self, plane, shard_index: int, keys: list):
        # Every user's shares from the shard, in one wave; a user is
        # exported only if every domain answered.
        num_domains = self.service.num_domains
        fetches = yield from plane.begin_scatter_to_shards([
            (shard_index, domain_index, "fetch_share", {"user": user})
            for user in keys for domain_index in range(num_domains)
        ]).wait_event()
        shares: dict[str, list[tuple[int, dict]]] = {}
        failed: dict[str, str] = {}
        for position, user in enumerate(keys):
            row = fetches[position * num_domains:(position + 1) * num_domains]
            errors = [result for result in row if isinstance(result, Exception)]
            if errors:
                failed[user] = f"fetch from source failed: {errors[0]}"
                continue
            shares[user] = [(domain_index, result["value"])
                            for domain_index, result in enumerate(row)
                            if result["value"]["found"]]
        return shares, failed

    def load(self, plane, shard_index: int, records: dict):
        # Overwrite, so a re-migration is idempotent.
        store_calls = []
        store_index: list[tuple[str, int]] = []
        for user in sorted(records):
            for domain_index, share in records[user]:
                store_calls.append((shard_index, domain_index, "store_share", {
                    "user": user, "index": share["index"],
                    "value": share["value"], "overwrite": True,
                }))
                store_index.append((user, domain_index))
        results = yield from plane.begin_scatter_to_shards(
            store_calls).wait_event()
        failed: dict[str, str] = {}
        for (user, domain_index), result in zip(store_index, results):
            if isinstance(result, Exception):
                failed.setdefault(
                    user, f"store on target domain {domain_index} failed: {result}")
        return failed

    def remove(self, plane, shard_index: int, keys: list):
        # Three rounds: a stale source copy would double-count the user on a
        # presence scan. A user whose deletes are defeated anyway is
        # reported back (the coordinator queues a moved one as stale).
        pending = [(user, domain_index) for user in keys
                   for domain_index in range(self.service.num_domains)]
        for _ in range(3):
            if not pending:
                break
            results = yield from plane.begin_scatter_to_shards([
                (shard_index, domain_index, "delete_share", {"user": user})
                for user, domain_index in pending
            ]).wait_event()
            pending = [pair for pair, result in zip(pending, results)
                       if isinstance(result, Exception)]
        return sorted({user for user, _ in pending})


class KeyBackupDeployment:
    """The developer-side of the key-backup service."""

    def __init__(self, developer: DeveloperIdentity | None = None, num_domains: int = 3,
                 threshold: int | None = None, shards: int = 1,
                 regions: tuple[str, ...] = ()):
        if num_domains < 2:
            raise ApplicationError("key backup needs at least two trust domains")
        self.developer = developer or DeveloperIdentity("key-backup-developer")
        self.threshold = threshold if threshold is not None else num_domains
        if not 2 <= self.threshold <= num_domains:
            raise ApplicationError("reconstruction threshold must be between 2 and num_domains")
        package = CodePackage(APP_NAME, APP_VERSION, "python", KEY_BACKUP_APP_SOURCE)
        self.spec = ServiceSpec(
            name=APP_NAME,
            packages=(PackageBinding(package),),
            domains_per_shard=num_domains,
            shard_count=shards,
            threshold=self.threshold,
            regions=tuple(regions),
        )
        self.plane = self.spec.synthesize(self.developer)
        self.plane.migrator = _KeyBackupShardMigrator(self)
        # Legacy surface: shard 0's deployment, exactly what pre-service-plane
        # code (tests, scenario drivers, examples) held as `.deployment`.
        self.deployment = self.plane.primary

    @property
    def num_domains(self) -> int:
        """Number of trust domains holding shares (per shard)."""
        return self.plane.domains_per_shard

    @property
    def num_shards(self) -> int:
        """Number of shards carrying the user keyspace."""
        return self.plane.num_shards

    def reshard(self, new_shard_count: int):
        """Grow the user keyspace to ``new_shard_count`` shards, live.

        Users whose ring position moves have their share records migrated
        domain-by-domain (copy, verify, then delete) before the epoch flips;
        see :mod:`repro.service.reshard` for the fault semantics.
        """
        return self.plane.reshard(new_shard_count)


@dataclass(frozen=True)
class BackupReceipt:
    """What the client keeps after backing up a key."""

    user_id: str
    threshold: int
    num_domains: int


class KeyBackupClient:
    """The end-user side: audit, split, store, recover."""

    def __init__(self, service: KeyBackupDeployment, audit_before_use: bool = True):
        self.service = service
        # Key backup re-audits before *every* operation that touches secrets.
        self.session = ServiceClient(
            service.plane,
            audit_policy="always" if audit_before_use else "never",
        )
        self.auditing_client = self.session.auditing_client
        self.audit_before_use = audit_before_use
        self.sharing = ShamirSecretSharing(service.threshold, service.num_domains)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self):
        """Audit the deployment; raises :class:`MisbehaviorDetected` on failure.

        Every shard is audited; a single-shard service returns its one report
        (the legacy shape), a sharded one returns the list of reports.
        """
        return self.session.audit_compat()

    # ------------------------------------------------------------------
    # Backup / recovery
    # ------------------------------------------------------------------
    def backup_key(self, user_id: str, secret_key: int | bytes) -> BackupReceipt:
        """Split ``secret_key`` and store one share in every trust domain.

        :meth:`backup_flow` over this one item; raises the failed call's
        exception or an :class:`ApplicationError` for a refused share.
        """
        self.session.checkpoint(user_id)
        return drive(one_op(self.backup_flow([(user_id, secret_key)])),
                     self.service.plane.clock)

    def recover_key(self, user_id: str, domain_indices: list[int] | None = None) -> int:
        """Recover the key from the first ``threshold`` domains that answer.

        :meth:`recover_flow` over this one user: ``domain_indices`` (every
        domain of the user's shard by default) are the candidates, in
        order, so recovery survives crashed, partitioned, or compromised
        domains as long as a threshold of the candidates remains.

        Raises:
            ApplicationError: fewer than ``threshold`` candidates produced a
                share.
        """
        self.session.checkpoint(user_id)
        return drive(one_op(self.recover_flow([user_id], domain_indices)),
                     self.service.plane.clock)

    # ------------------------------------------------------------------
    # Batch backup / recovery (the high-throughput pipeline)
    # ------------------------------------------------------------------
    def backup_keys(self, items: list[tuple[str, int | bytes]]) -> list:
        """Back up many ``(user_id, secret_key)`` pairs in one batched sweep.

        Runs :meth:`backup_flow` to completion; returns one outcome per item,
        in order: a :class:`BackupReceipt` or an exception instance.
        """
        self.session.checkpoint()
        return drive(self.backup_flow(items), self.service.plane.clock)

    def recover_keys(self, user_ids: list[str]) -> list:
        """Recover many users' keys in one scattered sweep per domain wave.

        Runs :meth:`recover_flow` to completion; returns one outcome per user,
        in order: the recovered integer key or an exception instance.
        """
        self.session.checkpoint()
        return drive(self.recover_flow(user_ids), self.service.plane.clock)

    def backup_flow(self, items: list[tuple[str, int | bytes]], timeout: float = 0.25):
        """Store every item's shares in one keyed wave; a task generator.

        Each secret is split as :meth:`backup_key` splits it, and the whole
        batch scatters at once: every ``(shard, domain)`` pair receives its
        slice as one batched request, so shards and domains serve
        concurrently in simulated time. Returns one outcome per item, in
        order: a :class:`BackupReceipt`, the failed call's exception, or an
        :class:`ApplicationError` for a domain that refused the share
        (failures are isolated per user).
        """
        num_domains = self.service.num_domains
        share_lists = self.sharing.split_many([secret for _, secret in items])
        results = yield from self.session.scatter_wave([
            (user_id, domain_index, "store_share", {
                "user": user_id,
                "index": shares[domain_index].index,
                "value": shares[domain_index].value,
            })
            for (user_id, _), shares in zip(items, share_lists)
            for domain_index in range(num_domains)
        ], timeout)
        outcomes = []
        for position, (user_id, _) in enumerate(items):
            outcome = BackupReceipt(user_id=user_id, threshold=self.service.threshold,
                                    num_domains=num_domains)
            for domain_index in range(num_domains):
                result = results[position * num_domains + domain_index]
                if isinstance(result, Exception):
                    outcome = result
                    break
                if not result["value"]["stored"]:
                    outcome = ApplicationError(
                        f"domain {domain_index} refused to store a share for "
                        f"{user_id!r}")
                    break
            outcomes.append(outcome)
        return outcomes

    def recover_flow(self, user_ids: list[str], domain_indices: list[int] | None = None,
                     timeout: float = 0.25):
        """Recover every user's key from ``threshold`` domains; a task generator.

        ``domain_indices`` are the candidate domains in order (all domains
        by default). The optimistic wave asks the first ``threshold``
        candidates for every user at once; only users still short of a
        threshold walk the remaining candidates, one further domain per
        wave. Returns one outcome per user, in order: the recovered integer
        key, or an exception instance (:class:`ApplicationError` when fewer
        than ``threshold`` domains produced a share).
        """
        threshold = self.service.threshold
        candidates = list(range(self.service.num_domains)
                          if domain_indices is None else domain_indices)
        shares_per_user: list[list[Share]] = [[] for _ in user_ids]
        remaining = list(range(len(user_ids)))
        wave = candidates[:threshold]
        next_candidate = threshold
        while remaining and wave:
            results = yield from self.session.scatter_wave([
                (user_ids[position], domain_index, "fetch_share",
                 {"user": user_ids[position]})
                for position in remaining for domain_index in wave
            ], timeout)
            for offset, position in enumerate(remaining):
                for result in results[offset * len(wave):(offset + 1) * len(wave)]:
                    if not isinstance(result, Exception) and result["value"]["found"]:
                        shares_per_user[position].append(
                            Share(result["value"]["index"], result["value"]["value"]))
            remaining = [position for position in remaining
                         if len(shares_per_user[position]) < threshold]
            wave = candidates[next_candidate:next_candidate + 1]
            next_candidate += 1
        outcomes = []
        for user_id, shares in zip(user_ids, shares_per_user):
            if len(shares) < threshold:
                outcomes.append(ApplicationError(
                    f"only {len(shares)} of the required {threshold} "
                    f"domains produced a share for {user_id!r}"))
                continue
            try:
                outcomes.append(self.sharing.reconstruct(shares[:threshold]))
            except ReproError as exc:
                outcomes.append(exc)
        return outcomes

    def recover_key_bytes(self, user_id: str, length: int = 32) -> bytes:
        """Recover the key and return it as fixed-length bytes."""
        return self.recover_key(user_id).to_bytes(length, "big")

    def delete_backup(self, user_id: str) -> int:
        """Delete the user's shares everywhere; returns how many domains had one.

        One keyed wave to every domain; raises the first failed call's
        exception.
        """
        results = drive(self.session.scatter_wave([
            (user_id, domain_index, "delete_share", {"user": user_id})
            for domain_index in range(self.service.num_domains)
        ]), self.service.plane.clock)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return sum(1 for result in results if result["value"]["deleted"])
