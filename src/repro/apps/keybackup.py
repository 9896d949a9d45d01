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
audit-before-use, failover, and batch scatter; this module owns the Shamir
crypto and the per-user bookkeeping.
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
from repro.net.eventloop import drive
from repro.service import (
    MigrationOutcome,
    PackageBinding,
    ServiceClient,
    ServiceSpec,
    ShardMigrator,
)
from repro.sim.adversary import DeveloperCompromise

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

    Copy-then-delete per user: all of a user's reachable shares must land on
    the target shard before the source copies are deleted. A user whose copy
    fails stays authoritative on the source (partial target writes are rolled
    back), so a crashed domain or a partition mid-handoff pins the user to
    their old shard instead of losing records.
    """

    def __init__(self, service: "KeyBackupDeployment"):
        self.service = service

    def shard_keys(self, plane, shard_index: int) -> list:
        # Every domain of the shard holds one share per user, so any
        # reachable domain can enumerate the shard's users; the union
        # tolerates torn backups that reached only some domains.
        users: set[str] = set()
        reachable = 0
        for domain_index in range(self.service.num_domains):
            try:
                result = plane.invoke_on_shard(shard_index, domain_index,
                                               "list_users", {})
            except ReproError:
                continue
            reachable += 1
            users.update(result["value"]["users"])
        if reachable == 0:
            raise ReshardError(
                f"no domain of shard {shard_index} answered the user "
                "enumeration; aborting instead of guessing the key set"
            )
        return sorted(users)

    def migrate(self, plane, source: int, target: int, keys: list) -> MigrationOutcome:
        num_domains = self.service.num_domains
        outcome = MigrationOutcome()
        # 1. Fetch every user's shares from the source shard in one scatter.
        fetches = plane.scatter_to_shards([
            (source, domain_index, "fetch_share", {"user": user})
            for user in keys for domain_index in range(num_domains)
        ])
        shares: dict[str, list[tuple[int, dict]]] = {}
        for position, user in enumerate(keys):
            row = fetches[position * num_domains:(position + 1) * num_domains]
            errors = [result for result in row if isinstance(result, Exception)]
            if errors:
                outcome.failed[user] = f"fetch from source failed: {errors[0]}"
                continue
            shares[user] = [(domain_index, result["value"])
                            for domain_index, result in enumerate(row)
                            if result["value"]["found"]]
        # 2. Store on the target (overwrite: re-migration is idempotent).
        store_calls = []
        store_index: list[tuple[str, int]] = []
        for user in sorted(shares):
            for domain_index, share in shares[user]:
                store_calls.append((target, domain_index, "store_share", {
                    "user": user, "index": share["index"],
                    "value": share["value"], "overwrite": True,
                }))
                store_index.append((user, domain_index))
        failed_stores: dict[str, str] = {}
        for (user, domain_index), result in zip(
                store_index, plane.scatter_to_shards(store_calls)):
            if isinstance(result, Exception):
                failed_stores.setdefault(
                    user, f"store on target domain {domain_index} failed: {result}")
        # Roll back partial target copies so a failed user never shows up on
        # two shards; the source stays authoritative for them.
        self._delete(plane, target, sorted(failed_stores), num_domains)
        outcome.failed.update(failed_stores)
        moved = [user for user in sorted(shares) if user not in failed_stores]
        # 3. Delete the source copies of fully moved users (retried — a stale
        # source copy would double-count the user on a presence scan). A user
        # whose deletes are defeated anyway stays *moved* — the target holds
        # the verified full set, while the source may be left sub-threshold,
        # so pinning them back would strand recovery — and is queued stale
        # for finish_reshard() to clean up.
        outcome.stale = self._delete(plane, source, moved, num_domains)
        outcome.moved = moved
        outcome.records_moved = sum(len(shares[user]) for user in moved)
        return outcome

    def cleanup(self, plane, shard_index: int, keys: list) -> list:
        """Retry removing moved users' leftover source shares."""
        leftover = self._delete(plane, shard_index, list(keys),
                                self.service.num_domains)
        return [user for user in keys if user not in leftover]

    @staticmethod
    def _delete(plane, shard_index: int, users: list, num_domains: int,
                attempts: int = 3) -> list:
        """Delete every user's shares on one shard; returns users with
        deletes still outstanding after ``attempts`` rounds."""
        pending = [(user, domain_index)
                   for user in users for domain_index in range(num_domains)]
        for _ in range(attempts):
            if not pending:
                break
            results = plane.scatter_to_shards([
                (shard_index, domain_index, "delete_share", {"user": user})
                for user, domain_index in pending
            ])
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

    def simulate_developer_compromise(self) -> dict:
        """Run the Figure 1 attack: how many shares can a compromised developer read?

        Returns a summary with the number of breached domains and whether the
        attacker could reconstruct any user's key. (The attack targets shard
        0; every shard is an identical deployment, so the result generalizes.)
        """
        adversary = DeveloperCompromise(self.deployment)
        outcome = adversary.attempt_memory_extraction(keys=["shares"])
        return {
            "breached_domains": outcome.domains_breached,
            "resisted_domains": outcome.domains_resisted,
            "shares_recoverable": outcome.breached_count,
            "key_recoverable": outcome.breached_count >= self.threshold,
        }


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
        """Split ``secret_key`` and store one share in every trust domain."""
        self.session.checkpoint(user_id)
        shares = self.sharing.split(secret_key)
        for domain_index, share in enumerate(shares):
            result = self.session.invoke(user_id, domain_index, "store_share", {
                "user": user_id,
                "index": share.index,
                "value": share.value,
            })
            if not result["value"]["stored"]:
                raise ApplicationError(f"domain {domain_index} refused to store a share")
        return BackupReceipt(user_id=user_id, threshold=self.service.threshold,
                             num_domains=self.service.num_domains)

    def recover_key(self, user_id: str, domain_indices: list[int] | None = None) -> int:
        """Recover the key from any ``threshold`` trust domains."""
        self.session.checkpoint(user_id)
        if domain_indices is None:
            domain_indices = list(range(self.service.threshold))
        if len(domain_indices) < self.service.threshold:
            raise ApplicationError(
                f"need shares from at least {self.service.threshold} domains"
            )
        shares = []
        for domain_index in domain_indices:
            response = self.session.invoke(user_id, domain_index, "fetch_share",
                                           {"user": user_id})["value"]
            if not response["found"]:
                raise ApplicationError(f"domain {domain_index} has no share for {user_id!r}")
            shares.append(Share(response["index"], response["value"]))
        return self.sharing.reconstruct(shares)

    def recover_key_any(self, user_id: str) -> int:
        """Recover the key from whichever ``threshold`` domains are reachable.

        Tries every trust domain (on the user's shard) in order and
        reconstructs from the first ``threshold`` that answer with a share, so
        recovery survives crashed, partitioned, or compromised domains as long
        as a threshold remains.

        Raises:
            ApplicationError: fewer than ``threshold`` domains produced a share.
        """
        self.session.checkpoint(user_id)
        answers = self.session.invoke_failover(
            user_id, range(self.service.num_domains), "fetch_share",
            {"user": user_id},
            need=self.service.threshold,
            accept=lambda result: result["value"]["found"],
        )
        if len(answers) < self.service.threshold:
            raise ApplicationError(
                f"only {len(answers)} of the required {self.service.threshold} domains "
                f"produced a share for {user_id!r}"
            )
        return self.sharing.reconstruct([
            Share(result["value"]["index"], result["value"]["value"])
            for _, result in answers
        ])

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

    def recover_flow(self, user_ids: list[str], timeout: float = 0.25):
        """Recover every user's key from ``threshold`` domains; a task generator.

        The optimistic wave asks the first ``threshold`` domains for every
        user at once; only users still short of a threshold walk the
        remaining domains, one further domain per wave. Returns one outcome
        per user, in order: the recovered integer key, or an exception
        instance (:class:`ApplicationError` when fewer than ``threshold``
        domains produced a share).
        """
        threshold = self.service.threshold
        num_domains = self.service.num_domains
        shares_per_user: list[list[Share]] = [[] for _ in user_ids]
        remaining = list(range(len(user_ids)))
        wave = list(range(threshold))
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
            wave = [wave[-1] + 1] if wave[-1] + 1 < num_domains else []
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
        """Delete the user's shares everywhere; returns how many domains had one."""
        deleted = 0
        for domain_index in range(self.service.num_domains):
            response = self.session.invoke(user_id, domain_index, "delete_share",
                                           {"user": user_id})["value"]
            deleted += 1 if response["deleted"] else 0
        return deleted
