"""Oblivious DNS over a proxy/resolver split (the private-DNS deployments of §2).

The paper surveys oblivious DNS over HTTPS: queries pass through a *proxy*
(which learns who is asking but not what) to a *resolver* (which learns what is
asked but not by whom), run by disjoint organizations. Here both roles are
trust domains bootstrapped by the framework, so a single developer can stand
the pair up and users can audit that the proxy really runs the published
forward-only code.

The client encrypts its query to the resolver's public key (ECDH over
secp256k1 + HKDF-derived keystream + HMAC, i.e. a from-scratch ECIES-style
construction), so the proxy forwards only opaque ciphertext.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common import constant_time_equal
from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto import rng
from repro.crypto.hashes import hkdf, hmac_sha256
from repro.crypto.keys import SigningKey, VerifyingKey
from repro.crypto.secp256k1 import SECP256K1
from repro.errors import ApplicationError, ReproError, ReshardError
from repro.net.eventloop import drive, one_op
from repro.net.transport import Network
from repro.service import (
    PackageBinding,
    ServiceClient,
    ServiceSpec,
    ShardMigrator,
)
from repro.wire.codec import decode, encode

__all__ = ["ObliviousDnsDeployment", "ObliviousDnsClient", "PROXY_APP_SOURCE", "RESOLVER_APP_SOURCE"]

PROXY_APP_SOURCE = '''
def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"forwarded": 0, "seen_queries": []}

def handle(method, params, state):
    if method == "forward":
        # The proxy sees only opaque ciphertext; it records how much it
        # forwarded (billing) but cannot record query names.
        state["forwarded"] = state["forwarded"] + 1
        state["seen_queries"].append(len(params["ciphertext"]))
        return {"relayed": True, "ciphertext": params["ciphertext"],
                "ephemeral_key": params["ephemeral_key"], "tag": params["tag"]}
    if method == "stats":
        return {"forwarded": state["forwarded"]}
    if method == "view":
        # The full recording (ciphertext lengths only) for auditors that
        # cannot read enclave state directly, e.g. across process boundaries.
        return {"seen_queries": list(state["seen_queries"])}
    raise ValueError("unknown method: " + method)
'''

RESOLVER_APP_SOURCE = '''
def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"records": config.get("records", {}), "resolved": 0}

def handle(method, params, state):
    if method == "load_records":
        for name, address in params["records"].items():
            state["records"][name] = address
        return {"loaded": len(params["records"])}
    if method == "resolve_plaintext":
        # Called by the resolver-side framework after decryption.
        state["resolved"] = state["resolved"] + 1
        address = state["records"].get(params["name"])
        return {"found": address is not None, "address": address}
    if method == "list_names":
        return {"names": sorted(state["records"].keys())}
    if method == "export_records":
        return {"records": {name: state["records"][name]
                            for name in params["names"]
                            if name in state["records"]}}
    if method == "remove_records":
        removed = 0
        for name in params["names"]:
            if name in state["records"]:
                del state["records"][name]
                removed = removed + 1
        return {"removed": removed}
    if method == "stats":
        return {"resolved": state["resolved"]}
    raise ValueError("unknown method: " + method)
'''

APP_VERSION = "1.0.0"
PROXY_DOMAIN = 0
RESOLVER_DOMAIN = 1


@dataclass(frozen=True)
class DnsResponse:
    """The decrypted answer the client ends up with."""

    name: str
    found: bool
    address: str | None


class _OdohShardMigrator(ShardMigrator):
    """Moves resolver record partitions between shards during a reshard.

    Migration talks straight to the resolver domains (operator-to-resolver
    traffic), so the proxies never see a name — the privacy split survives
    the epoch transition. A name's one record is its address.
    """

    def shard_keys(self, plane, shard_index: int) -> list:
        # One resolver holds a shard's whole partition, so enumeration has no
        # other domain to fall back to (unlike keybackup's); retry transient
        # loss, then abort the reshard rather than guess the name set.
        last_error = None
        for _ in range(3):
            try:
                result = plane.invoke_on_shard(shard_index, RESOLVER_DOMAIN,
                                               "list_names", {})
            except ReproError as exc:
                last_error = exc
                continue
            return result["value"]["names"]
        raise ReshardError(
            f"shard {shard_index}'s resolver did not answer the record "
            f"enumeration ({last_error}); aborting instead of guessing"
        ) from last_error

    def export(self, plane, shard_index: int, keys: list):
        # A name's one record is its address; a name the resolver does not
        # hold is left out.
        [result] = yield from plane.begin_scatter_to_shards([
            (shard_index, RESOLVER_DOMAIN, "export_records",
             {"names": list(keys)})]).wait_event()
        if isinstance(result, Exception):
            return {}, {name: f"export from source failed: {result}"
                        for name in keys}
        return {name: [address]
                for name, address in result["value"]["records"].items()}, {}

    def load(self, plane, shard_index: int, records: dict):
        # The load is one call: if its reply is lost, every name may be half
        # loaded, so every name is reported failed (and rolled back).
        [result] = yield from plane.begin_scatter_to_shards([
            (shard_index, RESOLVER_DOMAIN, "load_records",
             {"records": {name: addresses[0]
                          for name, addresses in records.items()}})
        ]).wait_event()
        if isinstance(result, Exception):
            return {name: f"load into target failed: {result}"
                    for name in records}
        return {}

    def remove(self, plane, shard_index: int, keys: list):
        # Three rounds, each atomic: a stale copy would answer for a name
        # the resolver no longer owns.
        names = list(keys)
        for _ in range(3):
            if not names:
                break
            [result] = yield from plane.begin_scatter_to_shards([
                (shard_index, RESOLVER_DOMAIN, "remove_records",
                 {"names": names})]).wait_event()
            if not isinstance(result, Exception):
                names = []
        return sorted(names)


class ObliviousDnsDeployment:
    """Operator side: one proxy domain and one resolver domain.

    The resolver's decryption key pair is generated at deployment time; its
    public half is what clients encrypt queries to. (In a full ODoH deployment
    the key would live inside the resolver enclave; the simulation keeps it in
    the deployment object and performs decryption on the resolver's behalf —
    the privacy split between proxy and resolver is unaffected.)
    """

    def __init__(self, records: dict[str, str] | None = None,
                 developer: DeveloperIdentity | None = None, shards: int = 1,
                 regions: tuple[str, ...] = ()):
        self.developer = developer or DeveloperIdentity("odoh-developer")
        proxy_package = CodePackage("odoh-proxy", APP_VERSION, "python", PROXY_APP_SOURCE)
        resolver_package = CodePackage("odoh-resolver", APP_VERSION, "python",
                                       RESOLVER_APP_SOURCE)
        # The proxy and resolver are distinct applications, each bound to its
        # own domain of every shard. With shards > 1 the record space is
        # partitioned by query name; clients route by name *before*
        # encrypting, so the operator never needs plaintext to pick a shard.
        self.spec = ServiceSpec(
            name="oblivious-dns",
            packages=(
                PackageBinding(proxy_package, domains=(PROXY_DOMAIN,)),
                PackageBinding(resolver_package, domains=(RESOLVER_DOMAIN,)),
            ),
            domains_per_shard=2,
            shard_count=shards,
            include_developer_domain=False,
            regions=tuple(regions),
        )
        self.plane = self.spec.synthesize(self.developer)
        self.plane.migrator = _OdohShardMigrator()
        self.deployment = self.plane.primary

        # One resolver key pair serves every shard (the operator provisions
        # the same decryption key to each resolver enclave), so a client's
        # encryption path is shard-agnostic.
        self._resolver_key = SigningKey.generate()
        # One ECDH per query, not per direction: the decrypt and encrypt side
        # of a round trip reuse the derived key, and a batched query's key is
        # looked up instead of recomputed. Bounded so traffic cannot leak
        # memory through the cache.
        self._shared_key_cache: OrderedDict[bytes, bytes] = OrderedDict()
        self._shared_key_cache_size = 4096
        if records:
            self.load_records(records)

    # ------------------------------------------------------------------
    # Operator actions
    # ------------------------------------------------------------------
    @property
    def resolver_public_key(self) -> VerifyingKey:
        """The key clients encrypt queries to."""
        return self._resolver_key.verifying_key()

    def reshard(self, new_shard_count: int):
        """Grow the name keyspace to ``new_shard_count`` shards, live.

        Record partitions whose names move are re-homed resolver-to-resolver
        (the proxies never see them); clients route by hashing the name
        against the committed ring, so post-epoch queries land on the new
        owners automatically.
        """
        return self.plane.reshard(new_shard_count)

    def load_records(self, records: dict[str, str]) -> int:
        """Load name→address records into the owning shards' resolvers."""
        per_shard: dict[int, dict[str, str]] = {}
        for name, address in records.items():
            per_shard.setdefault(self.plane.shard_for(name), {})[name] = address
        loaded = 0
        for shard_index, shard_records in per_shard.items():
            response = self.plane.invoke_on_shard(
                shard_index, RESOLVER_DOMAIN, "load_records",
                {"records": shard_records})["value"]
            loaded += response["loaded"]
        return loaded

    # ------------------------------------------------------------------
    # Resolver-side crypto of the request path
    # ------------------------------------------------------------------
    def _shared_key(self, ephemeral_public: bytes) -> bytes:
        key = self._shared_key_cache.get(ephemeral_public)
        if key is not None:
            # Refresh recency: without this the OrderedDict evicts in FIFO
            # order and a hot ephemeral key ages out under sustained traffic
            # no matter how often it is used.
            self._shared_key_cache.move_to_end(ephemeral_public)
            return key
        point = SECP256K1.decode_point(ephemeral_public)
        shared_point = SECP256K1.multiply(point, self._resolver_key.scalar)
        key = hkdf(SECP256K1.encode_point(shared_point), info=b"repro/odoh/key", length=32)
        self._shared_key_cache[ephemeral_public] = key
        while len(self._shared_key_cache) > self._shared_key_cache_size:
            self._shared_key_cache.popitem(last=False)
        return key

    def _decrypt_query(self, envelope: dict) -> str:
        key = self._shared_key(bytes(envelope["ephemeral_key"]))
        ciphertext = bytes(envelope["ciphertext"])
        expected_tag = hmac_sha256(key, ciphertext)
        if not constant_time_equal(expected_tag, bytes(envelope["tag"])):
            raise ApplicationError("query failed authentication at the resolver")
        stream = hkdf(key, info=b"repro/odoh/query-stream", length=len(ciphertext))
        plaintext = bytes(c ^ s for c, s in zip(ciphertext, stream))
        return decode(plaintext)["name"]

    def _encrypt_response(self, envelope: dict, answer: dict) -> dict:
        key = self._shared_key(bytes(envelope["ephemeral_key"]))
        plaintext = encode(answer)
        stream = hkdf(key, info=b"repro/odoh/response-stream", length=len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        return {"ciphertext": ciphertext, "tag": hmac_sha256(key, ciphertext)}

    # ------------------------------------------------------------------
    # What each party observed (for the privacy tests)
    # ------------------------------------------------------------------
    def proxy_observations(self) -> dict:
        """What the proxies saw (counts only — they never see names)."""
        forwarded = sum(
            self.plane.invoke_on_shard(shard_index, PROXY_DOMAIN, "stats", {})
            ["value"]["forwarded"]
            for shard_index in range(self.plane.num_shards)
        )
        return {"forwarded": forwarded}

    def proxy_view(self) -> list:
        """Everything the proxy applications recorded about forwarded queries.

        Returns the concatenation of every shard proxy's ``seen_queries``
        list — ciphertext *lengths* only. The scenario engine's privacy
        invariant checks that no query name ever appears here, no matter what
        the network does to the traffic.
        """
        view: list = []
        # On a simulated network the proxies run in this process, so their
        # state is read host-side (a compromised proxy answers no RPC). Under
        # the parallel executor it lives in a worker process, so it is read
        # over the executor.
        host_side = isinstance(self.plane.transport, Network)
        for shard_index, shard in enumerate(self.plane.shards):
            if not host_side:
                response = self.plane.invoke_on_shard(
                    shard_index, PROXY_DOMAIN, "view", {})
                view.extend(response["value"]["seen_queries"])
                continue
            state = shard.domains[PROXY_DOMAIN].framework.application_state()
            if state is not None:
                view.extend(state.get("seen_queries", []))
        return view

    def resolver_observations(self) -> dict:
        """What the resolvers saw (query counts; they never see client identity)."""
        resolved = sum(
            self.plane.invoke_on_shard(shard_index, RESOLVER_DOMAIN, "stats", {})
            ["value"]["resolved"]
            for shard_index in range(self.plane.num_shards)
        )
        return {"resolved": resolved}


class ObliviousDnsClient:
    """The stub resolver on the user's machine."""

    def __init__(self, service: ObliviousDnsDeployment, audit_before_use: bool = True):
        self.service = service
        # The stub resolver audits once per session. Proxy and resolver are
        # bound to different packages, so the audit checks each against its
        # own published application.
        self.session = ServiceClient(
            service.plane,
            audit_policy="once" if audit_before_use else "never",
        )
        self.auditing_client = self.session.auditing_client
        self.audit_before_use = audit_before_use
        # The resolver's public key is multiplied once per query; a fixed-base
        # window table makes that about 60 mixed additions and no doublings
        # per resolution.
        self._resolver_table = SECP256K1.precompute(service.resolver_public_key.point)

    def audit(self):
        """Audit every shard's proxy and resolver domains; raises
        :class:`~repro.errors.MisbehaviorDetected` on any misbehavior.

        A single-shard service returns its one report, a sharded one the
        list of per-shard reports.
        """
        return self.session.audit_compat()

    def _encrypt_query(self, name: str) -> tuple[dict, bytes]:
        """Build one encrypted query envelope; returns it with the shared key."""
        ephemeral = SigningKey.generate()
        shared_point = self._resolver_table.multiply(ephemeral.scalar)
        key = hkdf(SECP256K1.encode_point(shared_point), info=b"repro/odoh/key", length=32)
        plaintext = encode({"name": name, "padding": rng.token_bytes(16)})
        stream = hkdf(key, info=b"repro/odoh/query-stream", length=len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        envelope = {
            "ciphertext": ciphertext,
            "ephemeral_key": ephemeral.verifying_key().to_bytes(),
            "tag": hmac_sha256(key, ciphertext),
        }
        return envelope, key

    def _decrypt_response(self, name: str, key: bytes, encrypted_response: dict) -> DnsResponse:
        """Authenticate and decrypt one response envelope."""
        ciphertext = bytes(encrypted_response["ciphertext"])
        expected_tag = hmac_sha256(key, ciphertext)
        if not constant_time_equal(expected_tag, bytes(encrypted_response["tag"])):
            raise ApplicationError("response failed authentication at the client")
        response_stream = hkdf(key, info=b"repro/odoh/response-stream",
                               length=len(ciphertext))
        answer = decode(bytes(c ^ s for c, s in zip(ciphertext, response_stream)))
        return DnsResponse(name=name, found=answer["found"], address=answer["address"])

    def resolve(self, name: str) -> DnsResponse:
        """Resolve ``name`` without the proxy learning it.

        :meth:`resolve_flow` over this one name; raises the query's failure
        (a name caught mid-migration raises only after the bounded retries).
        """
        self.session.checkpoint()
        return drive(one_op(self.resolve_flow([name])), self.service.plane.clock)

    def resolve_many(self, names: list[str]) -> list:
        """Resolve many names in one batched sweep; runs :meth:`resolve_flow`.

        Returns one outcome per name, in order: a :class:`DnsResponse` or an
        exception instance.
        """
        self.session.checkpoint()
        return drive(self.resolve_flow(names), self.service.plane.clock)

    def resolve_flow(self, names: list[str], timeout: float = 0.25):
        """Resolve every name obliviously; a task generator.

        Proxy hop then resolver hop, each one keyed wave for the whole
        batch: each shard's proxy forwards its slice in one request, and so
        does its resolver, preserving the role split (proxies see only
        ciphertext, resolvers only names). Both waves route by hashing the
        *name* locally, so the key never rides the wire, and routing is
        re-resolved per wave: a reshard that commits between the hops still
        finds the records on the post-epoch shard, and a name caught
        mid-migration waits for the commit on its own. Returns one outcome per name, in
        order: a :class:`DnsResponse`, or an exception instance for a query
        that failed at either hop (failures are isolated per query).
        """
        service = self.service
        encrypted = [self._encrypt_query(name) for name in names]
        outcomes: list = [None] * len(names)
        forwarded = yield from self.session.scatter_wave([
            (name, PROXY_DOMAIN, "forward", envelope)
            for name, (envelope, _) in zip(names, encrypted)
        ], timeout)
        resolvable: list[tuple[int, dict, str]] = []
        for position, result in enumerate(forwarded):
            if isinstance(result, Exception):
                outcomes[position] = result
                continue
            try:
                relayed = result["value"]
                resolvable.append((position, relayed, service._decrypt_query(relayed)))
            except (ReproError, KeyError, TypeError) as exc:
                # A malformed envelope (bad point, missing field, wrong type —
                # e.g. from a compromised proxy) fails only its own query.
                outcomes[position] = ApplicationError(
                    f"proxy returned an undecryptable envelope for "
                    f"{names[position]!r}: {exc}")
        answers = yield from self.session.scatter_wave([
            (names[position], RESOLVER_DOMAIN, "resolve_plaintext", {"name": name})
            for position, _, name in resolvable
        ], timeout)
        for (position, relayed, _), answer in zip(resolvable, answers):
            if isinstance(answer, Exception):
                outcomes[position] = answer
                continue
            try:
                outcomes[position] = self._decrypt_response(
                    names[position], encrypted[position][1],
                    service._encrypt_response(relayed, answer["value"]))
            except (ReproError, KeyError, TypeError) as exc:
                outcomes[position] = (exc if isinstance(exc, ReproError) else
                                      ApplicationError(f"malformed response: {exc!r}"))
        return outcomes
