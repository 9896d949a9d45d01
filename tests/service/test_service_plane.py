"""Tests for the unified service plane: spec synthesis, routing, scatter,
the session facade, and the capacity-model mechanics it depends on."""

import pytest

from repro.apps.keybackup import KEY_BACKUP_APP_SOURCE
from repro.core.package import CodePackage, DeveloperIdentity
from repro.errors import ApplicationError, MisbehaviorDetected, ServiceSpecError
from repro.net.latency import lan_profile
from repro.net.rpc import RpcClient, RpcServer, ServiceTimeModel
from repro.net.transport import Network
from repro.service import (
    HashRing,
    PackageBinding,
    ServiceClient,
    ServiceSpec,
)

COUNTER_APP = '''
def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"count": 0, "items": {}}

def handle(method, params, state):
    if method == "put":
        state["items"][params["key"]] = params["value"]
        state["count"] = state["count"] + 1
        return {"stored": True}
    if method == "get":
        return {"value": state["items"].get(params["key"]), "count": state["count"]}
    if method == "boom":
        raise ValueError("boom")
    raise ValueError("unknown method: " + method)
'''


def make_plane(shards=2, domains=2, name="svc", **spec_kwargs):
    package = CodePackage(name, "1.0.0", "python", COUNTER_APP)
    spec = ServiceSpec(name=name, packages=(PackageBinding(package),),
                       domains_per_shard=domains, shard_count=shards,
                       **spec_kwargs)
    return spec.synthesize(DeveloperIdentity(f"{name}-dev"))


class TestHashRing:
    def test_deterministic_and_in_range(self):
        ring = HashRing(4)
        again = HashRing(4)
        keys = [f"user-{i}" for i in range(200)]
        placements = [ring.shard_for(key) for key in keys]
        assert placements == [again.shard_for(key) for key in keys]
        assert set(placements) <= set(range(4))

    def test_every_shard_gets_work(self):
        ring = HashRing(4)
        counts = ring.distribution(f"user-{i}" for i in range(500))
        assert all(count > 0 for count in counts)
        # Consistent hashing is imbalanced but not pathological: the largest
        # shard stays well under half the keyspace. (This imbalance is why a
        # 4-shard deployment yields ~3x, not 4x — the slowest shard gates.)
        assert max(counts) < 250

    def test_resharding_moves_a_bounded_fraction(self):
        keys = [f"user-{i}" for i in range(1000)]
        before = [HashRing(4).shard_for(key) for key in keys]
        after = [HashRing(5).shard_for(key) for key in keys]
        moved = sum(1 for a, b in zip(before, after) if a != b)
        # Growing 4 → 5 shards should move roughly 1/5 of the keys, nothing
        # like the ~4/5 a modulo scheme would reshuffle.
        assert moved < 450

    def test_key_types_and_rejection(self):
        ring = HashRing(3)
        assert ring.shard_for(b"bytes-key") in range(3)
        assert ring.shard_for(12345) in range(3)
        with pytest.raises(TypeError):
            ring.shard_for(3.14)
        with pytest.raises(ValueError):
            HashRing(0)


class TestServiceSpec:
    def test_rejects_invalid_shapes(self):
        with pytest.raises(ServiceSpecError):
            ServiceSpec(name="")
        with pytest.raises(ServiceSpecError):
            ServiceSpec(name="x", shard_count=0)
        with pytest.raises(ServiceSpecError):
            ServiceSpec(name="x", domains_per_shard=0)
        with pytest.raises(ServiceSpecError):
            ServiceSpec(name="x", domains_per_shard=2, threshold=3)
        package = CodePackage("x", "1.0.0", "python", COUNTER_APP)
        with pytest.raises(ServiceSpecError):
            ServiceSpec(name="x", domains_per_shard=2,
                        packages=(PackageBinding(package, domains=(5,)),))

    def test_synthesize_builds_attested_shards_on_one_clock(self):
        plane = make_plane(shards=3, domains=2)
        assert plane.num_shards == 3
        assert [shard.name for shard in plane.shards] == ["svc-s0", "svc-s1", "svc-s2"]
        assert all(shard.clock is plane.clock for shard in plane.shards)
        # Single-shard specs keep the plain name (the legacy deployment name).
        assert make_plane(shards=1).primary.name == "svc"

    def test_every_shard_passes_a_full_audit(self):
        plane = make_plane(shards=2)
        reports = ServiceClient(plane, audit_policy="never").audit()
        assert len(reports) == 2 and all(report.ok for report in reports)

    def test_bound_packages_install_per_domain(self):
        alpha = CodePackage("alpha", "1.0.0", "python", COUNTER_APP)
        beta = CodePackage("beta", "1.0.0", "python", COUNTER_APP)
        spec = ServiceSpec(name="split", domains_per_shard=2, shard_count=2,
                           include_developer_domain=False,
                           packages=(PackageBinding(alpha, domains=(0,)),
                                     PackageBinding(beta, domains=(1,))))
        plane = spec.synthesize(DeveloperIdentity("split-dev"))
        for shard in plane.shards:
            assert shard.domains[0].invoke_application("put", {"key": "k", "value": 1})
            assert shard.domains[1].invoke_application("get", {"key": "k"})
            # Both packages are published in the shard's registry, and each
            # domain runs its own bound application digest.
            assert set(shard.registry.digests()) == {alpha.digest(), beta.digest()}

    def test_spec_service_time_reaches_routed_servers(self):
        plane = make_plane(shards=1)
        with pytest.raises(ServiceSpecError):
            plane.set_service_time(-1.0)
        plane.set_service_time(0.001)
        network = Network(clock=plane.clock)
        servers = plane.route_via_network(network, attempts=1)
        assert all(server.service_model.per_request == 0.001
                   for server in servers.values())


class TestShardedServiceRouting:
    def test_keyed_invoke_lands_on_owning_shard(self):
        plane = make_plane(shards=3)
        keys = [f"user-{i}" for i in range(30)]
        for key in keys:
            plane.invoke(key, 0, "put", {"key": key, "value": key})
        for key in keys:
            owner = plane.shard_for(key)
            result = plane.invoke_on_shard(owner, 0, "get", {"key": key})
            assert result["value"]["value"] == key
        counts = [
            shard.invoke(0, "get", {"key": "?"})["value"]["count"]
            for shard in plane.shards
        ]
        assert sum(counts) == len(keys)
        assert all(count > 0 for count in counts)

    def test_scatter_returns_outcomes_in_call_order(self):
        plane = make_plane(shards=2)
        calls = [(f"user-{i}", 0, "put", {"key": f"user-{i}", "value": i})
                 for i in range(40)]
        outcomes = plane.scatter(calls)
        assert all(outcome["value"]["stored"] for outcome in outcomes)
        reads = plane.scatter([(f"user-{i}", 0, "get", {"key": f"user-{i}"})
                               for i in range(40)])
        assert [read["value"]["value"] for read in reads] == list(range(40))

    def test_scatter_isolates_per_call_failures(self):
        plane = make_plane(shards=2)
        outcomes = plane.scatter([
            ("a", 0, "put", {"key": "a", "value": 1}),
            ("b", 0, "boom", {}),
            ("c", 0, "put", {"key": "c", "value": 2}),
        ])
        assert outcomes[0]["value"]["stored"] and outcomes[2]["value"]["stored"]
        assert isinstance(outcomes[1], Exception)


class TestCapacityModel:
    """The two mechanisms shard scaling rests on, pinned individually."""

    def test_service_model_is_a_serial_queue(self):
        network = Network()
        server_endpoint = network.endpoint("server")
        server = RpcServer(server_endpoint,
                           service_model=ServiceTimeModel(per_request=0.01))
        server.register("work", lambda params: params)
        client = RpcClient(network, network.endpoint("client"), "server")
        started = network.clock.now()
        client.call_many([("work", i) for i in range(5)])
        # 5 requests at 10 ms each through one serial queue: ≥ 50 ms of
        # simulated time must have passed before the responses left.
        assert network.clock.now() - started >= 0.05
        assert server.busy_until >= 0.05

    def test_batched_invoke_charges_per_inner_call(self):
        plane = make_plane(shards=1, domains=1)
        plane.set_service_time(0.01)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=1)
        started = plane.clock.now()
        outcomes = plane.scatter([(f"k{i}", 0, "put", {"key": f"k{i}", "value": i})
                                  for i in range(8)])
        assert all(not isinstance(outcome, Exception) for outcome in outcomes)
        # One invoke_many payload, but 8 application calls: the serial queue
        # must charge 8 × 10 ms, not one envelope's worth.
        assert plane.clock.now() - started >= 0.08

    def test_scatter_overlaps_shards_in_sim_time(self):
        """The scatter-before-pump property: shards serve concurrently.

        The same work is pushed through one shard and through four; with a
        serial per-request service time the four-shard plane must finish in
        well under the single shard's simulated time. If someone pumps the
        network between per-shard sends, this collapses to ~1x and fails.
        """
        def sim_time(shards):
            plane = make_plane(shards=shards, domains=1)
            plane.set_service_time(0.002)
            network = Network(clock=plane.clock, default_latency=lan_profile())
            plane.route_via_network(network, attempts=1)
            started = plane.clock.now()
            outcomes = plane.scatter([
                (f"user-{i}", 0, "put", {"key": f"user-{i}", "value": i})
                for i in range(128)
            ])
            assert all(not isinstance(outcome, Exception) for outcome in outcomes)
            return plane.clock.now() - started

        assert sim_time(1) / sim_time(4) >= 2.0


class TestServiceClient:
    def test_audit_policies(self):
        plane = make_plane(shards=2)
        audited = []

        def counting(policy):
            session = ServiceClient(plane, audit_policy=policy)
            session.auditing_client.audit_or_raise = (
                lambda shard: audited.append(shard.name) or True
            )
            return session

        always = counting("always")
        always.checkpoint()
        always.checkpoint()
        assert len(audited) == 2 * plane.num_shards

        audited.clear()
        once = counting("once")
        once.checkpoint()
        once.checkpoint()
        assert len(audited) == plane.num_shards

        audited.clear()
        counting("never").checkpoint()
        assert audited == []

        with pytest.raises(ServiceSpecError):
            ServiceClient(plane, audit_policy="sometimes")

    def test_keyed_checkpoint_audits_only_the_touched_shard(self):
        """Under 'always', a keyed op re-audits its one shard, not the fleet."""
        plane = make_plane(shards=4)
        session = ServiceClient(plane, audit_policy="always")
        audited = []
        session.auditing_client.audit_or_raise = (
            lambda shard: audited.append(shard.name) or True
        )
        key = "user-42"
        session.checkpoint(key)
        assert audited == [plane.shards[plane.shard_for(key)].name]
        session.checkpoint()  # keyless (batch) checkpoints still cover the fleet
        assert len(audited) == 1 + plane.num_shards

    def test_audit_detects_misbehavior_on_any_shard(self):
        plane = make_plane(shards=2)
        rogue = CodePackage("svc", "6.6.6", "python", COUNTER_APP)
        developer = plane.shards[1].developer
        manifest = developer.sign_update(rogue, plane.shards[1].current_sequence + 1)
        # Installed on one domain of shard 1 only — never published to the
        # registry, so the audit's release-log cross-check must catch it.
        plane.shards[1].install_on_domain(0, manifest, rogue)
        session = ServiceClient(plane, audit_policy="always")
        with pytest.raises(MisbehaviorDetected):
            session.checkpoint()


class TestEveryDeploymentIsRouted:
    """A freshly built app deployment that was never routed still serves
    every call as an RPC, on the plane's own network."""

    def test_client_call_crosses_the_planes_own_network(self):
        from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment

        service = KeyBackupDeployment(num_domains=3, threshold=2, shards=2)
        plane = service.plane
        assert plane.transport is plane.network
        assert all(shard.network is plane.network for shard in plane.shards)
        sent = plane.network.stats.messages_sent
        client = KeyBackupClient(service, audit_before_use=False)
        client.backup_key("user-1", 4242)
        assert client.recover_key("user-1") == 4242
        assert plane.network.stats.messages_sent > sent
        assert plane.network.stats.conserved(plane.network.pending())

    def test_compromised_domain_fails_as_an_rpc_error_routed_or_not(self):
        from repro.apps.keybackup import KeyBackupDeployment
        from repro.errors import RpcError

        service = KeyBackupDeployment(num_domains=3, threshold=2)
        plane = service.plane
        plane.shards[0].domains[1].compromise()
        with pytest.raises(RpcError, match="EnclaveCompromisedError"):
            plane.invoke_on_shard(0, 1, "list_users", {})
        plane.route_via_network(Network(clock=plane.clock,
                                        default_latency=lan_profile()),
                                attempts=1)
        with pytest.raises(RpcError, match="EnclaveCompromisedError"):
            plane.invoke_on_shard(0, 1, "list_users", {})


class TestShardedAppsEndToEnd:
    """The four apps on a multi-shard plane, through their public clients."""

    def test_keybackup_round_trip_across_shards(self):
        from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment

        service = KeyBackupDeployment(num_domains=3, threshold=2, shards=3)
        client = KeyBackupClient(service, audit_before_use=False)
        items = [(f"user-{i}", 1000 + i) for i in range(24)]
        receipts = client.backup_keys(items)
        assert all(not isinstance(receipt, Exception) for receipt in receipts)
        recovered = client.recover_keys([user for user, _ in items])
        assert recovered == [secret for _, secret in items]
        assert {service.plane.shard_for(user) for user, _ in items} == {0, 1, 2}

    def test_prio_aggregates_across_shards(self):
        from repro.apps.prio import PrivateAggregationClient, PrivateAggregationDeployment

        service = PrivateAggregationDeployment(num_servers=2, max_value=50, shards=2)
        client = PrivateAggregationClient(service, audit_before_use=False)
        values = list(range(30))
        assert all(outcome is True for outcome in client.submit_many(values))
        assert service.aggregate() == {"sum": sum(values), "submissions": 30}

    def test_prio_rejected_values_use_no_submission_index(self):
        """submit_many numbers submissions as submit does: rejects skip."""
        from repro.apps.prio import PrivateAggregationClient, PrivateAggregationDeployment

        service = PrivateAggregationDeployment(num_servers=2, max_value=50, shards=2)
        client = PrivateAggregationClient(service, audit_before_use=False,
                                          session_tag="tag")
        outcomes = client.submit_many([1, 99, 2])
        assert outcomes[0] is True and outcomes[2] is True
        assert isinstance(outcomes[1], ApplicationError)
        assert client.submission_key(client._submission_counter) == client.submission_key(2)

    def test_prio_independent_sessions_spread_across_shards(self):
        """Regression: distinct clients must not all route to one shard.

        Submission keys are counter-based; without a session-unique tag every
        fresh client's first submission would hash identically and the whole
        fleet's load would land on a single shard.
        """
        from repro.apps.prio import PrivateAggregationClient, PrivateAggregationDeployment

        service = PrivateAggregationDeployment(num_servers=2, max_value=50, shards=4)
        first_submission_shards = set()
        for _ in range(16):
            client = PrivateAggregationClient(service, audit_before_use=False)
            first_submission_shards.add(
                service.plane.shard_for(client.submission_key(client._submission_counter))
            )
        assert len(first_submission_shards) > 1

    def test_odoh_resolves_across_shards(self):
        from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment

        records = {f"host{i}.example.net": f"10.9.{i}.1" for i in range(12)}
        service = ObliviousDnsDeployment(records=records, shards=2)
        client = ObliviousDnsClient(service, audit_before_use=False)
        responses = client.resolve_many(sorted(records))
        assert all(response.found and response.address == records[response.name]
                   for response in responses)
        assert service.resolver_observations()["resolved"] == 12

    def test_custody_signs_across_shards(self):
        from repro.apps.threshold_sign import CustodyClient, CustodyDeployment

        service = CustodyDeployment(threshold=2, num_signers=3,
                                    keygen_seed=b"planseed", shards=2)
        client = CustodyClient(service, audit_before_use=False)
        messages = [f"tx-{i}".encode() for i in range(6)]
        transactions = client.sign_transactions(messages)
        assert all(client.verify(transaction) for transaction in transactions)


class TestRegionPlacement:
    def test_shard_region_rotates_round_robin(self):
        plane = make_plane(shards=4, regions=("us-east", "eu-west"))
        assert [plane.region_of(i) for i in range(4)] == [
            "us-east", "eu-west", "us-east", "eu-west"]
        # Shards a live reshard grows later follow the same rotation.
        assert plane.spec.shard_region(4) == "us-east"
        assert plane.spec.shard_region(5) == "eu-west"

    def test_single_region_spec_has_no_placement(self):
        plane = make_plane(shards=2)
        assert plane.region_of(0) is None
        assert plane.spec.shard_region(1) is None

    def test_region_names_validated(self):
        with pytest.raises(ServiceSpecError):
            make_plane(shards=2, regions=("us-east", ""))

    def test_apply_latency_map_needs_named_regions(self):
        from repro.net.latency import geo_profile

        plane = make_plane(shards=2)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=1)
        with pytest.raises(ServiceSpecError):
            plane.apply_latency_map(network, geo_profile())

    @staticmethod
    def _sent_delay(network, source, destination):
        """One-way delivery time the network just charged a probe message.

        The probe is left queued (never delivered) so no RPC handler runs;
        each (source, destination) pair is probed at most once.
        """
        network.send(source, destination, b"")
        for _, _, message in network._queue:
            if message.source == source and message.destination == destination:
                return message.deliver_at - message.sent_at
        raise AssertionError("probe was not queued")

    def test_cross_region_delivery_times_are_pinned(self):
        from repro.net.latency import geo_profile

        plane = make_plane(shards=4, regions=("us-east", "eu-west"))
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=1)
        plane.apply_latency_map(network, geo_profile())

        east = plane.shards[0].domains[0].domain_id   # shard 0: us-east
        west = plane.shards[1].domains[0].domain_id   # shard 1: eu-west
        east2 = plane.shards[2].domains[1].domain_id  # shard 2: us-east again

        # The transatlantic route is asymmetric, exactly per the geo map.
        assert self._sent_delay(network, east, west) == pytest.approx(0.038)
        assert self._sent_delay(network, west, east) == pytest.approx(0.042)
        # Same-region cross-shard traffic keeps the network's LAN default.
        assert self._sent_delay(network, east, east2) == pytest.approx(
            lan_profile().sample(0))
        # Migration traffic (shard client endpoints) pays the WAN cost too.
        client0 = f"{plane.shards[0].name}-client"
        assert self._sent_delay(
            network, client0, west) == pytest.approx(0.038)

    def test_geo_scenario_pays_wan_cost_on_migration_traffic(self):
        import dataclasses

        from repro.sim.faults import ReshardService
        from repro.sim.scenarios import Scenario, ScenarioRunner

        single = Scenario(name="lat-single", app="keybackup", ops=4,
                          shards=2, seed=5,
                          events=(ReshardService(at_op=2, shards=4),))
        geo = dataclasses.replace(single, name="lat-geo",
                                  regions=("us-east", "eu-west"))
        single_report = ScenarioRunner(single).run()
        geo_report = ScenarioRunner(geo).run()
        assert single_report.all_invariants_ok
        assert geo_report.all_invariants_ok
        # The geo run moved the same records over cross-region links, so the
        # same workload takes strictly longer in simulated time — by at least
        # one transatlantic one-way hop.
        assert (geo_report.sim_elapsed_s
                >= single_report.sim_elapsed_s + 0.038)
