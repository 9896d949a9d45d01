"""Integration tests for the fault-injection scenario engine.

The core of the suite parametrizes over the default scenario matrix: every
application runs end to end under every class of adversarial network
condition, and the paper's safety invariants must hold in all of them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.net.rpc import RpcClient, RpcServer
from repro.net.transport import FaultDecision, Message, Network
from repro.sim.adversary import attacker_reach
from repro.sim.faults import (
    CompromiseDomain,
    CrashParty,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    FinishReshard,
    PartitionLink,
    ReorderFault,
    ReshardService,
    UnannouncedUpdate,
)
from repro.sim.scenarios import (
    Scenario,
    ScenarioRunner,
    default_matrix,
    reshard_matrix,
    sharded_matrix,
)

MATRIX = default_matrix()


class TestMatrixShape:
    def test_matrix_is_broad_enough(self):
        """The default matrix covers >= 8 scenarios and all four applications."""
        assert len(MATRIX) >= 8
        assert {s.app for s in MATRIX} == {"keybackup", "threshold_sign", "prio", "odoh"}

    def test_matrix_covers_fault_taxonomy(self):
        """Every fault class from the taxonomy appears somewhere in the matrix."""
        rule_types = {type(rule) for s in MATRIX for rule in s.rules}
        event_types = {type(event) for s in MATRIX for event in s.events}
        assert {DropFault, DelayFault, ReorderFault, DuplicateFault} <= rule_types
        assert {PartitionLink, CrashParty, CompromiseDomain, UnannouncedUpdate} <= event_types

    def test_matrix_covers_sharded_deployments(self):
        """The fault taxonomy also runs against multi-shard service planes."""
        sharded = [s for s in sharded_matrix() if s.shards > 1]
        assert len(sharded) >= 4
        assert {s.app for s in sharded} >= {"keybackup", "threshold_sign",
                                            "prio", "odoh"}
        rule_types = {type(rule) for s in sharded for rule in s.rules}
        assert {DropFault, DelayFault, ReorderFault, DuplicateFault} <= rule_types
        # And the sharded family is part of the default sweep.
        assert {s.name for s in sharded} <= {s.name for s in MATRIX}

    def test_matrix_covers_live_resharding(self):
        """Every app reshards 2 -> 4 live, under each named fault family."""
        reshards = reshard_matrix()
        assert {s.app for s in reshards} == {"keybackup", "threshold_sign",
                                             "prio", "odoh"}
        for scenario in reshards:
            grows = [e for e in scenario.events if isinstance(e, ReshardService)]
            assert len(grows) == 1 and scenario.shards == 2 and grows[0].shards == 4
        event_types = {type(e) for s in reshards for e in s.events}
        rule_types = {type(rule) for s in reshards for rule in s.rules}
        # The migration itself is attacked: loss, a crash mid-handoff, a
        # partition during migration, and a compromised source.
        assert DropFault in rule_types
        assert {CrashParty, PartitionLink, CompromiseDomain,
                FinishReshard} <= event_types
        assert {s.name for s in reshards} <= {s.name for s in MATRIX}

    def test_scenario_names_unique(self):
        names = [s.name for s in MATRIX]
        assert len(names) == len(set(names))

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", app="not-an-app")
        with pytest.raises(ValueError):
            Scenario(name="x", app="prio", ops=0)
        with pytest.raises(ValueError):
            Scenario(name="x", app="prio", min_success_rate=1.5)
        with pytest.raises(ValueError):
            Scenario(name="x", app="prio", shards=0)


@pytest.mark.parametrize("scenario", MATRIX, ids=[s.name for s in MATRIX])
def test_scenario_safety_and_liveness(scenario):
    """Every matrix scenario keeps its safety invariants and liveness floor."""
    report = ScenarioRunner(scenario).run()
    failed = [r for r in report.invariants if not r.ok]
    assert not failed, f"invariants failed: {[(r.name, r.detail) for r in failed]}"
    assert report.liveness_ok, (
        f"success rate {report.success_rate:.2f} below floor "
        f"{scenario.min_success_rate:.2f}; failures: {report.failures}"
    )
    assert report.audit_ok == scenario.expect_audit_ok
    for kind in scenario.expect_detection_kinds:
        assert kind in report.detected_kinds
    if any(isinstance(event, ReshardService) for event in scenario.events):
        checked = {r.name for r in report.invariants}
        # The epoch must commit, and the app-level conservation invariant
        # (zero lost or duplicated records, or its app-specific equivalent)
        # must have been checked, not skipped.
        assert "reshard-epoch-committed" in checked
        conservation = {"keybackup": "reshard-conserves-records",
                        "odoh": "reshard-conserves-records",
                        "prio": "aggregate-matches-accepted-submissions",
                        "threshold_sign": "reshard-preserves-signing"}
        assert conservation[scenario.app] in checked, checked
        # The first scheduled transition committed at the width it asked
        # for, whichever direction it pointed.
        first_event = next(event for event in scenario.events
                           if isinstance(event, ReshardService))
        assert report.reshards
        assert report.reshards[0].new_shard_count == first_event.shards


class TestDeterminism:
    def test_same_seed_same_report(self):
        """One scenario replayed with the same seed produces identical output."""
        scenario = next(s for s in MATRIX if s.name == "keybackup-lossy-network")
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(scenario).run()
        assert first.format() == second.format()
        assert first.to_dict() == second.to_dict()

    def test_different_seed_changes_fault_pattern(self):
        base = next(s for s in MATRIX if s.name == "keybackup-lossy-network")
        reseeded = Scenario(
            name=base.name, app=base.app, ops=base.ops, seed=base.seed + 1000,
            rules=base.rules, rpc_attempts=base.rpc_attempts,
            min_success_rate=base.min_success_rate,
        )
        first = ScenarioRunner(base).run()
        second = ScenarioRunner(reseeded).run()
        # Different seeds drop different messages; safety must hold regardless.
        assert second.all_invariants_ok
        assert (first.messages_dropped, first.retries) != (second.messages_dropped,
                                                           second.retries)

    @pytest.mark.slow
    def test_sweep_example_runs_clean(self):
        """The example sweep exits 0 and prints the deterministic summary line."""
        repo_root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, str(repo_root / "examples" / "scenario_sweep.py"), "7"],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ALL SAFETY INVARIANTS HELD" in result.stdout


class TestReshardScenarios:
    def test_crash_mid_handoff_pins_keys_then_drains_them(self):
        """The crash scenario exercises the full pin-and-drain lifecycle:
        the crashed source defeats part of the migration (keys stay pinned,
        routed to their old shard), and the FinishReshard event after
        recovery moves them — deterministically, per the scenario seed."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-reshard-crash-mid-handoff")
        report = ScenarioRunner(scenario).run()
        grow, drain = report.reshards
        assert grow.pending >= 1, "the crash was expected to pin at least one key"
        assert drain.migrated_keys >= 1 and not drain.failed_keys
        assert report.all_invariants_ok

    def test_partition_during_migration_pins_keys_then_drains_them(self):
        scenario = next(s for s in MATRIX
                        if s.name == "odoh-reshard-partition-during-migration")
        report = ScenarioRunner(scenario).run()
        grow, drain = report.reshards
        assert grow.pending >= 1
        assert drain.migrated_keys >= 1 and not drain.failed_keys
        assert report.all_invariants_ok

    def test_context_records_a_reshard_failure_instead_of_crashing(self):
        """A reshard the faults defeat is a scenario outcome: the context
        records the error (and the committed report, when migration already
        moved records) and the run continues to its invariants."""
        from repro.sim.scenarios.apps import make_driver
        from repro.sim.scenarios.runner import ScenarioContext

        driver = make_driver("keybackup", 2022, 4, shards=2)
        for op_index in range(4):
            driver.run_span(op_index, 1)

        def exploding_migrate(plane, source, target, keys):
            raise RuntimeError("boom")

        driver.plane.migrator.migrate = exploding_migrate
        ctx = ScenarioContext(None, driver)
        ctx.reshard(4)  # must not raise
        assert ctx.reshard_errors and "boom" in ctx.reshard_errors[0]
        # The epoch committed with every moving key pinned — nothing lost.
        assert driver.plane.epoch == 1
        assert ctx.reshard_reports[0].failed_keys
        invariants = driver.finish(ctx)
        assert all(result.ok for result in invariants), [
            (result.name, result.detail) for result in invariants if not result.ok]

    def test_compromise_targets_a_nonprimary_shard(self):
        """CompromiseDomain(shard_index=N) breaches the named shard's TEE,
        and the fleet-wide audit catches it."""
        from repro.sim.scenarios.apps import make_driver
        from repro.sim.scenarios.runner import ScenarioContext

        driver = make_driver("keybackup", 2022, 2, shards=2)
        ctx = ScenarioContext(None, driver)
        ctx.compromise(1, shard_index=1)
        first, second = attacker_reach(driver.plane)
        assert driver.plane.shards[1].domains[1].domain_id in second.domains_breached
        assert driver.plane.shards[0].domains[1].domain_id in first.domains_resisted
        ok, kinds = driver.audit_outcome()
        assert not ok and "attestation-failure" in kinds

    def test_reshard_scenario_replays_identically(self):
        scenario = next(s for s in MATRIX if s.name == "keybackup-reshard-lossy")
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(scenario).run()
        assert first.format() == second.format()
        assert first.to_dict() == second.to_dict()


class TestElasticScenarios:
    def test_matrix_covers_elasticity(self):
        """The elastic family exercises both directions and the autoscaler."""
        from repro.sim.faults import AutoscaleEnabled, ShrinkService
        from repro.sim.scenarios import elastic_matrix

        elastic = elastic_matrix()
        event_types = {type(e) for s in elastic for e in s.events}
        assert {ShrinkService, AutoscaleEnabled} <= event_types
        assert {s.name for s in elastic} <= {s.name for s in MATRIX}

    def test_round_trip_returns_to_original_width(self):
        """2 -> 4 -> 2 under concurrent load: both epochs commit, the
        retired shards fully drain, and nothing is lost either way."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-elastic-round-trip")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        widths = [r.new_shard_count for r in report.reshards]
        assert widths == [4, 2]
        shrink = report.reshards[1]
        assert not shrink.failed_keys, "shrink left keys pinned to dead shards"
        assert report.success_rate == 1.0, report.failures

    def test_shrink_crash_pins_records_then_finish_drains(self):
        """A source crash during evacuation pins keys instead of losing
        them; FinishReshard after recovery completes the drain."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-shrink-crash-during-evacuation")
        report = ScenarioRunner(scenario).run()
        shrink, drain = report.reshards
        assert shrink.new_shard_count == 2
        assert shrink.pending >= 1, "the crash was expected to pin records"
        assert drain.migrated_keys >= 1 and not drain.failed_keys
        assert report.all_invariants_ok

    def test_flash_crowd_grows_then_shrinks_back(self):
        """The autoscaler reacts to the observed p99/queue depth — grows
        during the spike, shrinks after it subsides — without flapping."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-autoscale-flash-crowd")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        fired = [d for d in report.autoscale_decisions if d.get("fired")]
        actions = [d["action"] for d in fired]
        assert "grow" in actions and "shrink" in actions
        # Cooldown + hysteresis: one growth episode, one shrink episode.
        assert len(fired) == 2, fired
        assert report.final_shards == scenario.shards
        grow_time = next(d["time_s"] for d in fired if d["action"] == "grow")
        shrink_time = next(d["time_s"] for d in fired if d["action"] == "shrink")
        assert grow_time < shrink_time

    def test_diurnal_wave_scales_both_ways_twice(self):
        """Two load peaks produce two grow/shrink cycles; conservation
        holds for prio's unkeyed accumulators across every fold."""
        scenario = next(s for s in MATRIX
                        if s.name == "prio-autoscale-diurnal-wave")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        fired = [d for d in report.autoscale_decisions if d.get("fired")]
        actions = [d["action"] for d in fired]
        assert actions.count("grow") >= 2 and actions.count("shrink") >= 2
        assert report.final_shards == scenario.shards


    def test_census_on_a_compromised_shard_refuses_instead_of_aborting(self):
        """synth-2000-05 of ``synthesize_batch(40, 2000)``: the autoscaler
        wants to grow while the only resolver is compromised, so the
        reconciliation census cannot enumerate shard 0's records. Each
        decision is refused, nothing moves, and the run ends with the audit
        catching the compromise."""
        from repro.service import AutoscalerPolicy
        from repro.sim.faults import AutoscaleEnabled

        policy = AutoscalerPolicy(
            p99_high_s=0.01, queue_high=2, p99_low_s=0.0005, queue_low=0,
            min_shards=1, max_shards=2, cooldown_s=0.05, breach_streak=1,
            clear_streak=200, sample_interval_s=0.05)
        scenario = Scenario(
            name="synth-2000-05", app="odoh", ops=10, shards=1, seed=2005,
            events=(AutoscaleEnabled(at_op=0, policy=policy),
                    CompromiseDomain(at_op=2, domain_index=1, shard_index=0)),
            rpc_attempts=3, min_success_rate=0.0, expect_audit_ok=False,
            expect_detection_kinds=("attestation-failure",), concurrent=True,
            arrival_rate=150.0, service_time=0.0079)
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        grows = [d for d in report.autoscale_decisions if d["action"] == "grow"]
        assert grows and not any(d["fired"] for d in grows)
        assert report.final_shards == 1 and not report.reshards


class TestPrioAggregateInvariant:
    def test_torn_submissions_that_reached_every_server_pass(self):
        """synth-2000-30 of the seed-2000 sweep: drops lose the responses of
        4 submissions the client counts as torn, but every server holds all
        12, so the aggregate is exact and the invariant passes."""
        scenario = Scenario(
            name="synth-2000-30", app="prio", ops=12, shards=2, seed=2030,
            rules=(DropFault(probability=0.282),), concurrent=True,
            arrival_rate=120.0, service_time=0.0059,
            regions=("us-east", "eu-west"))
        report = ScenarioRunner(scenario).run()
        verdict = next(r for r in report.invariants
                       if r.name == "torn-submissions-detected")
        assert verdict.ok, verdict.detail
        assert "plus 4 of the 4" in verdict.detail

    def test_an_aggregate_no_subset_explains_fails(self):
        """The subset check still catches a wrong sum or count."""
        from repro.sim.scenarios.apps import PrioDriver

        driver = PrioDriver(2022, 0)
        driver.accepted_values = [5, 9]
        driver.torn_values = [7]
        driver.failed_values = [30]
        verdicts = {}
        for total, count in ((14, 2), (21, 3), (51, 4), (44, 3), (22, 3),
                             (14, 4)):
            driver.service.aggregate = (
                lambda total=total, count=count:
                {"sum": total, "submissions": count})
            verdicts[(total, count)] = driver._aggregate_invariant().ok
        assert verdicts == {(14, 2): True, (21, 3): True, (51, 4): True,
                            (44, 3): True, (22, 3): False, (14, 4): False}


class TestAuditScenarios:
    def test_matrix_covers_epoch_auditing(self):
        """The audit family fetches bundles over the network and includes a
        forged epoch; the checked-in pinned scenarios ride in the sweep."""
        from repro.sim.faults import AuditEpoch, ForgeEpochDigest
        from repro.sim.scenarios import audit_matrix, pinned_matrix

        audit = audit_matrix()
        event_types = {type(e) for s in audit for e in s.events}
        assert {AuditEpoch, ForgeEpochDigest} <= event_types
        assert {s.name for s in audit} <= {s.name for s in MATRIX}
        pinned = pinned_matrix()
        assert pinned, "pinned module lost its scenarios"
        assert all(s.name.startswith("pinned-") for s in pinned)
        assert {s.name for s in pinned} <= {s.name for s in MATRIX}

    def test_live_audit_verifies_bundles_over_the_network(self):
        """Mid-run the auditor fetches every published bundle via RPC and
        each one verifies from the artifact alone."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-epoch-audit-live")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        assert report.epoch_audits, "the AuditEpoch event fetched nothing"
        assert all(a["fetched"] and a["ok"] for a in report.epoch_audits), (
            report.epoch_audits)
        bundles = next(r for r in report.invariants
                       if r.name == "epoch-bundles-verify")
        assert bundles.ok, bundles.detail

    def test_forged_epoch_is_provably_rejected(self):
        """A coordinator-signed but digest-rewritten bundle fails exactly on
        digest conservation, while the honest epoch keeps verifying."""
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-forged-epoch-detected")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        assert "forged-epoch" in report.detected_kinds
        rejected = [a for a in report.epoch_audits
                    if a["forged"] and a["fetched"] and not a["ok"]]
        assert rejected, report.epoch_audits
        assert all(a["failing"] == ["digest-conservation"] for a in rejected)
        honest = [a for a in report.epoch_audits
                  if not a["forged"] and a["fetched"]]
        assert honest and all(a["ok"] for a in honest)

    def test_lossy_fetch_still_audits_via_retries(self):
        """Bundle fetches ride the at-most-once RPC layer, so a lossy
        network costs retries, not verification coverage."""
        scenario = next(s for s in MATRIX
                        if s.name == "odoh-epoch-audit-lossy-fetch")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        assert report.epoch_audits
        assert all(a["ok"] for a in report.epoch_audits if a["fetched"])

    def test_shrink_epochs_audit_like_grow_epochs(self):
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-shrink-epoch-audit")
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok, [
            (r.name, r.detail) for r in report.invariants if not r.ok]
        assert report.epoch_audits
        assert all(a["fetched"] and a["ok"] for a in report.epoch_audits)

    def test_audit_scenario_replays_identically(self):
        scenario = next(s for s in MATRIX
                        if s.name == "keybackup-forged-epoch-detected")
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(scenario).run()
        assert first.epoch_audits == second.epoch_audits
        assert first.detected_kinds == second.detected_kinds


class TestTransportFaults:
    def test_fault_hook_drop(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.add_fault_hook(lambda m: FaultDecision(drop=True))
        alice.send("bob", b"x")
        assert network.run_until_idle() == 0
        assert network.stats.messages_dropped == 1
        assert bob.receive() is None

    def test_fault_hook_duplicate(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.add_fault_hook(lambda m: FaultDecision(duplicates=2))
        alice.send("bob", b"x")
        assert network.run_until_idle() == 3
        assert network.stats.messages_duplicated == 2

    def test_fault_hook_delay_reorders(self):
        """A delayed message is overtaken under delivery-time ordering."""
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")

        def delay_first_only(message: Message):
            return FaultDecision(extra_delay=1.0) if message.payload == b"first" else None

        network.add_fault_hook(delay_first_only)
        alice.send("bob", b"first")
        alice.send("bob", b"second")
        network.run_until_idle()
        assert bob.receive().payload == b"second"
        assert bob.receive().payload == b"first"

    def test_remove_fault_hook(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        hook = lambda m: FaultDecision(drop=True)  # noqa: E731
        network.add_fault_hook(hook)
        network.remove_fault_hook(hook)
        alice.send("bob", b"x")
        assert network.run_until_idle() == 1
        assert bob.receive().payload == b"x"

    def test_crash_and_recover(self):
        network = Network()
        alice = network.endpoint("alice")
        bob = network.endpoint("bob")
        network.crash("bob")
        assert network.is_down("bob")
        alice.send("bob", b"lost")
        assert network.run_until_idle() == 0
        network.recover("bob")
        alice.send("bob", b"found")
        assert network.run_until_idle() == 1
        assert bob.receive().payload == b"found"


class TestRpcHardening:
    def _pair(self):
        network = Network()
        server = RpcServer(network.endpoint("server"))
        client = RpcClient(network, network.endpoint("client"), "server")
        return network, server, client

    def test_retry_after_drop_executes_handler_once(self):
        network, server, client = self._pair()
        calls = []
        server.register("incr", lambda params: calls.append(1) or len(calls))
        dropped = []

        def drop_first_request(message: Message):
            if message.destination == "server" and not dropped:
                dropped.append(message)
                return FaultDecision(drop=True)
            return None

        network.add_fault_hook(drop_first_request)
        assert client.call_with_retry("incr", attempts=3) == 1
        assert len(calls) == 1
        assert client.retries == 1

    def test_duplicate_request_answered_from_cache(self):
        network, server, client = self._pair()
        calls = []
        server.register("incr", lambda params: calls.append(1) or len(calls))
        network.add_fault_hook(lambda m: FaultDecision(duplicates=1)
                               if m.destination == "server" else None)
        assert client.call_with_retry("incr", attempts=2) == 1
        assert len(calls) == 1
        assert server.duplicates_answered == 1

    def test_malformed_frame_dropped_not_fatal(self):
        network, server, client = self._pair()
        server.register("ping", lambda params: "pong")
        network.endpoint("garbage-source").send("server", b"\x00\x00\x00\x05abc")
        network.run_until_idle()
        assert server.malformed_frames == 1
        assert client.call("ping") == "pong"


class TestScheduledCompromise:
    """Schedule-driven compromise: a ``CompromiseDomain`` event breaches one
    TEE through ``ctx.compromise`` at its op boundary, and the secrecy
    invariants read the attacker's reach on every shard."""

    def _deployment(self):
        developer = DeveloperIdentity("sched-dev")
        deployment = Deployment("sched", developer, DeploymentConfig(num_domains=4))
        package = CodePackage("app", "1.0.0", "python",
                              "def init(config):\n    return {}\n"
                              "def handle(method, params, state):\n    return {'ok': True}\n")
        deployment.publish_and_install(package)
        return deployment

    @staticmethod
    def _context(app, shards=1, ops=2):
        from repro.sim.scenarios.apps import make_driver
        from repro.sim.scenarios.runner import ScenarioContext

        driver = make_driver(app, 2022, ops, shards=shards)
        return driver, ScenarioContext(None, driver)

    @staticmethod
    def _verdict(driver, ctx, name):
        return next(result for result in driver.finish(ctx) if result.name == name)

    def test_schedule_tracks_history_and_outcome(self):
        from repro.sim.scenarios.runner import run_ops

        driver, ctx = self._context("keybackup", ops=5)
        (before,) = attacker_reach(driver.plane)
        assert before.breached_count == 1  # the developer's own domain 0
        scenario = Scenario(name="sched", app="keybackup", ops=5,
                            events=(CompromiseDomain(at_op=3, domain_index=1),))
        run = run_ops(ctx, FaultPlan(events=scenario.events), scenario)
        (fired,) = run.fired
        assert fired.completed == 3  # fell at op 3's boundary
        (after,) = attacker_reach(driver.plane)
        assert after.domains_breached == [driver.deployment.domains[i].domain_id
                                          for i in (0, 1)]
        assert after.breached_count == 2 < driver.service.threshold
        verdict = self._verdict(driver, ctx, "key-stays-secret-below-threshold")
        assert verdict.ok and "attacker reads 2 of 4 shares" in verdict.detail

    def test_keybackup_secrecy_judges_every_shard(self):
        # Developer plus two fallen TEEs of shard 1 reach threshold 3 there,
        # while shard 0 still looks like the developer's domain alone.
        driver, ctx = self._context("keybackup", shards=2)
        ctx.compromise(1, shard_index=1)
        ctx.compromise(2, shard_index=1)
        verdict = self._verdict(driver, ctx, "key-stays-secret-below-threshold")
        assert not verdict.ok
        assert "attacker reads 3 of 4 shares" in verdict.detail

    def test_prio_secrecy_judges_every_shard(self):
        driver, ctx = self._context("prio", shards=2)
        for server in range(driver.service.num_servers):
            ctx.compromise(server, shard_index=1)
        verdict = self._verdict(driver, ctx, "no-single-server-learns-values")
        assert not verdict.ok
        assert verdict.detail.startswith("3 of 3 aggregation servers readable")

    def test_routed_invoke_travels_over_the_network(self):
        deployment = self._deployment()
        network = Network()
        deployment.route_via_network(network)
        before = network.stats.messages_sent
        result = deployment.invoke(1, "anything", {})
        assert result["value"] == {"ok": True}
        assert network.stats.messages_sent > before
        deployment.unroute()
        baseline = network.stats.messages_sent
        deployment.invoke(1, "anything", {})
        assert network.stats.messages_sent == baseline
