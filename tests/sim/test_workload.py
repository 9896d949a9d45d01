"""Tests for the multi-client workload driver and its scenario-engine composition."""

import pytest

from repro.sim import MultiClientWorkload
from repro.sim.faults import (
    CrashParty,
    DropFault,
    DuplicateFault,
    RecoverParty,
    ReorderFault,
)
from repro.sim.scenarios.matrix import default_matrix

APPS = ("keybackup", "prio", "threshold_sign", "odoh")


def run_small(app: str, batched: bool, **kwargs):
    ops = 4 if app == "threshold_sign" else 24
    return MultiClientWorkload(app, num_clients=ops,
                               batched=batched, batch_size=8,
                               rpc_attempts=kwargs.pop("rpc_attempts", 1),
                               **kwargs).run()


class TestCleanNetworkRuns:
    @pytest.mark.parametrize("app", APPS)
    def test_batched_run_succeeds_and_stays_consistent(self, app):
        report = run_small(app, batched=True)
        assert report.succeeded == report.ops, report.failures[:3]
        assert report.consistent, report.consistency_issues
        assert report.ops_per_sec > 0

    @pytest.mark.parametrize("app", ["prio", "odoh"])
    def test_unbatched_run_succeeds(self, app):
        report = run_small(app, batched=False)
        assert report.succeeded == report.ops
        assert report.consistent

    def test_batching_collapses_message_count(self):
        batched = run_small("prio", batched=True)
        unbatched = run_small("prio", batched=False)
        assert batched.messages_sent < unbatched.messages_sent / 3

    def test_report_format_mentions_mode_and_throughput(self):
        report = run_small("prio", batched=True)
        text = report.format()
        assert "batched" in text and "ops/sec" in text
        assert report.to_dict()["consistent"] is True

    def test_rejects_unknown_app_and_bad_sizes(self):
        with pytest.raises(ValueError):
            MultiClientWorkload("nope")
        with pytest.raises(ValueError):
            MultiClientWorkload("prio", num_clients=0)
        with pytest.raises(ValueError):
            MultiClientWorkload("prio", batch_size=0)

    def test_latency_breakdown_covers_every_shard(self):
        report = MultiClientWorkload("prio", num_clients=24, batched=True,
                                     batch_size=8, shards=2, rpc_attempts=1).run()
        assert report.latency is not None and report.latency.count == 24
        assert report.latency.p99 >= report.latency.p95 > 0
        assert set(report.shard_latency) == {0, 1}
        assert sum(stats.count for stats in report.shard_latency.values()) == 24
        as_dict = report.to_dict()
        assert as_dict["latency"]["p99"] == report.latency.p99
        assert set(as_dict["shard_latency"]) == {0, 1}

    def test_unbatched_latency_is_per_operation(self):
        report = MultiClientWorkload("prio", num_clients=10, batched=False,
                                     rpc_attempts=1).run()
        assert report.latency is not None and report.latency.count == 10
        # One round trip per share per server: every op takes real sim time.
        assert report.latency.minimum > 0


class TestLiveReshardWorkload:
    def test_rejects_bad_reshard_parameters(self):
        with pytest.raises(ValueError):
            MultiClientWorkload("prio", num_clients=10, reshard_at_op=0,
                                reshard_to=4)
        with pytest.raises(ValueError):
            MultiClientWorkload("prio", num_clients=10, reshard_at_op=10,
                                reshard_to=4)
        with pytest.raises(ValueError):
            MultiClientWorkload("prio", num_clients=10, shards=2,
                                reshard_at_op=5, reshard_to=2)

    @pytest.mark.parametrize("app", ["keybackup", "prio"])
    def test_batched_run_survives_a_mid_run_reshard(self, app):
        report = MultiClientWorkload(app, num_clients=24, batched=True,
                                     batch_size=8, shards=2, rpc_attempts=1,
                                     reshard_at_op=12, reshard_to=4).run()
        assert report.succeeded == report.ops, report.failures[:3]
        assert report.consistent, report.consistency_issues
        assert report.resharded and report.reshard_to == 4
        # Batched mode fires the reshard at the span boundary containing the
        # requested op (span [8, 16) holds op 12).
        assert report.ops_before_reshard == 8
        assert report.reshard_summary["new_shard_count"] == 4
        assert report.reshard_summary["failed_keys"] == 0
        # Segment accounting: pre + migration + post = the whole run.
        assert 0 < report.sim_seconds_before_reshard < report.sim_seconds
        assert report.reshard_sim_seconds > 0
        # Post-reshard ops are attributed to the grown fleet.
        assert any(shard >= 2 for shard in report.shard_latency)

    def test_unbatched_run_reshards_at_the_exact_op(self):
        report = MultiClientWorkload("odoh", num_clients=8, batched=False,
                                     shards=2, rpc_attempts=1,
                                     reshard_at_op=4, reshard_to=3).run()
        assert report.succeeded == report.ops, report.failures[:3]
        assert report.consistent
        assert report.resharded and report.ops_before_reshard == 4

    def test_from_scenario_forwards_the_shard_layout(self):
        """A sharded/reshard scenario composes into a load run with the same
        shard count, so its shard-named events hit real addresses."""
        from repro.sim.scenarios.matrix import reshard_matrix, sharded_matrix

        sharded = next(s for s in sharded_matrix()
                       if s.name == "prio-reorder-jitter-4shards")
        workload = MultiClientWorkload.from_scenario(sharded, num_clients=12)
        assert workload.scenario.shards == sharded.shards == 4
        report = workload.run()
        assert report.shards == 4 and report.consistent

        reshard = next(s for s in reshard_matrix()
                       if s.name == "prio-reshard-under-load")
        workload = MultiClientWorkload.from_scenario(reshard, num_clients=12,
                                                     batch_size=4)
        assert workload.scenario.shards == 2
        report = workload.run()
        # The scenario's ReshardService event fired mid-run: the plane grew
        # from the scenario's declared 2 shards to 4.
        assert report.consistent
        assert any(shard >= 2 for shard in report.shard_latency), report.shard_latency

    def test_segment_throughput_appears_in_report_output(self):
        report = MultiClientWorkload("prio", num_clients=30, batched=True,
                                     batch_size=15, shards=2, rpc_attempts=1,
                                     service_time=0.001,
                                     reshard_at_op=15, reshard_to=4).run()
        assert report.pre_reshard_sim_ops_per_sec > 0
        assert report.post_reshard_sim_ops_per_sec > 0
        text = report.format()
        assert "resharded to 4" in text and "reshard: at op 15" in text
        as_dict = report.to_dict()
        assert as_dict["resharded"] is True
        assert as_dict["post_reshard_sim_ops_per_sec"] == (
            report.post_reshard_sim_ops_per_sec)


class TestFaultComposition:
    def test_lossy_network_with_retries_stays_exact(self):
        report = MultiClientWorkload(
            "prio", num_clients=60, batched=True, batch_size=16,
            rules=(DropFault(probability=0.05),
                   DuplicateFault(probability=0.2, copies=1),
                   ReorderFault(probability=0.3, max_delay_s=0.01)),
            rpc_attempts=5,
        ).run()
        # Retries against at-most-once servers absorb the faults; whatever
        # was accepted must aggregate exactly (or the servers must refuse).
        assert report.consistent, report.consistency_issues
        assert report.success_rate >= 0.9
        assert report.retries > 0 or report.messages_dropped == 0

    def test_scheduled_crash_and_recovery_compose_with_batches(self):
        report = MultiClientWorkload(
            "keybackup", num_clients=24, batched=True, batch_size=8,
            events=(CrashParty(at_op=8, party="domain:3"),
                    RecoverParty(at_op=16, party="domain:3")),
            rpc_attempts=2,
        ).run()
        # A backup must reach every domain, so ops in the outage window fail
        # cleanly; liveness returns with the recovery, and nothing torn leaks
        # into the end state.
        failed_ops = {op_index for op_index, _ in report.failures}
        assert failed_ops == set(range(8, 16)), sorted(failed_ops)
        assert report.succeeded == report.ops - 8
        assert report.consistent

    @pytest.mark.parametrize("batched", [True, False])
    def test_from_scenario_composes_matrix_faults_with_load(self, batched):
        scenario = next(s for s in default_matrix()
                        if s.name == "keybackup-lossy-network")
        workload = MultiClientWorkload.from_scenario(scenario, num_clients=20,
                                                     batched=batched, batch_size=8)
        assert workload.scenario.app == scenario.app
        assert workload.scenario.rules == scenario.rules
        report = workload.run()
        assert report.success_rate >= scenario.min_success_rate - 0.15
        assert report.consistent, report.consistency_issues

    @pytest.mark.parametrize("grouping", [dict(batched=False),
                                          dict(batch_size=4)],
                             ids=["unbatched", "spans-of-4"])
    def test_a_forged_epoch_is_detected_under_load(self, grouping):
        """The load run installs the epoch publisher, so the scenario's
        reshard publishes a bundle, the forge rewrites it and the auditor
        rejects it. The spans stay short enough for the reshard to fire
        after the first backups (one 128-op span would fire every event at
        op 0, before there is a key to migrate or a digest to forge)."""
        scenario = next(s for s in default_matrix()
                        if s.name == "keybackup-forged-epoch-detected")
        report = MultiClientWorkload.from_scenario(scenario, num_clients=12,
                                                   **grouping).run()
        assert "forged-epoch" in report.detected_kinds
        verdicts = {result.name: result.ok for result in report.invariants}
        assert verdicts["epoch-bundles-verify"]
        assert report.consistent, report.consistency_issues

    def test_a_forge_with_nothing_to_forge_is_an_outcome(self):
        """One 128-op span fires the reshard, forge and audit events all at
        op 0, before any key exists: the epoch moves no keys, so there is no
        digest to forge. The forge forges nothing and the run reports the
        missing evidence instead of crashing."""
        scenario = next(s for s in default_matrix()
                        if s.name == "keybackup-forged-epoch-detected")
        report = MultiClientWorkload.from_scenario(scenario,
                                                   num_clients=12).run()
        assert "forged-epoch" not in report.detected_kinds
        assert report.consistency_issues == [
            "audit-ends-as-expected: audit produced no ['forged-epoch'] evidence"]

    def test_from_scenario_keeps_the_regions(self):
        scenario = next(s for s in default_matrix()
                        if s.name == "pinned-geo-reshard-reorder-2152")
        workload = MultiClientWorkload.from_scenario(scenario, num_clients=12)
        assert workload.scenario.regions == scenario.regions
        assert workload.scenario.name == scenario.name
        report = workload.run()
        assert any(value.startswith("geo/")
                   for cell in report.coverage_cells for value in cell)

    def test_duplicate_storm_does_not_double_apply(self):
        scenario = next(s for s in default_matrix()
                        if s.name == "sign-duplicate-storm")
        report = MultiClientWorkload.from_scenario(scenario, num_clients=3,
                                                   batched=True, batch_size=2).run()
        assert report.succeeded == report.ops, report.failures[:3]
        assert report.consistent


ONE_LOOP_APPS = [("keybackup", 12), ("odoh", 12), ("threshold_sign", 4)]


class TestOneOpLoop:
    """Both harnesses drive an app through one definition and one loop, so a
    load run and a scenario with the same app, ops, shards, seed and arrival
    shape put the same traffic on the wire at the same simulated times, and
    report the same run totals.

    prio is left out on purpose: each harness keeps its own session tag
    (``workload-`` / ``scenario-``), which places submissions differently.
    """

    @staticmethod
    def assert_one_schema(app: str, ops: int, **shape) -> None:
        """Both reports carry one schema of run totals, filled one way."""
        from dataclasses import fields

        from repro.sim.metrics import RunTotals
        from repro.sim.scenarios.runner import ScenarioRunner
        from repro.sim.scenarios.spec import Scenario

        workload = MultiClientWorkload(app, num_clients=ops, seed=2031,
                                       batched=False, shards=2, **shape).run()
        scenario = ScenarioRunner(Scenario(name=f"{app}-one-loop", app=app,
                                           ops=ops, shards=2, seed=2031,
                                           **shape)).run()
        assert workload.succeeded == scenario.succeeded == ops
        for total in fields(RunTotals):
            assert (getattr(workload, total.name)
                    == getattr(scenario, total.name)), total.name
        assert workload.success_rate == scenario.success_rate == 1.0
        assert workload.messages_sent > 0
        assert workload.sim_seconds == scenario.sim_elapsed_s > 0
        assert workload.latency == scenario.latency

    @pytest.mark.parametrize("app, ops", ONE_LOOP_APPS)
    def test_serial_workload_matches_serial_scenario(self, app, ops):
        self.assert_one_schema(app, ops)

    @pytest.mark.parametrize("app, ops", ONE_LOOP_APPS)
    def test_concurrent_workload_matches_concurrent_scenario(self, app, ops):
        self.assert_one_schema(app, ops, concurrent=True,
                               arrival_rate=20000.0, service_time=3e-4)

    @pytest.mark.parametrize("scenario", default_matrix(),
                             ids=lambda scenario: scenario.name)
    def test_a_load_run_of_a_scenario_is_that_scenario_run(self, scenario):
        """One runner: a load run of a matrix scenario with the scenario's
        own op count — epoch audits, forged bundles and geo regions
        included — reports the scenario's totals and invariant verdicts.

        A prio run keeps the load harness's session tag (``workload-``
        rather than ``scenario-``) by design. The tag places submissions
        differently, so a prio run's timing is left uncompared: its sim
        time and, when ops overlap, its in-flight peak, queue depths and
        autoscale decisions.
        """
        from dataclasses import fields

        from repro.sim.metrics import RunTotals
        from repro.sim.scenarios.runner import ScenarioRunner

        load = MultiClientWorkload.from_scenario(
            scenario, num_clients=scenario.ops, batched=False).run()
        alone = ScenarioRunner(scenario).run()
        timing = ({"max_in_flight", "shard_queue_depth", "autoscale_decisions"}
                  if scenario.app == "prio" else set())
        for total in fields(RunTotals):
            if total.name not in timing:
                assert (getattr(load, total.name)
                        == getattr(alone, total.name)), total.name
        assert ([(result.name, result.ok) for result in load.invariants]
                == [(result.name, result.ok) for result in alone.invariants])
        assert load.consistent == alone.all_invariants_ok
        if scenario.app != "prio":
            assert load.sim_seconds == alone.sim_elapsed_s


class TestBatchSigningProvenance:
    def test_signer_indices_reflect_actual_signers_under_crash(self):
        """Regression: a crashed signer must not be reported as a signer."""
        from repro.net.latency import lan_profile
        from repro.net.transport import Network
        from repro.apps.threshold_sign import CustodyClient, CustodyDeployment

        service = CustodyDeployment(threshold=2, num_signers=3,
                                    keygen_seed=b"provenan")
        network = Network(clock=service.deployment.clock,
                          default_latency=lan_profile())
        service.deployment.route_via_network(network, attempts=1)
        network.crash(service.deployment.domains[1].domain_id)
        client = CustodyClient(service, audit_before_use=False)
        [transaction] = client.sign_transactions([b"tx"],
                                                 signer_indices=[1, 2, 3])
        assert transaction.signer_indices == (2, 3)
        assert client.verify(transaction)
