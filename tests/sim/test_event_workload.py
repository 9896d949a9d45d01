"""Tests for the discrete-event workload mode and reshard-under-true-load.

The concurrent driver runs every op as its own task on the event loop, so
these tests assert the properties the synchronous harness could not even
express: hundreds of ops genuinely in flight, observable per-shard queue
depth, an epoch flip committing while requests are outstanding, and
bit-identical reports under a fixed seed.
"""

import pytest

from repro.sim.faults import ReshardService
from repro.sim.metrics import LatencyStats
from repro.sim.scenarios.matrix import default_matrix, reshard_matrix
from repro.sim.scenarios.runner import ScenarioRunner
from repro.sim.scenarios.spec import Scenario
from repro.sim.workload import MultiClientWorkload


def run_workload(**overrides):
    params = dict(app="keybackup", num_clients=30, seed=2022, shards=2,
                  concurrent=True, arrival_rate=20_000.0, service_time=0.0003)
    params.update(overrides)
    return MultiClientWorkload(**params).run()


class TestConcurrentMode:
    @pytest.mark.parametrize("app", ["keybackup", "prio", "threshold_sign", "odoh"])
    def test_every_app_survives_concurrent_drive(self, app):
        report = run_workload(app=app, num_clients=12)
        assert report.concurrent
        assert report.succeeded == 12
        assert report.failed == 0
        assert report.consistent
        # Poisson arrivals at 20k/s against sub-millisecond ops: the run is
        # only meaningful if ops actually overlapped.
        assert report.max_in_flight > 1

    def test_concurrent_mode_reports_queue_depth(self):
        report = run_workload(num_clients=40, arrival_rate=50_000.0,
                              service_time=0.0005)
        assert set(report.shard_queue_depth) == {0, 1}
        assert all(depth > 0 for depth in report.shard_queue_depth.values())
        assert max(report.shard_queue_depth.values()) > 1

    def test_same_seed_produces_an_identical_report(self):
        """Deterministic replay: everything except wall-clock time matches."""
        first = run_workload().to_dict()
        second = run_workload().to_dict()
        for volatile in ("wall_seconds", "ops_per_sec"):
            first.pop(volatile)
            second.pop(volatile)
        assert first == second

    def test_concurrent_requires_a_positive_arrival_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            MultiClientWorkload("keybackup", concurrent=True)

    def test_reshard_fires_with_ops_in_flight(self):
        report = run_workload(num_clients=80, arrival_rate=50_000.0,
                              service_time=0.0004,
                              reshard_at_op=60, reshard_to=4)
        assert report.resharded and report.reshard_to == 4
        assert report.in_flight_at_reshard > 10
        assert report.failed == 0
        assert report.consistent

    def test_reshard_label_names_the_op_it_fired_at(self):
        """With every earlier op still in flight, the reshard fires at op 20
        before any op has completed: the label names the boundary and adds
        the completed count because the two differ."""
        report = run_workload(num_clients=40, seed=2116, arrival_rate=2000.0,
                              service_time=0.002, reshard_at_op=20,
                              reshard_to=4)
        assert report.reshard_at_op == 20 and report.ops_before_reshard == 0
        assert "reshard: at op 20 (0 ops done before it)," in report.format()

    def test_in_flight_at_reshard_counts_the_workloads_own_transition(self):
        """A later caller-scheduled reshard does not overwrite the figure."""
        params = dict(num_clients=80, arrival_rate=50_000.0,
                      service_time=0.0004, reshard_at_op=60, reshard_to=4)
        alone = run_workload(**params)
        with_later = run_workload(
            events=(ReshardService(at_op=75, shards=2),), **params)
        assert len(with_later.reshard_summary) and with_later.final_shards == 2
        assert with_later.in_flight_at_reshard == alone.in_flight_at_reshard


class TestReshardUnderTrueLoadScenario:
    """The acceptance scenario: a 2->4 epoch flip with 100+ ops in flight."""

    @pytest.fixture(scope="class")
    def report(self):
        scenario = next(s for s in reshard_matrix()
                        if s.name == "keybackup-reshard-under-true-load")
        return ScenarioRunner(scenario).run()

    def test_reshard_committed_with_at_least_100_ops_in_flight(self, report):
        assert len(report.reshards) == 1
        assert report.reshards[0].new_shard_count == 4
        assert report.in_flight_at_reshard >= 100

    def test_no_op_lost_and_every_invariant_held(self, report):
        assert report.success_rate == 1.0
        assert report.all_invariants_ok
        names = {result.name for result in report.invariants}
        # Zero lost or duplicated records across the epoch boundary, and the
        # transport's conservation identity held over the whole run.
        assert "reshard-conserves-records" in names
        assert "network-conserves-messages" in names

    def test_queue_depth_is_nonzero_on_every_shard(self, report):
        assert len(report.shard_queue_depth) == 4
        assert all(depth > 0 for depth in report.shard_queue_depth.values())
        assert report.max_in_flight >= 100

    def test_scenario_is_part_of_the_default_matrix(self):
        names = [s.name for s in default_matrix()]
        assert "keybackup-reshard-under-true-load" in names
        scenario = next(s for s in default_matrix()
                        if s.name == "keybackup-reshard-under-true-load")
        assert scenario.concurrent and scenario.service_time > 0


class TestAutoscaleUnderLoad:
    """A flash crowd drives the full elastic loop at the workload layer:
    the autoscaler grows from observed p99/queue depth, shrinks once the
    spike subsides, and the cooldown keeps it from flapping in between."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.service.autoscaler import AutoscalerPolicy

        policy = AutoscalerPolicy(
            p99_high_s=0.05, queue_high=8, p99_low_s=0.02, queue_low=1,
            min_shards=2, max_shards=4, cooldown_s=0.3,
            breach_streak=2, clear_streak=4, sample_interval_s=0.1)
        return run_workload(num_clients=200, seed=2140, service_time=0.004,
                            arrival_rate=60.0,
                            arrival_phases=((30, 700.0), (90, 25.0)),
                            autoscale_policy=policy)

    def test_flash_crowd_triggers_one_grow_and_one_shrink(self, report):
        assert report.autoscaled
        fired = [d for d in report.autoscale_decisions if d.get("fired")]
        assert [d["action"] for d in fired] == ["grow", "shrink"]
        assert report.final_shards == 2

    def test_scaling_loses_no_ops(self, report):
        assert report.succeeded == 200 and report.failed == 0
        assert report.consistent

    def test_no_gate_refuses_in_a_healthy_run(self, report):
        # The calm streak after the grow first asks for a shrink once the
        # grow's cooldown has elapsed, so no cooldown, heartbeat or
        # reconciliation gate refuses a decision.
        gates = [d["gated_by"] for d in report.autoscale_decisions
                 if d["gated_by"] is not None]
        assert gates == [], gates
        assert all(d["reconciled"] is not False
                   for d in report.autoscale_decisions)
        grow, shrink = [d for d in report.autoscale_decisions if d["fired"]]
        assert shrink["time_s"] - grow["time_s"] >= 0.3

    def test_policy_requires_the_event_loop(self):
        from repro.service.autoscaler import AutoscalerPolicy

        with pytest.raises(ValueError, match="event loop"):
            MultiClientWorkload("keybackup",
                                autoscale_policy=AutoscalerPolicy())


class TestScenarioValidation:
    def test_concurrent_scenario_requires_arrival_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            Scenario(name="x", app="keybackup", concurrent=True)

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError, match="service_time"):
            Scenario(name="x", app="keybackup", service_time=-0.1)


class TestLatencyStatsP99Required:
    def test_p99_can_no_longer_silently_default_to_zero(self):
        with pytest.raises(TypeError):
            LatencyStats(count=1, mean=0.1, median=0.1, p95=0.1,
                         minimum=0.1, maximum=0.1, stddev=0.0)
