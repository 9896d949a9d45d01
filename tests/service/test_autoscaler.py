"""Tests for the elastic control loop: hysteresis, operator gates, and the
reconciliation census around autoscaler-driven reshards."""

import pytest

from repro.errors import ReshardError
from repro.net.latency import lan_profile
from repro.net.transport import Network
from repro.service import (
    Autoscaler,
    AutoscalerPolicy,
    CooldownGate,
    HeartbeatGate,
    ReconciliationGate,
    percentile,
)

from tests.service.test_reshard import CounterMigrator, make_plane

POLICY = AutoscalerPolicy(
    p99_high_s=0.5, queue_high=16, p99_low_s=0.05, queue_low=1,
    min_shards=2, max_shards=8, cooldown_s=5.0,
    breach_streak=2, clear_streak=3,
)


class UnreadableMigrator(CounterMigrator):
    """Refuses to enumerate any shard's keys while ``failing(plane)``."""

    def __init__(self, failing):
        self.failing = failing

    def shard_keys(self, plane, shard_index):
        if self.failing(plane):
            raise ReshardError(f"shard {shard_index} did not answer the census")
        return super().shard_keys(plane, shard_index)


def loaded_plane(n_keys=24, shards=2):
    plane = make_plane(shards=shards, name="autosvc")
    plane.migrator = CounterMigrator()
    for i in range(n_keys):
        plane.invoke(f"key-{i}", 0, "put", {"key": f"key-{i}", "value": i})
    return plane


class TestPercentile:
    def test_empty_window_is_silence(self):
        assert percentile([], 0.99) is None

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.50) == 50
        assert percentile(values, 1.0) == 100
        assert percentile([7.0], 0.99) == 7.0

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestPolicyValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(p99_high_s=0.1, p99_low_s=0.1)
        with pytest.raises(ValueError):
            AutoscalerPolicy(queue_high=2, queue_low=2)

    def test_bounds_and_factors(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_shards=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            AutoscalerPolicy(grow_factor=1.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(breach_streak=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(sample_interval_s=0.0)


class TestHysteresis:
    def test_single_breach_holds(self):
        scaler = Autoscaler(loaded_plane(), POLICY)
        decision = scaler.observe(p99_s=2.0)
        assert decision.action == "hold" and not decision.fired
        assert scaler.plane.num_shards == 2

    def test_band_samples_reset_the_streak(self):
        """p99 between the thresholds breaks a breach streak — no flapping
        on a workload hovering near the trigger."""
        scaler = Autoscaler(loaded_plane(), POLICY)
        scaler.observe(p99_s=2.0)        # breach 1/2
        scaler.observe(p99_s=0.2)        # in the band: reset
        decision = scaler.observe(p99_s=2.0)  # breach 1/2 again
        assert decision.action == "hold"
        assert scaler.plane.num_shards == 2

    def test_sustained_breach_grows_and_reconciles(self):
        plane = loaded_plane()
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        decision = scaler.observe(p99_s=2.0)
        assert decision.action == "grow" and decision.fired
        assert decision.from_shards == 2 and decision.to_shards == 4
        assert plane.num_shards == 4 and plane.epoch == 1
        assert decision.reconciliation.allowed, decision.reconciliation.reason
        assert decision.report.ok
        # Every record is still readable after the autoscaler's move.
        for i in range(24):
            value = plane.invoke(f"key-{i}", 0, "get",
                                 {"key": f"key-{i}"})["value"]["value"]
            assert value == i

    def test_calm_streak_shrinks_back(self):
        plane = loaded_plane(shards=4)
        scaler = Autoscaler(plane, POLICY)
        for _ in range(2):
            scaler.observe(p99_s=0.01)
        decision = scaler.observe(p99_s=0.01)
        assert decision.action == "shrink" and decision.fired
        assert plane.num_shards == 2 and plane.ring.shard_count == 2
        assert decision.reconciliation.allowed
        assert len(decision.report.retired) == 2

    def test_bounds_hold_at_the_edges(self):
        plane = loaded_plane(shards=2)
        policy = AutoscalerPolicy(min_shards=2, max_shards=2,
                                  breach_streak=1, clear_streak=1)
        scaler = Autoscaler(plane, policy)
        assert scaler.observe(p99_s=9.0).action == "hold"   # at max
        assert scaler.observe(p99_s=0.0).action == "hold"   # at min
        assert plane.num_shards == 2 and plane.epoch == 0


class TestGates:
    def test_cooldown_blocks_then_clears(self):
        plane = loaded_plane()
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        assert scaler.observe(p99_s=2.0).fired        # grow 2 -> 4
        # Immediately calm: the shrink decision is ready but the cooldown
        # gate refuses it — the move is recorded, not fired.
        for _ in range(2):
            scaler.observe(p99_s=0.01)
        gated = scaler.observe(p99_s=0.01)
        assert gated.action == "shrink" and not gated.fired
        assert gated.gated_by is not None
        assert gated.gated_by.gate == "cooldown"
        assert plane.num_shards == 4
        # Once the cooldown elapses the held streak fires at the next sample.
        plane.clock.advance(POLICY.cooldown_s)
        fired = scaler.observe(p99_s=0.01)
        assert fired.action == "shrink" and fired.fired
        assert plane.num_shards == 2

    def test_heartbeat_blocks_reshard_into_a_partition(self):
        plane = loaded_plane()
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=2)
        crashed = plane.shards[1].domains[0].domain_id
        network.crash(crashed)
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        gated = scaler.observe(p99_s=2.0)
        assert gated.action == "grow" and not gated.fired
        assert gated.gated_by.gate == "heartbeat"
        assert crashed in gated.gated_by.reason
        assert plane.num_shards == 2 and plane.epoch == 0
        # Recovery clears the gate; the still-held breach streak fires.
        network.recover(crashed)
        fired = scaler.observe(p99_s=2.0)
        assert fired.fired and plane.num_shards == 4

    def test_failed_census_refuses_through_the_reconciliation_gate(self):
        """A shard that cannot enumerate its keys refuses the decision
        before anything moves, instead of aborting the control loop."""
        plane = loaded_plane()
        plane.migrator = UnreadableMigrator(lambda plane: True)
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        refused = scaler.observe(p99_s=2.0)
        assert refused.action == "grow" and not refused.fired
        assert refused.gated_by.gate == "reconciliation"
        assert "census failed" in refused.gated_by.reason
        assert plane.num_shards == 2 and plane.epoch == 0

    def test_failed_census_after_the_move_fails_reconciliation(self):
        plane = loaded_plane()
        plane.migrator = UnreadableMigrator(lambda plane: plane.epoch > 0)
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        decision = scaler.observe(p99_s=2.0)
        assert decision.fired and plane.num_shards == 4
        assert decision.gated_by.gate == "reconciliation"
        assert decision.reconciliation is decision.gated_by
        assert not decision.reconciliation.allowed

    def test_heartbeat_gate_checks_the_planes_own_network(self):
        plane = loaded_plane()
        assert plane.transport is plane.network
        result = HeartbeatGate().check(plane)
        assert result.allowed and "reachable" in result.reason
        crashed = plane.shards[1].domains[0].domain_id
        plane.network.crash(crashed)
        result = HeartbeatGate().check(plane)
        assert not result.allowed and crashed in result.reason

    def test_cooldown_gate_unit(self):
        plane = loaded_plane()
        gate = CooldownGate(2.0)
        assert gate.check(plane).allowed          # never fired before
        gate.record(plane.clock.now())
        assert not gate.check(plane).allowed
        plane.clock.advance(2.001)
        assert gate.check(plane).allowed
        with pytest.raises(ValueError):
            CooldownGate(-1.0)


class TestReconciliationGate:
    def test_census_maps_keys_to_holders(self):
        plane = loaded_plane(n_keys=10)
        census = ReconciliationGate().census(plane)
        assert len(census) == 10
        assert all(len(holders) == 1 for holders in census.values())

    def test_verify_flags_lost_and_duplicated(self):
        gate = ReconciliationGate()
        before = {"a": [0], "b": [1], "c": [0]}
        clean = {"a": [0], "b": [0], "c": [1], "d": [1]}  # d: new arrival
        assert gate.verify(before, clean).allowed
        lost = {"a": [0], "c": [1]}
        verdict = gate.verify(before, lost)
        assert not verdict.allowed and "lost" in verdict.reason
        duplicated = {"a": [0], "b": [1], "c": [0, 2]}
        verdict = gate.verify(before, duplicated)
        assert not verdict.allowed and "double-owned" in verdict.reason


class TestDecisionRecords:
    def test_every_sample_leaves_a_decision(self):
        scaler = Autoscaler(loaded_plane(), POLICY)
        for p99 in (0.01, 2.0, 2.0, 0.2):
            scaler.observe(p99_s=p99)
        assert len(scaler.decisions) == 4 and len(scaler.samples) == 4
        fired = [d for d in scaler.decisions if d.fired]
        assert len(fired) == 1 and fired[0].action == "grow"
        assert scaler.reshard_reports == [fired[0].report]
        payload = fired[0].to_dict()
        assert payload["fired"] and payload["action"] == "grow"
        assert payload["reconciled"] is True

    def test_refusals_keep_their_gate_in_the_record(self):
        """A refused decision's dict names the refusing gate, and a failed
        reconciliation reads ``reconciled: False``, not ``None``."""
        plane = loaded_plane()
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        assert scaler.observe(p99_s=2.0).fired
        for _ in range(POLICY.clear_streak):
            refused = scaler.observe(p99_s=0.01)
        assert refused.action == "shrink" and not refused.fired
        payload = refused.to_dict()
        assert payload["gated_by"] == "cooldown"
        assert payload["reconciled"] is None

        plane = loaded_plane()
        plane.migrator = UnreadableMigrator(lambda plane: plane.epoch > 0)
        scaler = Autoscaler(plane, POLICY)
        scaler.observe(p99_s=2.0)
        payload = scaler.observe(p99_s=2.0).to_dict()
        assert payload["fired"]
        assert payload["gated_by"] == "reconciliation"
        assert payload["reconciled"] is False

    def test_silent_window_counts_as_calm(self):
        """No completed requests is idleness, not an outage signal."""
        plane = loaded_plane(shards=4)
        scaler = Autoscaler(plane, POLICY)
        for _ in range(2):
            scaler.observe(p99_s=None)
        assert scaler.observe(p99_s=None).fired
        assert plane.num_shards == 2
