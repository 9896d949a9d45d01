"""Property and unit tests for coverage-guided scenario synthesis."""

import dataclasses
import json

import pytest

from repro.sim.coverage import CoverageReport, all_cells
from repro.sim.faults import (
    AuditEpoch,
    AuditNow,
    AutoscaleEnabled,
    CompromiseDomain,
    CrashParty,
    HealLink,
    PartitionLink,
    RecoverParty,
    ReshardService,
    UnannouncedUpdate,
)
from repro.sim.synthesis import (
    INSTANT_KINDS,
    SynthesisTarget,
    failing_invariants,
    render_pinned,
    shrink,
    synthesize_batch,
    synthesize_scenario,
    target_for_cell,
)


class TestGeneratorValidity:
    """Property: every seed yields a valid, schedulable scenario."""

    @pytest.mark.parametrize("seed", range(40))
    def test_any_seed_is_schedulable(self, seed):
        scenario = synthesize_scenario(seed)
        # __post_init__ already validated app/shards/regions; check the
        # scheduling properties the runner relies on.
        assert all(event.at_op < scenario.ops for event in scenario.events)
        at_ops = [event.at_op for event in scenario.events]
        assert at_ops == sorted(at_ops)
        compromises = [e for e in scenario.events
                       if isinstance(e, (CompromiseDomain, UnannouncedUpdate))]
        assert len(compromises) <= 1
        # Liveness floors are waived by design; safety is the test.
        assert scenario.min_success_rate == 0.0
        # Audit expectations track whether a compromise was injected.
        assert scenario.expect_audit_ok == (not compromises)
        if compromises:
            assert scenario.expect_detection_kinds == ("attestation-failure",)
        # Stateful conditions are lifted before the run ends.
        partitions = sum(isinstance(e, PartitionLink) for e in scenario.events)
        heals = sum(isinstance(e, HealLink) for e in scenario.events)
        assert partitions == heals
        crashes = sum(isinstance(e, CrashParty) for e in scenario.events)
        recoveries = sum(isinstance(e, RecoverParty) for e in scenario.events)
        assert crashes == recoveries
        # Concurrent scenarios carry an arrival process; serial ones do not.
        if scenario.concurrent:
            assert scenario.arrival_rate > 0 and scenario.service_time > 0
        if scenario.regions:
            assert len(scenario.regions) >= 2

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_generated_scenarios_run_clean(self, seed):
        assert failing_invariants(synthesize_scenario(seed)) == ()


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        assert synthesize_scenario(7) == synthesize_scenario(7)

    def test_same_seed_byte_identical_report(self):
        from repro.sim.scenarios import ScenarioRunner

        scenario = synthesize_scenario(5)
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(synthesize_scenario(5)).run()
        assert first.format() == second.format()
        assert (json.dumps(first.to_dict(), sort_keys=True)
                == json.dumps(second.to_dict(), sort_keys=True))

    def test_batch_is_a_pure_function_of_count_seed_base(self):
        assert synthesize_batch(6, 99) == synthesize_batch(6, 99)
        names = [s.name for s in synthesize_batch(3, 99)]
        assert names == ["synth-99-00", "synth-99-01", "synth-99-02"]

    def test_batch_targets_the_base_reports_dark_cells(self):
        # A base report covering almost everything leaves one dark cell;
        # every batch scenario must aim at it.
        cells = sorted(all_cells())
        dark = ("fault", "compromise", "app", "prio")
        base = CoverageReport({"dense": frozenset(c for c in cells if c != dark)})
        assert base.uncovered() == [dark]
        for scenario in synthesize_batch(2, 31, base=base):
            assert scenario.app == "prio"
            assert any(isinstance(e, CompromiseDomain) for e in scenario.events)


class TestTargeting:
    def test_target_for_cell_pins_exactly_two_dimensions(self):
        target = target_for_cell(("fault", "drop", "topology", "geo/4"))
        assert target == SynthesisTarget(fault="drop", topology="geo/4")
        assert target.phase is None and target.app is None

    def test_targeted_dimensions_are_honored(self):
        scenario = synthesize_scenario(11, SynthesisTarget(
            fault="compromise", phase="mid-migration",
            topology="geo/4", app="prio"))
        assert scenario.app == "prio"
        assert any(isinstance(e, CompromiseDomain) for e in scenario.events)
        assert any(isinstance(e, ReshardService) for e in scenario.events)
        assert scenario.regions  # geo layout
        assert not scenario.expect_audit_ok

    def test_mid_autoscale_target_installs_a_policy(self):
        scenario = synthesize_scenario(12, SynthesisTarget(
            phase="mid-autoscale", app="keybackup"))
        assert scenario.concurrent
        assert any(isinstance(e, AutoscaleEnabled) for e in scenario.events)

    def test_mid_audit_target_schedules_a_midrun_audit(self):
        scenario = synthesize_scenario(13, SynthesisTarget(
            fault="crash", phase="mid-audit", app="threshold_sign"))
        assert any(isinstance(e, AuditNow) for e in scenario.events)

    @pytest.mark.parametrize("kind", INSTANT_KINDS)
    def test_instant_fault_during_audit_uses_the_epoch_auditor(self, kind):
        # These four cells used to be structurally dark; the epoch auditor's
        # networked bundle fetches made them reachable, so the generator now
        # grows an epoch and audits it over the wire with the rule installed.
        cell = ("fault", kind, "phase", "mid-audit")
        scenario = synthesize_scenario(1, target_for_cell(cell))
        assert scenario.rules  # the per-message rule is installed
        grow = [e for e in scenario.events if isinstance(e, ReshardService)]
        audit = [e for e in scenario.events if isinstance(e, AuditEpoch)]
        assert grow and audit
        assert grow[0].at_op < audit[0].at_op  # a bundle exists to fetch


def _planted_scenario():
    """Six scheduled events hiding one real violation.

    The unannounced update breaks the end-of-run audit while the scenario
    *expects* a clean audit; the other five events are healed/recovered
    decoys a shrinker should strip away.
    """
    from repro.sim.scenarios import Scenario

    return Scenario(
        name="planted",
        app="keybackup",
        ops=8,
        seed=3,
        events=(
            PartitionLink(at_op=1, a="client", b="domain:0"),
            CrashParty(at_op=2, party="domain:2"),
            UnannouncedUpdate(at_op=3, domain_index=1),
            AuditNow(at_op=4),
            RecoverParty(at_op=5, party="domain:2"),
            HealLink(at_op=6, a="client", b="domain:0"),
        ),
        min_success_rate=0.0,
        expect_audit_ok=True,
    )


class TestShrinker:
    def test_planted_violation_shrinks_to_a_minimal_reproducer(self):
        scenario = _planted_scenario()
        baseline = failing_invariants(scenario)
        assert "audit-ends-as-expected" in baseline

        result = shrink(scenario)
        assert len(result.scenario.events) <= 2
        assert set(result.failing) & set(baseline)
        assert result.removed_events >= 4
        assert result.scenario.name == "planted-min"
        # Every survivor is load-bearing: removing it heals the scenario.
        for index in range(len(result.scenario.events)):
            without = dataclasses.replace(
                result.scenario,
                events=(result.scenario.events[:index]
                        + result.scenario.events[index + 1:]))
            assert not (set(failing_invariants(without)) & set(baseline))

    def test_shrink_refuses_a_healthy_scenario(self):
        healthy = synthesize_scenario(0)
        assert failing_invariants(healthy) == ()
        with pytest.raises(ValueError):
            shrink(healthy)

    def test_render_pinned_is_paste_ready(self):
        result = shrink(_planted_scenario())
        source = render_pinned(result.scenario, reason="planted audit break")
        assert source.startswith("# Pinned reproducer: planted audit break")
        assert "Scenario(" in source and source.endswith(")")
        assert "name='planted-min'" in source
        assert "UnannouncedUpdate" in source
        # Default fields stay out of the pin.
        assert "min_success_rate=0.0" in source  # non-default: floor waived
        assert "arrival_rate" not in source
        assert "regions" not in source
