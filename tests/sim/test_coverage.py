"""Unit tests for the pairwise scenario-coverage model."""

import pytest

from repro.sim.coverage import (
    COVERAGE_APPS,
    DIMENSIONS,
    FAULT_KINDS,
    PHASES,
    TOPOLOGIES,
    CoverageRecorder,
    CoverageReport,
    all_cells,
    cell_id,
    topology_label,
)


class TestCellSpace:
    def test_total_is_sum_of_pairwise_products(self):
        # fault×phase + fault×topology + fault×app + phase×topology +
        # phase×app + topology×app
        expected = (7 * 5) + (7 * 7) + (7 * 4) + (5 * 7) + (5 * 4) + (7 * 4)
        assert len(all_cells()) == expected == 195

    def test_cells_are_normalized_to_canonical_dimension_order(self):
        order = list(DIMENSIONS)
        for dim_a, _, dim_b, _ in all_cells():
            assert order.index(dim_a) < order.index(dim_b)

    def test_cell_id_is_stable(self):
        assert cell_id(("fault", "drop", "app", "odoh")) == "fault=drop|app=odoh"

    def test_dimension_values(self):
        assert set(DIMENSIONS) == {"fault", "phase", "topology", "app"}
        assert DIMENSIONS["fault"] == FAULT_KINDS
        assert DIMENSIONS["phase"] == PHASES
        assert DIMENSIONS["topology"] == TOPOLOGIES
        assert DIMENSIONS["app"] == COVERAGE_APPS


class TestTopologyLabel:
    @pytest.mark.parametrize("shards,expected", [
        (1, "single/1"), (2, "single/2"), (3, "single/2"),
        (4, "single/4"), (7, "single/4"), (8, "single/8"), (12, "single/8"),
    ])
    def test_single_region_buckets_down(self, shards, expected):
        assert topology_label("single", shards) == expected

    def test_geo_needs_two_placements(self):
        assert topology_label("geo", 1) == "geo/2"
        assert topology_label("geo", 4) == "geo/4"

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            topology_label("multi-cloud", 2)


class TestCoverageRecorder:
    def test_deploying_covers_topology_app_pair(self):
        recorder = CoverageRecorder("prio", shards=4)
        assert ("topology", "single/4", "app", "prio") in recorder.cells

    def test_rule_firing_covers_fault_pairs_under_steady_state(self):
        recorder = CoverageRecorder("odoh")
        recorder.record("drop")
        assert ("fault", "drop", "phase", "steady-state") in recorder.cells
        assert ("fault", "drop", "topology", "single/1") in recorder.cells
        assert ("fault", "drop", "app", "odoh") in recorder.cells

    def test_unknown_kind_and_phase_rejected(self):
        recorder = CoverageRecorder("odoh")
        with pytest.raises(ValueError):
            recorder.record("bitflip")
        with pytest.raises(ValueError):
            recorder.phase("mid-apocalypse")
        with pytest.raises(ValueError):
            CoverageRecorder("notanapp")

    def test_phase_window_charges_faults_to_phase(self):
        recorder = CoverageRecorder("keybackup", shards=2)
        with recorder.phase("mid-migration"):
            recorder.record("drop")
        assert ("fault", "drop", "phase", "mid-migration") in recorder.cells
        assert ("phase", "mid-migration", "app", "keybackup") in recorder.cells
        # The window closed: later faults are steady-state again.
        recorder.record("delay")
        assert ("fault", "delay", "phase", "steady-state") in recorder.cells
        assert ("fault", "delay", "phase", "mid-migration") not in recorder.cells

    def test_entering_phase_re_records_active_stateful_faults(self):
        recorder = CoverageRecorder("keybackup")
        recorder.activate("partition")
        with recorder.phase("mid-audit"):
            pass
        assert ("fault", "partition", "phase", "mid-audit") in recorder.cells

    def test_deactivated_faults_are_not_re_recorded(self):
        recorder = CoverageRecorder("keybackup")
        recorder.activate("crash")
        recorder.deactivate("crash")
        with recorder.phase("mid-audit"):
            pass
        assert ("fault", "crash", "phase", "mid-audit") not in recorder.cells

    def test_record_active_false_defers_charging(self):
        recorder = CoverageRecorder("prio")
        recorder.activate("compromise")
        with recorder.phase("mid-autoscale", record_active=False):
            pass
        assert ("fault", "compromise", "phase",
                "mid-autoscale") not in recorder.cells
        recorder.record_active_under("mid-autoscale")
        assert ("fault", "compromise", "phase",
                "mid-autoscale") in recorder.cells

    def test_batch_flag_is_the_fallback_phase(self):
        recorder = CoverageRecorder("prio")
        recorder.batch_active(True)
        recorder.record("duplicate")
        assert ("fault", "duplicate", "phase", "mid-batch") in recorder.cells
        recorder.batch_active(False)
        recorder.record("duplicate")
        assert ("fault", "duplicate", "phase", "steady-state") in recorder.cells

    def test_explicit_phase_wins_over_batch_flag(self):
        recorder = CoverageRecorder("prio")
        recorder.batch_active(True)
        with recorder.phase("mid-migration"):
            recorder.record("drop")
        assert ("fault", "drop", "phase", "mid-migration") in recorder.cells

    def test_entering_batch_records_active_stateful_faults(self):
        recorder = CoverageRecorder("prio")
        recorder.activate("partition")
        recorder.batch_active(True)
        assert ("fault", "partition", "phase", "mid-batch") in recorder.cells

    def test_reshard_updates_topology(self):
        recorder = CoverageRecorder("keybackup", shards=2)
        recorder.set_shards(4)
        recorder.record("drop")
        assert ("fault", "drop", "topology", "single/4") in recorder.cells
        # The pre-reshard placement's deployment cell is retained.
        assert ("topology", "single/2", "app", "keybackup") in recorder.cells

    def test_note_rule_uses_rule_kind(self):
        from repro.sim.faults import DelayFault

        recorder = CoverageRecorder("odoh")
        recorder.note_rule(DelayFault(probability=1.0))
        assert ("fault", "delay", "app", "odoh") in recorder.cells


class TestCoverageReport:
    def test_score_and_marginals(self):
        recorder = CoverageRecorder("odoh")
        recorder.record("drop")
        report = CoverageReport({"one": frozenset(recorder.cells)})
        assert report.score == pytest.approx(len(recorder.cells) / 195)
        marginals = report.marginals()
        assert marginals["fault"]["drop"]["covered"] == 3
        assert marginals["fault"]["drop"]["possible"] == 16  # 5 + 7 + 4
        assert marginals["phase"]["mid-audit"]["covered"] == 0

    def test_uncovered_is_sorted_and_complements_covered(self):
        report = CoverageReport({"a": frozenset({("fault", "drop", "app", "odoh")})})
        dark = report.uncovered()
        assert dark == sorted(dark)
        assert len(dark) == 194
        assert ("fault", "drop", "app", "odoh") not in dark

    def test_to_dict_shape(self):
        report = CoverageReport({"a": frozenset({("fault", "drop", "app", "odoh")})})
        payload = report.to_dict()
        assert payload["cells_total"] == 195
        assert payload["cells_covered"] == 1
        assert payload["per_scenario"]["a"] == ["fault=drop|app=odoh"]
        assert "fault=drop|app=odoh" not in payload["uncovered"]

    def test_from_reports_reads_scenario_reports(self):
        from repro.sim.scenarios import Scenario, ScenarioReport

        scenario = Scenario(name="x", app="odoh")
        report = ScenarioReport(scenario=scenario, coverage_cells=frozenset(
            {("fault", "drop", "app", "odoh")}))
        coverage = CoverageReport.from_reports([report])
        assert coverage.per_scenario == {"x": frozenset(
            {("fault", "drop", "app", "odoh")})}


class TestRunnerIntegration:
    def test_run_records_cells_and_serializes_them(self):
        from repro.sim.faults import DropFault
        from repro.sim.scenarios import Scenario, ScenarioRunner

        scenario = Scenario(
            name="cov-smoke", app="odoh", ops=3, seed=7,
            rules=(DropFault(probability=0.4),),
            min_success_rate=0.0,
        )
        report = ScenarioRunner(scenario).run()
        assert ("topology", "single/1", "app", "odoh") in report.coverage_cells
        assert ("fault", "drop", "app", "odoh") in report.coverage_cells
        payload = report.to_dict()
        assert "fault=drop|app=odoh" in payload["coverage_cells"]

    def test_geo_reshard_traverses_both_placements(self):
        from repro.sim.faults import DelayFault, ReshardService
        from repro.sim.scenarios import Scenario, ScenarioRunner

        scenario = Scenario(
            name="cov-geo-grow", app="keybackup", ops=6, shards=2, seed=11,
            rules=(DelayFault(probability=0.5, delay_s=0.002),),
            events=(ReshardService(at_op=3, shards=4),),
            min_success_rate=0.0,
            regions=("us-east", "eu-west", "ap-south"),
        )
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok
        cells = report.coverage_cells
        assert ("topology", "geo/2", "app", "keybackup") in cells
        assert ("topology", "geo/4", "app", "keybackup") in cells
        assert ("phase", "mid-migration", "topology", "geo/2") in cells

    def test_audit_now_covers_mid_audit_with_active_fault(self):
        from repro.sim.faults import AuditNow, CrashParty, RecoverParty
        from repro.sim.scenarios import Scenario, ScenarioRunner

        scenario = Scenario(
            name="cov-audit", app="threshold_sign", ops=6, seed=13,
            events=(CrashParty(at_op=1, party="domain:3"),
                    AuditNow(at_op=2),
                    RecoverParty(at_op=4, party="domain:3")),
            min_success_rate=0.0,
        )
        report = ScenarioRunner(scenario).run()
        assert report.all_invariants_ok
        assert ("fault", "crash", "phase",
                "mid-audit") in report.coverage_cells
