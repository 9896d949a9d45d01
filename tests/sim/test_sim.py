"""Unit tests for workload generation, metrics, and adversary scenarios."""

import pytest

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.sim.adversary import DeveloperCompromise, VendorExploit, attacker_reach
from repro.sim.metrics import percentile, summarize
from repro.sim.workload import WorkloadGenerator


class TestWorkloadGenerator:
    def test_reproducible_with_same_seed(self):
        a, b = WorkloadGenerator(seed=5), WorkloadGenerator(seed=5)
        assert a.messages(10) == b.messages(10)
        assert WorkloadGenerator(1).messages(3) != WorkloadGenerator(2).messages(3)

    def test_message_sizes(self):
        messages = WorkloadGenerator().messages(5, size=16)
        assert all(len(m) == 16 for m in messages)

    def test_secrets_bit_length(self):
        secrets = WorkloadGenerator().secrets(20, bits=128)
        assert all(0 <= s < 2**128 for s in secrets)

    def test_user_ids_format(self):
        ids = WorkloadGenerator().user_ids(5)
        assert len(ids) == 5
        assert all(uid.startswith("user-") for uid in ids)

    def test_telemetry_values_bounded(self):
        values = WorkloadGenerator().telemetry_values(100, 3, 9)
        assert all(3 <= v <= 9 for v in values)

    def test_dns_queries_shape(self):
        queries = WorkloadGenerator().dns_queries(10)
        assert len(queries) == 10
        assert all("." in q for q in queries)


class TestMetrics:
    def test_summary_statistics(self):
        stats = summarize([0.001, 0.002, 0.003, 0.004, 0.010])
        assert stats.count == 5
        assert stats.minimum == 0.001
        assert stats.maximum == 0.010
        assert stats.mean == pytest.approx(0.004)
        assert stats.median == 0.003
        assert stats.p95 == 0.010
        assert stats.mean_ms() == pytest.approx(4.0)

    def test_single_sample(self):
        stats = summarize([0.5])
        assert stats.mean == stats.median == stats.p95 == stats.p99 == 0.5
        assert stats.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_p99_tracks_the_tail(self):
        # 50 fast samples and one slow one: p95 skips the outlier at this
        # sample size (nearest rank 49 of 51), p99 must report it.
        samples = [0.001] * 50 + [1.0]
        stats = summarize(samples)
        assert stats.p95 == 0.001
        assert stats.p99 == 1.0
        assert stats.p99_ms() == pytest.approx(1000.0)
        assert stats.to_dict()["p99"] == 1.0

    def test_percentile_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_percentile_with_ties(self):
        ordered = [1.0, 2.0, 2.0, 2.0, 3.0]
        assert percentile(ordered, 0.5) == 2.0
        assert percentile(ordered, 0.75) == 2.0
        assert percentile(ordered, 0.99) == 3.0

    def test_percentile_tiny_samples_nearest_rank(self):
        # Nearest-rank on two samples: the 50th percentile is the first
        # value, anything above falls to the second; never an interpolation.
        assert percentile([1.0, 9.0], 0.5) == 1.0
        assert percentile([1.0, 9.0], 0.51) == 9.0
        assert percentile([1.0, 9.0], 0.99) == 9.0
        assert percentile([1.0, 2.0, 30.0], 0.99) == 30.0

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_overhead_vs(self):
        baseline = summarize([0.010] * 3)
        slower = summarize([0.015] * 3)
        assert slower.overhead_vs(baseline) == pytest.approx(50.0)

    def test_overhead_vs_zero_baseline(self):
        # None (JSON null), never float("inf") — see LatencyStats.overhead_vs.
        assert summarize([1.0]).overhead_vs(summarize([0.0])) is None


PYTHON_STATE_APP = """
def init(config):
    return {"secret": "user-key-material"}

def handle(method, params, state):
    return {"ok": True}
"""


def make_deployment(num_domains=3):
    developer = DeveloperIdentity("adversary-test-developer")
    deployment = Deployment("adversary-test", developer,
                            DeploymentConfig(num_domains=num_domains))
    package = CodePackage("stateful-app", "1.0.0", "python", PYTHON_STATE_APP)
    deployment.publish_and_install(package)
    return deployment


class TestDeveloperCompromise:
    def test_only_developer_domain_breached(self):
        deployment = make_deployment()
        outcome = DeveloperCompromise(deployment).attempt_memory_extraction(["anything"])
        assert outcome.breached_count == 1
        assert deployment.domains[0].domain_id in outcome.domains_breached
        assert len(outcome.domains_resisted) == 2

    def test_breached_domain_state_extracted(self):
        deployment = make_deployment()
        outcome = DeveloperCompromise(deployment).attempt_memory_extraction([])
        developer_domain = deployment.domains[0].domain_id
        assert outcome.extracted_values[developer_domain]["secret"] == "user-key-material"

    def test_cannot_defeat_threshold_two(self):
        deployment = make_deployment()
        assert not DeveloperCompromise(deployment).can_recover_secret(threshold=2)
        assert DeveloperCompromise(deployment).can_recover_secret(threshold=1)

    def test_exploited_enclave_becomes_readable(self):
        deployment = make_deployment()
        deployment.domains[1].compromise()
        outcome = DeveloperCompromise(deployment).attempt_memory_extraction(["anything"])
        assert outcome.breached_count == 2


class TestVendorExploit:
    def test_exploit_hits_only_one_vendor(self):
        deployment = make_deployment(num_domains=5)
        outcome = VendorExploit(deployment).exploit("aws-nitro-sim")
        assert outcome.breached_count == 2  # the two Nitro-style domains
        assert len(outcome.domains_resisted) == 2  # the two SGX-style domains

    def test_defeats_application_depends_on_heterogeneity(self):
        heterogeneous = make_deployment(num_domains=5)
        # 5 domains, 2 on the exploited vendor -> 3 honest remain.
        assert not VendorExploit(heterogeneous).defeats_application("aws-nitro-sim",
                                                                    honest_required=3)
        assert VendorExploit(heterogeneous).defeats_application("aws-nitro-sim",
                                                                honest_required=4)


class TestAttackerReach:
    def test_one_outcome_per_shard(self):
        from repro.apps.keybackup import KeyBackupDeployment

        service = KeyBackupDeployment(num_domains=3, threshold=2, shards=2)
        service.plane.shards[1].domains[2].compromise()
        reaches = attacker_reach(service.plane)
        assert [reach.breached_count for reach in reaches] == [1, 2]
        # On a plane the attacker's best shard decides.
        assert DeveloperCompromise(service.plane).can_recover_secret(threshold=2)

    def test_reads_requested_keys_from_breached_enclaves(self):
        deployment = make_deployment()
        deployment.domains[1].enclave.memory.write("sealed-key", b"k")
        deployment.domains[1].compromise()
        (reach,) = attacker_reach(deployment, ["sealed-key"])
        assert reach.extracted_values[deployment.domains[1].domain_id] == {
            "sealed-key": b"k"}
        assert deployment.domains[2].domain_id not in reach.extracted_values

    def test_reads_the_sandboxed_app_state_inside_a_fallen_enclave(self):
        from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment

        service = KeyBackupDeployment(num_domains=3, threshold=2)
        KeyBackupClient(service, audit_before_use=False).backup_key("alice", 42)
        fallen = service.deployment.domains[1]
        fallen.compromise()
        (reach,) = attacker_reach(service.plane, ["shares"])
        shares = reach.extracted_values[fallen.domain_id]["shares"]
        assert shares == fallen.framework.application_state()["shares"]
        assert "alice" in shares
