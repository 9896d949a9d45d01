"""Each request pays its own vsock hops, so shards scale in the open loop.

A trust domain's socket hops charge their delay to the response of the
payload that crossed them, not to the plane's shared clock. Requests to
different domains therefore cross their hops side by side, and adding shards
adds hop capacity.
"""

import pytest

from repro.core.deployment import Deployment, DeploymentConfig
from repro.core.package import CodePackage, DeveloperIdentity
from repro.crypto.bilinear import BLS_SCALAR_ORDER
from repro.sandbox.programs import bls_share_source
from repro.sim.scenarios.runner import ScenarioRunner
from repro.sim.scenarios.spec import Scenario


def test_a_scatter_to_enclave_domains_pays_the_largest_chain_not_the_sum():
    deployment = Deployment("scatter", DeveloperIdentity("acme"),
                            DeploymentConfig(num_domains=3,
                                             include_developer_domain=False))
    deployment.publish_and_install(
        CodePackage("custody", "1.0.0", "wvm", bls_share_source()))
    domains = deployment.domains
    start = deployment.clock.now()
    chains_before = [domain.vsock.total_simulated_latency for domain in domains]
    batches = [deployment.begin_invoke_batch(
        index, [("scalar_mul", [2, 3, BLS_SCALAR_ORDER])] * 4)
        for index in range(len(domains))]
    for batch in batches:
        assert [result["value"] for result in batch.collect()] == [6] * 4
    chains = [domain.vsock.total_simulated_latency - before
              for domain, before in zip(domains, chains_before)]
    elapsed = deployment.clock.now() - start
    # The deployment's own network has no latency: the scatter takes as
    # long as its slowest domain's hops.
    assert elapsed == pytest.approx(max(chains), rel=1e-9)
    assert elapsed < 0.5 * sum(chains)


def open_loop_p99(shards: int) -> float:
    report = ScenarioRunner(Scenario(
        name="hop-scaling", app="keybackup", ops=300, shards=shards, seed=1001,
        concurrent=True, arrival_rate=3000.0, service_time=0.0005)).run()
    assert report.failed == 0 and report.all_invariants_ok
    return report.latency.p99


def test_four_shards_cut_the_open_loop_tail_above_two_shard_capacity():
    """3000 ops/s overloads two shards' service queues (0.5 ms per call);
    four shards keep up. With the hops on one global clock both planes
    queued behind the same server and gave the same p99 to the digit."""
    two, four = open_loop_p99(2), open_loop_p99(4)
    assert four < 0.5 * two
