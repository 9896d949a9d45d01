"""One flow per app, two drivers.

Each application writes its batched operation once, as a task generator in
its client. A batched span drives it synchronously; a concurrent op runs it
on the event loop over a list of one; a single client call and an unbatched
run are the same flow over one op. These tests pin that all of them are the
same flow, that single calls inherit the flows' failover, and that the flows
also run over the parallel executor's pipes.
"""

import pytest

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.apps.odoh import ObliviousDnsClient, ObliviousDnsDeployment
from repro.apps.threshold_sign import CustodyClient, CustodyDeployment
from repro.crypto import rng
from repro.errors import KeyMigratingError
from repro.net.eventloop import EventLoop, drive
from repro.net.latency import lan_profile
from repro.net.transport import Network
from repro.service.client import MIGRATION_RETRIES, MIGRATION_RETRY_DELAY
from repro.sim import MultiClientWorkload
from repro.sim.asyncops import keybackup_op
from repro.sim.scenarios import runner
from repro.sim.scenarios.apps import make_driver

APPS = ["keybackup", "prio", "threshold_sign", "odoh"]


def run_op_zero(app: str, concurrent: bool, seed: int = 2047):
    """Op 0 of a routed 2-shard deployment: as a span of one, or as a task."""
    with rng.deterministic(seed):
        driver = make_driver(app, seed, 4, shards=2)
        network = Network(clock=driver.deployment.clock, default_latency=lan_profile())
        driver.plane.route_via_network(network)
        driver.plane.set_service_time(500e-6)
        started = network.clock.now()
        if concurrent:
            loop = EventLoop(network)
            task = loop.spawn(driver.op_task(None, 0))
            loop.run()
            outcome = task.result
        else:
            [outcome] = driver.run_span(0, 1)
    return (outcome, network.stats.messages_sent, network.stats.bytes_sent,
            network.clock.now() - started)


@pytest.mark.parametrize("app", APPS)
def test_a_span_of_one_and_a_concurrent_op_are_the_same_flow(app):
    span = run_op_zero(app, concurrent=False)
    task = run_op_zero(app, concurrent=True)
    assert span == task
    assert span[1] > 0 and span[3] > 0


def run_workload(monkeypatch, app: str, **options):
    """A small workload's outcomes, messages, bytes and simulated time."""
    networks = []
    run_ops = runner.run_ops

    def spy(ctx, *args, **kwargs):
        networks.append(ctx.network)
        return run_ops(ctx, *args, **kwargs)

    monkeypatch.setattr(runner, "run_ops", spy)
    report = MultiClientWorkload(app, num_clients=4, shards=2,
                                 service_time=500e-6, **options).run()
    [network] = networks
    return (report.succeeded, report.failures, report.messages_sent,
            network.stats.bytes_sent, report.sim_seconds)


@pytest.mark.parametrize("app", APPS)
def test_an_unbatched_run_is_spans_of_one(monkeypatch, app):
    unbatched = run_workload(monkeypatch, app, batched=False)
    spans_of_one = run_workload(monkeypatch, app, batched=True, batch_size=1)
    assert unbatched == spans_of_one
    assert unbatched[0] == 4 and unbatched[2] > 0


def routed(plane):
    network = Network(clock=plane.clock, default_latency=lan_profile())
    plane.route_via_network(network)
    return network


def run_keybackup_span(through_op: bool):
    """Six backups (one of a user already stored) then their recovery: as
    keybackup_op over the span, or as backup_keys then recover_keys."""
    with rng.deterministic(2047):
        service = KeyBackupDeployment(num_domains=4, threshold=3, shards=2)
        client = KeyBackupClient(service, audit_before_use=False)
        network = routed(service.plane)
        service.plane.set_service_time(500e-6)
        client.backup_key("user-0", 7)
        items = [(f"user-{index}", 1000 + index) for index in range(6)]
        sent, size, started = (network.stats.messages_sent,
                               network.stats.bytes_sent, network.clock.now())
        if through_op:
            stored = []
            outcomes = drive(keybackup_op(client, items, on_stored=stored.extend),
                             service.plane.clock)
        else:
            receipts = client.backup_keys(items)
            stored = [item for item, receipt in zip(items, receipts)
                      if not isinstance(receipt, Exception)]
            recovered = dict(zip([user for user, _ in stored],
                                 client.recover_keys([user for user, _ in stored])))
            outcomes = [receipt if isinstance(receipt, Exception)
                        else recovered[user] == secret
                        for (user, secret), receipt in zip(items, receipts)]
    return ([repr(outcome) for outcome in outcomes], stored,
            network.stats.messages_sent - sent, network.stats.bytes_sent - size,
            network.clock.now() - started)


def test_keybackup_op_is_backup_keys_then_recover_keys():
    """The one key-backup op, which run_span and op_task both run, sends the
    same messages and bytes and takes the same simulated time as the batch
    API's two calls over the same items."""
    through_op = run_keybackup_span(through_op=True)
    assert through_op == run_keybackup_span(through_op=False)
    outcomes, stored, messages, _, elapsed = through_op
    assert "share already stored" in outcomes[0]
    assert outcomes[1:] == ["True"] * 5
    assert [user for user, _ in stored] == [f"user-{index}" for index in range(1, 6)]
    assert messages > 0 and elapsed > 0


def test_single_recover_fails_over_a_crashed_domain():
    service = KeyBackupDeployment(num_domains=4, threshold=3)
    client = KeyBackupClient(service, audit_before_use=False)
    network = routed(service.plane)
    client.backup_key("alice", 0xC0FFEE)
    network.crash(service.deployment.domains[0].domain_id)
    assert client.recover_key("alice") == 0xC0FFEE


def test_single_sign_fails_over_a_crashed_signer():
    service = CustodyDeployment(threshold=2, num_signers=3, keygen_seed=b"failover")
    client = CustodyClient(service, audit_before_use=False)
    network = routed(service.plane)
    network.crash(service.deployment.domains[1].domain_id)
    transaction = client.sign_transaction(b"move funds while signer 1 is down")
    assert client.verify(transaction)
    assert transaction.signer_indices == (2, 3)


@pytest.mark.parametrize("app", APPS)
def test_parallel_mode_runs_every_app(app):
    report = MultiClientWorkload(app, num_clients=6, parallel=True, workers=2,
                                 shards=2, batch_size=4).run()
    assert report.succeeded == report.ops == 6
    assert report.consistency_issues == []


def test_parallel_requests_are_not_answered_from_the_build_traffic():
    """A worker serves with its plane's own servers, which answered prio's
    ``configure`` calls during the build from the same client addresses.
    On one shard the executor's first request ids meet those cached
    responses, so the worker must key its dedup apart from them."""
    report = MultiClientWorkload("prio", num_clients=4, parallel=True, workers=1,
                                 shards=1, batch_size=4).run()
    assert report.succeeded == report.ops == 4
    assert report.consistency_issues == []


def test_resolve_many_isolates_a_mid_migration_name():
    names = [f"host{index}.example" for index in range(3)]
    service = ObliviousDnsDeployment(
        records={name: f"10.0.0.{index}" for index, name in enumerate(names)},
        shards=2)
    client = ObliviousDnsClient(service, audit_before_use=False)
    service.plane.begin_epoch([names[0]])
    started = service.plane.clock.now()
    outcomes = client.resolve_many(names)
    assert isinstance(outcomes[0], KeyMigratingError)
    assert [(response.found, response.address) for response in outcomes[1:]] == [
        (True, "10.0.0.1"), (True, "10.0.0.2")]
    # The moving name backed off between each of its bounded retries.
    assert (service.plane.clock.now() - started
            >= MIGRATION_RETRIES * MIGRATION_RETRY_DELAY)
    # A single resolve is the same flow: the other names answer, and the
    # moving one raises only after the same bounded back-off.
    assert client.resolve(names[1]).address == "10.0.0.1"
    started = service.plane.clock.now()
    with pytest.raises(KeyMigratingError):
        client.resolve(names[0])
    assert (service.plane.clock.now() - started
            >= MIGRATION_RETRIES * MIGRATION_RETRY_DELAY)
