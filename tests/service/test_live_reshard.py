"""Live resharding inside a running event loop.

A transition fired by an op's event (or the autoscaler) waits on the loop,
not on a frozen network: ops on keys that keep their owner run to
completion while the migration is under way, ops on moving keys park until
the commit and are then routed to the new owner, and events that fall due
mid-transition fire after it commits.
"""

import pytest

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.net.eventloop import EventLoop, Sleep, one_op
from repro.net.latency import lan_profile
from repro.net.transport import Network
from repro.service.sharded import ShardedService
from repro.sim.faults import AuditEpoch, ReshardService, ShrinkService
from repro.sim.scenarios.runner import ScenarioContext, ScenarioRunner
from repro.sim.scenarios.spec import Scenario
from repro.sim.workload import WorkloadGenerator

SEED = 1000


class Recorder:
    """Records, while installed, each op task's due time, first step and
    completion, each reshard's start, commit and return with its rings,
    each epoch audit's time, and every event loop (traced)."""

    def __init__(self, monkeypatch):
        self.ops: dict = {}  # op index -> (due, first step, done)
        self.transitions: list = []
        self.audits: list = []
        self.loops: list = []
        self.plane = None
        recorder = self
        spawn, init = EventLoop.spawn, EventLoop.__init__
        reshard, commit = ShardedService.reshard, ShardedService.commit_epoch
        audit = ScenarioContext.audit_epochs

        def timed(clock, op_index, gen, due):
            first = clock.now()
            try:
                return (yield from gen)
            finally:
                recorder.ops[op_index] = (due, first, clock.now())

        def recorded_spawn(loop, gen, name=None, start_at=None):
            if name is not None and name.startswith("op-"):
                gen = timed(loop.clock, int(name[3:]), gen, start_at)
            return spawn(loop, gen, name=name, start_at=start_at)

        def traced_init(loop, network, max_events=1_000_000, trace=False):
            init(loop, network, max_events, trace=True)
            recorder.loops.append(loop)

        def recorded_reshard(plane, new_shard_count):
            recorder.plane = plane
            transition = {"began": plane.clock.now(), "old_ring": plane.ring}
            recorder.transitions.append(transition)
            report = reshard(plane, new_shard_count)
            transition["returned"] = plane.clock.now()
            return report

        def recorded_commit(plane, ring, unmigrated=None):
            recorder.transitions[-1].update(committed=plane.clock.now(),
                                            new_ring=ring)
            return commit(plane, ring, unmigrated)

        def recorded_audit(ctx):
            recorder.audits.append(ctx.plane.clock.now())
            return audit(ctx)

        for owner, name, wrapper in (
                (EventLoop, "spawn", recorded_spawn),
                (EventLoop, "__init__", traced_init),
                (ShardedService, "reshard", recorded_reshard),
                (ShardedService, "commit_epoch", recorded_commit),
                (ScenarioContext, "audit_epochs", recorded_audit)):
            monkeypatch.setattr(owner, name, wrapper)


def open_loop(ops, events, seed=SEED):
    return Scenario(name="live-reshard", app="keybackup", ops=ops, shards=2,
                    seed=seed, concurrent=True, arrival_rate=600.0,
                    service_time=0.0005, events=events)


def recorded_run(scenario):
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = Recorder(monkeypatch)
        report = ScenarioRunner(scenario).run()
    return recorder, report


def moves(transition, user) -> bool:
    return (transition["old_ring"].shard_for(user)
            != transition["new_ring"].shard_for(user))


@pytest.fixture(scope="module")
def grow_and_shrink():
    """A 2->4 grow at op 50; the 4->2 shrink (op 60) and an epoch audit
    (op 61) fall due while the grow is still migrating."""
    return recorded_run(open_loop(150, (
        ReshardService(at_op=50, shards=4), ShrinkService(at_op=60, shards=2),
        AuditEpoch(at_op=61))))


@pytest.fixture(scope="module")
def grow_twice():
    """The same grow-only scenario run twice, for replay and placement."""
    scenario = open_loop(100, (ReshardService(at_op=50, shards=4),))
    return recorded_run(scenario), recorded_run(scenario)


def test_every_op_succeeds_and_every_invariant_holds(grow_and_shrink):
    recorder, report = grow_and_shrink
    assert report.failed == 0 and report.all_invariants_ok
    assert len(recorder.transitions) == 2
    assert [audit["fetched"] and audit["ok"]
            for audit in report.epoch_audits] == [True, True]


def test_ops_on_keys_that_stay_complete_before_the_commit(grow_and_shrink):
    recorder, _ = grow_and_shrink
    users = WorkloadGenerator(SEED).user_ids(150)
    for transition in recorder.transitions:
        staying = [
            op_index for op_index, (_, first, done) in recorder.ops.items()
            if transition["began"] < first and done < transition["committed"]
            and not moves(transition, users[op_index])]
        assert staying, "no op on a staying key ran during the transition"


def test_events_due_mid_transition_fire_after_the_commit(grow_and_shrink):
    recorder, _ = grow_and_shrink
    grow, shrink = recorder.transitions
    # Both events fell due while the grow was migrating ...
    assert recorder.ops[60][0] < grow["committed"]
    assert recorder.ops[61][0] < grow["committed"]
    # ... other ops ran meanwhile, and each event fired only once the
    # transition before it had returned: never nested inside it.
    assert any(grow["began"] < done < grow["committed"]
               for _, _, done in recorder.ops.values())
    assert shrink["began"] >= grow["returned"]
    [audited] = recorder.audits
    assert audited >= shrink["returned"]


def test_a_fresh_moving_key_written_mid_transition_lands_on_its_new_owner(
        grow_twice):
    (recorder, report), _ = grow_twice
    assert report.failed == 0 and report.all_invariants_ok
    [grow] = recorder.transitions
    users = WorkloadGenerator(SEED).user_ids(100)
    written = [op_index for op_index, (_, first, _) in recorder.ops.items()
               if grow["began"] < first < grow["committed"]
               and moves(grow, users[op_index])]
    assert written, "no op on a moving key was issued mid-transition"
    plane = recorder.plane
    for op_index in written:
        # It parked until the commit and completed after it, against the
        # new owner, which alone holds the user's shares.
        assert recorder.ops[op_index][2] > grow["committed"]
        user = users[op_index]
        holders = [index for index, shard in enumerate(plane.shards)
                   if any(user in domain.framework.application_state()["shares"]
                          for domain in shard.domains)]
        assert holders == [grow["new_ring"].shard_for(user)]


def test_a_same_seed_replay_gives_an_identical_loop_trace(grow_twice):
    (first, _), (second, _) = grow_twice
    [loop], [again] = first.loops, second.loops
    assert loop.trace == again.trace
    kinds = {kind for _, kind, _ in loop.trace}
    assert {"park", "signalled"} <= kinds
    assert any(kind == "spawn" and detail.startswith("drive_all-")
               for _, kind, detail in loop.trace)


@pytest.mark.parametrize("delay", [0.5, 5.0])
def test_a_moving_key_op_parks_until_the_commit_however_long(delay):
    """The migration takes ``delay`` simulated seconds, far beyond the
    per-RPC timeout; an op on a moving key issued meanwhile waits for the
    commit and then recovers the key from its new owner."""
    service = KeyBackupDeployment(num_domains=3, threshold=2, shards=2)
    plane = service.plane
    clock = plane.clock
    network = Network(clock=clock, default_latency=lan_profile())
    plane.route_via_network(network)
    client = KeyBackupClient(service, audit_before_use=False)
    users = [f"user-{index}" for index in range(12)]
    for index, user in enumerate(users):
        client.backup_key(user, 1000 + index)
    grown = plane.ring.resize(4)
    mover = next(user for user in users
                 if plane.ring.shard_for(user) != grown.shard_for(user))

    class SlowMigrator(type(plane.migrator)):
        def migrate(self, plane, source, target, keys):
            yield Sleep(delay)
            return (yield from super().migrate(plane, source, target, keys))

    plane.migrator = SlowMigrator(service)
    log = {}

    def resharder():
        log["began"] = clock.now()
        log["report"] = plane.reshard(4)
        log["returned"] = clock.now()
        yield Sleep(0.0)

    def reader():
        log["asked"] = clock.now()
        log["value"] = yield from one_op(
            client.recover_flow([mover], timeout=0.25))
        log["answered"] = clock.now()

    loop = EventLoop(network)
    loop.spawn(resharder(), name="reshard")
    loop.spawn(reader(), name="reader", start_at=clock.now() + 0.001)
    loop.run()
    assert log["report"].ok and log["report"].migrated_keys > 0
    assert log["returned"] - log["began"] >= delay
    assert log["began"] < log["asked"] < log["returned"] <= log["answered"]
    assert log["value"] == 1000 + users.index(mover)
    assert plane.shard_for(mover) == grown.shard_for(mover)
