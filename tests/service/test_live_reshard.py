"""Live resharding inside a running event loop.

A transition fired by an op's event (or the autoscaler) waits on the loop,
not on a frozen network: ops on keys that keep their owner run to
completion while the migration is under way, and only ops on keys whose
records are in motion park. A key no shard holds is released at the plan,
an enumerated moving key when its migration wave is handed off to the new
owner (or, if its copy failed, at the commit, pinned to its source); each
is then routed to its owner. Events that fall due mid-transition fire
after it commits.
"""

import pytest

from repro.apps.keybackup import KeyBackupClient, KeyBackupDeployment
from repro.apps.keybackup import _KeyBackupShardMigrator as KeyBackupMigrator
from repro.net.eventloop import EventLoop, Sleep, drive, one_op
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
    completion, each reshard's start, plan (with its moving keys), commit
    and return with its rings, each epoch audit's time, and every event
    loop (traced)."""

    def __init__(self, monkeypatch):
        self.ops: dict = {}  # op index -> (due, first step, done)
        self.transitions: list = []
        self.audits: list = []
        self.loops: list = []
        self.plane = None
        recorder = self
        spawn, init = EventLoop.spawn, EventLoop.__init__
        reshard, commit = ShardedService.reshard, ShardedService.commit_epoch
        plan = ShardedService.begin_epoch
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

        def recorded_plan(plane, moving_keys):
            moving_keys = list(moving_keys)
            recorder.transitions[-1].update(planned=plane.clock.now(),
                                            moving=set(moving_keys))
            return plan(plane, moving_keys)

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
                (ShardedService, "begin_epoch", recorded_plan),
                (ShardedService, "commit_epoch", recorded_commit),
                (ScenarioContext, "audit_epochs", recorded_audit)):
            monkeypatch.setattr(owner, name, wrapper)


def open_loop(ops, events, seed=SEED, arrival_rate=600.0):
    return Scenario(name="live-reshard", app="keybackup", ops=ops, shards=2,
                    seed=seed, concurrent=True, arrival_rate=arrival_rate,
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
    """The same grow-only scenario run twice, for replay and placement.

    At 1000 ops/s ops reach keys in motion while the grow migrates, so the
    trace holds parked and signalled ops (at 600 ops/s the grow finishes
    before any op asks for a moving key)."""
    scenario = open_loop(100, (ReshardService(at_op=50, shards=4),),
                         arrival_rate=1000.0)
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


def holders(plane, user) -> list:
    """The shards any of whose domains holds a share of ``user``."""
    return [index for index, shard in enumerate(plane.shards)
            if any(user in domain.framework.application_state()["shares"]
                   for domain in shard.domains)]


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
        # No shard held the fresh user at the plan, so its records were
        # never in motion: it ran once the plan released it, against the
        # new owner, which alone holds the user's shares.
        user = users[op_index]
        assert user not in grow["moving"]
        assert recorder.ops[op_index][2] > grow["planned"]
        assert holders(plane, user) == [grow["new_ring"].shard_for(user)]
    # Released at the plan, not at the commit.
    assert any(recorder.ops[op_index][2] < grow["committed"]
               for op_index in written)


def test_a_same_seed_replay_gives_an_identical_loop_trace(grow_twice):
    (first, _), (second, _) = grow_twice
    [loop], [again] = first.loops, second.loops
    assert loop.trace == again.trace
    kinds = {kind for _, kind, _ in loop.trace}
    assert {"park", "signalled"} <= kinds
    assert any(kind == "spawn" and detail.startswith("drive_all-")
               for _, kind, detail in loop.trace)


def test_a_same_seed_replay_of_a_grow_and_shrink_gives_an_identical_loop_trace(
        grow_and_shrink):
    """Both transitions release keys at their plan and at every wave's
    hand-off; a replay wakes the same tasks at the same instants."""
    first, _ = grow_and_shrink
    second, report = recorded_run(open_loop(150, (
        ReshardService(at_op=50, shards=4), ShrinkService(at_op=60, shards=2),
        AuditEpoch(at_op=61))))
    assert report.failed == 0 and report.all_invariants_ok
    [loop], [again] = first.loops, second.loops
    assert loop.trace == again.trace
    assert any(kind == "signalled" for _, kind, _ in loop.trace)


def keybackup_plane(users: list, migrator: type = KeyBackupMigrator):
    """A routed 2-shard keybackup service holding a key for each of
    ``users`` (user ``i`` backs up ``1000 + i``), moved by ``migrator``."""
    service = KeyBackupDeployment(num_domains=3, threshold=2, shards=2)
    plane = service.plane
    network = Network(clock=plane.clock, default_latency=lan_profile())
    plane.route_via_network(network)
    client = KeyBackupClient(service, audit_before_use=False)
    for index, user in enumerate(users):
        client.backup_key(user, 1000 + index)
    plane.migrator = migrator(service)
    return service, client, network


def live_grow(service, network, ops) -> dict:
    """Grow ``service`` 2 -> 4 as a task on an event loop beside ``ops``,
    ``(start offset, name, op flow)`` each; returns the timeline: the
    reshard's ``began``, ``planned``, ``committed``, ``returned`` and
    ``report``, every ``(time, keys, target)`` hand-off, and each op's
    ``(asked, answered, value or exception)``."""
    plane = service.plane
    clock = plane.clock
    log: dict = {"handoffs": [], "ops": {}}
    plan, hand_off, commit = plane.begin_epoch, plane.hand_off, plane.commit_epoch

    def planned(keys):
        log["planned"] = clock.now()
        return plan(keys)

    def handed_off(keys, target):
        keys = list(keys)
        if keys:
            log["handoffs"].append((clock.now(), keys, target))
        return hand_off(keys, target)

    def committed(ring, unmigrated=None):
        log["committed"] = clock.now()
        return commit(ring, unmigrated)

    plane.begin_epoch, plane.hand_off, plane.commit_epoch = (
        planned, handed_off, committed)

    def resharder():
        log["began"] = clock.now()
        log["report"] = plane.reshard(4)
        log["returned"] = clock.now()
        yield Sleep(0.0)

    def timed(name, flow):
        asked = clock.now()
        try:
            value = yield from one_op(flow)
        except Exception as exc:
            value = exc
        log["ops"][name] = (asked, clock.now(), value)

    loop = EventLoop(network)
    loop.spawn(resharder(), name="reshard")
    start = clock.now()
    for offset, name, flow in ops:
        loop.spawn(timed(name, flow), name=name, start_at=start + offset)
    loop.run()
    return log


def handed_off_at(log, key) -> float:
    [at] = [at for at, keys, _ in log["handoffs"] if key in keys]
    return at


def fresh_mover(plane) -> str:
    """A user no shard holds whose owner changes in a 2 -> 4 grow."""
    grown = plane.ring.resize(4)
    return next(user for user in (f"fresh-{index}" for index in range(100))
                if plane.ring.shard_for(user) != grown.shard_for(user))


class SlowMigrator(KeyBackupMigrator):
    """Every group sleeps ``delay`` simulated seconds before it migrates."""

    delay = 0.5

    def migrate(self, plane, source, target, keys):
        yield Sleep(self.delay)
        return (yield from super().migrate(plane, source, target, keys))


@pytest.mark.parametrize("delay", [0.5, 5.0])
def test_a_moving_key_op_parks_until_its_hand_off_however_long(delay):
    """The migration takes ``delay`` simulated seconds, far beyond the
    per-RPC timeout; an op on a moving key issued meanwhile waits until
    its wave is handed off and then recovers the key from its new owner."""
    users = [f"user-{index}" for index in range(12)]
    service, client, network = keybackup_plane(users, SlowMigrator)
    plane = service.plane
    plane.migrator.delay = delay
    grown = plane.ring.resize(4)
    mover = next(user for user in users
                 if plane.ring.shard_for(user) != grown.shard_for(user))
    log = live_grow(service, network, [
        (0.001, "reader", client.recover_flow([mover], timeout=0.25))])
    asked, answered, value = log["ops"]["reader"]
    assert log["report"].ok and log["report"].migrated_keys > 0
    assert log["returned"] - log["began"] >= delay
    assert log["began"] < asked < handed_off_at(log, mover) <= answered
    assert value == 1000 + users.index(mover)
    assert plane.shard_for(mover) == grown.shard_for(mover)


def test_a_key_no_shard_holds_issued_after_the_plan_completes_before_the_commit():
    service, client, network = keybackup_plane(
        [f"user-{index}" for index in range(12)], SlowMigrator)
    plane = service.plane
    fresh = fresh_mover(plane)
    log = live_grow(service, network, [
        (0.25, "writer", client.backup_flow([(fresh, 7)]))])
    asked, answered, receipt = log["ops"]["writer"]
    assert log["report"].ok
    assert log["planned"] < asked < answered < log["committed"]
    assert not isinstance(receipt, Exception)
    assert holders(plane, fresh) == [plane.ring.shard_for(fresh)]
    assert client.recover_key(fresh) == 7


def test_an_op_issued_between_the_barrier_and_the_plan_waits_only_until_the_plan():
    """Enumerating each old shard takes ``delay``; an op on a key whose
    owner changes, issued meanwhile, parks until the plan releases it and
    completes long before the (equally slow) migration commits."""

    class SlowPlan(SlowMigrator):
        def shard_keys(self, plane, shard_index):
            def pause():
                yield Sleep(self.delay)
            drive(pause(), plane.clock)
            return super().shard_keys(plane, shard_index)

    service, client, network = keybackup_plane(
        [f"user-{index}" for index in range(12)], SlowPlan)
    plane = service.plane
    fresh = fresh_mover(plane)
    log = live_grow(service, network, [
        (0.001, "writer", client.backup_flow([(fresh, 7)]))])
    asked, answered, receipt = log["ops"]["writer"]
    assert log["began"] < asked < log["planned"] <= answered
    assert answered < log["planned"] + SlowMigrator.delay < log["committed"]
    assert not isinstance(receipt, Exception)
    assert holders(plane, fresh) == [plane.ring.shard_for(fresh)]
    assert client.recover_key(fresh) == 7


def test_an_enumerated_key_is_released_by_its_wave_hand_off():
    """Waves of two keys: each key is handed off once its own wave's load
    verified, never before; a key whose load failed is never handed off,
    waits for the commit and is then pinned to its source."""
    users = [f"user-{index}" for index in range(24)]
    loaded: dict = {}

    class TwoPerWave(KeyBackupMigrator):
        keys_per_wave = 2
        victim = None

        def load(self, plane, shard_index, records):
            failed = yield from super().load(plane, shard_index, records)
            if self.victim in records:
                failed[self.victim] = "injected load failure"
            for key in records:
                if key not in failed:
                    loaded[key] = plane.clock.now()
            return failed

    service, client, network = keybackup_plane(users, TwoPerWave)
    plane = service.plane
    grown = plane.ring.resize(4)
    movers = [user for user in users
              if plane.ring.shard_for(user) != grown.shard_for(user)]
    victim = plane.migrator.victim = movers[-1]
    source = plane.ring.shard_for(victim)
    log = live_grow(service, network, [
        (0.001, user, client.recover_flow([user], timeout=0.25))
        for user in movers])
    report = log["report"]
    assert list(report.failed_keys) == [victim]
    assert len({at for at, _, _ in log["handoffs"]}) > 1
    handed = [key for _, keys, _ in log["handoffs"] for key in keys]
    assert sorted(handed) == sorted(set(movers) - {victim})
    for at, keys, target in log["handoffs"]:
        assert len(keys) <= 2
        for key in keys:
            assert loaded[key] <= at and target == grown.shard_for(key)
    for user in movers:
        asked, answered, value = log["ops"][user]
        assert value == 1000 + users.index(user)
        release = (log["committed"] if user == victim
                   else handed_off_at(log, user))
        assert asked < release <= answered
    assert any(log["ops"][user][1] < log["committed"] for user in handed)
    assert plane.pending_migrations() == [(victim, source)]
    assert plane.shard_for(victim) == source
    assert holders(plane, victim) == [source]
