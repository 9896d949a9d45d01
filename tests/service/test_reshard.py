"""Tests for live resharding: ring stability properties, the epoch router's
fail-safe guarantees, the migration coordinator, and the scatter negative
paths the migration drivers rely on."""

import pytest

from repro.errors import (
    InvalidReshardError,
    KeyMigratingError,
    ReshardError,
    ServiceSpecError,
)
from repro.net.latency import lan_profile
from repro.net.transport import FaultDecision, Network
from repro.service import (
    HashRing,
    MigrationOutcome,
    RingDiff,
    ServiceSpec,
    ShardMigrator,
)
from repro.core.package import CodePackage, DeveloperIdentity

COUNTER_APP = '''
def init(config):
    previous = config.get("previous_state")
    if previous:
        return previous
    return {"items": {}}

def handle(method, params, state):
    if method == "put":
        state["items"][params["key"]] = params["value"]
        return {"stored": True}
    if method == "get":
        return {"value": state["items"].get(params["key"])}
    if method == "keys":
        return {"keys": sorted(state["items"].keys())}
    if method == "pop":
        return {"removed": state["items"].pop(params["key"], None) is not None}
    raise ValueError("unknown method: " + method)
'''


def make_plane(shards=2, domains=1, name="resvc", **spec_kwargs):
    package = CodePackage(name, "1.0.0", "python", COUNTER_APP)
    spec = ServiceSpec(name=name, packages=(package,), domains_per_shard=domains,
                       shard_count=shards, include_developer_domain=False,
                       **spec_kwargs)
    return spec.synthesize(DeveloperIdentity(f"{name}-dev"))


def counter_wave(plane, shard_index, entry, params_list):
    """One wave of ``entry`` calls to domain 0 of ``shard_index``; a task
    generator returning one outcome per call."""
    return (yield from plane.begin_scatter_to_shards(
        [(shard_index, 0, entry, params) for params in params_list]
    ).wait_event())


class CounterMigrator(ShardMigrator):
    """Moves the counter app's items between shards (domain 0 holds them),
    one wave per hook."""

    def shard_keys(self, plane, shard_index):
        return plane.invoke_on_shard(shard_index, 0, "keys", {})["value"]["keys"]

    def export(self, plane, shard_index, keys):
        results = yield from counter_wave(plane, shard_index, "get",
                                          [{"key": key} for key in keys])
        exported, failed = {}, {}
        for key, result in zip(keys, results):
            if isinstance(result, Exception):
                failed[key] = f"get failed: {result}"
            else:
                exported[key] = [result["value"]["value"]]
        return exported, failed

    def load(self, plane, shard_index, records):
        keys = sorted(records)
        results = yield from counter_wave(
            plane, shard_index, "put",
            [{"key": key, "value": records[key][0]} for key in keys])
        return {key: f"put failed: {result}"
                for key, result in zip(keys, results)
                if isinstance(result, Exception)}

    def remove(self, plane, shard_index, keys):
        results = yield from counter_wave(plane, shard_index, "pop",
                                          [{"key": key} for key in keys])
        return [key for key, result in zip(keys, results)
                if isinstance(result, Exception)]


# ---------------------------------------------------------------------------
# HashRing stability properties
# ---------------------------------------------------------------------------

class TestRingProperties:
    KEYS = [f"key-{i}" for i in range(2000)]

    @pytest.mark.parametrize("shard_count", [2, 3, 4, 7])
    def test_growing_moves_about_one_over_n_plus_one(self, shard_count):
        """N -> N+1 moves ~1/(N+1) of keys, far from a modulo reshuffle."""
        ring = HashRing(shard_count)
        diff = ring.diff(ring.grow(shard_count + 1), self.KEYS)
        expected = 1.0 / (shard_count + 1)
        assert diff.moved_fraction <= expected * 1.6 + 0.02, (
            f"{shard_count}->{shard_count + 1} moved {diff.moved_fraction:.2%}, "
            f"expected about {expected:.2%}"
        )
        assert diff.moved_fraction > 0
        # Every move lands on the new shard — existing arcs never trade keys.
        assert all(target == shard_count for _, _, target in diff.moved)

    @pytest.mark.parametrize("shard_count", [2, 4, 8])
    def test_spread_stays_under_docstring_bound(self, shard_count):
        """The largest shard carries < 1.6x the mean at 128 vnodes."""
        ring = HashRing(shard_count, vnodes=128)
        counts = ring.distribution(f"user-{i}" for i in range(20000))
        mean = sum(counts) / len(counts)
        assert max(counts) < 1.6 * mean, counts

    def test_distinct_salts_give_uncorrelated_placements(self):
        """Two services' rings place the same keys independently."""
        a = HashRing(4, salt=b"repro/service/alpha")
        b = HashRing(4, salt=b"repro/service/beta")
        agreements = sum(1 for key in self.KEYS
                         if a.shard_for(key) == b.shard_for(key))
        # Independent placement agrees ~1/4 of the time; anything close to
        # half would mean the salts are correlated.
        assert 0.15 < agreements / len(self.KEYS) < 0.40

    def test_diff_requires_matching_salts(self):
        with pytest.raises(ValueError):
            HashRing(2, salt=b"a").diff(HashRing(3, salt=b"b"), ["k"])

    def test_grow_preserves_vnodes_and_salt(self):
        ring = HashRing(2, vnodes=64, salt=b"custom")
        grown = ring.grow(5)
        assert (grown.shard_count, grown.vnodes, grown.salt) == (5, 64, b"custom")

    def test_diff_groups_by_route(self):
        ring = HashRing(2)
        diff = ring.diff(ring.grow(4), self.KEYS[:500])
        routes = diff.by_route()
        assert sum(len(keys) for keys in routes.values()) == diff.moved_count
        assert all(source in (0, 1) and target in (2, 3)
                   for source, target in routes)

    def test_empty_diff(self):
        ring = HashRing(3)
        diff = ring.diff(ring.grow(4), [])
        assert diff.moved_fraction == 0.0 and diff.moved_count == 0
        assert isinstance(diff, RingDiff)


class TestRingShrinkProperties:
    """Mirror-image stability: the diff properties hold for shrinks too."""

    KEYS = [f"key-{i}" for i in range(2000)]

    @pytest.mark.parametrize("shard_count,retire", [(3, 1), (4, 2), (8, 3)])
    def test_shrinking_moves_about_k_over_n(self, shard_count, retire):
        """N -> N-k moves ~k/N of keys — only what the retired shards owned."""
        ring = HashRing(shard_count)
        survivors = shard_count - retire
        diff = ring.diff(ring.shrink(survivors), self.KEYS)
        expected = retire / shard_count
        assert diff.moved_fraction <= expected * 1.6 + 0.02, (
            f"{shard_count}->{survivors} moved {diff.moved_fraction:.2%}, "
            f"expected about {expected:.2%}"
        )
        assert diff.moved_fraction > 0

    def test_only_retired_shards_lose_keys(self):
        """Every moved key leaves a retired shard and lands on a survivor."""
        ring = HashRing(4)
        diff = ring.diff(ring.shrink(2), self.KEYS)
        assert diff.source_shards() == {2, 3}
        assert diff.target_shards() <= {0, 1}
        # Keys on surviving shards never trade places between survivors.
        for key in self.KEYS:
            if ring.shard_for(key) < 2:
                assert ring.shrink(2).shard_for(key) == ring.shard_for(key)

    def test_grow_then_shrink_round_trips_placement(self):
        """grow∘shrink is the identity on routing for every key."""
        ring = HashRing(2)
        round_tripped = ring.grow(5).shrink(2)
        assert all(round_tripped.shard_for(key) == ring.shard_for(key)
                   for key in self.KEYS)

    def test_shrunk_ring_equals_fresh_ring(self):
        """Shrinking reproduces exactly the ring a smaller service builds."""
        shrunk = HashRing(6, vnodes=64, salt=b"custom").shrink(3)
        fresh = HashRing(3, vnodes=64, salt=b"custom")
        assert (shrunk.shard_count, shrunk.vnodes, shrunk.salt) == (3, 64, b"custom")
        assert all(shrunk.shard_for(key) == fresh.shard_for(key)
                   for key in self.KEYS[:500])

    def test_shrink_salt_decorrelation(self):
        """Differently salted rings retire different slices of the keyspace."""
        moved_sets = []
        for salt in (b"repro/service/alpha", b"repro/service/beta"):
            ring = HashRing(4, salt=salt)
            diff = ring.diff(ring.shrink(2), self.KEYS)
            moved_sets.append({key for key, _, _ in diff.moved})
        overlap = len(moved_sets[0] & moved_sets[1]) / len(moved_sets[0])
        # Independent ~50% samples overlap ~50%; near 1.0 would mean the
        # salts correlate retirement.
        assert 0.3 < overlap < 0.7, overlap

    def test_resize_direction_validation(self):
        ring = HashRing(4)
        with pytest.raises(ValueError):
            ring.shrink(0)
        with pytest.raises(ValueError):
            ring.shrink(4)
        with pytest.raises(ValueError):
            ring.shrink(5)
        with pytest.raises(ValueError):
            ring.grow(4)
        with pytest.raises(ValueError):
            ring.grow(3)
        assert ring.resize(4).shard_count == 4  # resize itself is unopinionated


# ---------------------------------------------------------------------------
# Epoch router + coordinator
# ---------------------------------------------------------------------------

class TestLiveReshard:
    def _loaded_plane(self, keys, shards=2):
        plane = make_plane(shards=shards)
        plane.migrator = CounterMigrator()
        for key in keys:
            plane.invoke(key, 0, "put", {"key": key, "value": f"v-{key}"})
        return plane

    def test_reshard_moves_minimal_keys_and_flips_epoch(self):
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        before = {key: plane.shard_for(key) for key in keys}
        report = plane.reshard(4)
        assert report.ok and plane.epoch == 1 and plane.num_shards == 4
        assert report.new_shard_count == 4
        # Unmoved keys kept their placement; every key's record is readable
        # from its new owner.
        for key in keys:
            after = plane.shard_for(key)
            if after == before[key]:
                continue
            assert after >= 2  # moves only land on grown shards
        for key in keys:
            value = plane.invoke(key, 0, "get", {"key": key})["value"]["value"]
            assert value == f"v-{key}"
        assert report.diff.moved_count == report.migrated_keys > 0

    def test_degenerate_transitions_raise_typed_error_untouched(self):
        """Same-count, zero, and negative targets fail before anything moves."""
        plane = self._loaded_plane(["a", "b"])

        class CountingMigrator(CounterMigrator):
            enumerations = 0

            def shard_keys(self, plane, shard_index):
                type(self).enumerations += 1
                return super().shard_keys(plane, shard_index)

        plane.migrator = CountingMigrator()
        for degenerate in (2, 0, -1):
            with pytest.raises(InvalidReshardError):
                plane.reshard(degenerate)
        # Validation rejected the requests before enumerating a single shard;
        # the plane is untouched.
        assert CountingMigrator.enumerations == 0
        assert plane.epoch == 0 and plane.num_shards == 2

    def test_moving_keys_fail_safely_during_migration(self):
        """Mid-migration, a moving key's routing raises instead of guessing."""
        plane = self._loaded_plane([f"key-{i}" for i in range(10)])
        plane.begin_epoch(["key-3"])
        with pytest.raises(KeyMigratingError):
            plane.shard_for("key-3")
        # Scatter isolates the refusal to the moving key's own call.
        outcomes = plane.scatter([("key-3", 0, "get", {"key": "key-3"}),
                                  ("key-4", 0, "get", {"key": "key-4"})])
        assert isinstance(outcomes[0], KeyMigratingError)
        assert outcomes[1]["value"]["value"] == "v-key-4"
        plane.commit_epoch(plane.ring)
        assert plane.shard_for("key-3") in range(plane.num_shards)

    def test_a_transition_narrows_its_refusal_at_the_plan_and_each_hand_off(self):
        """Barrier: every key whose owner changes is refused. Plan: only the
        moving set is, the rest route by the resized ring. Hand-off: a
        moving key routes to its target. Each step fires the signal parked
        calls wait on and arms a fresh one; the commit ends it."""
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        shrunk = plane.ring.resize(1)
        changing = [key for key in keys if plane.shard_for(key) == 1]
        moving, released = changing[0], changing[1]
        plane.begin_transition(shrunk)
        barrier = plane.routes_changed
        for key in changing:
            assert isinstance(plane._route(key), KeyMigratingError)
        plane.begin_epoch([moving])
        plan = plane.routes_changed
        assert barrier.fired and not plan.fired
        assert plane.shard_for(released) == 0
        with pytest.raises(KeyMigratingError):
            plane.shard_for(moving)
        plane.hand_off([moving], 0)
        assert plan.fired and not plane.routes_changed.fired
        assert plane.shard_for(moving) == plane.handed_off(moving) == 0
        last = plane.routes_changed
        plane.commit_epoch(shrunk)
        assert last.fired and plane.routes_changed is None
        assert plane.handed_off(moving) is None

    def test_routing_outside_a_transition_reads_the_ring_once_per_key(
            self, monkeypatch):
        plane = self._loaded_plane([])
        lookups = []
        ring_lookup = plane.ring.shard_for
        monkeypatch.setattr(plane.ring, "shard_for",
                            lambda key: lookups.append(key) or ring_lookup(key))
        keys = [f"key-{i}" for i in range(8)]
        plane.scatter([(key, 0, "get", {"key": key}) for key in keys])
        assert lookups == keys

    def test_a_migrator_migrates_in_waves_of_at_most_keys_per_wave(self):
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        exports = []

        class ThreePerWave(CounterMigrator):
            keys_per_wave = 3

            def export(self, plane, shard_index, keys):
                exports.append(list(keys))
                return (yield from super().export(plane, shard_index, keys))

        plane.migrator = ThreePerWave()
        groups = plane.ring.diff(plane.ring.grow(4), keys).by_route()
        report = plane.reshard(4)
        assert report.ok
        assert report.migrated_keys == sum(len(moved) for moved in groups.values())
        assert all(len(wave) <= 3 for wave in exports)
        assert len(exports) == sum(-(-len(moved) // 3) for moved in groups.values())
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"

    def test_a_crash_after_a_hand_off_keeps_the_handed_off_keys_moved(self):
        """A group that raises after its first wave was handed off (and
        removed from the source) pins only the keys not handed off; the
        handed-off ones route to the target, their source copies queued as
        stale, and no record is lost."""
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        groups = plane.ring.diff(plane.ring.grow(4), keys).by_route()
        crashed = max(groups, key=lambda route: len(groups[route]))
        assert len(groups[crashed]) > 2

        class CrashesAfterOneWave(CounterMigrator):
            keys_per_wave = 2

            def remove(self, plane, shard_index, keys):
                leftover = yield from super().remove(plane, shard_index, keys)
                if keys and set(keys) <= set(groups[crashed]):
                    raise RuntimeError("boom")
                return leftover

        plane.migrator = CrashesAfterOneWave()
        with pytest.raises(ReshardError, match="migration failed") as excinfo:
            plane.reshard(4)
        report = excinfo.value.report
        landed = sorted(groups[crashed])[:2]
        assert sorted(report.failed_keys) == sorted(groups[crashed])[2:]
        assert sorted(report.stale_keys) == landed
        for key in landed:
            assert plane.shard_for(key) == crashed[1]
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"
        plane.migrator = CounterMigrator()
        drain = plane.finish_reshard()
        assert not plane.pending_cleanups() and not plane.pending_migrations()
        assert drain.migrated_keys == len(groups[crashed]) - 2

    def test_scatter_routes_each_key_once_per_wave(self, monkeypatch):
        """A wave resolves each distinct key once, however many calls carry
        it; a moving key is not cached, so each of its calls fails alone."""
        plane = make_plane(shards=2, domains=2)
        plane.migrator = CounterMigrator()
        keys = [f"key-{i}" for i in range(5)]
        for key in keys:
            for domain in range(2):
                plane.invoke(key, domain, "put", {"key": key, "value": f"v-{key}"})
        plane.begin_epoch(["key-3"])
        lookups = []
        ring_lookup = plane.ring.shard_for
        monkeypatch.setattr(plane.ring, "shard_for",
                            lambda key: lookups.append(key) or ring_lookup(key))
        calls = [(key, domain, "get", {"key": key})
                 for _ in range(3) for key in keys for domain in range(2)]
        outcomes = plane.scatter(calls)
        assert sorted(lookups) == ["key-0", "key-1", "key-2", "key-4"]
        errors = [outcome for (key, *_), outcome in zip(calls, outcomes)
                  if key == "key-3"]
        assert len(errors) == 6
        assert all(isinstance(error, KeyMigratingError) for error in errors)
        assert len({id(error) for error in errors}) == 6
        assert all(outcome["value"]["value"] == f"v-{key}"
                   for (key, *_), outcome in zip(calls, outcomes) if key != "key-3")

    def test_failed_migration_pins_key_then_finish_drains_it(self):
        """A key whose records cannot move keeps routing to its old shard."""
        keys = [f"key-{i}" for i in range(30)]
        plane = self._loaded_plane(keys)
        moved = plane.ring.diff(plane.ring.grow(4), keys).moved
        victim = moved[0][0]

        class FlakyMigrator(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                outcome = yield from super().migrate(
                    plane, source, target, [k for k in keys if k != victim])
                if victim in keys:
                    outcome.failed[victim] = "injected migration failure"
                return outcome

        plane.migrator = FlakyMigrator()
        report = plane.reshard(4)
        assert not report.ok and victim in report.failed_keys
        assert plane.pending_migration_keys == 1
        # The pinned key still routes to the shard that holds its records.
        assert plane.invoke(victim, 0, "get",
                            {"key": victim})["value"]["value"] == f"v-{victim}"
        # Draining with a healthy migrator moves it and drops the override.
        plane.migrator = CounterMigrator()
        drain = plane.finish_reshard()
        assert drain.migrated_keys == 1 and plane.pending_migration_keys == 0
        assert plane.shard_for(victim) == plane.ring.shard_for(victim)
        assert plane.invoke(victim, 0, "get",
                            {"key": victim})["value"]["value"] == f"v-{victim}"

    def test_planning_failure_rolls_back_and_retry_reuses_spare_shards(self):
        """An abort before any record moves restores the old epoch, and a
        retry must reuse the parked shards (their network endpoints are
        already registered — synthesizing twins would collide)."""
        keys = [f"key-{i}" for i in range(12)]
        plane = self._loaded_plane(keys)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=1)

        class UnenumerableMigrator(CounterMigrator):
            def shard_keys(self, plane, shard_index):
                raise ReshardError("shard unreachable")

        plane.migrator = UnenumerableMigrator()
        with pytest.raises(ReshardError):
            plane.reshard(4)
        # Old epoch intact: two shards, old ring, no keys stuck mid-move,
        # and the synthesized shards parked for reuse.
        assert plane.epoch == 0 and plane.num_shards == 2
        assert plane.ring.shard_count == 2 and not plane._moving
        assert sorted(plane._spare_shards) == [2, 3]
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"
        # Retry with a healthy migrator succeeds on the same network.
        plane.migrator = CounterMigrator()
        report = plane.reshard(4)
        assert report.ok and plane.epoch == 1 and plane.num_shards == 4
        assert not plane._spare_shards
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"

    def test_migrator_crash_mid_migration_commits_and_pins(self):
        """Once records may have moved there is no rollback: the epoch
        commits, completed routes keep their new owner, and everything the
        crash left behind is pinned to its source — zero lost records."""
        keys = [f"key-{i}" for i in range(30)]
        plane = self._loaded_plane(keys)

        class ExplodesOnSecondRoute(CounterMigrator):
            calls = 0

            def migrate(self, plane, source, target, keys):
                type(self).calls += 1
                if type(self).calls > 1:
                    raise RuntimeError("boom")
                return (yield from super().migrate(plane, source, target, keys))

        plane.migrator = ExplodesOnSecondRoute()
        with pytest.raises(ReshardError) as excinfo:
            plane.reshard(4)
        report = excinfo.value.report
        assert plane.epoch == 1 and plane.num_shards == 4
        assert report.migrated_keys > 0 and report.failed_keys
        assert plane.pending_migration_keys == len(report.failed_keys)
        # Every key — moved, pinned, or untouched — is still readable.
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"
        plane.migrator = CounterMigrator()
        drain = plane.finish_reshard()
        assert drain.migrated_keys == len(report.failed_keys)
        assert plane.pending_migration_keys == 0

    def _pinned_plane(self, keys):
        """A 2 -> 4 grow whose migrator moved nothing: every moved key is
        pinned to its source, grouped by ``(source, target)``."""
        plane = self._loaded_plane(keys)

        class RefusingMigrator(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                yield from ()
                return MigrationOutcome(
                    failed={key: "target unreachable" for key in keys})

        plane.migrator = RefusingMigrator()
        report = plane.reshard(4)
        groups: dict = {}
        for key, source in plane.pending_migrations():
            groups.setdefault((source, plane.ring.shard_for(key)), []).append(key)
        assert len(groups) > 1 and len(report.failed_keys) == sum(
            len(group) for group in groups.values())
        return plane, groups

    def test_reshard_crash_fails_only_its_own_group(self):
        """A migrator that raises for one (source, target) group pins only
        that group's keys; every other group still moves, and the epoch
        commits with the partial report on the error."""
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        before = {key: plane.shard_for(key) for key in keys}
        groups = plane.ring.diff(plane.ring.grow(4), keys).by_route()
        assert len(groups) > 1
        crashed = min(groups)

        class CrashesOnOneGroup(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                if (source, target) == crashed:
                    raise RuntimeError("boom")
                return (yield from super().migrate(plane, source, target, keys))

        plane.migrator = CrashesOnOneGroup()
        with pytest.raises(ReshardError, match="migration failed") as excinfo:
            plane.reshard(4)
        report = excinfo.value.report
        assert plane.epoch == 1 and report.epoch == 1
        assert sorted(report.failed_keys) == sorted(groups[crashed])
        assert report.migrated_keys == sum(
            len(moved) for route, moved in groups.items() if route != crashed)
        for key in keys:
            if key in groups[crashed]:
                assert plane.shard_for(key) == before[key]
            else:
                assert plane.shard_for(key) == plane.ring.shard_for(key)
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"

    def test_finish_crash_fails_only_its_own_group(self):
        """The same crash in a drain pass: every other group drains."""
        keys = [f"key-{i}" for i in range(40)]
        plane, groups = self._pinned_plane(keys)
        crashed = min(groups)

        class CrashesOnOneGroup(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                if (source, target) == crashed:
                    raise RuntimeError("boom")
                return (yield from super().migrate(plane, source, target, keys))

        plane.migrator = CrashesOnOneGroup()
        with pytest.raises(ReshardError, match="drain failed") as excinfo:
            plane.finish_reshard()
        drain = excinfo.value.report
        assert sorted(drain.failed_keys) == sorted(groups[crashed])
        assert sorted(plane.pending_migrations()) == sorted(
            (key, crashed[0]) for key in groups[crashed])
        assert drain.migrated_keys == sum(
            len(moved) for route, moved in groups.items() if route != crashed)
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"

    def test_finish_pins_and_reports_a_key_with_no_outcome(self):
        """A key the migrator reports neither moved nor failed in a drain
        pass stays pinned and is listed in the report's failed keys."""
        keys = [f"key-{i}" for i in range(40)]
        plane, groups = self._pinned_plane(keys)
        (source, _), group = min(groups.items())
        forgotten = group[0]

        class ForgetfulMigrator(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                return (yield from super().migrate(
                    plane, source, target,
                    [key for key in keys if key != forgotten]))

        plane.migrator = ForgetfulMigrator()
        drain = plane.finish_reshard()
        assert list(drain.failed_keys) == [forgotten] and not drain.ok
        assert plane.pending_migrations() == [(forgotten, source)]
        assert plane.shard_for(forgotten) == source
        assert plane.invoke(forgotten, 0, "get",
                            {"key": forgotten})["value"]["value"] == f"v-{forgotten}"

    def test_stale_source_records_are_cleaned_on_finish(self):
        """A moved key whose source cleanup was lost stays authoritative on
        the target (never pinned back to a partially deleted source) and is
        cleaned up by finish_reshard()."""
        keys = [f"key-{i}" for i in range(30)]
        plane = self._loaded_plane(keys)
        cleaned = []

        class LeakyMigrator(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                # Copy without deleting: every key moves but leaves a stale
                # source copy behind.
                exported, _ = yield from self.export(plane, source, keys)
                yield from self.load(plane, target, exported)
                return MigrationOutcome(moved=list(keys), stale=list(keys),
                                        records_moved=len(keys))

            def cleanup(self, plane, shard_index, keys):
                yield from self.remove(plane, shard_index, keys)
                cleaned.extend(keys)
                return list(keys)

        plane.migrator = LeakyMigrator()
        report = plane.reshard(4)
        assert not report.ok and report.stale_keys and not report.failed_keys
        assert len(plane.pending_cleanups()) == len(report.stale_keys)
        # Moved keys route to their ring owner (the target), not the source.
        for key in report.stale_keys:
            assert plane.shard_for(key) == plane.ring.shard_for(key) >= 2
        drain = plane.finish_reshard()
        assert sorted(cleaned) == sorted(report.stale_keys)
        assert not plane.pending_cleanups() and drain.migrated_keys == 0
        # After cleanup, exactly one shard holds each stale key's record.
        for key in report.stale_keys:
            holders = [
                shard_index for shard_index in range(plane.num_shards)
                if plane.invoke_on_shard(shard_index, 0, "get",
                                         {"key": key})["value"]["value"] is not None
            ]
            assert holders == [plane.ring.shard_for(key)]

    def test_every_groups_export_is_on_the_wire_before_the_first_delivery(
            self, monkeypatch):
        """A grow migrates its (source, target) groups side by side: every
        group's export wave is sent before any migration message is
        delivered, so the shards' service queues overlap in simulated time
        instead of serializing group after group."""
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=2)
        plane.set_service_time(0.001)
        groups = plane.ring.diff(plane.ring.grow(4), keys).by_route()
        assert len(groups) > 1
        exports = []
        begin = plane.begin_scatter_to_shards

        def spy(calls):
            calls = list(calls)
            if calls and calls[0][2] == "get":
                exports.append((calls[0][0], network.stats.messages_delivered))
            return begin(calls)

        monkeypatch.setattr(plane, "begin_scatter_to_shards", spy)
        report = plane.reshard(4)
        assert report.ok and report.migrated_keys == len(keys) - sum(
            1 for key in keys if plane.shard_for(key) < 2)
        assert sorted(source for source, _ in exports) == sorted(
            source for source, _ in groups)
        assert len({delivered for _, delivered in exports}) == 1

    def test_resharded_plane_joins_network_and_service_times(self):
        plane = self._loaded_plane([f"key-{i}" for i in range(16)])
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=2)
        plane.set_service_time(0.001)
        report = plane.reshard(4)
        assert report.ok
        # Grown shards are routed on the same network with the same model;
        # an invoke against one crosses the wire.
        grown = plane.shards[3]
        assert grown.client_address == f"{grown.name}-client"
        before = network.stats.messages_sent
        plane.invoke_on_shard(3, 0, "get", {"key": "?"})
        assert network.stats.messages_sent > before
        assert all(server.endpoint.network is network
                   and server.service_model is not None
                   and server.service_model.per_request == 0.001
                   for server in grown.servers.values())


# ---------------------------------------------------------------------------
# Live shrink: evacuate -> verify -> commit -> retire
# ---------------------------------------------------------------------------

class TestLiveShrink:
    def _loaded_plane(self, keys, shards=4):
        plane = make_plane(shards=shards)
        plane.migrator = CounterMigrator()
        for key in keys:
            plane.invoke(key, 0, "put", {"key": key, "value": f"v-{key}"})
        return plane

    def test_clean_shrink_evacuates_and_detaches(self):
        keys = [f"key-{i}" for i in range(40)]
        plane = self._loaded_plane(keys, shards=4)
        before = {key: plane.shard_for(key) for key in keys}
        report = plane.reshard(2)
        assert report.ok and plane.epoch == 1 and plane.num_shards == 2
        assert report.new_shard_count == 2
        assert len(report.retired) == 2 and not report.draining
        assert plane.draining_shards() == []
        assert sorted(plane._spare_shards) == [2, 3]
        # Survivors kept their keys; only retiring shards' keys moved, and
        # every record is readable from its new owner.
        for key in keys:
            after = plane.shard_for(key)
            if before[key] < 2:
                assert after == before[key]
            else:
                assert after < 2
            value = plane.invoke(key, 0, "get", {"key": key})["value"]["value"]
            assert value == f"v-{key}"
        assert report.diff.moved_count == report.migrated_keys > 0
        # The retired shards' queues are genuinely gone from the plane: no
        # scatter route, no queue-depth surface.
        assert sorted(plane.max_queue_depth_per_shard()) == [0, 1]
        with pytest.raises(ServiceSpecError):
            plane.scatter_to_shards([(2, 0, "get", {"key": "k"})])

    def test_failed_evacuation_pins_key_and_keeps_shard_draining(self):
        """A defeated evacuation leaves the retiring shard attached and
        routed (via the override) until finish_reshard() drains it."""
        keys = [f"key-{i}" for i in range(30)]
        plane = self._loaded_plane(keys, shards=3)
        victim = next(key for key in keys if plane.shard_for(key) == 2)

        class FlakyMigrator(CounterMigrator):
            def migrate(self, plane, source, target, keys):
                outcome = yield from super().migrate(
                    plane, source, target, [k for k in keys if k != victim])
                if victim in keys:
                    outcome.failed[victim] = "injected evacuation failure"
                return outcome

        plane.migrator = FlakyMigrator()
        report = plane.reshard(2)
        assert not report.ok and victim in report.failed_keys
        # The retiring shard still holds the victim's records, so it stays
        # attached — out of the ring but draining.
        assert plane.ring.shard_count == 2 and plane.num_shards == 3
        assert plane.draining_shards() == [2]
        assert report.draining == [plane.shards[2].name] and not report.retired
        assert plane.shard_for(victim) == 2
        assert plane.invoke(victim, 0, "get",
                            {"key": victim})["value"]["value"] == f"v-{victim}"
        # Another reshard is refused while the drain is outstanding.
        with pytest.raises(InvalidReshardError):
            plane.reshard(4)
        # Healing the migrator and draining moves the victim and finally
        # detaches the shard.
        plane.migrator = CounterMigrator()
        drain = plane.finish_reshard()
        assert drain.migrated_keys == 1
        assert drain.retired == [report.draining[0]] and not drain.draining
        assert plane.num_shards == 2 and plane.draining_shards() == []
        assert plane.shard_for(victim) == plane.ring.shard_for(victim) < 2
        assert plane.invoke(victim, 0, "get",
                            {"key": victim})["value"]["value"] == f"v-{victim}"

    def test_verification_pins_records_the_migrator_never_saw(self):
        """A record hidden from the evacuation plan is caught by the
        post-evacuation re-enumeration and pinned, never stranded."""
        keys = [f"key-{i}" for i in range(30)]
        plane = self._loaded_plane(keys, shards=4)
        hidden = next(key for key in keys if plane.shard_for(key) == 3)

        class AmnesiacMigrator(CounterMigrator):
            hid_once = False

            def shard_keys(self, plane, shard_index):
                enumerated = super().shard_keys(plane, shard_index)
                if (shard_index == 3 and not type(self).hid_once
                        and hidden in enumerated):
                    type(self).hid_once = True
                    return [k for k in enumerated if k != hidden]
                return enumerated

        plane.migrator = AmnesiacMigrator()
        report = plane.reshard(2)
        assert not report.ok and hidden in report.failed_keys
        assert "verification" in report.failed_keys[hidden]
        # The hidden record's shard is still attached and still routed.
        assert 3 in plane.draining_shards()
        assert plane.invoke(hidden, 0, "get",
                            {"key": hidden})["value"]["value"] == f"v-{hidden}"
        plane.migrator = CounterMigrator()
        plane.finish_reshard()
        assert plane.num_shards == 2
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"

    def test_unverifiable_shard_is_never_detached_blind(self):
        """A retiring shard whose re-enumeration fails cannot be proven
        empty, so it drains instead of detaching on the spot."""
        keys = [f"key-{i}" for i in range(20)]
        plane = self._loaded_plane(keys, shards=4)

        class UnverifiableMigrator(CounterMigrator):
            planned_tail = False

            def shard_keys(self, plane, shard_index):
                if shard_index == 3:
                    if type(self).planned_tail:
                        raise RuntimeError("shard unreachable for verification")
                    type(self).planned_tail = True
                return super().shard_keys(plane, shard_index)

        plane.migrator = UnverifiableMigrator()
        report = plane.reshard(2)
        # Every record actually evacuated, but shard 3 cannot prove it — it
        # (and everything before it, tail-first rule) stays attached.
        assert report.ok and not report.retired
        assert plane.draining_shards() == [2, 3]
        plane.migrator = CounterMigrator()
        drain = plane.finish_reshard()
        assert len(drain.retired) == 2 and plane.num_shards == 2

    def test_grow_after_shrink_reuses_parked_shards_on_the_network(self):
        """2 -> 4 -> 2 -> 4 keeps working on one network: detached shards'
        endpoints stay registered, so the re-grow must reattach the parked
        deployments — and placement round-trips for unmoved keys."""
        keys = [f"key-{i}" for i in range(24)]
        plane = self._loaded_plane(keys, shards=2)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=2)
        original = {key: plane.shard_for(key) for key in keys}

        grow = plane.reshard(4)
        assert grow.ok and plane.num_shards == 4
        grown_names = {shard.name for shard in plane.shards[2:]}

        shrink = plane.reshard(2)
        assert shrink.ok and plane.num_shards == 2 and plane.epoch == 2
        assert sorted(plane._spare_shards) == [2, 3]
        # Shrinking back restores the original placement for every key.
        for key in keys:
            assert plane.shard_for(key) == original[key]

        regrow = plane.reshard(4)
        assert regrow.ok and plane.num_shards == 4 and plane.epoch == 3
        assert not plane._spare_shards
        # The re-grown shards are the parked objects, live on the network.
        assert {shard.name for shard in plane.shards[2:]} == grown_names
        assert all(server.endpoint.network is network
                   for shard in plane.shards
                   for server in shard.servers.values())
        for key in keys:
            assert plane.invoke(key, 0, "get",
                                {"key": key})["value"]["value"] == f"v-{key}"


# ---------------------------------------------------------------------------
# Scatter negative paths (what the migration drivers lean on)
# ---------------------------------------------------------------------------

class TestScatterNegativePaths:
    def test_empty_call_list_returns_empty(self):
        plane = make_plane(shards=2)
        assert plane.scatter_to_shards([]) == []
        assert plane.scatter([]) == []

    def test_out_of_range_shard_index_rejected(self):
        plane = make_plane(shards=2)
        with pytest.raises(ServiceSpecError):
            plane.scatter_to_shards([(2, 0, "get", {"key": "k"})])
        with pytest.raises(ServiceSpecError):
            plane.scatter_to_shards([(-1, 0, "get", {"key": "k"})])

    def test_per_call_failure_isolation_over_lossy_network(self):
        """Calls the network eats fail alone; co-batched calls still land."""
        plane = make_plane(shards=2)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=1)
        doomed = plane.shards[1].domains[0].domain_id

        def drop_to_shard_one(message):
            if message.destination == doomed:
                return FaultDecision(drop=True)
            return None

        network.add_fault_hook(drop_to_shard_one)
        outcomes = plane.scatter_to_shards([
            (0, 0, "put", {"key": "a", "value": 1}),
            (1, 0, "put", {"key": "b", "value": 2}),
            (0, 0, "put", {"key": "c", "value": 3}),
        ])
        assert outcomes[0]["value"]["stored"] and outcomes[2]["value"]["stored"]
        assert isinstance(outcomes[1], Exception)
        network.remove_fault_hook(drop_to_shard_one)
        # The healthy shard's state took the writes; the lost one took none.
        assert plane.invoke_on_shard(0, 0, "get", {"key": "a"})["value"]["value"] == 1
        assert plane.invoke_on_shard(1, 0, "get", {"key": "b"})["value"]["value"] is None
