"""The four benchmark workloads and how each is set up, driven and checked.

Every workload runs the program through its own public entry points:

* the closed-loop workloads drive ``MultiClientWorkload`` in batched mode —
  one client, one 128-op span outstanding at a time — once per repetition,
  each repetition on a fresh deployment and a seed derived from the run's
  seed;
* the open-loop workload runs ``ScenarioRunner`` scenarios with Poisson
  arrivals, a live grow and shrink, and an epoch audit near the end.

A wrong answer, a failed op or a failed scenario invariant raises
:class:`BenchmarkError`; the benchmark then exits without printing numbers.
Wall figures are scaled to a reference machine speed (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

from layers import Tracer, resolve
from speed import SpeedProbe

__all__ = ["BenchmarkError", "Workload", "WORKLOADS", "CAPACITY_RATES",
           "setup", "measure", "capacity_sweep", "traced_run"]

# Fixed arrival rates (ops/s) of the capacity sweep, and its latency limit.
CAPACITY_RATES = (250, 500, 750, 1000, 1250)
CAPACITY_P99_LIMIT_MS = 50.0
CAPACITY_OPS = 1000
# One open-loop scenario's wall time grows with the square of the backlog
# its migrations leave, so it swings with the seed; an untraced run pools
# eight.
OPEN_SCENARIOS = 8
# Closed-loop repetitions of a traced run and its untraced twin: one warm-up
# plus four timed.
TRACE_REPS = 5


class BenchmarkError(Exception):
    """The program produced a wrong answer or broke an invariant."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``ops`` is the op count of one closed-loop repetition (a fresh
    deployment each) or of one open-loop scenario.
    """

    name: str
    app: str
    shards: int
    ops: int
    open_loop: bool = False
    arrival_rate: float = 0.0
    service_time: float = 0.0


WORKLOADS = {workload.name: workload for workload in (
    Workload("keybackup-batched", "keybackup", shards=4, ops=2048),
    Workload("odoh-batched", "odoh", shards=2, ops=384),
    Workload("custody-sign", "threshold_sign", shards=1, ops=128),
    Workload("keybackup-open-reshard", "keybackup", shards=2, ops=750,
             open_loop=True, arrival_rate=600.0, service_time=0.0005),
)}


def rep_seed(seed: int, rep: int) -> int:
    """The workload seed of repetition or scenario ``rep`` of a run."""
    return seed * 1000 + rep


# ----------------------------------------------------------------------
# Set-up: from nothing to a routed, attested deployment
# ----------------------------------------------------------------------
def setup(workload: Workload, seed: int):
    """Build, route and audit the workload's deployment; return its driver.

    The same construction the scenario runner uses (deployment, keys,
    packages published and installed on every shard, traffic routed over the
    simulated network), followed by the client-side audit that checks every
    domain's attestation — what a user does before trusting a deployment.
    """
    from repro.crypto import rng
    from repro.net.latency import lan_profile
    from repro.net.transport import Network
    from repro.sim.scenarios.apps import make_driver

    with rng.deterministic(seed):
        driver = make_driver(workload.app, seed, workload.ops, shards=workload.shards)
        network = Network(clock=driver.deployment.clock, default_latency=lan_profile())
        driver.plane.route_via_network(network)
        if workload.service_time > 0:
            driver.plane.set_service_time(workload.service_time)
        ok, kinds = driver.audit_outcome()
    if not ok:
        raise BenchmarkError(f"{workload.name}: set-up audit failed ({sorted(kinds)})")
    return driver


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@contextlib.contextmanager
def verified_signatures():
    """Make every ``sign_transactions`` result carry a verified signature.

    A transaction whose threshold signature does not verify under the group
    key becomes an ``ApplicationError`` outcome, which the workload counts
    as a failed op.
    """
    from repro.apps.threshold_sign import CustodyClient
    from repro.errors import ApplicationError

    sign_transactions = resolve("repro.apps.threshold_sign",
                                "CustodyClient.sign_transactions")[2]

    def checked(client, *args, **kwargs):
        outcomes = sign_transactions(client, *args, **kwargs)
        return [outcome if isinstance(outcome, Exception) or client.verify(outcome)
                else ApplicationError("threshold signature did not verify")
                for outcome in outcomes]

    CustodyClient.sign_transactions = checked
    try:
        yield
    finally:
        CustodyClient.sign_transactions = sign_transactions


def run_closed(workload: Workload, seed: int, seconds: float | None = None,
               reps: int | None = None) -> dict:
    """Repeat the closed-loop workload for ``seconds`` (at least three
    times), or exactly ``reps`` times.

    Each repetition is timed over its op loop only and scaled by the
    machine speed sampled around it. Repetition 0 warms the interpreter's
    caches, so ``ops_per_s`` is the median over the later ones. Simulated
    latencies come from repetition 0 and so depend on the seed alone.
    """
    from repro.sim.workload import MultiClientWorkload

    deadline = time.perf_counter() + (seconds or 0.0)
    probe = SpeedProbe()
    rates, attempted, latency = [], 0, None
    rep = 0
    while rep < (reps or 3) or (reps is None and time.perf_counter() < deadline):
        report = MultiClientWorkload(workload.app, num_clients=workload.ops,
                                     batched=True, batch_size=128,
                                     shards=workload.shards,
                                     seed=rep_seed(seed, rep)).run()
        scale = probe.scale()
        if report.failed or report.consistency_issues:
            raise BenchmarkError(
                f"{workload.name}: {report.failed} failed ops "
                f"{report.failures[:3]}, consistency {report.consistency_issues}")
        attempted += report.ops
        if rep == 0:
            latency = report.latency
        else:
            rates.append(report.ops_per_sec * scale)
        rep += 1
    return {"ops_per_s": statistics.median(rates),
            "sim_p50_ms": latency.median * 1000.0,
            "sim_p99_ms": latency.p99 * 1000.0,
            "sim_arrival_lag_ms_max": 0.0,
            "speed_sample_s": probe.spent_s,
            "attempted": attempted, "failed": 0}


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
class OpTimer:
    """Times open-loop ops from their due time, and the loop and reshards.

    Wraps ``EventLoop.spawn`` so each op task records its scheduled arrival
    (``start_at``), the simulated time of its first step, and the simulated
    time it completed; wraps ``EventLoop.run`` and ``ShardedService.reshard``
    for their wall time.
    """

    def __init__(self):
        self.ops: list[tuple[float, float, float]] = []  # (due, started, done)
        self.loop_s = 0.0
        self.reshard_s = 0.0
        self._patches = []

    def __enter__(self):
        from repro.net.eventloop import EventLoop
        from repro.service.sharded import ShardedService

        spawn = resolve("repro.net.eventloop", "EventLoop.spawn")[2]
        run = resolve("repro.net.eventloop", "EventLoop.run")[2]
        reshard = resolve("repro.service.sharded", "ShardedService.reshard")[2]
        timer = self

        def timed_op(clock, gen, due):
            started = clock.now()
            try:
                return (yield from gen)
            finally:
                timer.ops.append((due, started, clock.now()))

        def timed_spawn(loop, gen, name=None, start_at=None):
            if name is not None and name.startswith("op-"):
                due = loop.clock.now() if start_at is None else start_at
                gen = timed_op(loop.clock, gen, due)
            return spawn(loop, gen, name=name, start_at=start_at)

        def timed_run(loop):
            start = time.perf_counter()
            try:
                return run(loop)
            finally:
                timer.loop_s += time.perf_counter() - start

        def timed_reshard(plane, new_shard_count):
            start = time.perf_counter()
            try:
                return reshard(plane, new_shard_count)
            finally:
                timer.reshard_s += time.perf_counter() - start

        for owner, name, wrapper, original in (
                (EventLoop, "spawn", timed_spawn, spawn),
                (EventLoop, "run", timed_run, run),
                (ShardedService, "reshard", timed_reshard, reshard)):
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        return False

    def latency(self):
        """Simulated latency (ms) of every op, from its due time to completion."""
        from repro.sim.metrics import summarize

        return summarize([(done - due) * 1000.0 for due, _, done in self.ops])

    def arrival_lag_ms_max(self) -> float:
        return max((started - due) * 1000.0 for due, started, _ in self.ops)


def open_scenario(workload: Workload, seed: int, ops: int | None = None,
                  rate: float | None = None, reshard: bool = True):
    """The open-loop scenario: grow at 1/3, shrink at 2/3, audit near the end."""
    from repro.sim.faults import AuditEpoch, ReshardService, ShrinkService
    from repro.sim.scenarios.spec import Scenario

    ops = ops or workload.ops
    events = ()
    if reshard:
        events = (ReshardService(at_op=ops // 3, shards=2 * workload.shards),
                  ShrinkService(at_op=2 * ops // 3, shards=workload.shards),
                  AuditEpoch(at_op=ops - ops // 20))
    return Scenario(name=f"perfbench-{workload.name}", app=workload.app, ops=ops,
                    shards=workload.shards, seed=seed, concurrent=True,
                    arrival_rate=rate or workload.arrival_rate,
                    service_time=workload.service_time, events=events)


def run_open(workload: Workload, seed: int, ops: int | None = None,
             rate: float | None = None, reshard: bool = True,
             allow_failed_ops: bool = False) -> dict:
    """Run the open-loop scenario once and check every invariant.

    ``allow_failed_ops`` lets an overloaded capacity-sweep point report its
    failed ops instead of failing the benchmark.
    """
    from repro.sim.scenarios.runner import ScenarioRunner

    scenario = open_scenario(workload, seed, ops, rate, reshard)
    with OpTimer() as timer:
        report = ScenarioRunner(scenario).run()
    problems = [f"invariant {result.name}: {result.detail}"
                for result in report.invariants if not result.ok]
    if report.failed and not allow_failed_ops:
        problems.append(f"{report.failed} failed ops {report.failures[:3]}")
    if len(timer.ops) != scenario.ops:
        problems.append(f"timed {len(timer.ops)} of {scenario.ops} ops")
    if reshard:
        audited = [audit for audit in report.epoch_audits
                   if audit["fetched"] and audit["ok"]]
        if len(report.reshards) != 2 or len(audited) != 2:
            problems.append(f"{len(report.reshards)} reshards, {len(audited)} "
                            "epoch bundles fetched and verified (want 2 and 2)")
    if problems:
        raise BenchmarkError(f"{workload.name}: " + "; ".join(problems))
    return {"loop_s": timer.loop_s, "reshard_s": timer.reshard_s,
            "latency": timer.latency(),
            "arrival_lag_ms_max": timer.arrival_lag_ms_max(),
            "attempted": report.ops, "failed": report.failed}


def run_open_loop(workload: Workload, seed: int, scenarios: int) -> dict:
    """Open-loop scenarios on seeds derived from ``seed``.

    ``ops_per_s`` is all their ops over all their event-loop wall time,
    each scenario's time scaled by the machine speed sampled around it; the
    other figures are medians over the scenarios.
    """
    probe = SpeedProbe()
    loop_s, reshard_s, p50, p99, lags = 0.0, [], [], [], []
    for index in range(scenarios):
        result = run_open(workload, rep_seed(seed, index))
        scale = probe.scale()
        loop_s += result["loop_s"] / scale
        reshard_s.append(result["reshard_s"] / scale)
        p50.append(result["latency"].median)
        p99.append(result["latency"].p99)
        lags.append(result["arrival_lag_ms_max"])
    return {"ops_per_s": scenarios * workload.ops / loop_s,
            "reshard_s": statistics.median(reshard_s),
            "sim_p50_ms": statistics.median(p50),
            "sim_p99_ms": statistics.median(p99),
            "sim_arrival_lag_ms_max": max(lags),
            "speed_sample_s": probe.spent_s,
            "attempted": scenarios * workload.ops, "failed": 0}


def capacity_sweep(workload: Workload, seed: int) -> dict:
    """Sim p99 at each fixed rate on the plane without reshard, and the
    highest rate that keeps p99 within the limit with every op completed."""
    p99 = {}
    capacity = 0
    for rate in CAPACITY_RATES:
        result = run_open(workload, seed, ops=CAPACITY_OPS, rate=float(rate),
                          reshard=False, allow_failed_ops=True)
        p99[rate] = result["latency"].p99
        if p99[rate] <= CAPACITY_P99_LIMIT_MS and not result["failed"]:
            capacity = rate
    return {"sim_capacity_ops_s": capacity, "p99_ms_at": p99}


# ----------------------------------------------------------------------
# The measurements run.py asks a fresh interpreter for
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float | None = None) -> dict:
    """The untraced workload for ``seconds``, or, when ``seconds`` is None,
    the fixed work of a traced run: ``TRACE_REPS`` closed-loop repetitions
    or one open-loop scenario."""
    if workload.open_loop:
        return run_open_loop(workload, seed,
                             OPEN_SCENARIOS if seconds is not None else 1)
    checks = (verified_signatures() if workload.app == "threshold_sign"
              else contextlib.nullcontext())
    with checks:
        if seconds is None:
            return run_closed(workload, seed, reps=TRACE_REPS)
        return run_closed(workload, seed, seconds=seconds)


def traced_run(workload: Workload, seed: int) -> dict:
    """Set-up and the fixed work of a traced run, every boundary wrapped.

    ``layers`` holds the per-layer metrics. On the open-loop workload the
    same load without the reshard is traced afterwards: the backlog
    re-decode shows as the ratio of decodes per op between the two.
    """
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unbound_references()
        if missed:
            raise BenchmarkError(f"unwrapped boundaries: {missed}")
        started = time.perf_counter()
        setup(workload, seed)
        before = tracer.op_counts()
        result = measure(workload, seed)
        after = tracer.op_counts()
        # The speed samples are the benchmark's time, not the program's.
        wall_s = time.perf_counter() - started - result["speed_sample_s"]
        delta = {key: after[key] - before[key] for key in after}
        result["layers"] = tracer.metrics(wall_s, result["attempted"], delta)
        result["layers"]["sim.arrival_lag_ms_max"] = result["sim_arrival_lag_ms_max"]
        if workload.open_loop:
            before = tracer.op_counts()
            twin = run_open(workload, seed, reshard=False)
            decodes = tracer.op_counts()["decodes"] - before["decodes"]
            result["decodes_per_op_no_reshard"] = decodes / twin["attempted"]
    finally:
        tracer.uninstall()
    return result
