"""Workload generation and the multi-client load harness.

Two layers live here:

* :class:`WorkloadGenerator` — seeded draws of messages, secrets, user ids,
  telemetry values, and DNS names, so every experiment is reproducible.
* :class:`MultiClientWorkload` — the load harness: it simulates many users
  driving one of the four applications end to end over the simulated
  network — one op at a time ("unbatched": spans of one op), in spans
  through the batched request pipeline, as overlapping Poisson arrivals on
  the event loop, or against true-parallel worker processes — and reports
  throughput alongside the transport statistics. It holds no per-app logic
  and no run loop of its own: each app is its scenario driver
  (:func:`repro.sim.scenarios.apps.make_driver`), and every mode is a
  configuration of the scenario engine's op loop
  (:func:`repro.sim.scenarios.runner.run_ops`). Fault rules and scheduled
  events therefore compose directly (see
  :meth:`MultiClientWorkload.from_scenario`), so load runs double as stress
  tests: the same drop/delay/reorder/duplicate taxonomy that the scenario
  matrix exercises can be applied while thousands of operations are in
  flight.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.sim.metrics import LatencyStats, summarize

__all__ = ["WorkloadGenerator", "WorkloadReport", "MultiClientWorkload"]


class WorkloadGenerator:
    """Produces reproducible synthetic workloads.

    All draws come from a seeded PRNG so benchmark runs are repeatable; the
    seed is part of the experiment configuration recorded in EXPERIMENTS.md.
    """

    def __init__(self, seed: int = 2022):
        self._rng = random.Random(seed)

    def messages(self, count: int, size: int = 32) -> list[bytes]:
        """Random byte-string messages (e.g. transactions to sign)."""
        return [self._rng.randbytes(size) for _ in range(count)]

    def secrets(self, count: int, bits: int = 256) -> list[int]:
        """Random integer secrets (e.g. keys to back up)."""
        return [self._rng.getrandbits(bits) for _ in range(count)]

    def user_ids(self, count: int) -> list[str]:
        """Synthetic user identifiers (unique within one generator)."""
        return [f"user-{index:06d}-{self._rng.randrange(10**9):09d}"
                for index in range(count)]

    def telemetry_values(self, count: int, low: int = 0, high: int = 100) -> list[int]:
        """Bounded integer telemetry values (for the Prio-style aggregation app)."""
        return [self._rng.randint(low, high) for _ in range(count)]

    def dns_queries(self, count: int) -> list[str]:
        """Synthetic DNS query names (for the ODoH-style app)."""
        tlds = ["com", "org", "net", "io", "dev"]
        return [
            f"host{self._rng.randrange(1000)}.example-{self._rng.randrange(100)}."
            f"{self._rng.choice(tlds)}"
            for _ in range(count)
        ]


@dataclass
class WorkloadReport:
    """Everything one load run produced."""

    app: str
    num_clients: int
    ops: int
    succeeded: int = 0
    failed: int = 0
    batched: bool = True
    batch_size: int = 0
    shards: int = 1
    service_time: float = 0.0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    retries: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    failures: list = field(default_factory=list)  # (op index, error type name)
    consistency_issues: list = field(default_factory=list)
    latency: LatencyStats | None = None
    # Per-shard breakdown: sim latency stats for the operations routed to
    # each shard (batched ops carry their span's completion latency).
    shard_latency: dict = field(default_factory=dict)  # shard -> LatencyStats
    # Live-reshard segmentation (populated when reshard_at_op fires).
    resharded: bool = False
    reshard_to: int = 0
    ops_before_reshard: int = 0
    sim_seconds_before_reshard: float = 0.0
    reshard_sim_seconds: float = 0.0
    reshard_summary: dict = field(default_factory=dict)
    # Discrete-event concurrency (populated when concurrent=True).
    concurrent: bool = False
    arrival_rate: float = 0.0
    max_in_flight: int = 0
    in_flight_at_reshard: int = 0
    # Elastic control loop (populated when an autoscale policy is installed).
    autoscaled: bool = False
    final_shards: int = 0
    autoscale_decisions: list = field(default_factory=list)  # decision dicts
    autoscale_reshards: list = field(default_factory=list)   # report dicts
    # Per-shard high-water mark of requests queued behind the serial service
    # queues (max over the shard's domains). Populated for every mode; only
    # a concurrent run with a non-zero service time can push it above 1.
    shard_queue_depth: dict = field(default_factory=dict)  # shard -> depth
    # True-parallel execution (populated when parallel=True): shards served
    # by worker *processes* over OS pipes. Wall-clock only — sim_seconds
    # stays 0.0 because no simulated clock spans the processes, and a
    # sim-time number from such a run would be meaningless.
    parallel: bool = False
    workers: int = 0

    @property
    def pre_reshard_sim_ops_per_sec(self) -> float:
        """Simulated throughput of the segment before the epoch flip."""
        if not self.resharded or self.sim_seconds_before_reshard <= 0:
            return 0.0
        return self.ops_before_reshard / self.sim_seconds_before_reshard

    @property
    def post_reshard_sim_ops_per_sec(self) -> float:
        """Simulated throughput of the segment after the epoch flip.

        The reshard's own migration time is excluded from both segments (it
        is reported separately as ``reshard_sim_seconds``), so this compares
        steady-state capacity before and after the topology change.
        """
        if not self.resharded:
            return 0.0
        post_seconds = (self.sim_seconds - self.sim_seconds_before_reshard
                        - self.reshard_sim_seconds)
        post_ops = self.succeeded - self.ops_before_reshard
        if post_seconds <= 0 or post_ops <= 0:
            return 0.0
        return post_ops / post_seconds

    @property
    def ops_per_sec(self) -> float:
        """Completed operations per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.succeeded / self.wall_seconds

    @property
    def sim_ops_per_sec(self) -> float:
        """Completed operations per *simulated* second.

        Deterministic — it depends only on the protocol's message/latency/
        service-time structure, never on container CPU contention — so it is
        the number capacity comparisons (sharding, batching round-trip
        savings) should assert on. Wall-clock ops/sec remains the honest
        measure of interpreter work per op.
        """
        if self.sim_seconds <= 0:
            return 0.0
        return self.succeeded / self.sim_seconds

    @property
    def success_rate(self) -> float:
        """Fraction of operations that completed end to end."""
        if self.ops == 0:
            return 0.0
        return self.succeeded / self.ops

    @property
    def consistent(self) -> bool:
        """Whether the end-of-run application state matched the accepted ops."""
        return not self.consistency_issues

    def format(self) -> str:
        """A deterministic multi-line text report (throughput is rounded)."""
        if self.parallel:
            mode = f"parallel ({self.workers} workers, batch={self.batch_size})"
        elif self.concurrent:
            mode = f"concurrent (rate={self.arrival_rate:.0f}/s)"
        elif self.batched:
            mode = f"batched (batch={self.batch_size})"
        else:
            mode = "unbatched"
        if self.shards > 1:
            mode += f", {self.shards} shards"
        if self.resharded:
            mode += f" -> resharded to {self.reshard_to}"
        lines = [
            f"workload {self.app}: {self.num_clients} clients, {self.ops} ops, {mode}",
            f"  ops: ok={self.succeeded} failed={self.failed} "
            f"success={self.success_rate * 100:.1f}%",
            f"  throughput: {self.ops_per_sec:.0f} ops/sec "
            f"(wall {self.wall_seconds:.3f}s, sim {self.sim_seconds * 1000:.1f} ms) "
            f"retries={self.retries}",
            f"  network: sent={self.messages_sent} delivered={self.messages_delivered} "
            f"dropped={self.messages_dropped} duplicated={self.messages_duplicated}",
        ]
        if self.latency is not None:
            lines.append(
                f"  latency: mean={self.latency.mean_ms():.3f} ms "
                f"p95={self.latency.p95_ms():.3f} ms "
                f"p99={self.latency.p99_ms():.3f} ms"
            )
        if self.shard_latency:
            per_shard = " ".join(
                f"s{shard}:{stats.count}ops/{stats.mean_ms():.2f}ms"
                for shard, stats in sorted(self.shard_latency.items())
            )
            lines.append(f"  per-shard: {per_shard}")
        if self.concurrent:
            lines.append(
                f"  in-flight: max={self.max_in_flight}"
                + (f" (at reshard: {self.in_flight_at_reshard})"
                   if self.resharded else "")
            )
        if self.autoscaled:
            fired = [d for d in self.autoscale_decisions if d.get("fired")]
            moves = " -> ".join(
                str(d["to_shards"])
                for d in fired) if fired else "none"
            lines.append(
                f"  autoscale: {self.shards} -> {moves} shards "
                f"({len(fired)} transition(s), "
                f"{len(self.autoscale_decisions)} decisions, "
                f"final={self.final_shards})"
            )
        if any(self.shard_queue_depth.values()):
            depths = " ".join(f"s{shard}:{depth}" for shard, depth
                              in sorted(self.shard_queue_depth.items()))
            lines.append(f"  max queue depth: {depths}")
        if self.resharded:
            lines.append(
                f"  reshard: at op {self.ops_before_reshard}, "
                f"{self.reshard_sim_seconds * 1000:.1f} ms sim migration; "
                f"sim throughput {self.pre_reshard_sim_ops_per_sec:.0f} -> "
                f"{self.post_reshard_sim_ops_per_sec:.0f} ops/sec"
            )
        if self.consistency_issues:
            for issue in self.consistency_issues:
                lines.append(f"  CONSISTENCY: {issue}")
        else:
            lines.append("  consistency: end state matches accepted operations")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-data form for BENCH_throughput.json and experiment write-ups."""
        return {
            "app": self.app,
            "num_clients": self.num_clients,
            "ops": self.ops,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "batched": self.batched,
            "batch_size": self.batch_size,
            "shards": self.shards,
            "service_time": self.service_time,
            "wall_seconds": self.wall_seconds,
            "ops_per_sec": self.ops_per_sec,
            "sim_seconds": self.sim_seconds,
            "sim_ops_per_sec": self.sim_ops_per_sec,
            "retries": self.retries,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "consistent": self.consistent,
            "latency": self.latency.to_dict() if self.latency else None,
            "shard_latency": {
                shard: stats.to_dict()
                for shard, stats in sorted(self.shard_latency.items())
            },
            "resharded": self.resharded,
            "reshard_to": self.reshard_to,
            "ops_before_reshard": self.ops_before_reshard,
            "sim_seconds_before_reshard": self.sim_seconds_before_reshard,
            "reshard_sim_seconds": self.reshard_sim_seconds,
            "pre_reshard_sim_ops_per_sec": self.pre_reshard_sim_ops_per_sec,
            "post_reshard_sim_ops_per_sec": self.post_reshard_sim_ops_per_sec,
            "reshard_summary": self.reshard_summary,
            "concurrent": self.concurrent,
            "arrival_rate": self.arrival_rate,
            "max_in_flight": self.max_in_flight,
            "in_flight_at_reshard": self.in_flight_at_reshard,
            "shard_queue_depth": {shard: depth for shard, depth
                                  in sorted(self.shard_queue_depth.items())},
            "parallel": self.parallel,
            "workers": self.workers,
            "autoscaled": self.autoscaled,
            "final_shards": self.final_shards,
            "autoscale_decisions": list(self.autoscale_decisions),
            "autoscale_reshards": list(self.autoscale_reshards),
        }


class MultiClientWorkload:
    """Simulates many concurrent users driving one application over the network.

    Each simulated client contributes ``ops_per_client`` operations; the
    driver executes them through the application's public client API, either
    one op at a time (``batched=False``: spans of one op, each request
    fanning out to its domains in one wave) or in spans of ``batch_size``
    ops (``batched=True``). All traffic
    crosses the simulated network as framed RPC bytes, so fault rules and
    scheduled events from the scenario engine apply to it exactly as they do
    in the scenario matrix.

    Args:
        app: one of ``keybackup``, ``threshold_sign``, ``prio``, ``odoh``.
        num_clients: how many simulated users the run models.
        ops_per_client: operations each user performs.
        seed: master seed for the workload and the fault randomness.
        batched: run spans of ``batch_size`` ops instead of one op at a time.
        batch_size: operations per batch in batched mode (client requests are
            grouped in spans of this size; scheduled events fire at span
            boundaries rather than between individual ops).
        shards: how many service-plane shards carry the app (1 = the classic
            single-deployment layout).
        service_time: simulated seconds each trust domain spends per request
            (a serial busy-until queue). 0 leaves servers infinitely fast —
            fine for message-count comparisons, but shard scaling is only
            measurable in sim time with a non-zero service time (see
            docs/architecture.md).
        rules: probabilistic :class:`~repro.sim.faults.FaultRule` instances.
        events: scheduled :class:`~repro.sim.faults.ScheduledEvent` instances.
        rpc_attempts: send attempts per request (retries are safe against the
            at-most-once servers).
        reshard_at_op: resize the service *live* just before this operation
            index — a :class:`~repro.sim.faults.ReshardService` event that
            fires first among that op's events (a batched run fires it at
            the containing span boundary); the report then carries
            per-segment simulated throughput so the pre- and post-reshard
            capacity can be compared.
        reshard_to: the shard count the live reshard resizes to — above
            ``shards`` grows, below it shrinks (evacuate + retire); it must
            differ from ``shards`` and be at least 1.
        concurrent: drive ops as overlapping tasks on the discrete-event
            loop instead of serially. Each op arrives at its own simulated
            time (Poisson arrivals at ``arrival_rate``) and runs as a
            generator that yields while its requests are on the wire, so
            hundreds of ops are genuinely in flight at once — queueing,
            tail latency, and reshard-under-load become measurable.
            ``batched`` is ignored in this mode.
        arrival_rate: mean op arrivals per simulated second in concurrent
            mode (required > 0 when ``concurrent=True``).
        op_timeout: per-wave response timeout (simulated seconds) for
            concurrent ops; each wave retransmits up to ``rpc_attempts``
            times before the op fails with a timeout.
        arrival_phases: optional load shape for concurrent mode — a tuple of
            ``(start_op, rate)`` pairs with ascending start ops. Arrivals
            before the first phase use ``arrival_rate``; from each phase's
            start op onward, its rate applies. A flash crowd is one phase
            (spike), a diurnal wave is several.
        autoscale_policy: enable a metrics-driven
            :class:`~repro.service.autoscaler.Autoscaler` before the run
            starts (concurrent mode only). A monitor task samples windowed
            p99 over every completed op and live queue depth every
            ``policy.sample_interval_s`` and reshards through the operator
            gates; the report carries every decision.
    """

    def __init__(self, app: str, num_clients: int = 100, ops_per_client: int = 1,
                 seed: int = 2022, batched: bool = True, batch_size: int = 128,
                 shards: int = 1, service_time: float = 0.0,
                 rules: tuple = (), events: tuple = (), rpc_attempts: int = 3,
                 reshard_at_op: int | None = None, reshard_to: int = 0,
                 concurrent: bool = False, arrival_rate: float = 0.0,
                 op_timeout: float = 0.25, arrival_phases: tuple = (),
                 autoscale_policy=None, parallel: bool = False,
                 workers: int = 4):
        from repro.sim.scenarios.spec import Scenario

        if num_clients < 1 or ops_per_client < 1:
            raise ValueError("a workload needs at least one client and one op")
        total_ops = num_clients * ops_per_client
        # The run shape both harnesses share (app, shards, service time,
        # arrival rate and phases) is validated where scenarios declare it.
        Scenario(name=f"workload-{app}", app=app, ops=total_ops, shards=shards,
                 concurrent=concurrent, arrival_rate=arrival_rate,
                 arrival_phases=tuple(arrival_phases), service_time=service_time)
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if reshard_at_op is not None:
            if not 1 <= reshard_at_op < total_ops:
                raise ValueError("reshard_at_op must fall inside the run "
                                 "(after the first op, before the last)")
            if reshard_to == shards or reshard_to < 1:
                raise ValueError("reshard_to must differ from the starting "
                                 "shard count and be at least 1")
        if op_timeout <= 0:
            raise ValueError("op_timeout must be positive")
        if autoscale_policy is not None and not concurrent:
            raise ValueError("the autoscaler samples a live event loop; "
                             "it needs concurrent mode")
        if parallel:
            # Parallel mode trades the discrete-event machinery for real OS
            # processes; everything that needs a shared simulated clock or a
            # faultable transport is incompatible with it by construction.
            if workers < 1:
                raise ValueError("parallel mode needs at least one worker")
            if not batched or concurrent:
                raise ValueError("parallel mode drives the batched pipeline; "
                                 "unbatched and concurrent runs need the "
                                 "discrete-event engine")
            if rules or events:
                raise ValueError("fault rules and scheduled events live on "
                                 "the simulated transport; parallel mode has "
                                 "no faultable network")
            if service_time > 0:
                raise ValueError("service_time is a simulated-clock model; "
                                 "parallel workers take real wall-clock time")
            if reshard_at_op is not None or autoscale_policy is not None:
                raise ValueError("live resharding and autoscaling migrate "
                                 "state the parallel workers own; run them "
                                 "on the discrete-event engine")
        self.app = app
        self.num_clients = num_clients
        self.ops_per_client = ops_per_client
        self.total_ops = total_ops
        self.seed = seed
        self.batched = batched
        self.batch_size = batch_size
        self.shards = shards
        self.service_time = service_time
        self.rules = tuple(rules)
        self.events = tuple(events)
        self.rpc_attempts = rpc_attempts
        self.reshard_at_op = reshard_at_op
        self.reshard_to = reshard_to
        self.concurrent = concurrent
        self.arrival_rate = arrival_rate
        self.op_timeout = op_timeout
        self.arrival_phases = tuple(arrival_phases)
        self.autoscale_policy = autoscale_policy
        self.parallel = parallel
        self.workers = workers

    @classmethod
    def from_scenario(cls, scenario, num_clients: int = 100,
                      batched: bool = True, batch_size: int = 128) -> "MultiClientWorkload":
        """Build a load run from a scenario's fault plan.

        The scenario contributes its application, shard layout, seed,
        probabilistic rules, scheduled events, and retry budget; the load
        harness contributes volume. This is how the PR-1 matrix composes
        with throughput runs — sharded and reshard scenarios included
        (shard-named events resolve against the same shard count they were
        written for).
        """
        return cls(
            app=scenario.app,
            num_clients=num_clients,
            ops_per_client=1,
            seed=scenario.seed,
            batched=batched,
            batch_size=batch_size,
            shards=scenario.shards,
            service_time=scenario.service_time,
            rules=scenario.rules,
            events=scenario.events,
            rpc_attempts=scenario.rpc_attempts,
            concurrent=scenario.concurrent,
            arrival_rate=scenario.arrival_rate,
            arrival_phases=getattr(scenario, "arrival_phases", ()),
        )

    def run(self) -> WorkloadReport:
        """Execute the workload and return its report.

        The whole run — deployment build, key generation, and every
        operation — executes with the crypto layer's randomness routed
        through a DRBG seeded from the workload seed, which is what makes
        same-seed replay bit-identical down to payload byte lengths (and
        therefore simulated latencies).
        """
        from repro.crypto import rng as crypto_rng
        from repro.sim.scenarios.apps import make_driver

        with crypto_rng.deterministic(self.seed):
            driver = make_driver(self.app, self.seed, self.total_ops,
                                 shards=self.shards, tag_prefix="workload")
            if self.parallel:
                return self._run_parallel(driver)
            return self._run(driver)

    def _run(self, driver) -> WorkloadReport:
        from repro.sim.faults import ReshardService
        from repro.sim.scenarios.runner import routed_context, run_ops

        plane = driver.plane
        batched = self.batched and not self.concurrent
        span = self.batch_size if batched else 1
        events = self.events
        reshard = None
        if self.reshard_at_op is not None:
            # A run fires it at the boundary of the span holding the
            # requested op; first among the events of its op either way.
            at_op = self.reshard_at_op - self.reshard_at_op % span
            reshard = ReshardService(at_op=at_op, shards=self.reshard_to)
            events = (reshard,) + events
        ctx, plan = routed_context(driver, self.rules, events, self.seed,
                                   self.rpc_attempts, service_time=self.service_time)
        network = ctx.network
        if self.autoscale_policy is not None:
            ctx.enable_autoscaler(self.autoscale_policy)

        report = WorkloadReport(app=self.app, num_clients=self.num_clients,
                                ops=self.total_ops, batched=batched,
                                batch_size=self.batch_size if batched else 0,
                                shards=self.shards, service_time=self.service_time,
                                concurrent=self.concurrent,
                                arrival_rate=self.arrival_rate)
        sim_started = network.clock.now()
        wall_started = time.perf_counter()
        run = run_ops(ctx, plan, self.total_ops,
                      batch_size=span,
                      arrival_rate=self.arrival_rate if self.concurrent else 0.0,
                      arrival_phases=self.arrival_phases, seed=self.seed,
                      op_timeout=self.op_timeout)
        report.wall_seconds = time.perf_counter() - wall_started
        report.sim_seconds = network.clock.now() - sim_started
        self._tally(report, run)
        report.max_in_flight = run.max_in_flight
        if reshard is not None:
            self._attach_reshard(report, run, reshard, sim_started)
        if ctx.autoscaler is not None:
            scaler = ctx.autoscaler
            report.autoscaled = any(d.fired for d in scaler.decisions)
            report.autoscale_decisions = [d.to_dict() for d in scaler.decisions]
            report.autoscale_reshards = [r.to_dict()
                                         for r in scaler.reshard_reports]
        report.retries = plane.rpc_retry_total()
        report.shard_queue_depth = plane.max_queue_depth_per_shard()
        report.final_shards = plane.ring.shard_count
        plane.unroute()
        self._attach_latency(report, driver, run)

        stats = network.stats
        report.messages_sent = stats.messages_sent
        report.messages_delivered = stats.messages_delivered
        report.messages_dropped = stats.messages_dropped
        report.messages_duplicated = stats.messages_duplicated
        report.consistency_issues = self._consistency_issues(driver, ctx)
        return report

    def _run_parallel(self, driver) -> WorkloadReport:
        """Drive the batched pipeline against true-parallel shard workers.

        The client side (this process) builds the same deterministic
        deployment the workers build, routes the plane over the executor
        (the parallel-mode transport), and runs the ordinary span schedule.
        Only wall-clock throughput is reported: ``sim_seconds`` stays zero
        because no simulated clock spans the worker processes, and
        publishing a sim-time number from a parallel run would misrepresent
        what was measured. Worker startup (spawn + per-worker deployment
        build) is excluded from the measured window.
        """
        from repro.service.parallel import ParallelShardExecutor
        from repro.sim.faults import FaultPlan
        from repro.sim.scenarios.runner import ScenarioContext, run_ops

        plane = driver.plane
        report = WorkloadReport(app=self.app, num_clients=self.num_clients,
                                ops=self.total_ops, batched=True,
                                batch_size=self.batch_size, shards=self.shards,
                                parallel=True, workers=self.workers)
        executor = ParallelShardExecutor(self.app, self.seed, self.total_ops,
                                         self.shards, workers=self.workers)
        executor.start(plane)
        try:
            plane.route_via_network(executor, attempts=1)
            ctx = ScenarioContext(None, driver)
            wall_started = time.perf_counter()
            run = run_ops(ctx, FaultPlan(), self.total_ops,
                          batch_size=self.batch_size)
            report.wall_seconds = time.perf_counter() - wall_started
            self._tally(report, run)
            # Consistency checks read the workers' state, so they must run
            # while the plane is still routed through the executor (the
            # parent's own domain state never saw the traffic).
            report.consistency_issues = self._consistency_issues(driver, ctx)
            report.retries = plane.rpc_retry_total()
        finally:
            plane.unroute()
            executor.shutdown()
        report.final_shards = plane.ring.shard_count
        return report

    @staticmethod
    def _tally(report: WorkloadReport, run) -> None:
        report.failures = run.failures
        report.failed = len(report.failures)
        report.succeeded = len(run.results) - report.failed

    def _attach_reshard(self, report: WorkloadReport, run, reshard,
                        sim_started: float) -> None:
        """Segment the run around the workload's own live reshard.

        A failed reshard is a run outcome, not a harness crash: a planning
        abort leaves the old epoch serving; a mid-migration failure commits
        with unmoved keys pinned (the coordinator attaches its report).
        """
        fired = next(mark for mark in run.fired if mark.event is reshard)
        reshard_report, error = fired.outcome
        report.ops_before_reshard = sum(
            1 for _, _, op_error in run.results[:fired.completed]
            if op_error is None)
        report.sim_seconds_before_reshard = fired.started - sim_started
        report.reshard_sim_seconds = fired.finished - fired.started
        report.reshard_summary = (reshard_report.to_dict()
                                  if reshard_report is not None else {})
        if error is not None:
            report.reshard_summary["error"] = error
        # A report means the epoch committed at the new width (a shrink may
        # still leave a retiring shard draining pinned keys).
        report.resharded = reshard_report is not None
        report.reshard_to = self.reshard_to
        report.in_flight_at_reshard = fired.in_flight

    @staticmethod
    def _attach_latency(report: WorkloadReport, driver, run) -> None:
        """Summarize succeeded ops' sim latency, overall and by shard.

        Each op is attributed to the shard its routing key lands on under the
        *final* ring, so a resharded run's breakdown reflects the grown fleet.
        """
        succeeded = [(op_index, latency)
                     for op_index, latency, error in run.results if error is None]
        if not succeeded:
            return
        report.latency = summarize([latency for _, latency in succeeded])
        per_shard: dict[int, list[float]] = {}
        for op_index, latency in succeeded:
            shard = driver.plane.shard_for(driver.routing_key(op_index))
            per_shard.setdefault(shard, []).append(latency)
        report.shard_latency = {shard: summarize(samples)
                                for shard, samples in sorted(per_shard.items())}

    @staticmethod
    def _consistency_issues(driver, ctx) -> list[str]:
        """The details of every end-of-run invariant the driver saw fail."""
        return [f"{result.name}: {result.detail}"
                for result in driver.finish(ctx) if not result.ok]
