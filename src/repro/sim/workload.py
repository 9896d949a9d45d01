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
  and no runner of its own: a run is a scenario plus volume, and a serial
  or concurrent run is the scenario runner's one run
  (:class:`repro.sim.scenarios.runner.ScenarioRunner`), so the report
  carries its invariants, audit verdict and coverage cells and
  ``consistency_issues`` lists every invariant that failed. Only the
  parallel mode, which brings its own transport, drives the op loop
  (:func:`repro.sim.scenarios.runner.run_ops`) itself. Three figures stay
  the harness's own: latency over succeeded ops, the in-flight count at its
  own reshard, and the prio session tag. Fault rules and scheduled events
  compose directly (see :meth:`MultiClientWorkload.from_scenario`), so load
  runs double as stress tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.sim.metrics import summarize
from repro.sim.scenarios.spec import ScenarioReport

__all__ = ["WorkloadGenerator", "WorkloadReport", "MultiClientWorkload"]


class WorkloadGenerator:
    """Produces reproducible synthetic workloads.

    All draws come from a seeded PRNG so benchmark runs are repeatable; the
    seed is part of the experiment configuration (see docs/performance.md).
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
class WorkloadReport(ScenarioReport):
    """Everything one load run produced.

    A load run is a scenario run, so the report is a
    :class:`~repro.sim.scenarios.spec.ScenarioReport` — run totals,
    invariants, audit verdict, coverage cells — whose ``latency`` covers the
    succeeded ops only and whose ``in_flight_at_reshard`` counts the ops in
    flight at the workload's own reshard. The fields below are what only
    the load harness measures.
    """

    batched: bool = True
    batch_size: int = 0
    wall_seconds: float = 0.0
    # Per-shard breakdown: sim latency stats for the operations routed to
    # each shard (batched ops carry their span's completion latency).
    shard_latency: dict = field(default_factory=dict)  # shard -> LatencyStats
    # Live-reshard segmentation (populated when reshard_at_op fires).
    resharded: bool = False
    reshard_to: int = 0
    reshard_at_op: int = 0  # the op boundary the reshard fired at
    ops_before_reshard: int = 0  # succeeded ops completed before the fire
    sim_seconds_before_reshard: float = 0.0
    reshard_sim_seconds: float = 0.0
    reshard_summary: dict = field(default_factory=dict)
    # Elastic control loop (populated when an autoscale policy is installed).
    autoscaled: bool = False
    autoscale_reshards: list = field(default_factory=list)   # report dicts
    # True-parallel execution (populated when parallel=True): shards served
    # by worker *processes* over OS pipes. Wall-clock only — sim_seconds
    # stays 0.0 because no simulated clock spans the processes, and a
    # sim-time number from such a run would be meaningless.
    parallel: bool = False
    workers: int = 0

    @property
    def app(self) -> str:
        return self.scenario.app

    @property
    def num_clients(self) -> int:
        """Simulated users, one op each."""
        return self.scenario.ops

    @property
    def shards(self) -> int:
        """Shards the run started with."""
        return self.scenario.shards

    @property
    def service_time(self) -> float:
        return self.scenario.service_time

    @property
    def concurrent(self) -> bool:
        return self.scenario.concurrent

    @property
    def arrival_rate(self) -> float:
        return self.scenario.arrival_rate

    @property
    def sim_seconds(self) -> float:
        """Sim time of the op loop (0.0 for a parallel run)."""
        return self.sim_elapsed_s

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
    def consistency_issues(self) -> list[str]:
        """The details of every invariant the run saw fail."""
        return [f"{result.name}: {result.detail}"
                for result in self.invariants if not result.ok]

    @property
    def consistent(self) -> bool:
        """Whether every invariant held, the end-of-run application state
        matching the accepted ops included."""
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
            self.network_line(),
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
        lines.extend(self.queue_depth_lines())
        if self.resharded:
            completed = ("" if self.ops_before_reshard == self.reshard_at_op
                         else f" ({self.ops_before_reshard} ops done before it)")
            lines.append(
                f"  reshard: at op {self.reshard_at_op}{completed}, "
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
            **self.totals_dict(),
            "app": self.app,
            "num_clients": self.num_clients,
            "ops": self.ops,
            "batched": self.batched,
            "batch_size": self.batch_size,
            "shards": self.shards,
            "service_time": self.service_time,
            "wall_seconds": self.wall_seconds,
            "ops_per_sec": self.ops_per_sec,
            "sim_seconds": self.sim_seconds,
            "sim_ops_per_sec": self.sim_ops_per_sec,
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
            "in_flight_at_reshard": self.in_flight_at_reshard,
            "parallel": self.parallel,
            "workers": self.workers,
            "autoscaled": self.autoscaled,
            "autoscale_reshards": list(self.autoscale_reshards),
        }


class MultiClientWorkload:
    """Simulates many concurrent users driving one application over the network.

    A load run is a :class:`~repro.sim.scenarios.spec.Scenario` (kept as
    :attr:`scenario`, one op per simulated client) plus the settings only
    the load harness has: how the ops are grouped, the per-wave timeout, a
    live reshard of its own, an autoscale policy and parallel workers. The
    ops run through the application's public client API, one op at a time
    (``batched=False``: spans of one op) or in spans of ``batch_size`` ops.
    All traffic crosses the simulated network as framed RPC bytes, so fault
    rules and scheduled events apply to it exactly as they do in the
    scenario matrix, and the run is audited and checked like a scenario.

    Args:
        app, seed, shards, service_time, rules, events, rpc_attempts,
            concurrent, arrival_rate, arrival_phases: the run shape, as the
            :class:`~repro.sim.scenarios.spec.Scenario` attributes of the
            same names (``batched`` is ignored when ``concurrent``).
        num_clients: how many simulated users the run models, one op each.
        batched: run spans of ``batch_size`` ops instead of one op at a time.
        batch_size: operations per span in batched mode; scheduled events
            fire at span boundaries rather than between individual ops.
        reshard_at_op: resize the service *live* just before this operation
            index — a :class:`~repro.sim.faults.ReshardService` event that
            fires first among that op's events (a batched run fires it at
            the containing span boundary); the report then carries
            per-segment simulated throughput so the pre- and post-reshard
            capacity can be compared.
        reshard_to: the shard count the live reshard resizes to — above
            ``shards`` grows, below it shrinks (evacuate + retire); it must
            differ from ``shards`` and be at least 1.
        op_timeout: per-wave response timeout (simulated seconds) for
            concurrent ops; each wave retransmits up to ``rpc_attempts``
            times before the op fails with a timeout.
        autoscale_policy: enable a metrics-driven
            :class:`~repro.service.autoscaler.Autoscaler` before the run
            starts (concurrent mode only). A monitor task samples windowed
            p99 over every completed op and live queue depth every
            ``policy.sample_interval_s`` and reshards through the operator
            gates; the report carries every decision.
        parallel, workers: serve the shards from ``workers`` worker
            processes (batched mode only; see :meth:`_run_parallel`).
    """

    def __init__(self, app: str, num_clients: int = 100, *,
                 seed: int = 2022, batched: bool = True, batch_size: int = 128,
                 shards: int = 1, service_time: float = 0.0,
                 rules: tuple = (), events: tuple = (), rpc_attempts: int = 3,
                 reshard_at_op: int | None = None, reshard_to: int = 0,
                 concurrent: bool = False, arrival_rate: float = 0.0,
                 op_timeout: float = 0.25, arrival_phases: tuple = (),
                 autoscale_policy=None, parallel: bool = False,
                 workers: int = 4):
        from repro.sim.scenarios.spec import Scenario

        if num_clients < 1:
            raise ValueError("a workload needs at least one client")
        # The scenario validates the run shape both harnesses share.
        self.scenario = Scenario(
            name=f"workload-{app}", app=app, ops=num_clients, shards=shards,
            seed=seed, rules=tuple(rules), events=tuple(events),
            rpc_attempts=rpc_attempts, concurrent=concurrent,
            arrival_rate=arrival_rate, arrival_phases=tuple(arrival_phases),
            service_time=service_time)
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if reshard_at_op is not None:
            if not 1 <= reshard_at_op < num_clients:
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
        self.batched = batched
        self.batch_size = batch_size
        self.reshard_at_op = reshard_at_op
        self.reshard_to = reshard_to
        self.op_timeout = op_timeout
        self.autoscale_policy = autoscale_policy
        self.parallel = parallel
        self.workers = workers

    @classmethod
    def from_scenario(cls, scenario, num_clients: int = 100,
                      batched: bool = True, batch_size: int = 128) -> "MultiClientWorkload":
        """Build a load run of ``scenario`` with ``num_clients`` ops.

        The scenario is kept whole (regions, name and audit expectations
        included); the load harness contributes volume and how the ops are
        grouped. This is how the scenario matrix composes with throughput
        runs — sharded, reshard and epoch-audit scenarios included.
        """
        workload = cls(scenario.app, num_clients, batched=batched,
                       batch_size=batch_size)
        workload.scenario = replace(scenario, ops=num_clients)
        return workload

    def run(self) -> WorkloadReport:
        """Execute the workload and return its report.

        The whole run — deployment build, key generation, and every
        operation — executes with the crypto layer's randomness routed
        through a DRBG seeded from the workload seed, which is what makes
        same-seed replay bit-identical down to payload byte lengths (and
        therefore simulated latencies). A serial or concurrent run is the
        scenario runner's run of :attr:`scenario`, so it is audited and
        checked like any scenario; its own reshard is one more scenario
        event.
        """
        from repro.crypto import rng as crypto_rng
        from repro.sim.faults import ReshardService
        from repro.sim.scenarios.runner import ScenarioRunner

        scenario = self.scenario
        if self.parallel:
            with crypto_rng.deterministic(scenario.seed):
                return self._run_parallel()
        batched = self.batched and not scenario.concurrent
        span = self.batch_size if batched else 1
        reshard = None
        if self.reshard_at_op is not None:
            # A run fires it at the boundary of the span holding the
            # requested op; first among the events of its op either way
            # (the fault plan orders same-op events stably).
            at_op = self.reshard_at_op - self.reshard_at_op % span
            reshard = ReshardService(at_op=at_op, shards=self.reshard_to)
            scenario = replace(scenario, events=(reshard,) + scenario.events)
        report = WorkloadReport(scenario=scenario, batched=batched,
                                batch_size=self.batch_size if batched else 0)
        with crypto_rng.deterministic(scenario.seed):
            ctx, run = ScenarioRunner(scenario)._run(
                report, batch_size=span, op_timeout=self.op_timeout,
                autoscale_policy=self.autoscale_policy, tag_prefix="workload")
        report.wall_seconds = run.wall_seconds
        # Only the workload's own reshard sets the in-flight figure.
        report.in_flight_at_reshard = 0
        if reshard is not None:
            self._attach_reshard(report, run, reshard)
        if ctx.autoscaler is not None:
            scaler = ctx.autoscaler
            report.autoscaled = any(d.fired for d in scaler.decisions)
            report.autoscale_reshards = [r.to_dict()
                                         for r in scaler.reshard_reports]
        self._attach_latency(report, ctx.driver, run)
        return report

    def _run_parallel(self) -> WorkloadReport:
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
        from repro.sim.scenarios.apps import make_driver
        from repro.sim.scenarios.runner import ScenarioContext, run_ops

        scenario = self.scenario
        driver = make_driver(scenario.app, scenario.seed, scenario.ops,
                             shards=scenario.shards, tag_prefix="workload")
        plane = driver.plane
        report = WorkloadReport(scenario=scenario, batch_size=self.batch_size,
                                parallel=True, workers=self.workers)
        executor = ParallelShardExecutor(scenario.app, scenario.seed,
                                         scenario.ops, scenario.shards,
                                         workers=self.workers)
        executor.start(plane)
        try:
            plane.route_via_network(executor, attempts=1)
            ctx = ScenarioContext(None, driver)
            run = run_ops(ctx, FaultPlan(), scenario, batch_size=self.batch_size)
            report.wall_seconds = run.wall_seconds
            report.record(ctx, run)
            # The app's invariants read the workers' state, so they must run
            # while the plane is still routed through the executor (the
            # parent's own domain state never saw the traffic).
            report.invariants = driver.finish(ctx)
        finally:
            plane.unroute()
            executor.shutdown()
        return report

    def _attach_reshard(self, report: WorkloadReport, run, reshard) -> None:
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
        report.reshard_at_op = reshard.at_op
        report.sim_seconds_before_reshard = fired.started - run.sim_started
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
        report.latency = (summarize([latency for _, latency in succeeded])
                          if succeeded else None)
        per_shard: dict[int, list[float]] = {}
        for op_index, latency in succeeded:
            shard = driver.plane.shard_for(driver.routing_key(op_index))
            per_shard.setdefault(shard, []).append(latency)
        report.shard_latency = {shard: summarize(samples)
                                for shard, samples in sorted(per_shard.items())}
