"""The scenario runner: faults in, metrics and invariant verdicts out.

The runner composes everything the engine needs for one scenario:

1. build the application deployment through its normal (fault-free) setup path
   — across ``scenario.shards`` service-plane shards when sharded;
2. attach every trust domain of every shard to a simulated network and *route
   all application traffic over it* (framed RPC bytes, at-most-once servers,
   client retries);
3. install the scenario's probabilistic fault rules on the network send path;
4. drive the seeded workload through :func:`run_ops` — one operation at a
   time, or as overlapping tasks for concurrent scenarios — applying
   scheduled events (partitions, crashes, compromises, malicious updates,
   live reshards) at operation boundaries and recording per-operation
   simulated latency;
5. check the safety invariants: digest logs stayed append-only, audits end in
   the expected verdict (detecting every unannounced update and compromised
   TEE), epoch transitions committed with no key left unroutable, and the
   application-specific secrecy/conservation properties held.

These steps are :meth:`ScenarioRunner._run`, the one serial/concurrent run:
a load run (:class:`~repro.sim.workload.MultiClientWorkload`) is the same
run with more ops, so it is audited and checked the same way.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.package import CodePackage
from repro.errors import EpochBundleError, ReproError, ReshardError
from repro.net.latency import geo_profile, lan_profile
from repro.net.transport import Network
from repro.sim.coverage import CoverageRecorder
from repro.sim.faults import (
    AutoscaleEnabled,
    CompromiseDomain,
    CrashParty,
    FaultPlan,
    HealLink,
    PartitionLink,
    RecoverParty,
    UnannouncedUpdate,
)
from repro.sim.metrics import summarize
from repro.sim.scenarios.apps import make_driver
from repro.sim.scenarios.spec import InvariantResult, Scenario, ScenarioReport
from repro.transparency.log import DigestLog

__all__ = ["ScenarioContext", "ScenarioRunner", "OpRun", "FiredEvent",
           "run_ops"]


class ScenarioContext:
    """Mutable state scheduled events act on during a run of ``driver``'s
    app (its deployment and service plane are the event targets)."""

    def __init__(self, network: Network | None, driver,
                 recorder: CoverageRecorder | None = None,
                 rpc_attempts: int = 3):
        self.network = network
        self.driver = driver
        self.deployment = driver.deployment
        self.plane = driver.plane
        self.recorder = recorder
        self.rpc_attempts = rpc_attempts
        self.current_op = 0
        self.unannounced_digests: list[bytes] = []
        self.reshard_reports: list = []
        self.reshard_errors: list[str] = []
        self.midrun_audits: list = []  # (op_index, ok, kinds) per AuditNow
        self.epoch_audits: list = []  # dict per bundle per AuditEpoch
        self.forged_epochs: list[int] = []  # artifact indices a forge rewrote
        self.autoscaler = None
        self._epoch_rpc = None

    def resolve(self, party: str) -> str:
        """Map a scenario party name to a network address.

        ``"client"`` is the shared client endpoint; ``"domain:<i>"`` is trust
        domain ``i``'s RPC address (on the primary shard). Sharded scenarios
        additionally use ``"shard:<s>:domain:<i>"`` for shard ``s``'s domain
        ``i`` and ``"shard:<s>:client"`` for that shard's client endpoint
        (each shard sends from its own — migration traffic included).
        """
        if party == "client":
            return self.plane.client_address
        if party.startswith("shard:"):
            _, shard_index, rest = party.split(":", 2)
            shard_index = int(shard_index)
            if shard_index < len(self.plane.shards):
                shard_name = self.plane.shards[shard_index].name
            else:
                # A shard a later ReshardService event will create: deployment
                # names are deterministic, so the fault can be laid down on
                # its addresses before the shard exists (e.g. a partition
                # that hits the migration's import path the moment it forms).
                shard_name = self.plane.spec.shard_name(shard_index)
            if rest == "client":
                return f"{shard_name}-client"
            if rest.startswith("domain:"):
                return f"{shard_name}-domain-{int(rest.split(':', 1)[1])}"
            raise ValueError(f"unknown scenario party {party!r}")
        if party.startswith("domain:"):
            return self.deployment.domains[int(party.split(":", 1)[1])].domain_id
        raise ValueError(f"unknown scenario party {party!r}")

    def compromise(self, domain_index: int, shard_index: int = 0) -> None:
        """Exploit one domain's TEE at the current operation boundary."""
        self.plane.shards[shard_index].domains[domain_index].compromise()

    def reshard(self, new_shard_count: int):
        """Resize the service plane to ``new_shard_count`` shards, live.

        A failed reshard is a *scenario outcome*, not a harness crash: a
        planning abort leaves the old epoch serving (nothing to record), and
        a mid-migration failure commits with the unmoved keys pinned — the
        coordinator attaches its report to the error. Either way the run
        continues and the invariants judge the resulting state. Returns
        ``(report, error)``: the report is ``None`` exactly when no epoch
        committed, the error text ``None`` when the transition succeeded.
        """
        return self._epoch_transition(lambda plane: plane.reshard(new_shard_count))

    def finish_reshard(self):
        """Drain keys a faulted reshard left pinned to their old shards;
        returns ``(report, error)`` like :meth:`reshard`."""
        return self._epoch_transition(lambda plane: plane.finish_reshard())

    def _epoch_transition(self, transition):
        report = error = None
        with self.phase("mid-migration"):
            try:
                report = transition(self.plane)
            except ReshardError as exc:
                error = str(exc)
                self.reshard_errors.append(error)
                report = getattr(exc, "report", None)
            if report is not None:
                self.reshard_reports.append(report)
        self._note_placement()
        return report, error

    def audit_now(self) -> None:
        """Run a full transparency audit at this operation boundary.

        Fired by :class:`~repro.sim.faults.AuditNow`: the probe races
        whatever faults are live right now, and its evidence is folded into
        the report's detected kinds (the end-of-run audit alone decides the
        pass/fail verdict).
        """
        with self.phase("mid-audit"):
            ok, kinds = self.driver.audit_outcome()
        self.midrun_audits.append((self.current_op, ok, tuple(sorted(kinds))))

    def audit_epochs(self) -> None:
        """Fetch and verify every published epoch bundle over the network.

        Fired by :class:`~repro.sim.faults.AuditEpoch`: the standalone
        auditor — its own trust domain, holding only the coordinator's and
        log's public keys — pulls each :class:`~repro.transparency.epochs.
        EpochArtifact` from the coordinator's bundle endpoint through the
        live fault rules and verifies it from the artifact alone. A fetch
        the network defeats is recorded (``fetched=False``), never raised;
        the end-of-run ``epoch-bundles-verify`` invariant independently
        verifies everything in-process.
        """
        from repro.errors import RpcError, TimeoutError
        from repro.transparency.auditor import AuditorService

        publisher = getattr(self.plane, "epoch_publisher", None)
        if publisher is None:
            raise ValueError("scenario deployment publishes no epoch bundles")
        server, client = self._epoch_transport(publisher)
        with self.phase("mid-audit"):
            auditor = AuditorService(publisher.coordinator_key,
                                     publisher.log_key)
            try:
                count = int(client.call_with_retry("get_count", None,
                                                   attempts=self.rpc_attempts))
            except (RpcError, TimeoutError):
                # The network defeated even the enumeration; record the
                # starved probe so the report shows the audit ran dry.
                self.epoch_audits.append({"op": self.current_op, "index": -1,
                                          "forged": False, "fetched": False,
                                          "ok": False, "failing": []})
                return
            for index in range(count):
                entry = {"op": self.current_op, "index": index,
                         "forged": index in self.forged_epochs}
                try:
                    payload = client.call_with_retry(
                        "get_epoch", {"index": index},
                        attempts=self.rpc_attempts)
                except (RpcError, TimeoutError):
                    entry.update(fetched=False, ok=False, failing=[])
                else:
                    verdict = auditor.verify(payload)
                    entry.update(fetched=True, ok=verdict.ok,
                                 failing=verdict.failing(),
                                 epoch=verdict.epoch, kind=verdict.kind)
                self.epoch_audits.append(entry)

    def forge_epoch(self) -> str | None:
        """Rewrite the latest bundle's first migrator digest and republish.

        Fired by :class:`~repro.sim.faults.ForgeEpochDigest`: the
        compromised-coordinator attack the auditor must provably catch. The
        forged artifact's index is remembered so the invariants can demand
        its rejection (and name the digest-conservation check) while every
        honest bundle still verifies. When there is no digest to forge (no
        epoch yet, or the latest moved no keys) nothing is forged and the
        error text is returned as the event's outcome.
        """
        from repro.transparency.epochs import forge_migration_digest

        publisher = getattr(self.plane, "epoch_publisher", None)
        if publisher is None:
            raise ValueError("scenario deployment publishes no epoch bundles")
        try:
            forge_migration_digest(publisher)
        except EpochBundleError as exc:
            return str(exc)
        self.forged_epochs.append(len(publisher.artifacts) - 1)
        return None

    def _epoch_transport(self, publisher):
        """The bundle endpoint (coordinator side) and the auditor's client.

        Built once per run: the coordinator serves ``get_epoch`` from its
        artifact list as plain data, and the auditor calls it from its own
        network address — bundle fetches ride the same adversarial send
        path, retries, and at-most-once dedup as every other RPC.
        """
        from repro.net.rpc import RpcClient, RpcServer

        if self._epoch_rpc is None:
            service = self.plane.spec.name
            server = RpcServer(self.network.endpoint(f"{service}-epoch-log"),
                               name="epoch-log")
            server.register("get_count", lambda params: len(publisher.artifacts))
            server.register(
                "get_epoch",
                lambda params: publisher.artifacts[int(params["index"])].to_dict())
            client = RpcClient(self.network,
                               self.network.endpoint(f"{service}-epoch-auditor"),
                               server.endpoint.address)
            self._epoch_rpc = (server, client)
        return self._epoch_rpc

    def phase(self, name: str, record_active: bool = True):
        """The coverage recorder's phase window (a no-op without a recorder)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.phase(name, record_active=record_active)

    def _note_placement(self) -> None:
        if self.recorder is not None:
            self.recorder.set_shards(self.plane.ring.shard_count)

    def note_event(self, event) -> None:
        """Tell the coverage recorder what an applied event did.

        Stateful conditions (partition/crash/compromise — the unannounced
        update is developer-side compromise) stay *active* for coverage
        until the matching heal/recover fires; migration, audit, and
        placement effects are recorded inside the ``ctx`` methods the event
        called, so they need nothing here.
        """
        if self.recorder is None:
            return
        if isinstance(event, PartitionLink):
            self.recorder.activate("partition")
        elif isinstance(event, HealLink):
            self.recorder.deactivate("partition")
        elif isinstance(event, CrashParty):
            self.recorder.activate("crash")
        elif isinstance(event, RecoverParty):
            self.recorder.deactivate("crash")
        elif isinstance(event, (CompromiseDomain, UnannouncedUpdate)):
            self.recorder.activate("compromise")

    def enable_autoscaler(self, policy=None) -> None:
        """Hand the shard count to the elastic control loop, mid-run.

        Fired by :class:`~repro.sim.faults.AutoscaleEnabled` (or called by a
        harness before the run). The op loop's monitor task, spawned on the
        overlapping schedule, starts sampling and deciding the moment this
        is set.
        """
        from repro.service.autoscaler import Autoscaler

        if self.autoscaler is None:
            self.autoscaler = Autoscaler(self.plane, policy)

    @property
    def resharded(self) -> bool:
        """Whether any epoch transition ran during this scenario."""
        return bool(self.reshard_reports)

    def push_unannounced_update(self, domain_index: int, version_suffix: str) -> None:
        """Sign and install an update on one domain without publishing it.

        The manifest is genuine (the attacker holds the developer key) and the
        framework accepts it — announcing it and logging its digest as the
        design requires — but the source never reaches the public registry or
        release log, so auditors must flag the deployment.
        """
        domain = self.deployment.domains[domain_index]
        current = domain.framework.current_package
        if current is None:
            raise ValueError("cannot push an update before any code is installed")
        evil = CodePackage(current.name, current.version + version_suffix,
                           current.language, current.source)
        sequence = domain.framework.state().sequence + 1
        manifest = self.deployment.developer.sign_update(evil, sequence)
        self.deployment.install_on_domain(domain_index, manifest, evil)
        self.unannounced_digests.append(evil.digest())


class FiredEvent(NamedTuple):
    """One scheduled event as the op loop applied it."""

    event: object
    completed: int  # ops finished before it fired (a prefix of the results)
    started: float  # sim time before / after it was applied
    finished: float
    outcome: object  # what ``event.apply`` returned
    in_flight: int  # ops in flight when it fired (0 unless ops overlap)

    @property
    def committed_epoch(self) -> bool:
        """Whether it was a reshard or finish-reshard that committed an epoch
        (their outcome is ``(report, error)``, the report set on commit)."""
        return isinstance(self.outcome, tuple) and self.outcome[0] is not None


@dataclass
class OpRun:
    """What one :func:`run_ops` pass produced."""

    # (op index, sim latency, error type name or None) per op, in completion
    # order (op order unless ops overlap).
    results: list = field(default_factory=list)
    fired: list = field(default_factory=list)  # FiredEvent per applied event
    max_in_flight: int = 0
    sim_started: float = 0.0  # sim time the loop started at
    sim_seconds: float = 0.0  # sim time the loop took
    wall_seconds: float = 0.0  # wall-clock time the loop took

    @property
    def failures(self) -> list:
        """``(op index, error type name)`` per failed op, in completion order."""
        return [(op_index, error) for op_index, _, error in self.results
                if error is not None]


def run_ops(ctx: ScenarioContext, plan: FaultPlan, scenario: Scenario, *,
            batch_size: int = 1, op_timeout: float = 0.25) -> OpRun:
    """Drive ``scenario.ops`` operations of ``ctx.driver`` under ``plan``'s
    events.

    The one op loop behind both harnesses, in one of two schedules:

    * spans of ``batch_size`` ops through ``driver.run_span`` — every event
      whose op falls inside a span fires at the span's boundary; the
      default, spans of one, runs one op at a time;
    * for a concurrent scenario, every op its own ``driver.op_task`` on the
      discrete-event loop, arriving at Poisson times seeded from
      ``scenario.seed`` (at ``scenario.arrival_rate``, reshaped by
      ``scenario.arrival_phases``), so events fire while earlier ops are
      genuinely in flight; ``batch_size`` is ignored. When the context
      carries an autoscaler, or the plan can enable one, a monitor task
      samples the plane at the policy's cadence.

    Events fire through ``ctx`` with ``ctx.current_op`` set to the boundary
    op. Sim latency is the op's own time (or its span's, for every op in it).
    The returned run also times the loop, in sim and in wall-clock seconds.
    """
    driver = ctx.driver
    clock = driver.plane.clock
    ops = scenario.ops
    run = OpRun(sim_started=clock.now())
    wall_started = time.perf_counter()

    def fire(op_index: int, stop: int, in_flight: int = 0) -> None:
        # Events of every op in [op_index, stop) fire here, in op order.
        ctx.current_op = op_index
        for event in [event for op in range(op_index, stop)
                      for event in plan.events_at(op)]:
            started = clock.now()
            outcome = event.apply(ctx)
            ctx.note_event(event)
            run.fired.append(FiredEvent(event, len(run.results), started,
                                        clock.now(), outcome, in_flight))

    if scenario.concurrent:
        from repro.net.eventloop import EventLoop, Sleep
        from repro.service.autoscaler import percentile

        loop = EventLoop(ctx.network)
        arrivals = random.Random(scenario.seed + 2)
        in_flight = 0

        def op_task(op_index: int):
            nonlocal in_flight
            fire(op_index, op_index + 1, in_flight)
            in_flight += 1
            run.max_in_flight = max(run.max_in_flight, in_flight)
            if ctx.recorder is not None and in_flight >= 2:
                ctx.recorder.batch_active(True)
            started = clock.now()
            error = None
            try:
                yield from driver.op_task(ctx, op_index, op_timeout)
            except ReproError as exc:
                error = type(exc).__name__
            finally:
                in_flight -= 1
                if ctx.recorder is not None and in_flight < 2:
                    ctx.recorder.batch_active(False)
            run.results.append((op_index, clock.now() - started, error))

        def autoscale_monitor():
            # Idles cheaply until an autoscaler is enabled (an
            # AutoscaleEnabled event may sit at any op boundary); each p99
            # window is every op completed since the previous sample.
            window_start = 0
            while len(run.results) < ops:
                scaler = ctx.autoscaler
                yield Sleep(scaler.policy.sample_interval_s
                            if scaler is not None else 0.05)
                if scaler is None:
                    window_start = len(run.results)
                    continue
                window = [latency for _, latency, _ in run.results[window_start:]]
                window_start = len(run.results)
                decisions_before = len(scaler.decisions)
                shards_before = ctx.plane.ring.shard_count
                # Per-sample observes enter the window without charging the
                # active faults to it — otherwise the monitor's mere cadence
                # would claim mid-autoscale coverage every run. Transitions
                # the observe fires (and the migration traffic they push)
                # are recorded under the phase.
                with ctx.phase("mid-autoscale", record_active=False):
                    scaler.observe(p99_s=percentile(window, 0.99))
                if ctx.recorder is not None:
                    if any(d.fired for d in scaler.decisions[decisions_before:]):
                        ctx.recorder.record_active_under("mid-autoscale")
                    if ctx.plane.ring.shard_count != shards_before:
                        ctx.recorder.set_shards(ctx.plane.ring.shard_count)

        if ctx.autoscaler is not None or any(
                isinstance(event, AutoscaleEnabled) for event in plan.events):
            loop.spawn(autoscale_monitor(), name="autoscaler")
        arrival_offset = 0.0
        started = clock.now()
        for op_index in range(ops):
            rate = scenario.arrival_rate
            for start_op, phase_rate in scenario.arrival_phases:
                if op_index >= start_op:
                    rate = phase_rate
            arrival_offset += arrivals.expovariate(rate)
            loop.spawn(op_task(op_index), name=f"op-{op_index}",
                       start_at=started + arrival_offset)
        loop.run()
        if ctx.autoscaler is not None:
            # The autoscaler's transitions are epoch transitions like any
            # other: fold them into the context's reshard record so the
            # invariants judge them identically.
            ctx.reshard_reports.extend(ctx.autoscaler.reshard_reports)
    else:
        for start in range(0, ops, batch_size):
            count = min(batch_size, ops - start)
            fire(start, start + count)
            started = clock.now()
            outcomes = driver.run_span(start, count)
            latency = clock.now() - started
            run.results.extend(
                (start + offset, latency,
                 type(outcome).__name__ if isinstance(outcome, Exception) else None)
                for offset, outcome in enumerate(outcomes))
    run.wall_seconds = time.perf_counter() - wall_started
    run.sim_seconds = clock.now() - run.sim_started
    return run


class ScenarioRunner:
    """Runs one :class:`~repro.sim.scenarios.spec.Scenario` end to end."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def run(self) -> ScenarioReport:
        """Execute the scenario and return its report.

        Crypto randomness is routed through a DRBG seeded from the scenario
        seed for the whole run (see :mod:`repro.crypto.rng`), so a scenario
        replays bit-identically — faults, share polynomials, padding, and
        the latencies their byte lengths produce included.
        """
        from repro.crypto import rng as crypto_rng

        report = ScenarioReport(scenario=self.scenario)
        with crypto_rng.deterministic(self.scenario.seed):
            self._run(report)
        return report

    def _run(self, report: ScenarioReport, *, batch_size: int = 1,
             op_timeout: float = 0.25, autoscale_policy=None,
             tag_prefix: str = "scenario"):
        """Run the scenario into ``report`` and return ``(ctx, run)``.

        The steps of the module docstring, for both harnesses. The load
        harness adds only what it alone has: its span size, its per-wave
        timeout, an autoscale policy enabled before the loop, and its prio
        session tag.
        """
        scenario = self.scenario
        driver = make_driver(scenario.app, scenario.seed, scenario.ops,
                             shards=scenario.shards, regions=scenario.regions,
                             tag_prefix=tag_prefix)
        plane = driver.plane
        recorder = CoverageRecorder(scenario.app, layout=scenario.layout,
                                    shards=scenario.shards)
        network = Network(clock=plane.clock, default_latency=lan_profile())
        plane.route_via_network(network, attempts=scenario.rpc_attempts)
        if driver.regions:
            plane.apply_latency_map(network, geo_profile())
        if scenario.service_time > 0:
            plane.set_service_time(scenario.service_time)
        plan = FaultPlan(scenario.rules, scenario.events, seed=scenario.seed + 1)
        plan.install(network, recorder=recorder)
        ctx = ScenarioContext(network, driver, recorder, scenario.rpc_attempts)
        if autoscale_policy is not None:
            ctx.enable_autoscaler(autoscale_policy)
        # Every epoch transition the run performs leaves a signed,
        # self-contained transparency bundle behind (publishing is pure
        # computation — deterministic signatures, no network traffic —
        # so scenarios without transitions are byte-identical to before).
        from repro.transparency.epochs import EpochPublisher

        plane.epoch_publisher = EpochPublisher(plane.spec.name)

        log_baseline = {
            domain.domain_id: domain.framework.log_export()
            for shard in plane.shards for domain in shard.domains
        }
        run = run_ops(ctx, plan, scenario, batch_size=batch_size,
                      op_timeout=op_timeout)
        report.sim_elapsed_s = run.sim_seconds
        report.record(ctx, run)
        report.in_flight_at_reshard = next(
            (mark.in_flight for mark in reversed(run.fired)
             if mark.committed_epoch), 0)
        # Collected from the live fleet on the run's network, not a pre-run
        # snapshot, so servers of shards grown by a mid-run reshard are
        # counted too.
        report.duplicates_answered = plane.duplicates_answered_total()
        plane.unroute()

        report.latency = summarize([latency for _, latency, _ in run.results])
        report.reshards = list(ctx.reshard_reports)

        report.audit_ok, kinds = driver.audit_outcome()
        # Mid-run AuditNow probes contribute evidence kinds (an auditor that
        # caught the fault while it was live), never the final verdict.
        for _op, _ok, midrun_kinds in ctx.midrun_audits:
            kinds = set(kinds) | set(midrun_kinds)
        # The epoch auditor's verdicts are evidence too: a forged bundle it
        # rejected — mid-run over the network or end-of-run in-process — is
        # detected misbehavior with a verifiable artifact behind it.
        bundle_verdicts = self._verify_epoch_bundles(ctx)
        if any(verdict["forged"] and not verdict["ok"]
               for verdict in bundle_verdicts):
            kinds = set(kinds) | {"forged-epoch"}
        report.detected_kinds = tuple(sorted(kinds))
        report.epoch_audits = list(ctx.epoch_audits)
        report.invariants = self._generic_invariants(ctx, report, log_baseline,
                                                     bundle_verdicts)
        report.invariants.extend(driver.finish(ctx))
        report.coverage_cells = frozenset(recorder.cells)
        return ctx, run

    # ------------------------------------------------------------------
    # Generic invariants (checked for every app)
    # ------------------------------------------------------------------
    def _generic_invariants(self, ctx: ScenarioContext, report: ScenarioReport,
                            log_baseline: dict,
                            bundle_verdicts: list) -> list[InvariantResult]:
        invariants = [self._append_only_invariant(ctx, log_baseline),
                      self._conservation_invariant(ctx),
                      self._audit_invariant(report)]
        if ctx.unannounced_digests:
            invariants.append(self._unannounced_update_invariant(ctx, report))
        if ctx.resharded:
            invariants.append(self._reshard_invariant(ctx))
        if bundle_verdicts:
            invariants.append(self._epoch_bundle_invariant(ctx, bundle_verdicts))
        return invariants

    @staticmethod
    def _verify_epoch_bundles(ctx: ScenarioContext) -> list:
        """End-of-run verdict for every published epoch bundle, in-process.

        The standalone auditor replays each artifact from scratch — the
        fault-free ground truth a mid-run :class:`~repro.sim.faults.
        AuditEpoch` probe (whose fetches the network may defeat) is judged
        against. Empty when the run published nothing.
        """
        from repro.transparency.auditor import AuditorService

        publisher = getattr(ctx.plane, "epoch_publisher", None)
        if publisher is None or not publisher.artifacts:
            return []
        auditor = AuditorService(publisher.coordinator_key, publisher.log_key)
        verdicts = []
        for index, artifact in enumerate(publisher.artifacts):
            verdict = auditor.verify(artifact)
            verdicts.append({"index": index, "ok": verdict.ok,
                             "failing": verdict.failing(),
                             "forged": index in ctx.forged_epochs})
        return verdicts

    def _append_only_invariant(self, ctx: ScenarioContext, baseline: dict) -> InvariantResult:
        """No domain's digest log lost or rewrote history during the run.

        Shards added by a mid-run reshard are checked against an empty
        baseline — their whole history happened during the run.
        """
        domains = [domain for shard in ctx.plane.shards for domain in shard.domains]
        for domain in domains:
            exported = domain.framework.log_export()
            before = baseline.get(domain.domain_id, [])
            if len(exported) < len(before):
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id} truncated its log")
            if not DigestLog.views_consistent(before, exported):
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id} rewrote logged history")
            try:
                DigestLog.verify_export(exported, domain.framework.log_head())
            except ReproError as exc:
                return InvariantResult("digest-log-append-only", False,
                                       f"{domain.domain_id}: {exc}")
        return InvariantResult("digest-log-append-only", True,
                               f"{len(domains)} domain logs verified "
                               "against their attested heads")

    def _conservation_invariant(self, ctx: ScenarioContext) -> InvariantResult:
        """Transport accounting stayed exact across the whole run.

        Every message that entered the network — original sends and
        fault-injected duplicates alike — must be counted as exactly one
        delivery or one drop (plus whatever is still queued when the run
        ends, e.g. a delayed duplicate nobody waited for). A leak here means
        some network path forgot to record its outcome, and every
        loss/latency number in the report becomes untrustworthy.
        """
        stats = ctx.network.stats
        pending = ctx.network.pending()
        return InvariantResult("network-conserves-messages",
                               stats.conserved(pending=pending),
                               stats.conservation_detail(pending=pending))

    def _audit_invariant(self, report: ScenarioReport) -> InvariantResult:
        scenario = self.scenario
        if report.audit_ok != scenario.expect_audit_ok:
            expected = "pass" if scenario.expect_audit_ok else "fail"
            return InvariantResult("audit-ends-as-expected", False,
                                   f"audit was expected to {expected} but did not")
        missing = set(scenario.expect_detection_kinds) - set(report.detected_kinds)
        if missing:
            return InvariantResult("audit-ends-as-expected", False,
                                   f"audit produced no {sorted(missing)} evidence")
        detail = ("clean deployment passed its audit" if scenario.expect_audit_ok
                  else "misbehavior was detected with verifiable evidence")
        return InvariantResult("audit-ends-as-expected", True, detail)

    def _unannounced_update_invariant(self, ctx: ScenarioContext,
                                      report: ScenarioReport) -> InvariantResult:
        """Every unannounced update left evidence and failed the audit."""
        if report.audit_ok:
            return InvariantResult("unannounced-update-detected", False,
                                   "audit passed despite an unpublished update")
        logged = {
            bytes(entry["code_digest"])
            for shard in ctx.plane.shards
            for domain in shard.domains
            for entry in domain.framework.log_export()
        }
        missing = [digest for digest in ctx.unannounced_digests if digest not in logged]
        if missing:
            return InvariantResult("unannounced-update-detected", False,
                                   "an installed update left no digest-log entry")
        return InvariantResult(
            "unannounced-update-detected", True,
            f"{len(ctx.unannounced_digests)} unpublished update(s) appear in the "
            "tamper-evident logs and failed the audit",
        )

    def _reshard_invariant(self, ctx: ScenarioContext) -> InvariantResult:
        """Every epoch transition committed and left no key unroutable.

        In either direction: the ring may never cover more shards than
        exist (keys would route into the void); a shard attached *beyond*
        the ring (a shrink still draining) is legitimate only while pinned
        or stale records justify keeping it; no key may still be marked
        mid-migration; and any key pinned by an epoch override must point
        at an attached shard — i.e. requests during and after every
        transition either routed correctly or failed safely, never
        misrouted.
        """
        plane = ctx.plane
        if plane.is_migrating:
            return InvariantResult("reshard-epoch-committed", False,
                                   "keys left mid-migration after the run")
        if plane.ring.shard_count > len(plane.shards):
            return InvariantResult(
                "reshard-epoch-committed", False,
                f"ring covers {plane.ring.shard_count} shards but only "
                f"{len(plane.shards)} exist")
        draining = plane.draining_shards()
        if draining:
            referenced = ({shard for _, shard in plane.pending_migrations()}
                          | {shard for _, shard in plane.pending_cleanups()})
            try:
                residual = any(plane.migrator is not None
                               and plane.migrator.residue(plane, shard)
                               for shard in draining)
            except Exception:
                residual = True  # unreachable shard: draining is justified
            if not referenced & set(draining) and not residual:
                return InvariantResult(
                    "reshard-epoch-committed", False,
                    f"shards {draining} left draining with no pinned, "
                    "stale, or residual records justifying them")
        # Each committed transition stamps its report with the epoch it
        # produced (drain reports reuse the then-current epoch), so the
        # distinct epochs recorded must all have been reached — grows and
        # shrinks alike.
        epochs = {reshard.epoch for reshard in ctx.reshard_reports
                  if reshard.epoch > 0}
        if plane.epoch < len(epochs):
            return InvariantResult("reshard-epoch-committed", False,
                                   f"{len(epochs)} epoch transitions were "
                                   f"recorded but the epoch only advanced "
                                   f"to {plane.epoch}")
        for key, shard_index in plane.pending_migrations():
            if not 0 <= shard_index < len(plane.shards):
                return InvariantResult(
                    "reshard-epoch-committed", False,
                    f"key {key!r} pinned to nonexistent shard {shard_index}")
        pending = plane.pending_migration_keys
        stale = len(plane.pending_cleanups())
        detail = (f"epoch {plane.epoch} committed; ring covers "
                  f"{plane.ring.shard_count} of {len(plane.shards)} "
                  "attached shards")
        if draining:
            detail += f"; shards {draining} still draining"
        if pending:
            detail += f"; {pending} keys pinned to old shards (routed, not lost)"
        if stale:
            detail += f"; {stale} moved keys await source cleanup"
        return InvariantResult("reshard-epoch-committed", True, detail)

    def _epoch_bundle_invariant(self, ctx: ScenarioContext,
                                verdicts: list) -> InvariantResult:
        """Every honest epoch bundle verifies from the artifact alone, and
        every forged one is provably rejected on digest conservation."""
        for verdict in verdicts:
            index = verdict["index"]
            if verdict["forged"]:
                if verdict["ok"]:
                    return InvariantResult(
                        "epoch-bundles-verify", False,
                        f"forged bundle {index} passed verification")
                if "digest-conservation" not in verdict["failing"]:
                    return InvariantResult(
                        "epoch-bundles-verify", False,
                        f"forged bundle {index} was rejected but not on "
                        f"digest conservation ({verdict['failing']})")
            elif not verdict["ok"]:
                return InvariantResult(
                    "epoch-bundles-verify", False,
                    f"honest bundle {index} failed verification "
                    f"({verdict['failing']})")
        honest = sum(1 for verdict in verdicts if not verdict["forged"])
        forged = len(verdicts) - honest
        detail = (f"{honest} honest bundle(s) verified from the artifact "
                  "alone")
        if forged:
            detail += (f"; {forged} forged bundle(s) rejected on "
                       "digest conservation")
        return InvariantResult("epoch-bundles-verify", True, detail)
