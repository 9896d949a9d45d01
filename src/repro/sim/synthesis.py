"""Coverage-guided scenario synthesis and failure shrinking.

The hand-written matrix (:mod:`repro.sim.scenarios.matrix`) encodes the
scenarios someone thought of; this module generates the ones nobody did. A
seeded generator composes valid :class:`~repro.sim.scenarios.spec.Scenario`
objects *aimed at dark cells* of the pairwise coverage model
(:mod:`repro.sim.coverage`): given an uncovered (fault, phase) /
(phase, topology) / … pair, it builds a scenario whose construction makes
that pair likely — a stateful fault laid down before the phase window it
must be live in, probabilistic rules installed before the traffic they must
bite. Everything derives from one integer seed, so a generated scenario
replays bit-identically and a CI sweep over fixed seeds is reproducible
byte for byte.

Generated scenarios are built to *pass*: liveness floors are waived
(``min_success_rate=0`` — fault tolerance under generated fault soup is not
the claim being tested), audit expectations track whether a compromise was
injected, and compromises stay below every app's threshold. When a generated
scenario nevertheless fails an invariant, it found a real bug — and
:func:`shrink` reduces it, greedy delta-debugging style, to a minimal event
list and rule set that still fails the same way, which
:func:`render_pinned` then emits as a ready-to-paste pinned scenario for the
regression matrix.
"""

from __future__ import annotations

import dataclasses
import random

from repro.net.latency import GEO_REGIONS
from repro.service.autoscaler import AutoscalerPolicy
from repro.sim.coverage import CoverageReport, all_cells
from repro.sim.faults import (
    AuditEpoch,
    AuditNow,
    AutoscaleEnabled,
    CompromiseDomain,
    CrashParty,
    DelayFault,
    DropFault,
    DuplicateFault,
    HealLink,
    PartitionLink,
    RecoverParty,
    ReorderFault,
    ReshardService,
)
from repro.sim.scenarios.spec import Scenario

__all__ = [
    "SynthesisTarget",
    "target_for_cell",
    "synthesize_scenario",
    "synthesize_batch",
    "failing_invariants",
    "ShrinkResult",
    "shrink",
    "render_pinned",
    "render_pinned_module",
]

#: Probabilistic per-message kinds — they only exist while traffic flows.
INSTANT_KINDS = ("drop", "delay", "reorder", "duplicate")
#: Condition kinds — active from their event until healed/recovered.
STATEFUL_KINDS = ("partition", "crash", "compromise")

#: Per-app bounds the generator must respect: which trust-domain indices a
#: compromise may hit without crossing the app's secrecy threshold (at most
#: one compromise per generated scenario), and which domains carry
#: crash/partition events.
_APP_DOMAINS = {
    # (compromisable indices, faultable indices)
    "keybackup": ((1, 2, 3), (0, 1, 2, 3)),
    "threshold_sign": ((1, 2, 3), (1, 2, 3)),
    "prio": ((0, 1, 2), (0, 1, 2)),
    "odoh": ((0, 1), (0, 1)),
}


@dataclasses.dataclass(frozen=True)
class SynthesisTarget:
    """The dimension values a generated scenario must aim at.

    ``None`` fields are free — the generator fills them from its seed.
    """

    fault: str | None = None
    phase: str | None = None
    topology: str | None = None
    app: str | None = None


def target_for_cell(cell: tuple) -> SynthesisTarget:
    """The target pinning exactly the two dimensions one coverage cell names."""
    dim_a, value_a, dim_b, value_b = cell
    return SynthesisTarget(**{dim_a: value_a, dim_b: value_b})


def _parse_topology(topology: str) -> tuple[str, int]:
    layout, placement = topology.split("/")
    return layout, int(placement)


def _regions_for(layout: str, shards: int) -> tuple:
    if layout != "geo":
        return ()
    return GEO_REGIONS[:min(len(GEO_REGIONS), max(2, shards))]


def _rule_for(kind: str, rng: random.Random):
    probability = round(rng.uniform(0.1, 0.3), 3)
    if kind == "drop":
        return DropFault(probability=probability)
    if kind == "delay":
        return DelayFault(probability=probability,
                          delay_s=round(rng.uniform(0.002, 0.01), 4))
    if kind == "reorder":
        return ReorderFault(probability=probability,
                            max_delay_s=round(rng.uniform(0.01, 0.03), 4))
    if kind == "duplicate":
        return DuplicateFault(probability=probability, copies=rng.randint(1, 2))
    raise ValueError(f"not a probabilistic fault kind: {kind!r}")


def _stateful_events(kind: str, app: str, shards: int, rng: random.Random,
                     at_op: int, until_op: int) -> tuple:
    """Lay a stateful condition down at ``at_op`` and lift it at ``until_op``
    (compromise excepted — a breached TEE stays breached)."""
    compromisable, faultable = _APP_DOMAINS[app]
    if kind == "partition":
        party = f"domain:{rng.choice(faultable)}"
        return (PartitionLink(at_op=at_op, a="client", b=party),
                HealLink(at_op=until_op, a="client", b=party))
    if kind == "crash":
        party = f"domain:{rng.choice(faultable)}"
        return (CrashParty(at_op=at_op, party=party),
                RecoverParty(at_op=until_op, party=party))
    if kind == "compromise":
        shard_index = rng.randrange(shards) if shards > 1 else 0
        return (CompromiseDomain(at_op=at_op,
                                 domain_index=rng.choice(compromisable),
                                 shard_index=shard_index),)
    raise ValueError(f"not a stateful fault kind: {kind!r}")


def synthesize_scenario(seed: int, target: SynthesisTarget | None = None,
                        name: str | None = None) -> Scenario:
    """Compose one valid scenario from ``seed``, aimed at ``target``.

    The same ``(seed, target)`` always yields the same scenario, and running
    it is itself deterministic — so a batch of seeds is a reproducible CI
    artifact. Construction aims rather than guarantees: a probabilistic rule
    may simply not fire inside a narrow phase window; the coverage report
    scores what actually happened.
    """
    target = target or SynthesisTarget()
    rng = random.Random(seed)

    app = target.app or rng.choice(tuple(_APP_DOMAINS))
    phase = target.phase or rng.choice(
        ("steady-state", "steady-state", "mid-batch", "mid-migration"))
    topology = target.topology or rng.choice(
        ("single/1", "single/2", "single/4", "geo/2", "geo/4"))
    layout, placement = _parse_topology(topology)

    # A per-message fault can only bite a mid-audit window through the epoch
    # auditor's bundle fetches, and a bundle needs an epoch: those runs grow
    # into the audit instead of starting at the target placement. When the
    # fault dimension is free, a stateful kind keeps the audit (an
    # in-process probe) at exactly the target placement.
    fault_pool = INSTANT_KINDS + STATEFUL_KINDS
    if target.fault is None and phase == "mid-audit":
        fault_pool = STATEFUL_KINDS
    fault = target.fault or rng.choice(fault_pool)
    audit_over_network = phase == "mid-audit" and fault in INSTANT_KINDS

    # The deployment starts at the target placement, except where the phase
    # itself must move the placement: a migration (or a networked epoch
    # audit, which needs one) grows into it, and an autoscale run starts
    # below the 8-shard ceiling so a grow can fire.
    shards = placement
    if phase == "mid-migration" or audit_over_network:
        shards = max(1, placement // 2)
    elif phase == "mid-autoscale" and placement >= 8:
        shards = 4
    if layout == "geo":
        shards = max(2, shards)

    concurrent = phase in ("mid-batch", "mid-autoscale")
    ops = rng.randint(10, 14) if concurrent else rng.randint(6, 9)

    rules: list = []
    events: list = []
    expect_audit_ok = True
    expect_detection: tuple = ()

    fault_at = 2
    heal_at = ops - 2
    if fault in INSTANT_KINDS:
        rule = _rule_for(fault, rng)
        if audit_over_network:
            # The audit window is a handful of fetch round trips; a
            # low-probability rule usually misses it entirely. Pin the odds
            # high so the rule demonstrably bites the audit's own traffic
            # (retries and the end-of-run in-process verification keep the
            # scenario healthy regardless).
            rule = dataclasses.replace(rule, probability=0.6)
        rules.append(rule)
    else:
        events.extend(_stateful_events(fault, app, shards, rng,
                                       at_op=fault_at, until_op=heal_at))
        if fault == "compromise":
            expect_audit_ok = False
            expect_detection = ("attestation-failure",)

    arrival_rate = 0.0
    service_time = 0.0
    if phase == "mid-migration":
        # The phase window is the grow itself; a stateful fault laid at op 2
        # is still active when the op-4 epoch transition enters the window,
        # and a probabilistic rule bites the migration traffic.
        events.append(ReshardService(at_op=min(4, ops - 2),
                                     shards=min(8, max(placement,
                                                       shards * 2))))
    elif phase == "mid-audit":
        if audit_over_network:
            # Publish an epoch, then fetch-and-verify its bundle over the
            # network: the installed rule bites the audit's own traffic.
            grow_to = (placement if placement > shards
                       else min(8, max(2, shards * 2)))
            events.append(ReshardService(at_op=2, shards=grow_to))
            events.append(AuditEpoch(at_op=3))
        else:
            events.append(AuditNow(at_op=fault_at + 1))
    elif phase == "mid-batch":
        arrival_rate = float(rng.choice((120, 160, 200)))
        service_time = round(rng.uniform(0.004, 0.008), 4)
    elif phase == "mid-autoscale":
        arrival_rate = float(rng.choice((150, 200)))
        service_time = round(rng.uniform(0.006, 0.01), 4)
        events.append(AutoscaleEnabled(at_op=0, policy=AutoscalerPolicy(
            p99_high_s=0.01, queue_high=2,
            p99_low_s=0.0005, queue_low=0,
            min_shards=shards, max_shards=min(8, shards * 2),
            cooldown_s=0.05, breach_streak=1, clear_streak=200,
            sample_interval_s=0.05,
        )))

    name = name or f"synth-{seed}-{app}-{fault}-{phase}"
    return Scenario(
        name=name,
        app=app,
        ops=ops,
        shards=shards,
        seed=seed,
        rules=tuple(rules),
        events=tuple(sorted(events, key=lambda e: e.at_op)),
        # Liveness under generated fault soup is not the property under
        # test; the safety invariants are.
        min_success_rate=0.0,
        expect_audit_ok=expect_audit_ok,
        expect_detection_kinds=expect_detection,
        concurrent=concurrent,
        arrival_rate=arrival_rate,
        service_time=service_time,
        regions=_regions_for(layout, shards),
        description=f"synthesized (seed {seed}) aiming at "
                    f"fault={fault} phase={phase} topology={topology}",
    )


def synthesize_batch(count: int, seed: int,
                     base: CoverageReport | None = None) -> list:
    """Generate ``count`` scenarios targeted at ``base``'s uncovered cells.

    Targets are the dark cells in deterministic order (the whole cell space
    when no base report is given), visited round-robin; scenario
    ``i`` uses seed ``seed + i``. Fixed ``(count, seed, base)`` therefore
    fixes the batch exactly — which is what lets CI pin its sweep.
    """
    dark = base.uncovered() if base is not None else sorted(all_cells())
    scenarios = []
    for index in range(count):
        target = (target_for_cell(dark[index % len(dark)]) if dark
                  else SynthesisTarget())
        scenarios.append(synthesize_scenario(
            seed + index, target, name=f"synth-{seed}-{index:02d}"))
    return scenarios


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def failing_invariants(scenario: Scenario) -> tuple:
    """Run ``scenario`` and name everything that failed (empty = healthy)."""
    from repro.sim.scenarios.runner import ScenarioRunner

    report = ScenarioRunner(scenario).run()
    names = [result.name for result in report.invariants if not result.ok]
    if not report.liveness_ok:
        names.append("liveness-floor")
    return tuple(sorted(names))


@dataclasses.dataclass
class ShrinkResult:
    """A minimal reproducer and the trail that led to it."""

    scenario: Scenario
    failing: tuple  # invariant names the minimized scenario still fails
    runs: int  # scenario executions the shrink spent
    removed_events: int
    removed_rules: int


def shrink(scenario: Scenario, failing: tuple | None = None) -> ShrinkResult:
    """Greedily minimize a failing scenario's events and rules.

    Classic one-at-a-time delta debugging: try deleting each scheduled
    event, then each probabilistic rule; keep any deletion after which the
    scenario *still fails one of the originally-failing invariants*; repeat
    to fixpoint. The result is the minimal reproducer to pin in the matrix
    (see :func:`render_pinned`) — every surviving event and rule is load-
    bearing, because removing it made the failure vanish.
    """
    runs = 0
    if failing is None:
        failing = failing_invariants(scenario)
        runs += 1
    if not failing:
        raise ValueError(f"scenario {scenario.name!r} fails no invariant; "
                         "nothing to shrink")
    baseline = set(failing)
    current = scenario
    removed_events = removed_rules = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal runs
        runs += 1
        return bool(set(failing_invariants(candidate)) & baseline)

    progress = True
    while progress:
        progress = False
        for index in range(len(current.events)):
            candidate = dataclasses.replace(
                current,
                events=current.events[:index] + current.events[index + 1:])
            if still_fails(candidate):
                current = candidate
                removed_events += 1
                progress = True
                break
        if progress:
            continue
        for index in range(len(current.rules)):
            candidate = dataclasses.replace(
                current,
                rules=current.rules[:index] + current.rules[index + 1:])
            if still_fails(candidate):
                current = candidate
                removed_rules += 1
                progress = True
                break

    current = dataclasses.replace(current, name=f"{scenario.name}-min")
    return ShrinkResult(scenario=current,
                        failing=failing_invariants(current),
                        runs=runs + 1,
                        removed_events=removed_events,
                        removed_rules=removed_rules)


def render_pinned(scenario: Scenario, reason: str = "") -> str:
    """Emit a shrunk scenario as ready-to-paste matrix source.

    Only non-default fields are rendered; the fault dataclasses' reprs are
    eval-able, so the output drops straight into
    ``repro/sim/scenarios/matrix.py`` (promotion workflow in
    ``docs/scenarios.md``).
    """
    lines = []
    if reason:
        lines.append(f"# Pinned reproducer: {reason}")
    lines.append("Scenario(")
    defaults = {field.name: field.default for field in
                dataclasses.fields(Scenario)
                if field.default is not dataclasses.MISSING}
    for field in dataclasses.fields(Scenario):
        value = getattr(scenario, field.name)
        if field.name in defaults and value == defaults[field.name]:
            continue
        if field.name in ("rules", "events") and value:
            lines.append(f"    {field.name}=(")
            for item in value:
                lines.append(f"        {item!r},")
            lines.append("    ),")
        else:
            lines.append(f"    {field.name}={value!r},")
    lines.append(")")
    return "\n".join(lines)


def render_pinned_module(entries) -> str:
    """Render ``(scenario, reason)`` pairs as the whole pinned-matrix module.

    The emitted source is ``repro/sim/scenarios/pinned.py``: a
    ``pinned_matrix()`` the default matrix appends, one
    :func:`render_pinned` block per promoted scenario. Checking the
    rendered module in (instead of re-synthesizing at import time) is what
    makes a promotion permanent — the scenario survives any later change to
    the generator's draw order. Regenerate the file rather than editing it.
    """
    entries = list(entries)
    fault_names = sorted({type(item).__name__
                          for scenario, _reason in entries
                          for item in (*scenario.rules, *scenario.events)})
    lines = [
        '"""Pinned scenarios promoted from the coverage-guided synthesis sweep.',
        "",
        "Generated by :func:`repro.sim.synthesis.render_pinned_module` "
        "(promotion",
        "workflow in ``docs/scenarios.md``). Each block is one synthesized "
        "scenario",
        "kept verbatim so the combination it exercises stays in the regression",
        "matrix no matter how the generator's draw order evolves. Regenerate "
        "this",
        'file rather than editing it by hand.',
        '"""',
        "",
        "from __future__ import annotations",
        "",
    ]
    if fault_names:
        lines.append("from repro.sim.faults import (")
        for name in fault_names:
            lines.append(f"    {name},")
        lines.append(")")
    lines.append("from repro.sim.scenarios.spec import Scenario")
    lines.append("")
    lines.append('__all__ = ["pinned_matrix"]')
    lines.append("")
    lines.append("")
    lines.append("def pinned_matrix() -> list[Scenario]:")
    lines.append('    """The pinned scenarios the default matrix appends."""')
    lines.append("    return [")
    for scenario, reason in entries:
        for line in render_pinned(scenario, reason).splitlines():
            lines.append(f"        {line}" if line else "")
        lines[-1] += ","
    lines.append("    ]")
    return "\n".join(lines) + "\n"
