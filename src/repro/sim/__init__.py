"""Simulation support: workloads, adversaries, faults, metrics, and scenarios.

These helpers keep the examples and the benchmark harness small: workloads are
seeded and reproducible, the adversary module encodes the paper's threat model
(a compromised application developer, an exploited TEE vendor) and answers
what the attacker can read on every shard, fault plans inject adversarial
network conditions into the simulated transport, and the metrics module turns
raw latency samples into the summary statistics the experiment write-ups
report. The :mod:`repro.sim.scenarios` package composes all of it into the
fault-injection scenario engine that drives every application end to end; it
is imported explicitly (``from repro.sim.scenarios import ...``) rather than
re-exported here, because the engine depends on :mod:`repro.apps`, whose
service layer loads this package (the autoscaler uses
:func:`repro.sim.metrics.percentile`). The load harness in
:mod:`repro.sim.workload` runs on that engine, so its names load on first
use.
"""

from repro.sim.coverage import CoverageRecorder, CoverageReport
from repro.sim.metrics import LatencyStats, summarize
from repro.sim.adversary import DeveloperCompromise, VendorExploit, attacker_reach
from repro.sim.faults import (
    AuditNow,
    CompromiseDomain,
    CrashParty,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    HealLink,
    PartitionLink,
    RecoverParty,
    ReorderFault,
    UnannouncedUpdate,
)
__all__ = [
    "CoverageRecorder",
    "CoverageReport",
    "LatencyStats",
    "summarize",
    "WorkloadGenerator",
    "WorkloadReport",
    "MultiClientWorkload",
    "DeveloperCompromise",
    "VendorExploit",
    "attacker_reach",
    "FaultPlan",
    "DropFault",
    "DelayFault",
    "ReorderFault",
    "DuplicateFault",
    "PartitionLink",
    "HealLink",
    "CrashParty",
    "RecoverParty",
    "CompromiseDomain",
    "UnannouncedUpdate",
    "AuditNow",
]


def __getattr__(name):
    if name in ("MultiClientWorkload", "WorkloadGenerator", "WorkloadReport"):
        from repro.sim import workload

        return getattr(workload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
