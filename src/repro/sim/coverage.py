"""The scenario-space coverage model.

The fault space the scenario engine can exercise is combinatorial — fault
kind × injection phase × topology × application — and a hand-written matrix
inevitably leaves most of it dark. This module treats scenario selection as a
*coverage* problem, in the covering-array style of the configuration-testing
literature: instead of demanding every full 4-tuple (infeasible and mostly
redundant), the cell space is every **pair** of dimension values across
distinct dimensions, and a scenario run covers the pairs it actually
exercised. Pairwise coverage is the classic sweet spot — the overwhelming
majority of interaction bugs involve two factors — and it keeps the total
small enough that a seeded generator can drive the score to a CI-enforced
floor.

The dimensions:

* **fault** — which adversarial behavior was injected: the four
  probabilistic message rules (``drop``/``delay``/``reorder``/``duplicate``)
  and the three stateful conditions (``partition``, ``crash``,
  ``compromise``).
* **phase** — what the system was doing when the fault was live:
  ``steady-state`` (ordinary serial traffic), ``mid-migration`` (a scheduled
  reshard's key handoff), ``mid-batch`` (two or more ops genuinely in flight
  on the event loop), ``mid-audit`` (an :class:`~repro.sim.faults.AuditNow`
  probe running), ``mid-autoscale`` (the autoscaler's monitor deciding or
  transitioning).
* **topology** — region layout × shard placement: ``single/{1,2,4,8}`` and
  ``geo/{2,4,8}`` (a geo scenario routes cross-region traffic through the
  :func:`~repro.net.latency.geo_profile` WAN map). A run that reshards
  traverses every placement it passes through.
* **app** — which end-to-end application carried the workload.

A :class:`CoverageRecorder` rides along with one scenario run (the
:class:`~repro.sim.scenarios.runner.ScenarioRunner` owns it) and records
cells as faults fire; :class:`CoverageReport` merges the per-run cell sets
into the score and per-dimension marginals that
``examples/scenario_sweep.py --coverage`` writes and CI enforces.
"""

from __future__ import annotations

import itertools

__all__ = [
    "FAULT_KINDS",
    "PHASES",
    "TOPOLOGIES",
    "COVERAGE_APPS",
    "DIMENSIONS",
    "all_cells",
    "cell_id",
    "topology_label",
    "CoverageRecorder",
    "CoverageReport",
]

FAULT_KINDS = ("drop", "delay", "reorder", "duplicate",
               "partition", "crash", "compromise")
PHASES = ("steady-state", "mid-migration", "mid-batch",
          "mid-audit", "mid-autoscale")
#: Region layout × shard placement. Placements are the powers of two the
#: matrix and generator deploy; an off-lattice width (e.g. a shrink caught
#: mid-drain at 3 shards) buckets down to the nearest placement.
SHARD_PLACEMENTS = (1, 2, 4, 8)
TOPOLOGIES = ("single/1", "single/2", "single/4", "single/8",
              "geo/2", "geo/4", "geo/8")
COVERAGE_APPS = ("keybackup", "threshold_sign", "prio", "odoh")

#: Dimension name -> value tuple, in the canonical dimension order used to
#: normalize cells.
DIMENSIONS = {
    "fault": FAULT_KINDS,
    "phase": PHASES,
    "topology": TOPOLOGIES,
    "app": COVERAGE_APPS,
}
_DIM_ORDER = tuple(DIMENSIONS)


def topology_label(layout: str, shards: int) -> str:
    """The topology value for a region layout and a live shard count."""
    if layout not in ("single", "geo"):
        raise ValueError(f"unknown region layout {layout!r}")
    placement = max((p for p in SHARD_PLACEMENTS if p <= shards), default=1)
    if layout == "geo":
        placement = max(placement, 2)  # geo needs at least two placements
    return f"{layout}/{placement}"


def _cell(dim_a: str, value_a: str, dim_b: str, value_b: str) -> tuple:
    """A normalized pair cell: dimensions in canonical order."""
    if _DIM_ORDER.index(dim_a) > _DIM_ORDER.index(dim_b):
        dim_a, value_a, dim_b, value_b = dim_b, value_b, dim_a, value_a
    return (dim_a, value_a, dim_b, value_b)


def cell_id(cell: tuple) -> str:
    """Stable string form of one cell (what the JSON report stores)."""
    dim_a, value_a, dim_b, value_b = cell
    return f"{dim_a}={value_a}|{dim_b}={value_b}"


def all_cells() -> frozenset:
    """Every pair cell the model defines (the denominator of the score)."""
    cells = set()
    for dim_a, dim_b in itertools.combinations(_DIM_ORDER, 2):
        for value_a in DIMENSIONS[dim_a]:
            for value_b in DIMENSIONS[dim_b]:
                cells.add(_cell(dim_a, value_a, dim_b, value_b))
    return frozenset(cells)


class CoverageRecorder:
    """Records which cells one scenario run touches.

    The runner drives it:

    * :meth:`note_rule` for every probabilistic rule that fires on a message;
    * :meth:`activate` / :meth:`deactivate` as stateful conditions come and
      go (partition laid/healed, party crashed/recovered, TEE compromised);
    * :meth:`phase` around migration, audit, and autoscale windows, and
      :meth:`batch_active` as event-loop concurrency crosses two in-flight
      ops — entering a window re-records every *active* stateful fault
      against it, because those faults are live while the window runs;
    * :meth:`set_shards` whenever an epoch transition changes the placement.

    A fault observation covers, for each phase live at that instant: the
    (fault, phase), (phase, topology), and (phase, app) pairs — plus the
    phase-independent (fault, topology) and (fault, app) pairs. The
    (topology, app) pair is covered by merely deploying the topology.
    """

    def __init__(self, app: str, layout: str = "single", shards: int = 1):
        if app not in COVERAGE_APPS:
            raise ValueError(f"unknown app {app!r}")
        self.app = app
        self.layout = layout
        self.cells: set = set()
        self._phases: list[str] = []
        self._batch = False
        self._active: set[str] = set()
        self.topology = None
        self.set_shards(shards)

    # -- dimension state -------------------------------------------------
    def set_shards(self, shards: int) -> None:
        """Record the live placement (covers the (topology, app) pair)."""
        self.topology = topology_label(self.layout, shards)
        self.cells.add(_cell("topology", self.topology, "app", self.app))

    def _live_phases(self) -> tuple:
        if self._phases:
            return tuple(dict.fromkeys(self._phases))
        if self._batch:
            return ("mid-batch",)
        return ("steady-state",)

    # -- fault observations ----------------------------------------------
    def record(self, kind: str) -> None:
        """Record one fault observation under every currently-live phase."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.cells.add(_cell("fault", kind, "topology", self.topology))
        self.cells.add(_cell("fault", kind, "app", self.app))
        for phase in self._live_phases():
            self.cells.add(_cell("fault", kind, "phase", phase))
            self.cells.add(_cell("phase", phase, "topology", self.topology))
            self.cells.add(_cell("phase", phase, "app", self.app))

    def note_rule(self, rule) -> None:
        """A probabilistic rule fired on a message (drop/delay/...)."""
        kind = getattr(rule, "kind", None)
        if kind is not None:
            self.record(kind)

    def activate(self, kind: str) -> None:
        """A stateful condition began (partition/crash/compromise)."""
        self._active.add(kind)
        self.record(kind)

    def deactivate(self, kind: str) -> None:
        """A stateful condition ended (heal/recover)."""
        self._active.discard(kind)

    def _record_active(self) -> None:
        for kind in sorted(self._active):
            self.record(kind)

    # -- phase windows ----------------------------------------------------
    class _Phase:
        def __init__(self, recorder: "CoverageRecorder", name: str,
                     record_active: bool):
            self._recorder = recorder
            self._name = name
            self._record_active = record_active

        def __enter__(self):
            self._recorder._phases.append(self._name)
            if self._record_active:
                self._recorder._record_active()
            return self._recorder

        def __exit__(self, *exc):
            self._recorder._phases.pop()
            return False

    def phase(self, name: str, record_active: bool = True) -> "_Phase":
        """Context manager marking a named phase window.

        ``record_active=False`` enters the window without charging the
        active stateful faults to it — the autoscale monitor uses this for
        its per-sample observes, recording actives only when a transition
        actually fires (:meth:`record_active_under`).
        """
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        return self._Phase(self, name, record_active)

    def record_active_under(self, name: str) -> None:
        """Charge the active stateful faults to one phase, explicitly."""
        with self.phase(name, record_active=True):
            pass

    def batch_active(self, active: bool) -> None:
        """Flip the mid-batch window (two or more ops in flight)."""
        if active and not self._batch:
            self._batch = True
            self._record_active()
        elif not active:
            self._batch = False


class CoverageReport:
    """Merged coverage over a set of scenario runs."""

    def __init__(self, per_scenario: dict | None = None):
        #: scenario name -> frozenset of cells that run touched
        self.per_scenario = dict(per_scenario or {})
        self.total = all_cells()

    @classmethod
    def from_reports(cls, reports) -> "CoverageReport":
        """Build from :class:`~repro.sim.scenarios.spec.ScenarioReport`\\ s."""
        return cls({report.scenario.name: frozenset(report.coverage_cells)
                    for report in reports})

    @property
    def covered(self) -> frozenset:
        cells: set = set()
        for scenario_cells in self.per_scenario.values():
            cells.update(scenario_cells)
        return frozenset(cells & self.total)

    @property
    def score(self) -> float:
        """Covered cells / total cells, in ``[0, 1]``."""
        return len(self.covered) / len(self.total)

    def uncovered(self) -> list:
        """Every dark cell, deterministically ordered (the generator's prey)."""
        return sorted(self.total - self.covered)

    def marginals(self) -> dict:
        """Per-dimension-value coverage: value -> (covered, possible)."""
        possible: dict = {}
        for cell in self.total:
            dim_a, value_a, dim_b, value_b = cell
            possible.setdefault((dim_a, value_a), set()).add(cell)
            possible.setdefault((dim_b, value_b), set()).add(cell)
        covered = self.covered
        out: dict = {}
        for dimension, values in DIMENSIONS.items():
            out[dimension] = {
                value: {
                    "covered": len(possible[(dimension, value)] & covered),
                    "possible": len(possible[(dimension, value)]),
                }
                for value in values
            }
        return out

    def to_dict(self) -> dict:
        """Plain-data form (what the sweep writes as ``coverage_report.json``)."""
        return {
            "cells_total": len(self.total),
            "cells_covered": len(self.covered),
            "score": round(self.score, 4),
            "marginals": self.marginals(),
            "uncovered": [cell_id(cell) for cell in self.uncovered()],
            "per_scenario": {
                name: sorted(cell_id(cell) for cell in cells)
                for name, cells in sorted(self.per_scenario.items())
            },
        }
