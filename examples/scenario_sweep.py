"""Run the fault-injection scenario matrix and print per-scenario reports.

Every application is driven end to end under adversarial network conditions —
message loss, delay, reordering, duplication, partitions, crashes, TEE
compromise, unannounced updates, and live 2→4 resharding epochs — and the
paper's safety invariants are checked after each run. The sweep is fully
seeded: two runs with the same seed print byte-identical reports.

Usage::

    PYTHONPATH=src python examples/scenario_sweep.py [seed]
        [--filter substring[,substring...]] [--json PATH] [--timeout-s N]
        [--synthesize N] [--synthesis-seed S]
        [--coverage PATH] [--coverage-floor F]

``--filter`` keeps only scenarios whose name contains one of the given
substrings (e.g. ``--filter 4shards,reshard`` runs the sharded and reshard
families); ``--json`` additionally writes every report's plain-data form to
a file (what CI uploads as an artifact); ``--timeout-s`` aborts the sweep if
any single scenario runs longer than N wall seconds — the guard CI uses so a
hung event loop fails the job in seconds instead of eating the runner's
job timeout.

``--synthesize N`` appends N generated scenarios (seeds ``S, S+1, …`` from
``--synthesis-seed``) targeted at the pairwise coverage cells the hand
matrix left dark. A synthesized scenario that fails an invariant is
printed shrunk, as paste-ready ``Scenario(...)`` source for the matrix.
``--coverage PATH`` writes the merged
:class:`~repro.sim.coverage.CoverageReport` as JSON (the
``coverage_report.json`` CI artifact), and ``--coverage-floor F`` fails the
sweep when the merged score drops below ``F`` (the committed CI floor).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys

from repro.sim.coverage import CoverageReport
from repro.sim.scenarios import ScenarioRunner, default_matrix
from repro.sim.synthesis import render_pinned, shrink, synthesize_batch


@contextlib.contextmanager
def _scenario_deadline(name: str, timeout_s: int):
    """Abort with a clear message if one scenario exceeds ``timeout_s``.

    Uses ``signal.alarm`` where available (POSIX main thread); elsewhere the
    guard degrades to a no-op rather than failing the sweep — the simulation
    itself is deterministic, so a hang is a code bug, not a platform race.
    """
    if timeout_s <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"scenario {name!r} exceeded the {timeout_s}s per-scenario budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(timeout_s)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def main(argv: list[str] | None = None) -> int:
    """Run the matrix; returns 0 when every invariant and liveness floor held."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("seed", nargs="?", type=int, default=2022)
    parser.add_argument("--filter", default="",
                        help="comma-separated name substrings to keep")
    parser.add_argument("--json", default="",
                        help="also write the reports as JSON to this path")
    parser.add_argument("--timeout-s", type=int, default=0,
                        help="abort if any one scenario exceeds this many "
                             "wall seconds (0 = no guard)")
    parser.add_argument("--synthesize", type=int, default=0, metavar="N",
                        help="append N generated scenarios targeted at the "
                             "hand matrix's uncovered coverage cells")
    parser.add_argument("--synthesis-seed", type=int, default=2022,
                        help="first seed of the synthesized batch "
                             "(scenario i uses seed S+i)")
    parser.add_argument("--coverage", default="", metavar="PATH",
                        help="write the merged pairwise coverage report as "
                             "JSON to this path")
    parser.add_argument("--coverage-floor", type=float, default=0.0,
                        help="fail the sweep when the merged coverage score "
                             "is below this fraction (0 = no floor)")
    args = parser.parse_args(argv)

    scenarios = default_matrix(args.seed)
    needles = [needle for needle in args.filter.split(",") if needle]
    if needles:
        scenarios = [s for s in scenarios
                     if any(needle in s.name for needle in needles)]
    if not scenarios:
        print(f"no scenarios match filter {args.filter!r}")
        return 2

    print(f"fault-injection scenario sweep (seed={args.seed}, "
          f"{len(scenarios)} scenarios)")
    print("=" * 64)
    reports = []
    for scenario in scenarios:
        with _scenario_deadline(scenario.name, args.timeout_s):
            report = ScenarioRunner(scenario).run()
        reports.append(report)
        print(report.format())
        print("-" * 64)

    hand_coverage = CoverageReport.from_reports(reports)
    coverage = hand_coverage
    if args.synthesize > 0:
        synthesized = synthesize_batch(args.synthesize, args.synthesis_seed,
                                       base=hand_coverage)
        print(f"synthesized batch: {len(synthesized)} scenarios (seeds "
              f"{args.synthesis_seed}..{args.synthesis_seed + len(synthesized) - 1}) "
              f"targeting {len(hand_coverage.uncovered())} dark cells")
        print("=" * 64)
        for scenario in synthesized:
            with _scenario_deadline(scenario.name, args.timeout_s):
                report = ScenarioRunner(scenario).run()
            reports.append(report)
            print(report.format())
            if not report.all_invariants_ok:
                # A failing synthesized scenario found a bug: print it shrunk
                # and paste-ready for the matrix (docs/scenarios.md).
                print(render_pinned(shrink(scenario).scenario,
                                    reason=f"shrunk from {scenario.name}"))
            print("-" * 64)
        coverage = CoverageReport.from_reports(reports)

    invariants_checked = sum(len(report.invariants) for report in reports)
    invariants_failed = sum(
        1 for report in reports for result in report.invariants if not result.ok
    )
    liveness_misses = [r.scenario.name for r in reports if not r.liveness_ok]
    apps = sorted({report.scenario.app for report in reports})
    resharded = sum(1 for report in reports if report.reshards)
    print(f"scenarios: {len(reports)} across apps: {', '.join(apps)}")
    print(f"invariants: {invariants_checked} checked, {invariants_failed} failed")
    if resharded:
        print(f"live reshards: {resharded} scenarios crossed an epoch boundary")
    if liveness_misses:
        print(f"liveness floors missed: {', '.join(liveness_misses)}")
    print(f"coverage: {len(coverage.covered)}/{len(coverage.total)} pairwise "
          f"cells ({coverage.score * 100:.1f}%); hand matrix alone "
          f"{hand_coverage.score * 100:.1f}%")
    floor_missed = args.coverage_floor > 0 and coverage.score < args.coverage_floor
    if floor_missed:
        print(f"COVERAGE BELOW FLOOR: {coverage.score:.4f} < "
              f"{args.coverage_floor:.4f}")
    verdict = "ALL SAFETY INVARIANTS HELD" if invariants_failed == 0 else "INVARIANT FAILURES"
    print(verdict)

    if args.coverage:
        payload = coverage.to_dict()
        payload["hand_matrix_score"] = round(hand_coverage.score, 4)
        payload["synthesized"] = args.synthesize
        payload["synthesis_seed"] = args.synthesis_seed
        payload["floor"] = args.coverage_floor
        with open(args.coverage, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.coverage}")

    if args.json:
        payload = {
            "seed": args.seed,
            "filter": args.filter,
            "scenarios": [report.to_dict() for report in reports],
            "invariants_checked": invariants_checked,
            "invariants_failed": invariants_failed,
            "liveness_misses": liveness_misses,
            "verdict": verdict,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    ok = invariants_failed == 0 and not liveness_misses and not floor_missed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
