"""Profile the batched keybackup and odoh hot paths and emit ``profile_hotpath.json``.

Runs one batched multi-client workload per app under :mod:`cProfile` — the
same seed and op count for each — and writes each app's top functions by
*cumulative* time as its own section of one JSON file, so CI can publish the
profile as an artifact and a regression in the hot paths shows up as a
reviewable diff rather than only as a slower wall number. keybackup covers
the codec and verification memoization, with EC work mostly in set-up; odoh
spends most of its time in secp256k1 scalar multiplication (three per
query). Neither enters the WVM; the traced custody-sign run of
``perfbench/run.py`` reports the WVM's cost (``sandbox.wvm.invoke``). The
profiled runs are serial on purpose: cProfile instruments a single process,
and the parallel executor's work happens in spawned workers the profiler
cannot see.

cProfile's instrumentation overhead inflates absolute times 3-4x, so the
numbers here are for *ranking* functions against each other, never for
quoting as throughput — the wall series in ``test_throughput.py`` owns the
real numbers.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py [output.json]
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

from repro.sim import MultiClientWorkload

TOP_N = 20
APPS = ("keybackup", "odoh")
OPS = int(os.environ.get("PROFILE_OPS", "200"))
SEED = 2022
DEFAULT_OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "profile_hotpath.json")


def run_workload(app: str) -> None:
    report = MultiClientWorkload(
        app, num_clients=OPS, seed=SEED,
        batched=True, batch_size=128, rpc_attempts=1,
    ).run()
    assert report.succeeded == report.ops, report.failures[:3]
    assert report.consistent, report.consistency_issues


def top_functions(stats: pstats.Stats, limit: int = TOP_N) -> list[dict]:
    rows = []
    for (filename, line, function), (cc, nc, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        # Keep the profile readable and machine-portable: repo-relative
        # paths for our code, bare names for stdlib/builtins.
        if "/src/repro/" in filename.replace(os.sep, "/"):
            where = "src/repro/" + filename.replace(os.sep, "/").split(
                "/src/repro/", 1)[1]
        else:
            where = os.path.basename(filename) if filename else "~"
        rows.append({
            "function": function,
            "where": f"{where}:{line}" if line else where,
            "calls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return rows[:limit]


def main(argv: list[str]) -> int:
    output_path = argv[1] if len(argv) > 1 else DEFAULT_OUTPUT
    sections = {}
    for app in APPS:
        profiler = cProfile.Profile()
        profiler.enable()
        run_workload(app)
        profiler.disable()
        sections[app] = {"top_functions": top_functions(pstats.Stats(profiler))}
    payload = {
        "benchmark": "profile_hotpath",
        "ops": OPS,
        "seed": SEED,
        "mode": "batched serial (cProfile cannot follow spawned workers)",
        "ranking": "cumulative time; absolute times are inflated by "
                   "instrumentation overhead and must not be quoted as "
                   "throughput",
        "apps": sections,
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote top-{TOP_N} cumulative profiles of {', '.join(APPS)} to {output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
