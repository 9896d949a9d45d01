"""The repository benchmark: end-to-end and per-layer metrics of four workloads.

Run from the repository root:

    python3 perfbench/run.py                         # every workload, untraced
    python3 perfbench/run.py --trace 1               # every workload, traced
    python3 perfbench/run.py --workload keybackup-batched --seed 7 \
        --seconds 12 --trace 0

Each measurement runs in its own fresh single-threaded interpreter
(``child.py``). An untraced run prints the end-to-end metrics; a traced run
prints the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A wrong answer or a
broken invariant ends the run with a non-zero exit code and no numbers.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from layers import PER_LAYER_METRICS  # noqa: E402
from workloads import CAPACITY_RATES, WORKLOADS  # noqa: E402

# Cold set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 7
# Wall-clock budget of one invocation for one workload.
RUN_BUDGET_S = 175.0

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p99_ms", "ms"),
]

# End-to-end figures without a regression bound, printed by the untraced run
# and reported with the traced one: the open-loop median latency swings with
# the seed, and the others exist on one workload only, while a bounded
# metric must be non-zero on all four.
UNBOUNDED = [
    ("sim_p50_ms", "ms"),
    ("reshard_s", "s"),
    ("failed_frac", "fraction"),
    ("sim_capacity_ops_s", "ops/s"),
    *[(f"sim.p99_ms_at_{rate}", "ms") for rate in CAPACITY_RATES],
]

PER_LAYER = (PER_LAYER_METRICS + UNBOUNDED
             + [("wire.decodes_per_op.no_reshard", "count/op")])


class RunFailed(Exception):
    """A child measurement failed; the run reports no numbers."""


def environment() -> dict:
    """What the numbers were measured on."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def child(mode: str, workload: str, seed: int, seconds: float,
          deadline: float) -> dict:
    """Run one ``child.py`` measurement to completion and return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
             str(seconds)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} {mode}: out of time") from None
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or ["(no output)"]
        raise RunFailed(f"{workload} {mode}: {lines[-1]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def unbounded(measured: dict) -> dict:
    """The unbounded end-to-end figures of one untraced measurement."""
    p99_at = measured.get("p99_ms_at", {})
    values = {"sim_p50_ms": measured["sim_p50_ms"],
              "reshard_s": measured.get("reshard_s", 0.0),
              "failed_frac": measured["failed"] / measured["attempted"],
              "sim_capacity_ops_s": measured.get("sim_capacity_ops_s", 0)}
    for rate in CAPACITY_RATES:
        values[f"sim.p99_ms_at_{rate}"] = p99_at.get(str(rate), 0.0)
    return values


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced run: cold set-ups, then the measurement."""
    setups = [child("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    measured = child("measure", workload, seed, seconds, deadline)
    values = {name: measured[name] for name, _ in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    values.update(unbounded(measured))
    return values, END_TO_END, UNBOUNDED, measured["attempted"], measured["failed"]


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """Traced run and its untraced twin: the per-layer metrics."""
    reference = child("reference", workload, seed, seconds, deadline)
    trace = child("trace", workload, seed, seconds, deadline)
    values = dict(trace["layers"])
    values["trace.overhead_frac"] = 1.0 - trace["ops_per_s"] / reference["ops_per_s"]
    values.update(unbounded(reference))
    values["wire.decodes_per_op.no_reshard"] = trace.get("decodes_per_op_no_reshard", 0.0)
    return (values, PER_LAYER, [], trace["attempted"] + reference["attempted"],
            trace["failed"] + reference["failed"])


def result_line(values: dict, units: list, attempted: int, failed: int) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="closed-loop measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program source at {SRC / 'repro'}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    measure = traced if args.trace else end_to_end
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            values, units, extra, attempted, failed = measure(
                name, args.seed, args.seconds, deadline)
        except RunFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        results[name] = result_line(values, units, attempted, failed)
        print(f"workload {name} (seed {args.seed}, "
              f"{'traced' if args.trace else 'untraced'}):")
        for metric, unit in units:
            print(f"  {metric} = {values[metric]:.6g} {unit}")
        for metric, unit in extra:
            print(f"  {metric} = {values[metric]:.6g} {unit} (no bound)")
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": value
                             for name, result in results.items()
                             for metric, value in result["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
