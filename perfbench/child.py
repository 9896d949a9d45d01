"""One measurement in a fresh interpreter; prints one JSON object.

Started by ``run.py``, never imported, so that module-level caches (EC
tables, memoized attestation and tree-head verification, the odoh key
cache) never carry over from one measurement to the next.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS

MODE is one of:

* ``setup``     — one cold set-up, from before the first ``repro`` import
  to a routed, attested deployment, scaled to reference machine speed;
* ``measure``   — the untraced end-to-end measurement (closed loops run
  for SECONDS);
* ``reference`` — set-up plus the fixed work of a traced run, untraced;
* ``trace``     — the same with every layer boundary wrapped.

On the open-loop workload ``measure`` and ``reference`` also run the
capacity sweep, after the timed scenarios.
"""

import time

from speed import SpeedProbe

# Sampled before anything else is imported: set-up time starts here.
PROBE = SpeedProbe()
STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(mode: str, name: str, seed: int, seconds: float) -> dict:
    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workloads.setup(workload, seed)
        setup_s = time.perf_counter() - STARTED
        return {"setup_s": setup_s / PROBE.scale()}
    if mode == "trace":
        return workloads.traced_run(workload, seed)
    if mode not in ("measure", "reference"):
        raise SystemExit(f"unknown mode {mode!r}")
    if mode == "reference":
        workloads.setup(workload, seed)
    result = workloads.measure(workload, seed,
                               seconds if mode == "measure" else None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.open_loop:
        result.update(workloads.capacity_sweep(workload, seed))
    return result


if __name__ == "__main__":
    mode, name, seed, seconds = sys.argv[1:5]
    try:
        output = main(mode, name, int(seed), float(seconds))
    except workloads.BenchmarkError as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        sys.exit(3)
    print(json.dumps(output))
