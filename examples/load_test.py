"""Multi-client load runs on the service plane: batching, sharding, faults.

Three sweeps, all through `repro.sim.MultiClientWorkload` (which drives the
apps' public clients over the simulated network):

1. the batched pipeline vs the one-RPC-per-op seed path, per app;
2. horizontal sharding: the same batched workload at 1 vs 4 shards with a
   serial per-request service time on every trust domain, compared in
   *simulated* throughput (the deterministic capacity number — see
   docs/architecture.md for why wall-clock cannot show shard parallelism);
3. load composed with fault rules from the scenario engine's taxonomy.

Every load run is audited and checked like a scenario. The script exits 1
when any run reports a failed invariant, or when an op fails outside the
fault sweep. Run with::

    PYTHONPATH=src python examples/load_test.py
"""

import sys

from repro.sim import MultiClientWorkload
from repro.sim.faults import DropFault, DuplicateFault, ReorderFault

# Small enough to finish in seconds; BENCH_throughput.json is the real
# baseline (benchmarks/test_throughput.py measures with bigger counts).
OPS = {"keybackup": 100, "prio": 200, "threshold_sign": 6, "odoh": 40}

# The sharded sweep matches the benchmark's capacity model: 500 µs of serial
# service time per request makes each domain a busy-until queue, which is
# what sharding parallelizes.
SHARDED_APPS = ("keybackup", "prio")
SERVICE_TIME = 500e-6


def main() -> int:
    clean = []  # runs on a fault-free network: every op must succeed
    print("=" * 64)
    print("multi-client load: batched pipeline vs one-RPC-per-op seed path")
    print("=" * 64)
    for app, ops in OPS.items():
        reports = {}
        for batched in (False, True):
            reports[batched] = MultiClientWorkload(
                app, num_clients=ops,
                batched=batched, rpc_attempts=1,
            ).run()
        clean.extend(reports.values())
        speedup = reports[True].ops_per_sec / max(reports[False].ops_per_sec, 1e-9)
        for report in reports.values():
            print(report.format())
        print(f"  => batched speedup: {speedup:.2f}x wall, "
              f"{reports[True].sim_ops_per_sec / reports[False].sim_ops_per_sec:.1f}x sim")
        print("-" * 64)

    print("horizontal sharding: 4 shards vs 1, simulated aggregate throughput")
    for app in SHARDED_APPS:
        reports = {}
        for shards in (1, 4):
            reports[shards] = MultiClientWorkload(
                app, num_clients=OPS[app], batched=True,
                shards=shards, service_time=SERVICE_TIME, rpc_attempts=1,
            ).run()
            print(reports[shards].format())
        clean.extend(reports.values())
        scaling = reports[4].sim_ops_per_sec / reports[1].sim_ops_per_sec
        print(f"  => shard scaling: {scaling:.2f}x sim throughput at 4 shards")
        print("-" * 64)

    print("load + faults: 5% loss, duplication, reordering, 300 prio clients")
    faulty = MultiClientWorkload(
        "prio", num_clients=300, batched=True,
        rules=(DropFault(probability=0.05),
               DuplicateFault(probability=0.2, copies=1),
               ReorderFault(probability=0.3, max_delay_s=0.01)),
        rpc_attempts=5,
    ).run()
    print(faulty.format())

    problems = [f"{report.app}: {issue}" for report in clean + [faulty]
                for issue in report.consistency_issues]
    problems += [f"{report.app}: {report.failed} failed ops {report.failures[:3]}"
                 for report in clean if report.failed]
    for problem in problems:
        print(f"LOAD TEST FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
