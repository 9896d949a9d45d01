"""A/B comparison of the repository benchmark: a base revision against the working tree.

Exports the committed files of ``--base`` (``git archive``) into a temporary
directory, byte-compiles both trees, then runs ``perfbench/run.py
--workload W --trace 0`` alternately in that copy and in the working tree,
``--pairs`` times each. The order inside a pair alternates too (base first,
then working tree first), so a machine that slows down or speeds up during
the comparison does not favour one side. Every run's four end-to-end metrics
are printed as it finishes, then each side's median and quartiles, the
change of the medians, and in how many pairs the working tree was better.
The temporary copy is removed at the end, also when a run fails.

An export rather than a ``git worktree``: it writes nothing into the
repository's ``.git`` and leaves no stale worktree entry behind if the
comparison is interrupted, and it is what the benchmark measures anyway,
the committed files of a revision in a fresh directory.

Usage, from anywhere inside the repository::

    python3 benchmarks/perfbench_ab.py --base HEAD --workload keybackup-batched --pairs 5

With ``--base HEAD`` the comparison is uncommitted changes against the last
commit. ``--seconds`` and ``--seed`` are passed through to ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = (("ops_per_s", "higher"), ("setup_s", "lower"),
           ("peak_rss_mb", "lower"), ("sim_p99_ms", "lower"))


def repo_root() -> Path:
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                         capture_output=True, text=True,
                         cwd=Path(__file__).resolve().parent)
    return Path(out.stdout.strip())


def export_revision(root: Path, rev: str, target: Path) -> None:
    """Write the committed files of ``rev`` under ``target``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def compile_tree(tree: Path) -> None:
    """Byte-compile the program and the benchmark in ``tree``.

    ``setup_s`` times a cold interpreter from its first import, so a tree
    without current bytecode (a fresh export, or a source file edited since
    its ``.pyc`` was written while ``PYTHONDONTWRITEBYTECODE`` is set) would
    pay for compiling every module it imports on every run.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One untraced perfbench run in ``tree``; returns its metrics."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--trace", "0", "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (exit {out.returncode}):\n"
                         f"{out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"perfbench reported failures in {tree}: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """``(q1, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def summarize(runs: dict) -> None:
    print("\nsummary (median [q1, q3]; change of medians; pairs where the "
          "working tree is better):")
    for metric, better in METRICS:
        base = [r[metric] for r in runs["base"]]
        work = [r[metric] for r in runs["work"]]
        base_q = quartiles(base)
        work_q = quartiles(work)
        base_med = statistics.median(base)
        work_med = statistics.median(work)
        change = (work_med - base_med) / base_med * 100.0 if base_med else 0.0
        wins = sum(1 for b, w in zip(base, work)
                   if (w > b if better == "higher" else w < b))
        print(f"  {metric:12s} base {base_med:10.4g} [{base_q[0]:.4g}, {base_q[1]:.4g}]"
              f"  work {work_med:10.4g} [{work_q[0]:.4g}, {work_q[1]:.4g}]"
              f"  {change:+6.1f}%  better in {wins}/{len(base)} "
              f"({better} is better; base IQR {base_q[1] - base_q[0]:.4g}, "
              f"median gap {abs(work_med - base_med):.4g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--workload", default="keybackup-batched")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="closed-loop measuring time per run (run.py's default if unset)")
    parser.add_argument("--tmpdir", default=None,
                        help="where to put the exported base (default: the system temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = repo_root()
    export_dir = Path(tempfile.mkdtemp(prefix="perfbench-ab-", dir=args.tmpdir))
    try:
        export_revision(root, args.base, export_dir)
        trees = {"base": export_dir, "work": root}
        for tree in trees.values():
            compile_tree(tree)
        runs: dict[str, list] = {"base": [], "work": []}
        print(f"workload {args.workload}: base {args.base} vs working tree, "
              f"{args.pairs} pairs")
        for pair in range(args.pairs):
            order = ("base", "work") if pair % 2 == 0 else ("work", "base")
            for side in order:
                metrics = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(metrics)
                print(f"  pair {pair + 1} {side}: " + "  ".join(
                    f"{metric}={metrics[metric]:.6g}" for metric, _ in METRICS),
                    flush=True)
        summarize(runs)
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
