"""Write reference.json: sweep statistics and seed-42 output bytes.

    python3 perfbench/make_reference.py

Runs every sweep workload of workloads.py once per reference seed
(REFERENCE_SEED_BASE + k for k < REFERENCE_SEEDS, seeds the benchmark
does not default to) and records, for each n, the mean and the
seed-to-seed standard deviation of mean_rho.  The benchmark's output
check compares a run's mean_rho against these, so rerun this script
only when a workload's budgets change, never to make a failing check
pass.

It also records the sha256 of every output of every workload at the
default seed 42.  The benchmark reports whether a seed-42 run still
writes these bytes; a change that keeps the random streams must, one
that alters them may not, so a difference is reported and not failed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time

from run import OUT, child_env, run_child, sha256
from workloads import (N_LIST, REFERENCE_PATH, THREADS, SweepWorkload, WORKLOADS,
                       read_csv)

REFERENCE_SEED_BASE = 100_000
REFERENCE_SEEDS = 32


def main() -> int:
    reference = {"sha256_seed42": {}}
    for workload in WORKLOADS.values():
        run_dir = OUT / f"reference-{workload.name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        env = child_env(THREADS, run_dir)

        def run(seed):
            cli_args = workload.prepare(run_dir, seed)
            rep = run_child([sys.executable, "-m", "typical_clt.cli", *cli_args],
                            env, run_dir, time.monotonic() + 600)
            if rep["rc"] != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit code {rep['rc']}")

        run(42)
        reference["sha256_seed42"][workload.name] = {
            name: sha256(run_dir / name) for name in workload.outputs}
        if not isinstance(workload, SweepWorkload):
            continue
        per_n = {n: [] for n in N_LIST}
        for k in range(REFERENCE_SEEDS):
            run(REFERENCE_SEED_BASE + k)
            for row in read_csv(run_dir / "sweep_summary.csv"):
                per_n[int(row["n"])].append(float(row["mean_rho"]))
        reference[workload.name] = {
            "theta": workload.theta, "per_theta": workload.per_theta,
            "radial": workload.radial, "n_list": list(N_LIST),
            "seeds": REFERENCE_SEEDS,
            "n": {str(n): {"mean": statistics.mean(v), "sd": statistics.stdev(v)}
                  for n, v in per_n.items()},
        }
        print(json.dumps({workload.name: reference[workload.name]["n"]}))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
