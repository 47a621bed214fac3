"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import child_env  # noqa: E402
from tracer import Tracer, _covered, summarise  # noqa: E402
from workloads import (N_LIST, NOISE_FLOOR_COEF, THREADS, WORKLOADS,  # noqa: E402
                       load_reference)


def test_covered_merges_overlaps():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([]) == 0.0


def test_pool_work_is_charged_to_children_not_the_submitter():
    tracer = Tracer()
    child = tracer.wrap("systems.child", lambda: time.sleep(0.05))

    def parent():
        time.sleep(0.02)
        with tracer.pool_class()(max_workers=2) as pool:
            list(pool.map(lambda _: child(), range(4)))

    tracer.wrap("distributions.parent", parent)()
    summary = summarise(tracer.spans)
    parent_self = summary["names"]["distributions.parent"]["self_s"]
    assert 0.02 <= parent_self < 0.06   # the pool phase alone lasts ~0.1 s
    assert summary["names"]["systems.child"]["calls"] == 4
    assert summary["thread_busy_s"] == pytest.approx(
        sum(e["self_s"] for e in summary["names"].values()))
    assert summary["thread_busy_s"] == pytest.approx(0.22, abs=0.05)


def _traced_counts(tmp_path, cli_args) -> dict:
    env = child_env(THREADS, tmp_path)
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans), *cli_args],
                   env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300)
    return json.loads(spans.read_text())["counts"]


def test_counts_repeat_exactly(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("[system]\nname = uniform\n[sweep]\nn_list = 16, 32\n"
                      "target = F\nseed = 7\noutput = sweep.csv\n"
                      "[budgets]\ntheta = 2\nper_theta = 2000\nradial = 100\n")
    sweep = ["sweep", "--config", config.name, "--threads", "2"]
    first, second = (_traced_counts(tmp_path, sweep) for _ in range(2))
    assert first == second
    assert first["systems.rows_sampled"] == 2 * (2 * 2000 + 100)
    assert first["systems.matrix_bytes"] == 8 * (16 + 32) * (2 * 2000 + 100)
    assert first["distributions.mixture_atoms"] == 2 * 100
    assert first["distributions.kolmogorov.points"] == 2 * 2 * 2000
    assert first["reports.csv_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "sweep.csv", tmp_path / "sweep_summary.csv"))


def _write_sweep(run_dir: Path, workload, mean_rho: dict) -> None:
    """Sweep output whose every direction at n reads mean_rho[n]."""
    floor = NOISE_FLOOR_COEF / workload.per_theta ** 0.5
    detail = ["# typical-clt v1", "spec_id,n,target,theta_index,rho"]
    summary = ["# typical-clt v1", "n,mean_rho,se,noise_floor,admissible"]
    for n in N_LIST:
        detail += [f"s,{n},phi,{j},{mean_rho[n]!r}" for j in range(workload.theta)]
        admissible = "true" if mean_rho[n] > 3 * floor else "false"
        summary.append(f"{n},{mean_rho[n]!r},0.001,{floor!r},{admissible}")
    (run_dir / "sweep.csv").write_text("\n".join(detail) + "\n")
    (run_dir / "sweep_summary.csv").write_text("\n".join(summary) + "\n")


@pytest.mark.parametrize("scale, passes", [(1.0, True), (0.7, False), (1.3, False)])
def test_sweep_check_against_the_real_reference(tmp_path, scale, passes):
    """A law 30% off in every cell fails, though no single cell shows it."""
    workload = WORKLOADS["sweep-trig-phi"]
    reference = load_reference(workload)
    _write_sweep(tmp_path, workload,
                 {n: scale * reference[str(n)]["mean"] for n in N_LIST})
    check = workload.check(tmp_path, reference)
    if passes:
        assert check.failed == 0 and not check.problems
    else:
        assert check.failed == len(N_LIST) and len(check.problems) == 1


def test_sweep_check_rejects_the_wrong_target_law(tmp_path):
    """The uniform system measured against phi instead of its typical law F."""
    workload = WORKLOADS["sweep-uniform-F"]
    wrong = dataclasses.replace(workload, target="phi")
    cli_args = wrong.prepare(tmp_path, seed=7)
    subprocess.run([sys.executable, "-m", "typical_clt.cli", *cli_args],
                   env=child_env(THREADS, tmp_path), cwd=tmp_path, check=True,
                   capture_output=True, timeout=300)
    check = workload.check(tmp_path, load_reference(workload))
    assert check.failed == len(N_LIST) and check.problems
