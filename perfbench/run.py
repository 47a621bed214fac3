"""Benchmark of the typical-clt CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]

NAME is a workload of workloads.py, or `all` to run each in turn.  The
benchmark writes the workload's inputs from the seed, then runs the CLI
from `src/` in a fresh child process, again and again until `--seconds`
have passed (at least once), and checks every output.

--trace 0 reports the end-to-end metrics, as medians over repetitions:
wall_s, cpu_s (child user + system), work_per_s, peak_rss_mb (child
maximum RSS) and setup_s (a fresh interpreter importing typical_clt.cli,
timed SETUP_SAMPLES times).  --trace 1 alternates traced and untraced
repetitions, traced first, and reports per-layer metrics from the
traced ones (see tracer.py) plus the tracing overhead, traced minus
untraced wall time.  No repetition starts unless the one before it of
the same kind (or, for the first untraced one, the traced one, which is
slower) would still end before HARD_LIMIT_S.

Human-readable lines go to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Everything a run
measured, with the machine and library versions, is also written to
.perfbench_out/<workload>-seed<seed>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS, summarise
from workloads import THREADS, WORKLOADS, load_reference, reference_bytes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0   # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Span metrics of the traced run, as shares of its thread-busy seconds.
# Shares, because a layer that a workload never enters reads 0 there.
BUSY_SHARES = (
    "systems.sample_vector", "systems.weighted_sum",
    "distributions.build_target", "distributions.step_cdf",
    "distributions.kolmogorov", "sphere_law.cdf_table",
    "sphere_law.gap_report", "sphere_law.charfn_Jn_grid",
    "sphere_law.sample_direction", "functionals.moment_Mp",
    "functionals.moment_mp", "functionals.sigma_2p",
    "functionals.norm_variance_check", "functionals.small_ball",
    "experiments.suite.sphere", "experiments.suite.functionals",
    "experiments.suite.charfn", "experiments.suite.tail",
    "experiments.fit_rate", "reports.write_csv",
)
SELF_SHARES = ("distributions.mean_theta_distance", "charfn.poincare_gap_check",
               "charfn.decay_bound_check")
COUNTS = (("systems.rows_sampled", "count"), ("systems.matrix_bytes", "bytes"),
          ("distributions.kolmogorov.points", "count"),
          ("distributions.mixture_atoms", "count"), ("reports.csv_bytes", "bytes"))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env(threads: int, run_dir: Path) -> dict:
    """Environment of every child: this checkout's src, pinned BLAS threads.

    Pool threads x BLAS threads <= nproc, so no BLAS thread spins on a
    core a pool thread needs and cpu_s counts work, not spinning.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    blas = str(max(1, (os.cpu_count() or 1) // threads))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    env["TMPDIR"] = str(run_dir)
    return env


def run_child(argv, env, cwd, deadline: float, stdout=subprocess.DEVNULL) -> dict:
    """Run argv to completion; wall time, CPU time and peak RSS of the child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout,
                            stderr=subprocess.STDOUT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def machine_info(env) -> dict:
    """nproc, CPU model, L2/L3 sizes, Python/numpy/scipy/OpenBLAS versions."""
    info = {"nproc": os.cpu_count(),
            "blas_threads": env["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    probe = ("import json, platform, numpy, scipy; "
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'blas': blas.get('name', '') + ' ' + str(blas.get('version', ''))}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    if out.returncode == 0:
        info.update(json.loads(out.stdout))
    return info


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond."""
    m = len(values)
    if m < 11:
        return None
    return 100.0 * (m - 10) / m, sorted(values)[m - 11]


def run_workload(workload, seed: int, seconds: int, trace: bool, t_begin: float) -> dict:
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(THREADS, run_dir)
    deadline = t_begin + HARD_LIMIT_S
    reference = load_reference(workload)
    cli_args = workload.prepare(run_dir, seed)
    machine = machine_info(env)

    import_cmd = [sys.executable, "-c", "import typical_clt.cli"]
    run_child(import_cmd, env, run_dir, deadline)   # compile bytecode, fill caches
    start = time.monotonic()
    setup = [] if trace else [run_child(import_cmd, env, run_dir, deadline)["wall_s"]
                              for _ in range(SETUP_SAMPLES)]

    untraced_cmd = [sys.executable, "-m", "typical_clt.cli", *cli_args]
    traced_cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                  str(run_dir / "spans.json"), *cli_args]
    reps, problems, notes = [], [], []
    last = {}   # wall time of the latest repetition of each kind
    while True:
        traced = trace and len(reps) % 2 == 0
        for name in workload.outputs:   # a stale file must not pass the check
            (run_dir / name).unlink(missing_ok=True)
        with open(run_dir / "cli.log", "w", encoding="utf-8") as log:
            rep = run_child(traced_cmd if traced else untraced_cmd, env, run_dir,
                            deadline, stdout=log)
        rep["traced"] = traced
        rep["sha256"] = {name: sha256(run_dir / name) for name in workload.outputs}
        # exit code 1 means failed checks: the CSV says which, so read it
        if rep["rc"] not in (0, 1):
            rep["failed"] = workload.operations
            problems.append(f"exit code {rep['rc']}: "
                            + (run_dir / "cli.log").read_text()[-500:])
        else:
            check = workload.check(run_dir, reference)
            rep["failed"] = check.failed
            problems.extend(check.problems)
            notes.extend(check.notes)
        if traced:
            try:
                with open(run_dir / "spans.json", encoding="utf-8") as fh:
                    record = json.load(fh)
                (run_dir / "spans.json").unlink()
                rep["trace"] = summarise(record["spans"])
                rep["counts"] = record["counts"]
            except (OSError, ValueError) as exc:
                problems.append(f"traced repetition left no spans: {exc}")
        reps.append(rep)
        last[traced] = rep["wall_s"]
        next_traced = trace and len(reps) % 2 == 0
        expected = last.get(next_traced, rep["wall_s"])
        if time.monotonic() + expected > deadline:
            break
        if not (trace and len(reps) < 2) and time.monotonic() - start + expected > seconds:
            break

    if len({json.dumps(r["sha256"], sort_keys=True) for r in reps}) > 1:
        problems.append("output CSV bytes differ between repetitions of the same inputs")
    attempted = workload.operations * len(reps)
    failed = sum(r["failed"] for r in reps)
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "argv": cli_args, "machine": machine,
              "repetitions": reps, "setup_s": setup, "problems": sorted(set(problems)),
              "notes": sorted(set(notes)), "attempted": attempted, "failed": failed,
              "correct": not problems,
              # informational: a change that alters random streams may differ
              "bytes_match_seed42_reference": (
                  reps[0]["sha256"] == reference_bytes(workload.name)
                  if seed == 42 else None)}
    result["metrics"] = (layer_metrics(reps, result) if trace
                         else end_to_end_metrics(workload, reps, setup))
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def end_to_end_metrics(workload, reps, setup) -> dict:
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "work_per_s": [workload.work / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": setup,
    }
    return {name: {"value": statistics.median(samples[name]), "unit": unit,
                   "samples": samples[name]}
            for name, unit in END_TO_END}


def layer_metrics(reps, result) -> dict:
    traced = [r for r in reps if "trace" in r]
    untraced = [r for r in reps if not r["traced"]]
    if not traced:
        return {}
    if len({json.dumps(r["counts"], sort_keys=True) for r in traced}) > 1:
        result["problems"].append("traced counts differ between repetitions")
        result["correct"] = False

    def median_of(get):
        return statistics.median(get(r) for r in traced)

    def share(kind, name):
        def get(r):
            entry = r["trace"]["names"].get(name)
            return entry[kind] / r["trace"]["thread_busy_s"] if entry else 0.0
        return get

    metrics = {
        "trace.thread_busy_s": ("s", median_of(lambda r: r["trace"]["thread_busy_s"])),
        # thread-busy seconds over the capacity of the pool while cli.main ran
        "experiments.thread_utilisation": ("share", median_of(
            lambda r: r["trace"]["thread_busy_s"] / (r["trace"]["root_wall_s"] * THREADS))),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = ("share", median_of(
            lambda r, layer=layer: r["trace"]["layers"][layer]
            / r["trace"]["thread_busy_s"]))
    for name in BUSY_SHARES:
        metrics[f"{name}.busy_share"] = ("share", median_of(share("busy_s", name)))
    for name in SELF_SHARES:
        metrics[f"{name}.self_share"] = ("share", median_of(share("self_s", name)))
    for name, unit in COUNTS:
        metrics[name] = (unit, traced[0]["counts"].get(name, 0))
    if untraced:
        metrics["trace.overhead_s"] = ("s", median_of(lambda r: r["wall_s"])
                                       - statistics.median(r["wall_s"] for r in untraced))
    return {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_report(result) -> None:
    m = result["machine"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"argv: typical-clt {' '.join(result['argv'])}")
    print(f"   machine: nproc={m.get('nproc')} cpu={m.get('cpu')} L2={m.get('L2')} "
          f"L3={m.get('L3')} python={m.get('python')} numpy={m.get('numpy')} "
          f"scipy={m.get('scipy')} blas={m.get('blas')} "
          f"blas_threads={m.get('blas_threads')}")
    for name, entry in result["metrics"].items():
        line = f"   {name:44s} {entry['value']:>14.6g} {entry['unit']}"
        samples = entry.get("samples")
        if samples is not None:
            tail = tail_percentile(samples)
            line += (f"  median of {len(samples)}" + (
                f", p{tail[0]:.0f} {tail[1]:.6g}" if tail
                else ", too few samples for a tail percentile"))
        print(line)
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':44s} {share:>14.6g} share  "
          f"({result['failed']} of {result['attempted']} operations failed)")
    if result["trace"]:
        traced = [r for r in result["repetitions"] if "trace" in r]
        print(f"   spans (median over {len(traced)} traced repetitions):"
              f" name, calls, busy_s, self_s")
        names = sorted({n for r in traced for n in r["trace"]["names"]})
        for name in names:
            row = [r["trace"]["names"].get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                   for r in traced]
            print(f"     {name:42s} {row[0]['calls']:7d} "
                  f"{statistics.median(e['busy_s'] for e in row):10.4f} "
                  f"{statistics.median(e['self_s'] for e in row):10.4f}")
    if result["trace"] and "trace.overhead_s" not in result["metrics"]:
        print("   no untraced repetition fitted in the time left: "
              "tracing overhead not measured")
    if result["bytes_match_seed42_reference"] is not None:
        print("   output CSV bytes " + (
            "match the seed-42 reference" if result["bytes_match_seed42_reference"]
            else "differ from the seed-42 reference (expected only if random "
                 "streams changed)"))
    for note in result["notes"]:
        print(f"   failed operation: {note}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "typical_clt" / "cli.py").is_file():
        print(f"no typical_clt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_begin = time.monotonic()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), t_begin))
        print_report(results[-1])
        t_begin = time.monotonic()
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{name}" if prefix else name):
                    {"value": e["value"], "unit": e["unit"]}
                    for r in results for name, e in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
