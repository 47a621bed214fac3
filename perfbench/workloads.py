"""The benchmark's workloads: the CLI inputs they generate and their output checks.

Every workload runs one `typical-clt` command with `--threads 2`.  Its
inputs (a sweep config file, or verify flags) are generated from the
benchmark seed alone; the program sees nothing else.

An operation is one sweep cell (one n) or one verify check row.  It
fails on a failed output check or, for a verify row, on passed=false.

Output checks make a run incorrect.  A sweep cell fails them when its
summary or detail rows are missing or inconsistent.  Its mean_rho is
then compared with reference.json, which holds the mean and the
seed-to-seed standard deviation of mean_rho at each n over many seeds
(make_reference.py).  A cell fails when its z-score against these is
beyond CELL_TOLERANCE, and the whole sweep fails when the sum of its
z-scores over N_LIST, divided by sqrt(len(N_LIST)), is beyond
COMBINED_TOLERANCE.  That combined score has a fifth of the variance
of one cell's, so it catches, in either direction, a law that is off
in every cell by less than any one cell shows, while a correct change
that alters the random streams still passes.  Verify output fails them
when it does not hold exactly VERIFY_ROWS well-formed rows.

A verify row with passed=false is the program's own verdict on a Monte
Carlo check, written correctly: it counts as a failed operation, and is
reported, but does not make the output incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

THREADS = 2
N_LIST = (16, 32, 64, 128, 256)
CELL_TOLERANCE = 6.0
COMBINED_TOLERANCE = 4.0
# E sup |F_N - F| ~ sqrt(pi/2) ln 2 / sqrt(N), as the program reports it
NOISE_FLOOR_COEF = math.sqrt(math.pi / 2.0) * math.log(2.0)
VERIFY_ROWS = 172
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def read_csv(path: Path) -> list[dict]:
    """Rows of a typical-clt CSV (a version comment line, then a header)."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# typical-clt"):
            raise ValueError(f"{path.name}: missing version comment")
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Check:
    """Outcome of checking one repetition's outputs."""

    failed: int              # operations that failed, of `attempted`
    problems: tuple = ()     # failed output checks; any makes the run incorrect
    notes: tuple = ()        # failed operations that are not output errors


@dataclass(frozen=True)
class SweepWorkload:
    """`typical-clt sweep` over N_LIST for one system and target."""

    name: str
    why: str
    system: str
    target: str
    theta: int
    per_theta: int
    radial: int

    outputs = ("sweep.csv", "sweep_summary.csv")

    @property
    def operations(self) -> int:
        return len(N_LIST)

    @property
    def work(self) -> int:
        """Weighted-sum samples per repetition: sum over n of theta x per_theta."""
        return len(N_LIST) * self.theta * self.per_theta

    def prepare(self, run_dir: Path, seed: int) -> list[str]:
        config = run_dir / "sweep.ini"
        config.write_text(
            "[system]\n"
            f"name = {self.system}\n"
            "[sweep]\n"
            f"n_list = {', '.join(str(n) for n in N_LIST)}\n"
            f"target = {self.target}\n"
            f"seed = {seed}\n"
            "output = sweep.csv\n"
            "[budgets]\n"
            f"theta = {self.theta}\n"
            f"per_theta = {self.per_theta}\n"
            f"radial = {self.radial}\n",
            encoding="utf-8")
        return ["sweep", "--config", config.name, "--threads", str(THREADS)]

    def check(self, run_dir: Path, reference: dict) -> Check:
        try:
            summary = {int(r["n"]): r for r in read_csv(run_dir / "sweep_summary.csv")}
            detail = read_csv(run_dir / "sweep.csv")
        except (OSError, ValueError, KeyError, csv.Error) as exc:
            return Check(len(N_LIST), (f"unreadable sweep output: {exc}",))
        problems = []
        if sorted(summary) != list(N_LIST):
            problems.append(f"summary rows for n={sorted(summary)}, expected {N_LIST}")
        floor = NOISE_FLOOR_COEF / math.sqrt(self.per_theta)
        failed = 0
        z = {}
        for n in N_LIST:
            reason = self._cell_problem(n, summary.get(n), detail, floor)
            if reason is None:
                z[n] = reference_z(float(summary[n]["mean_rho"]), reference[str(n)])
                if abs(z[n]) > CELL_TOLERANCE:
                    reason = (f"mean_rho {summary[n]['mean_rho']} is {z[n]:+.2f} "
                              f"reference sd from {reference[str(n)]['mean']:.6g}")
            if reason:
                failed += 1
                problems.append(f"n={n}: {reason}")
        combined = sum(z.values()) / math.sqrt(len(N_LIST))
        if len(z) == len(N_LIST) and abs(combined) > COMBINED_TOLERANCE:
            failed = len(N_LIST)
            problems.append(f"mean_rho over all n is {combined:+.2f} combined "
                            f"reference sd from the reference")
        return Check(failed, tuple(problems))

    def _cell_problem(self, n, row, detail, floor) -> str | None:
        if row is None:
            return "no summary row"
        try:
            mean_rho = float(row["mean_rho"])
            rhos = [float(r["rho"]) for r in detail if int(r["n"]) == n]
            if not math.isclose(float(row["noise_floor"]), floor, rel_tol=1e-12):
                return f"noise_floor {row['noise_floor']} != {floor!r}"
            admissible = row["admissible"] == "true"
        except (KeyError, ValueError) as exc:
            return f"malformed row: {exc}"
        if len(rhos) != self.theta:
            return f"{len(rhos)} detail rows, expected {self.theta}"
        if not all(0.0 < r <= 1.0 for r in rhos):
            return "rho outside (0, 1]"
        if not math.isclose(sum(rhos) / len(rhos), mean_rho, rel_tol=1e-9):
            return "mean_rho differs from the mean of its detail rows"
        if admissible != (mean_rho > 3.0 * floor):
            return "admissible flag disagrees with mean_rho and noise_floor"
        return None


def reference_z(mean_rho: float, ref: dict) -> float:
    """z-score of one mean_rho against its reference mean and seed-to-seed sd.

    The sd is widened by sqrt(1 + 1/seeds) for the error of the
    reference mean itself.
    """
    return (mean_rho - ref["mean"]) / (ref["sd"] * math.sqrt(1.0 + 1.0 / ref["seeds"]))


@dataclass(frozen=True)
class VerifyWorkload:
    """`typical-clt verify --suite all` at default budgets."""

    name: str
    why: str

    outputs = ("verify.csv",)
    operations = VERIFY_ROWS
    work = VERIFY_ROWS       # check rows per repetition

    def prepare(self, run_dir: Path, seed: int) -> list[str]:
        return ["verify", "--suite", "all", "--seed", str(seed),
                "--threads", str(THREADS), "--output", "verify.csv"]

    def check(self, run_dir: Path, reference: dict) -> Check:
        try:
            rows = read_csv(run_dir / "verify.csv")
            passed = sum(1 for r in rows if r["passed"] == "true")
            problems = [f"passed={r['passed']!r} is not a boolean"
                        for r in rows if r["passed"] not in ("true", "false")]
            notes = [f"check not passed: {r['check']} [{r['spec_id']} n={r['n']}]"
                     for r in rows if r["passed"] == "false"]
        except (OSError, ValueError, KeyError, csv.Error) as exc:
            return Check(VERIFY_ROWS, (f"unreadable verify output: {exc}",))
        if len(rows) != VERIFY_ROWS:
            problems.append(f"{len(rows)} check rows, expected {VERIFY_ROWS}")
        # surplus rows make every row suspect; missing rows count as failed
        failed = VERIFY_ROWS - passed if len(rows) <= VERIFY_ROWS else VERIFY_ROWS
        return Check(failed, tuple(problems), tuple(notes))


WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        name="sweep-trig-phi",
        why="sampler-bound sweep: the trigonometric sampler builds an N x n "
            "matrix per direction; the target phi has one atom, so no table",
        system="trigonometric", target="phi",
        theta=8, per_theta=50_000, radial=100_000),
    SweepWorkload(
        name="sweep-uniform-F",
        why="table-bound sweep: a serial lookup-table build over 2048 binned "
            "sphere-kernel atoms per n before the pool starts; cheap sampler",
        system="uniform", target="F",
        theta=16, per_theta=100_000, radial=100_000),
    VerifyWorkload(
        name="verify-all",
        why="every verify suite at default budgets: full X matrices, the M_p "
            "search, empirical cfs and bootstraps, one core (threads ignored)"),
)}


def reference_bytes(name: str) -> dict:
    """sha256 of each output of workload `name` at seed 42 (make_reference.py)."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["sha256_seed42"].get(name, {})


def load_reference(workload) -> dict:
    """Per-n reference statistics of a sweep workload; {} for verify.

    Raises ValueError when reference.json was made with other budgets.
    """
    if not isinstance(workload, SweepWorkload):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)[workload.name]
    budgets = {k: getattr(workload, k) for k in ("theta", "per_theta", "radial")}
    if {k: ref[k] for k in budgets} != budgets or ref["n_list"] != list(N_LIST):
        raise ValueError(f"reference.json for {workload.name} was made with "
                         f"other budgets; rerun make_reference.py")
    return {n: {**stats, "seeds": ref["seeds"]} for n, stats in ref["n"].items()}
