import math
import os
import threading
import time
from functools import partial

import numpy as np
import pytest

from typical_clt import distributions as di
from typical_clt import experiments as ex
from typical_clt import functionals as fn
from typical_clt import reports
from typical_clt import systems as sy
from typical_clt.errors import ConfigurationError, FitUnavailableError, NumericKernelError
from typical_clt.rng import make_rng, master_seed
from typical_clt.sphere_law import sample_direction
from typical_clt.systems import SystemSpec


def rows_from_curve(fn, ns, floor=1e-9):
    return [ex.SweepRow(n=n, mean_rho=fn(n), se=0.0, noise_floor=floor) for n in ns]


def ols_slope(ns, ys):
    """Independent least-squares oracle for the log-log slope."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


NS = (16, 32, 64, 128, 256)


class TestFitRate:
    def test_exact_sqrt_law(self):
        fit = ex.fit_rate(rows_from_curve(lambda n: n ** -0.5, NS))
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.residual <= 1e-12

    def test_log_over_sqrt_curve(self):
        # ln rho = ln ln n - 0.5 ln n; the local slope 1/ln(n) - 1/2 averages
        # to about -0.25 over this range (oracle: explicit OLS)
        curve = lambda n: math.log(n) / math.sqrt(n)
        fit = ex.fit_rate(rows_from_curve(curve, NS))
        oracle = ols_slope(NS, [curve(n) for n in NS])
        assert fit.slope == pytest.approx(oracle, abs=1e-12)
        assert fit.slope == pytest.approx(-0.2514, abs=0.001)

    def test_sqrt_log_over_n_curve(self):
        curve = lambda n: math.sqrt(math.log(n) / n)
        fit = ex.fit_rate(rows_from_curve(curve, NS))
        oracle = ols_slope(NS, [curve(n) for n in NS])
        assert fit.slope == pytest.approx(oracle, abs=1e-12)
        assert -0.42 <= fit.slope <= -0.30

    def test_constant_rows(self):
        fit = ex.fit_rate(rows_from_curve(lambda n: 0.25, NS))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(FitUnavailableError):
            ex.fit_rate(rows_from_curve(lambda n: n ** -0.5, (16, 32)))

    def test_noise_floor_filtering(self):
        rows = [
            ex.SweepRow(n=16, mean_rho=0.10, se=0.0, noise_floor=0.01),
            ex.SweepRow(n=32, mean_rho=0.07, se=0.0, noise_floor=0.01),
            ex.SweepRow(n=64, mean_rho=0.05, se=0.0, noise_floor=0.01),
            ex.SweepRow(n=128, mean_rho=0.02, se=0.0, noise_floor=0.01),  # below 3x
        ]
        fit = ex.fit_rate(rows)
        assert fit.used == (True, True, True, False)
        oracle = ols_slope((16, 32, 64), (0.10, 0.07, 0.05))
        assert fit.slope == pytest.approx(oracle, abs=1e-12)


class TestSweepConfig:
    def test_valid(self):
        cfg = ex.SweepConfig(system="trigonometric", n_list=(16, 32), seed=1)
        assert cfg.n_list == (16, 32)

    def test_not_increasing(self):
        with pytest.raises(ConfigurationError):
            ex.SweepConfig(system="trigonometric", n_list=(32, 16))

    def test_minimum_dimension(self):
        with pytest.raises(ConfigurationError):
            ex.SweepConfig(system="trigonometric", n_list=(4, 16))

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            ex.SweepConfig(system="trigonometric", n_list=(16,), target="H")

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            ex.SweepConfig(system="trigonometric", n_list=(16,), theta_budget=0)

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            ex.SweepConfig(system="lacunary", n_list=(16,))


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        cfg = ex.parse_config(self.write(tmp_path, """
[system]
name = uniform

[sweep]
n_list = 16, 32, 64
target = G
seed = 7
output = out.csv

[budgets]
theta = 12
per_theta = 5000
radial = 4000
"""))
        assert cfg.system == "uniform" and cfg.target == "G"
        assert cfg.n_list == (16, 32, 64)
        assert cfg.theta_budget == 12 and cfg.per_theta_budget == 5000

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ex.parse_config(self.write(tmp_path, """
[system]
name = uniform
flavor = crunchy

[sweep]
n_list = 16, 32
"""))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ex.parse_config(self.write(tmp_path, """
[system]
name = uniform

[sweep]
n_list = 16, 32

[plotting]
style = dark
"""))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            ex.parse_config("/nonexistent/config.ini")

    def test_every_n_checked(self, tmp_path):
        # n = 33 is odd, which the trigonometric system rejects: the config
        # fails on reading, before any n of the sweep runs
        with pytest.raises(ConfigurationError, match="even n"):
            ex.parse_config(self.write(tmp_path, """
[system]
name = trig

[sweep]
n_list = 16, 33
"""))


class TestRunSweep:
    def small_config(self, tmp_path, **kw):
        defaults = dict(system="trigonometric", n_list=(16, 32, 64),
                        target="phi", theta_budget=6, per_theta_budget=10_000,
                        radial_budget=2000, seed=11,
                        output=str(tmp_path / "sweep.csv"))
        defaults.update(kw)
        return ex.SweepConfig(**defaults)

    def test_writes_csv_and_fits(self, tmp_path):
        cfg = self.small_config(tmp_path)
        fit = ex.run_sweep(cfg)
        assert os.path.exists(cfg.output)
        assert os.path.exists(str(tmp_path / "sweep_summary.csv"))
        assert fit.slope < 0.0
        lines = open(cfg.output).read().splitlines()
        assert lines[0] == "# typical-clt v1"
        assert len(lines) == 2 + 3 * 6  # comment + header + rows

    def test_reproducible_bytes(self, tmp_path):
        cfg = self.small_config(tmp_path)
        ex.run_sweep(cfg)
        first = open(cfg.output, "rb").read()
        ex.run_sweep(cfg)
        assert open(cfg.output, "rb").read() == first

    @staticmethod
    def serial_reference(cfg, path):
        """The sweep's CSVs from a plain loop: each n's target, then its directions."""
        detail, summary = [], []
        for n in cfg.n_list:
            spec = SystemSpec(kind=cfg.system, n=n)
            master = master_seed(make_rng(cfg.seed, "sweep_n", n))
            target = di.build_target(spec, cfg.target, cfg.radial_budget,
                                     make_rng(master, "radial"))
            assert target.tabulates(cfg.per_theta_budget)  # the table is read
            rho = np.array([di.kolmogorov_distance(di.StepCDF.from_samples(sy.project(
                spec, sample_direction(n, make_rng(master, "theta", j)),
                cfg.per_theta_budget, make_rng(master, "batch", j))), target).rho
                for j in range(cfg.theta_budget)])
            detail += [[spec.spec_id, n, cfg.target, j, float(r), cfg.theta_budget,
                        cfg.per_theta_budget, cfg.radial_budget, cfg.seed]
                       for j, r in enumerate(rho)]
            row = ex.SweepRow(n=n, mean_rho=float(rho.mean()),
                              se=float(rho.std(ddof=1) / math.sqrt(cfg.theta_budget)),
                              noise_floor=di.noise_floor(cfg.per_theta_budget))
            summary.append([n, row.mean_rho, row.se, row.noise_floor, row.admissible])
        reports.write_csv(str(path / "sweep.csv"), ex.PER_THETA_HEADER, detail)
        reports.write_csv(str(path / "sweep_summary.csv"),
                          ["n", "mean_rho", "se", "noise_floor", "admissible"], summary)

    @pytest.mark.parametrize("target", ["F", "G"])
    def test_bytes_do_not_depend_on_the_pool(self, tmp_path, target):
        # 6000 atoms x 5000 jump points take the table path at every n
        cfg = self.small_config(tmp_path, system="uniform", target=target,
                                theta_budget=4, per_theta_budget=5000,
                                radial_budget=6000)
        (tmp_path / "serial").mkdir()
        self.serial_reference(cfg, tmp_path / "serial")
        expected = [(tmp_path / "serial" / name).read_bytes()
                    for name in ("sweep.csv", "sweep_summary.csv")]
        for threads in (1, 2, 8):
            try:
                ex.run_sweep(cfg, threads=threads)
            except FitUnavailableError:
                pass
            got = [(tmp_path / name).read_bytes()
                   for name in ("sweep.csv", "sweep_summary.csv")]
            assert got == expected, threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_direction_cancels_the_queued_builds(self, tmp_path, monkeypatch, threads):
        # the first direction to draw at the first n raises, and the other
        # five hold every pool thread for 0.5 s each, so no thread reaches
        # the third n's build, queued behind them, before the error reaches
        # the caller; only the two builds queued ahead of them ever run
        cfg = self.small_config(tmp_path, n_list=(16, 32, 64, 128, 256), theta_budget=6,
                                per_theta_budget=200)
        builds, draws = [], []
        lock = threading.Lock()
        original_build, original_project = di.build_target, di.project

        def build_target(spec, *args):
            builds.append(spec.n)
            return original_build(spec, *args)

        def project(spec, *args):
            if spec.n == cfg.n_list[0]:
                with lock:
                    draws.append(spec.n)
                    first = len(draws) == 1
                if first:
                    raise NumericKernelError("no draw at the first n")
                time.sleep(0.5)
            return original_project(spec, *args)

        monkeypatch.setattr(di, "build_target", build_target)
        monkeypatch.setattr(di, "project", project)
        with pytest.raises(NumericKernelError):
            ex.run_sweep(cfg, threads=threads)
        assert sorted(builds) == list(cfg.n_list[:2])
        assert not os.path.exists(cfg.output)

    def test_gaussian_sweep_fit_unavailable(self, tmp_path):
        # the weighted sums of the normal system are exactly standard normal:
        # every row sits at the noise floor and the fit must refuse
        cfg = self.small_config(tmp_path, system="normal",
                                output=str(tmp_path / "normal.csv"))
        with pytest.raises(FitUnavailableError):
            ex.run_sweep(cfg)
        assert os.path.exists(cfg.output)  # CSV still written


class TestRunVerify:
    def test_unknown_suite(self):
        with pytest.raises(ConfigurationError):
            ex.run_verify(suite="astrology")

    def test_tail_suite_passes_and_writes(self, tmp_path):
        out = str(tmp_path / "tail.csv")
        rep = ex.run_verify(suite="tail", budget_scale=0.1, seed=42, output=out)
        assert rep.all_passed
        lines = open(out).read().splitlines()
        assert lines[0] == "# typical-clt v1"
        assert len(lines) == 2 + len(rep.checks)

    def test_sphere_suite_passes(self):
        rep = ex.run_verify(suite="sphere", seed=42)
        assert rep.all_passed

    def test_budget_monotonicity(self):
        # a suite passing at budget B keeps passing at 4B with the same seeds
        small = ex.run_verify(suite="tail", budget_scale=0.02, seed=9)
        if small.all_passed:
            big = ex.run_verify(suite="tail", budget_scale=0.08, seed=9)
            assert big.all_passed

    def test_threads_below_one_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ex.run_verify(suite="tail", threads=0)
        cfg = ex.SweepConfig(system="normal", n_list=(8, 16), theta_budget=2,
                             per_theta_budget=100, output=str(tmp_path / "s.csv"))
        with pytest.raises(ConfigurationError):
            ex.run_sweep(cfg, threads=0)
        assert not os.path.exists(cfg.output)

    @pytest.mark.parametrize("suite", list(ex.SUITES))
    def test_threads_honoured(self, suite, monkeypatch):
        # pooled cells give the serial run's rows; functionals' 8 cells
        # are seen running on more than one thread
        idents = set()
        original = ex._functional_checks

        def recording(*args):
            idents.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(ex, "_functional_checks", recording)
        serial = ex.run_verify(suite=suite, budget_scale=0.02, threads=1)
        idents.clear()
        pooled = ex.run_verify(suite=suite, budget_scale=0.02, threads=2)
        assert (reports.render_csv(*pooled.csv_rows())
                == reports.render_csv(*serial.csv_rows()))
        if suite == "functionals":
            assert len(idents) > 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_cell_cancels_the_cells_behind_it(self, monkeypatch, threads):
        # the first of 8 cells raises and every other cell holds its pool
        # thread for 0.3 s; a thread freed by the error may take one more
        # cell before the error reaches the caller, and none past those starts
        started = []

        def cell(i):
            started.append(i)
            if i == 0:
                raise NumericKernelError("cell 0 failed")
            time.sleep(0.3)
            return reports.BoundCheckReport()

        monkeypatch.setattr(ex, "SUITES", {
            "stub": lambda scale, seed: [partial(cell, i) for i in range(8)]})
        with pytest.raises(NumericKernelError, match="cell 0"):
            ex.run_verify(suite="stub", threads=threads)
        assert 0 in started and set(started) <= set(range(1 + threads))

    @pytest.mark.parametrize("suite", list(ex.SUITES))
    def test_seed_recorded_in_rows(self, suite):
        # the run's seed, also on rows whose cell derives a seed of its own
        rep = ex.run_verify(suite=suite, budget_scale=0.02, seed=77)
        assert rep.checks and all(c.seed == 77 for c in rep.checks)


class TestSlackSE:
    """One constant, reports.SLACK_SE, sets every Monte Carlo slack."""

    @pytest.mark.parametrize("suite, index", [("functionals", 7), ("charfn", 0)],
                             ids=["aniso-n64", "poincare-trig-n64"])
    def test_row_slack_scales(self, monkeypatch, suite, index):
        # slack = SLACK_SE * se + a fixed tolerance, so it is linear in
        # SLACK_SE; only rows with a zero SE (the cf at t = 0) stay put
        cell = ex.SUITES[suite](0.02, 5)[index]
        runs = []
        for k in (0.0, 3.0, 6.0):
            monkeypatch.setattr(reports, "SLACK_SE", k)
            runs.append(cell().checks)
        s0, s3, s6 = (np.array([c.slack for c in run]) for run in runs)
        assert s6 - s0 == pytest.approx(2.0 * (s3 - s0), rel=1e-9, abs=1e-18)
        moved = s3 != s0
        if suite == "functionals":
            assert moved.all()
        else:
            assert list(moved) == [c.extra["t"] > 0.0 for c in runs[0]]

    def test_small_ball_passed(self, monkeypatch):
        # a result reads SLACK_SE when asked, not when it was computed
        res = fn.small_ball(SystemSpec(kind="trigonometric", n=32), budget=2000, rng=5)
        for k in (0.0, 3.0, 6.0):
            monkeypatch.setattr(reports, "SLACK_SE", k)
            assert res.slack == k * (res.se + res.bound_se)
        assert res.passed
        monkeypatch.setattr(reports, "SLACK_SE", -1e9)
        assert not res.passed
