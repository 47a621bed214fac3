"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6-8 run full
sweeps at default budgets and dominate the runtime (several minutes).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from typical_clt import distributions as di
from typical_clt import experiments as ex
from typical_clt import sphere_law as sl
from typical_clt.errors import FitUnavailableError

THREADS = 2


def emit(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# Criteria 1-3: sphere-marginal gaps and the cf envelope
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gap():
    t0 = time.monotonic()
    report = sl.gap_report()  # n in {4, 8, 16, 64, 256, 1024}
    return report, time.monotonic() - t0


def _family(report, name):
    return {c.n: c for c in report.checks if c.name == name}


def test_criterion_1_density_gap_bounded(gap):
    report, elapsed = gap
    fam = _family(report, "density_gap_rate")
    ok = all(c.passed for c in fam.values()) and elapsed < 10.0
    ratios = {n: round(c.lhs, 3) for n, c in sorted(fam.items())}
    assert emit(1, ok, f"n*sup|phi_n-phi|e^(x^2/8) within factor 4 of n=64 "
                       f"(ratios {ratios}, {elapsed:.1f}s)")


def test_criterion_2_cf_gap_bounded(gap):
    report, elapsed = gap
    fam = _family(report, "cf_gap_rate")
    ok = all(c.passed for c in fam.values()) and elapsed < 30.0
    ratios = {n: round(c.lhs, 3) for n, c in sorted(fam.items())}
    assert emit(2, ok, f"n*sup|J_n(t sqrt n)-e^(-t^2/2)| within factor 4 "
                       f"(ratios {ratios}, {elapsed:.1f}s)")


def test_criterion_3_cf_envelope_never_violated(gap):
    report, _ = gap
    fam = _family(report, "cf_envelope")
    worst = max(c.lhs for c in fam.values())
    ok = all(c.passed for c in fam.values())
    assert emit(3, ok, f"|J_n(t sqrt n)| <= 4.1e^(-t^2/2)+4e^(-n/12) on every "
                       f"grid point (worst excess {worst:.2e} <= 1e-8)")


# ---------------------------------------------------------------------------
# Criterion 4: functional inequality suite at seeds 42 and 43
# ---------------------------------------------------------------------------

def test_criterion_4_functional_suite_both_seeds():
    details = []
    ok = True
    for seed in (42, 43):
        t0 = time.monotonic()
        report = ex.run_verify(suite="functionals", seed=seed, threads=THREADS)
        elapsed = time.monotonic() - t0
        fails = [c.name for c in report.failures()]
        ok = ok and not fails and elapsed < 120.0
        details.append(f"seed {seed}: {len(report.checks)} checks, "
                       f"failures {fails or 'none'}, {elapsed:.0f}s")
    assert emit(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 5: Poincare gap and cf decay bounds on the three named systems
# ---------------------------------------------------------------------------

def test_criterion_5_cf_concentration_suite():
    t0 = time.monotonic()
    report = ex.run_verify(suite="charfn", seed=42, threads=THREADS)
    elapsed = time.monotonic() - t0
    fails = [(c.name, c.spec_id, c.extra.get("t")) for c in report.failures()]
    ok = not fails and elapsed < 120.0
    assert emit(5, ok, f"direction-variance and decay bounds at every grid t "
                       f"for trig n=64, walsh n=63, uniform n=64 "
                       f"(failures {fails or 'none'}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criteria 6-8: rate sweeps at default budgets
# ---------------------------------------------------------------------------

def _sweep(tmp_path_factory, name, system, target):
    out = tmp_path_factory.mktemp(name) / f"{name}.csv"
    config = ex.SweepConfig(system=system, n_list=(16, 32, 64, 128, 256),
                            target=target, seed=42, output=str(out))
    return config


def test_criterion_6_trigonometric_rate(tmp_path_factory):
    config = _sweep(tmp_path_factory, "trig", "trigonometric", "phi")
    t0 = time.monotonic()
    fit = ex.run_sweep(config, threads=THREADS)
    elapsed = time.monotonic() - t0
    means = {r.n: r.mean_rho for r in fit.rows}
    ratio = means[16] / means[256]
    ok = (-0.65 <= fit.slope <= -0.35) and ratio >= 2.5 and elapsed < 600.0
    assert emit(6, ok, f"trig->normal sweep: slope {fit.slope:.3f} in "
                       f"[-0.65,-0.35], rho(16)/rho(256) = {ratio:.2f} >= 2.5 "
                       f"({elapsed:.0f}s)")


def test_criterion_7_uniform_radial_mixture_rate(tmp_path_factory):
    """Slope window for the uniform-base sweep against the radial Gaussian mix.

    The variation clause is checked from the summary rows; the slope
    clause needs >= 3 rows above 3x the noise floor at the stated
    budgets.  Smooth product bases with finite fourth moment decay at the
    faster ~1/n rate, so the signal drops below the floor and no
    admissible window matches the asserted bracket around n^(-1/2); see
    ROADMAP.md items 1 (exact rates below the Monte Carlo floor) and 7
    (the Edgeworth 1/n constant) for the measured numbers.
    """
    config = _sweep(tmp_path_factory, "uniform", "uniform", "G")
    rows = None
    try:
        fit = ex.run_sweep(config, threads=THREADS)
        rows = fit.rows
        slope_ok = -0.65 <= fit.slope <= -0.35
        slope_msg = f"slope {fit.slope:.3f}"
    except FitUnavailableError as exc:
        import csv
        with open(ex._summary_path(config.output)) as fh:
            reader = csv.DictReader(row for row in fh if not row.startswith("#"))
            rows = [ex.SweepRow(n=int(r["n"]), mean_rho=float(r["mean_rho"]),
                                se=float(r["se"]),
                                noise_floor=float(r["noise_floor"]))
                    for r in reader]
        slope_ok = False
        slope_msg = f"slope unavailable ({exc})"
    scaled = [math.sqrt(r.n / math.log(r.n)) * r.mean_rho for r in rows]
    variation = max(scaled) / min(scaled)
    variation_ok = variation < 3.0
    ok = slope_ok and variation_ok
    emit(7, ok, f"uniform->G sweep: {slope_msg}; sqrt(n/log n)*rho varies by "
                f"{variation:.2f} (< 3 required)")
    assert variation_ok, f"variation factor {variation:.2f} exceeds 3"
    assert slope_ok, (
        f"{slope_msg}; expected a slope in [-0.65, -0.35], but the measured "
        f"decay of this system is ~1/n (see ROADMAP.md items 1 and 7): means "
        f"{[(r.n, round(r.mean_rho, 5)) for r in rows]}, "
        f"3x floor {3 * rows[0].noise_floor:.5f}")


def test_criterion_8_skewed_base_rate(tmp_path_factory):
    """Slope window for the centered-exponential sweep against the normal law.

    Measured honestly at the default budgets; the true decay of this
    system also steepens toward 1/n, so the fitted slope (-0.850 at the
    default seed) falls below the asserted window [-0.70, -0.30]; see
    ROADMAP.md items 1 and 7 for the analysis.
    """
    config = _sweep(tmp_path_factory, "exponential", "exponential", "phi")
    t0 = time.monotonic()
    fit = ex.run_sweep(config, threads=THREADS)
    elapsed = time.monotonic() - t0
    used = [r.n for r, u in zip(fit.rows, fit.used) if u]
    ok = -0.70 <= fit.slope <= -0.30
    emit(8, ok, f"exponential->normal sweep: slope {fit.slope:.3f} over "
                f"admissible n {used} (window [-0.70,-0.30], {elapsed:.0f}s)")
    assert ok, (f"slope {fit.slope:.3f} outside [-0.70, -0.30]; admissible "
                f"rows {[(r.n, round(r.mean_rho, 5)) for r, u in zip(fit.rows, fit.used) if u]}")


# ---------------------------------------------------------------------------
# Criterion 9: exponential lower-tail bound for unit-mean sums
# ---------------------------------------------------------------------------

def test_criterion_9_lower_tail_bound():
    t0 = time.monotonic()
    report = ex.run_verify(suite="tail", seed=42)  # 1e6 sims, n=100, lambda=.5
    elapsed = time.monotonic() - t0
    ok = report.all_passed and elapsed < 30.0
    detail = ", ".join(
        f"{c.spec_id}: emp {c.lhs:.2e} <= bound {c.rhs:.4f} "
        f"(kappa {c.extra['kappa']:.4f})"
        for c in report.checks)
    assert emit(9, ok, f"{detail} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 10: exact distance kernel vs brute-force grid oracle
# ---------------------------------------------------------------------------

def test_criterion_10_distance_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        samples = rng.standard_normal(int(rng.integers(2, 64)))
        k = int(rng.integers(1, 8))
        radii = rng.uniform(0.2, 3.0, k)
        weights = rng.uniform(0.2, 1.0, k)
        weights /= weights.sum()
        kernel = "gaussian" if case % 2 == 0 else "sphere"
        mix = di.MixtureCDF(radii=radii, weights=weights, kernel=kernel,
                            n=int(rng.integers(3, 40)) if kernel == "sphere" else None)
        step = di.StepCDF.from_samples(samples)
        exact = di.kolmogorov_distance(step, mix).rho
        span = mix.span + 1.0
        grid = np.unique(np.concatenate([
            np.linspace(-span, span, 1_000_000),
            step.values, step.values - 1e-12]))
        brute = float(np.abs(step.cdf(grid) - mix.cdf(grid)).max())
        worst = max(worst, abs(exact - brute))
    rad = di.kolmogorov_distance(di.StepCDF.from_samples([-1.0, 1.0]),
                                 di.standard_normal_cdf()).rho
    rad_err = abs(rad - (float(ndtr(1.0)) - 0.5))
    ok = worst < 1e-9 and rad_err < 1e-9
    assert emit(10, ok, f"step-vs-mixture sup matches 1e6-point brute force "
                        f"on 50 cases (worst gap {worst:.2e}); two-point case "
                        f"err {rad_err:.2e}")


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical CSVs across runs and thread counts
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    from typical_clt import cli

    outs = []
    for tag, threads in (("a", 1), ("b", 8)):
        out = tmp_path / f"verify_{tag}.csv"
        code = cli.main(["verify", "--suite", "all", "--budget-scale", "0.02",
                         "--seed", "42", "--threads", str(threads),
                         "--output", str(out)])
        assert code in (0, 1)  # small budgets may fail checks; bytes must match
        outs.append(out.read_bytes())
    verify_ok = outs[0] == outs[1]

    cfg = tmp_path / "cfg.ini"
    sweep_out = tmp_path / "sweep.csv"
    cfg.write_text(f"""
[system]
name = trigonometric

[sweep]
n_list = 16, 32, 64
target = phi
seed = 42
output = {sweep_out}

[budgets]
theta = 8
per_theta = 10000
radial = 4000
""")
    blobs = []
    for threads in (1, 8):
        cli.main(["sweep", "--config", str(cfg), "--threads", str(threads)])
        blobs.append(sweep_out.read_bytes() +
                     (tmp_path / "sweep_summary.csv").read_bytes())
    sweep_ok = blobs[0] == blobs[1]
    ok = verify_ok and sweep_ok
    assert emit(11, ok, f"byte-identical CSVs across thread counts 1 and 8 "
                        f"(verify: {verify_ok}, sweep: {sweep_ok})")
