"""Sweep orchestration, rate fitting, and the registered verification suites.

A sweep measures the mean Kolmogorov distance over random directions for
each dimension in a list and fits an ordinary-least-squares slope to
log(mean rho) against log(n), using only rows whose signal exceeds three
times the empirical-CDF noise floor.  The verify entry point runs every
registered inequality check over the built-in catalog and reports one
CSV row per check.

Determinism: every Monte Carlo cell derives its seed from (master seed,
cell key), and cells may run on any thread.  Sweep rows come in n and
direction order; verify rows in the fixed order of suites and their
cells (catalog specs, checks).  So CSV files are byte-identical across
runs and thread counts.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import charfn as cf
from . import distributions as di
from . import functionals as fn
from . import reports
from . import sphere_law as sl
from .errors import ConfigurationError, FitUnavailableError, check_count
from .quadrature import blocks
from .reports import BoundCheck, BoundCheckReport, check_output, write_csv
from .rng import make_rng, master_seed
from .systems import SystemSpec, built_in_spec, default_catalog, squared_norms

DEFAULT_THETA_BUDGET = 64
DEFAULT_PER_THETA = 100_000
DEFAULT_RADIAL = 100_000
DEFAULT_VERIFY_BUDGET = 30_000
DEFAULT_SEED = 42

TARGETS = ("phi", "F", "G")


# ---------------------------------------------------------------------------
# Sweep configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    system: str
    n_list: tuple[int, ...]
    target: str = "phi"
    theta_budget: int = DEFAULT_THETA_BUDGET
    per_theta_budget: int = DEFAULT_PER_THETA
    radial_budget: int = DEFAULT_RADIAL
    seed: int = DEFAULT_SEED
    output: str = "sweep.csv"

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ConfigurationError(
                f"target must be one of {TARGETS}, got {self.target!r}")
        ns = tuple(int(n) for n in self.n_list)
        if len(ns) == 0:
            raise ConfigurationError("n_list must not be empty")
        if any(n < 8 for n in ns):
            raise ConfigurationError(f"every n must be >= 8, got {ns}")
        if any(b <= a for a, b in zip(ns, ns[1:])) or len(set(ns)) != len(ns):
            raise ConfigurationError(f"n_list must be strictly increasing, got {ns}")
        object.__setattr__(self, "n_list", ns)
        for name in ("theta_budget", "per_theta_budget", "radial_budget"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        for n in ns:  # raises on an unknown name or an n it rejects (odd trig n)
            built_in_spec(self.system, n)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(","))


# (section, key) of a config file -> (SweepConfig field, parser of its text)
_CONFIG_KEYS = {
    ("system", "name"): ("system", str),
    ("sweep", "n_list"): ("n_list", _int_list),
    ("sweep", "target"): ("target", str),
    ("sweep", "seed"): ("seed", int),
    ("sweep", "output"): ("output", str),
    ("budgets", "theta"): ("theta_budget", int),
    ("budgets", "per_theta"): ("per_theta_budget", int),
    ("budgets", "radial"): ("radial_budget", int),
}


def parse_config(path: str) -> SweepConfig:
    """Read a sweep config file ([system], [sweep], [budgets] sections)."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in {known for known, _ in _CONFIG_KEYS}:
            raise ConfigurationError(f"unknown config section [{section}]")
        unknown = {key for key in parser[section] if (section, key) not in _CONFIG_KEYS}
        if unknown:
            raise ConfigurationError(
                f"unknown keys in [{section}]: {sorted(unknown)}")
    if "system" not in parser or "name" not in parser["system"]:
        raise ConfigurationError("config needs [system] name = <catalog name>")
    if "sweep" not in parser or "n_list" not in parser["sweep"]:
        raise ConfigurationError("config needs [sweep] n_list = n1,n2,...")
    try:
        kwargs = {field: parse(parser[section][key])
                  for (section, key), (field, parse) in _CONFIG_KEYS.items()
                  if parser.has_option(section, key)}
    except (ValueError, configparser.Error) as exc:  # a bad number or interpolation
        raise ConfigurationError(f"bad config value: {exc}") from exc
    return SweepConfig(**kwargs)


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    mean_rho: float
    se: float
    noise_floor: float

    @property
    def admissible(self) -> bool:
        return self.mean_rho > 3.0 * self.noise_floor


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    rows: tuple[SweepRow, ...]
    used: tuple[bool, ...]


def fit_rate(rows) -> RateFit:
    """OLS of log(mean rho) on log(n) over rows above the noise floor."""
    rows = tuple(rows)
    used = tuple(r.admissible for r in rows)
    fit_rows = [r for r, u in zip(rows, used) if u]
    if len(fit_rows) < 3:
        raise FitUnavailableError(
            f"rate fit needs >= 3 rows above 3x the noise floor, "
            f"got {len(fit_rows)} of {len(rows)}")
    x = np.log(np.array([r.n for r in fit_rows], dtype=float))
    y = np.log(np.array([r.mean_rho for r in fit_rows]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=float(np.sqrt(np.mean(np.square(resid)))),
                   rows=rows, used=used)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

PER_THETA_HEADER = ["spec_id", "n", "target", "theta_index", "rho",
                    "theta_budget", "per_theta_budget", "radial_budget", "seed"]


def per_theta_rows(res: di.MeanThetaDistance, seed: int) -> list:
    """One PER_THETA_HEADER row per direction of `res`, tagged with `seed`."""
    return [[res.spec_id, res.n, res.target, j, float(rho), res.theta_budget,
             res.per_theta_budget, res.radial_budget, seed]
            for j, rho in enumerate(res.per_theta)]


def _summary_path(output: str) -> str:
    stem, ext = os.path.splitext(output)
    return f"{stem}_summary{ext or '.csv'}"


def run_sweep(config: SweepConfig, threads: int = 1) -> RateFit:
    """Measure mean theta-distances over the n list, write CSVs, fit the rate.

    Every n runs in one ordered pool of `threads` threads
    (`distributions.mean_theta_distances`), so each n's target is built
    while the directions of the n before it draw.  The per-theta CSV goes
    to config.output and a per-n summary next to it.  Raises
    FitUnavailableError, after writing both files, when fewer than 3 rows
    clear the noise floor.
    """
    for path in (config.output, _summary_path(config.output)):
        check_output(path)
    results = di.mean_theta_distances(
        [(built_in_spec(config.system, n), make_rng(config.seed, "sweep_n", n))
         for n in config.n_list],
        config.target,
        theta_budget=config.theta_budget,
        per_theta_budget=config.per_theta_budget,
        radial_budget=config.radial_budget,
        threads=threads,
    )
    detail_rows = [row for res in results for row in per_theta_rows(res, config.seed)]
    summary = [SweepRow(n=res.n, mean_rho=res.mean, se=res.se, noise_floor=res.noise_floor)
               for res in results]
    write_csv(config.output, PER_THETA_HEADER, detail_rows)
    write_csv(_summary_path(config.output),
              ["n", "mean_rho", "se", "noise_floor", "admissible"],
              [[r.n, r.mean_rho, r.se, r.noise_floor, r.admissible]
               for r in summary])
    return fit_rate(summary)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

# A suite maps (budget scale, seed) to its cells: zero-argument callables,
# each returning a BoundCheckReport and seeding itself from its own keys,
# so that run_verify may run them on any thread.  run_verify stamps the
# run's seed on every row.

def _scaled(budget: int, scale: float, floor: int = 200) -> int:
    return max(floor, int(budget * scale))


def _suite_sphere(scale: float, seed: int) -> list:
    return [sl.gap_report]


def _m2_pairs(spec: SystemSpec, scale: float) -> int:
    """Pairs of a functionals cell's m_2 > 1 check, drawn for non-isotropic specs only."""
    return 0 if spec.is_isotropic else _scaled(500_000, scale)


def _functional_checks(spec: SystemSpec, scale: float, seed: int) -> BoundCheckReport:
    report = BoundCheckReport()
    budget = _scaled(DEFAULT_VERIFY_BUDGET, scale)
    n = spec.n
    root_n = math.sqrt(n)

    m_est = {p: fn.moment_mp(spec, p, pairs=budget,
                             rng=make_rng(seed, "m_p", spec.spec_id, int(p)))
             for p in (2.0, 3.0)}
    m2 = m_est[2.0]
    report.add(BoundCheck(
        name="pair_moment_ge_1", statement="m_2 >= 1 (E|X|^2 = n)",
        lhs=1.0, rhs=m2.value, slack=reports.SLACK_SE * m2.se,
        spec_id=spec.spec_id, n=n, budget=budget,
    ))
    if spec.is_isotropic:
        report.add(BoundCheck(
            name="pair_moment_eq_1_isotropic",
            statement="|m_2 - 1| small for isotropic systems",
            lhs=abs(m2.value - 1.0), rhs=0.0, slack=reports.SLACK_SE * m2.se,
            spec_id=spec.spec_id, n=n, budget=budget,
        ))
    else:
        pairs = _m2_pairs(spec, scale)
        big = fn.moment_mp(spec, 2.0, pairs=pairs,
                           rng=make_rng(seed, "m2_aniso", spec.spec_id))
        report.add(BoundCheck(
            name="pair_moment_gt_1_anisotropic",
            statement="m_2 > 1 for non-isotropic systems with E|X|^2 = n",
            lhs=1.0, rhs=big.value, slack=-reports.SLACK_SE * big.se,
            spec_id=spec.spec_id, n=n, budget=pairs,
        ))

    # squared norms are exact for +-1-valued systems; a relative epsilon in
    # the slack absorbs the remaining 1-ulp power round trips at equality
    sq = squared_norms(spec, budget, make_rng(seed, "norm_p", spec.spec_id))
    for p in (2.0, 3.0):
        mp = fn.moment_Mp(spec, p, rng=make_rng(seed, "Mp", spec.spec_id, int(p)))
        vals = sq ** (p / 2.0)
        lhs = float(vals.mean() ** (1.0 / p))
        rhs = mp.value * root_n
        se_lhs = fn.root_mean_se(vals, p)
        slack = reports.SLACK_SE * (se_lhs + mp.se * root_n) + 1e-12 * rhs
        report.add(BoundCheck(
            name=f"norm_moment_le_Mp_rootn_p{int(p)}",
            statement="(E |X|^p)^(1/p) <= M_p sqrt(n)",
            lhs=lhs, rhs=rhs, slack=slack,
            spec_id=spec.spec_id, n=n, budget=budget,
            extra={"strategy": mp.strategy},
        ))
        mpair = m_est[p]
        slack = reports.SLACK_SE * (mpair.se + 2.0 * mp.value * mp.se)
        report.add(BoundCheck(
            name=f"pair_moment_le_Mp_sq_p{int(p)}",
            statement="m_p <= M_p^2 for p >= 2",
            lhs=mpair.value, rhs=mp.value ** 2, slack=slack,
            spec_id=spec.spec_id, n=n, budget=budget,
            extra={"strategy": mp.strategy},
        ))

    report.add(BoundCheck(
        name="pair_moment_monotone",
        statement="m_2 <= m_3 (nondecreasing in p)",
        lhs=m_est[2.0].value, rhs=m_est[3.0].value,
        slack=reports.SLACK_SE * (m_est[2.0].se + m_est[3.0].se),
        spec_id=spec.spec_id, n=n, budget=budget,
    ))
    sig = {p: fn.sigma_2p(spec, p, budget=budget,
                          rng=make_rng(seed, "sigma", spec.spec_id, int(2 * p)))
           for p in (1.0, 1.5, 2.0)}
    for lo_p, hi_p in ((1.0, 1.5), (1.5, 2.0)):
        report.add(BoundCheck(
            name=f"sigma_monotone_{int(2 * lo_p)}_{int(2 * hi_p)}",
            statement="sigma_2p nondecreasing in p",
            lhs=sig[lo_p].value, rhs=sig[hi_p].value,
            slack=reports.SLACK_SE * (sig[lo_p].se + sig[hi_p].se),
            spec_id=spec.spec_id, n=n, budget=budget,
        ))

    report.extend(fn.norm_variance_check(spec, budget=budget,
                                         rng=make_rng(seed, "nvc", spec.spec_id)))
    sb = fn.small_ball(spec, budget=budget, rng=make_rng(seed, "sb", spec.spec_id))
    report.add(BoundCheck(
        name="small_ball_bound",
        statement="P{|X-Y|^2 <= n/4} <= 4^q m_q^q / n^(q/2) + 4^2p s_2p^2p / n^p",
        lhs=sb.empirical, rhs=sb.bound, slack=sb.slack,
        spec_id=spec.spec_id, n=n, budget=budget,
    ))
    return report


def _suite_functionals(scale: float, seed: int) -> list:
    return [partial(_functional_checks, spec, scale, seed)
            for spec in default_catalog(64)]


def _suite_charfn(scale: float, seed: int) -> list:
    budget = _scaled(DEFAULT_VERIFY_BUDGET, scale)
    specs = [
        SystemSpec(kind="trigonometric", n=64),
        SystemSpec(kind="walsh", n=63),
        SystemSpec(kind="uniform", n=64),
    ]
    poincare_ts = [0.0, 0.5, 1.0, 2.0, 4.0]
    decay_ts = np.linspace(0.0, 10.0, 11)
    cells = []
    for spec in specs:  # int seeds: a cell gives the same rows on every call
        cells.append(partial(
            cf.poincare_gap_check, spec, poincare_ts, theta_budget=48,
            rng=master_seed(make_rng(seed, "poincare", spec.spec_id))))
        cells.append(partial(
            cf.decay_bound_check, spec, decay_ts, theta_budget=48, sample_budget=budget,
            rng=master_seed(make_rng(seed, "decay", spec.spec_id))))
    return cells


def _tail_checks(scale: float, seed: int) -> BoundCheckReport:
    report = BoundCheckReport()
    sims = _scaled(1_000_000, scale, floor=10_000)
    cases = [
        ("two_point", fn.TwoPointXi()),
        ("exponential", fn.ExponentialXi()),
    ]
    for name, xi in cases:
        lt = fn.lower_tail_bound(xi, lam=0.5)
        gen = make_rng(seed, "tail", name)
        # the one-shot draw of `sims` sums, a block at a time
        below = sum(int(np.count_nonzero(xi.sample_sum(100, b.stop - b.start, gen) <= 50.0))
                    for b in blocks(sims, 1))
        emp = below / sims
        bound = lt.bound(100)
        report.add(BoundCheck(
            name=f"lower_tail_{name}",
            statement="P{S_n <= lambda n} <= exp(-(1-lambda)^2 n / (8 kappa))",
            lhs=emp, rhs=bound, slack=0.0,
            spec_id=f"xi_{name}", n=100, budget=sims,
            extra={"kappa": lt.kappa, "lambda": lt.lam},
        ))
    return report


def _suite_tail(scale: float, seed: int) -> list:
    return [partial(_tail_checks, scale, seed)]


SUITES = {
    "sphere": _suite_sphere,
    "functionals": _suite_functionals,
    "charfn": _suite_charfn,
    "tail": _suite_tail,
}


def _start_order(cells: list) -> list[int]:
    """Indices of `cells`, longest first: by the m_2 pairs a functionals cell draws.

    Those pairs are verify's longest step (its anisotropic cell takes
    about a third of a serial run), so that cell starts first and does
    not end alone on one thread.  The sort is stable: the other cells start in
    cell order.
    """
    def pairs(cell) -> int:
        if getattr(cell, "func", None) is _functional_checks:
            return _m2_pairs(*cell.args[:2])
        return 0

    return sorted(range(len(cells)), key=lambda i: -pairs(cells[i]))


def run_verify(suite: str = "all", budget_scale: float = 1.0,
               seed: int = DEFAULT_SEED, threads: int = 1,
               output: str | None = None) -> BoundCheckReport:
    """Run registered inequality suites; write one CSV row per check.

    The suites' cells run on min(threads, cells) pool threads, started
    longest first (`_start_order`); their checks are reported in the
    fixed cell order.  A failed cell fails the run: its exception is
    raised and the cells not yet started are cancelled.  Each pool
    thread runs as many BLAS threads as were fixed when numpy loaded: set
    the BLAS variables before importing numpy (the CLI does).
    """
    if suite != "all" and suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {suite!r}; choose from {['all', *SUITES]}")
    if not (math.isfinite(budget_scale) and budget_scale > 0.0):
        raise ConfigurationError(
            f"budget scale must be finite and positive, got {budget_scale}")
    check_count(threads, "threads")
    names = list(SUITES) if suite == "all" else [suite]
    cells = [cell for name in names for cell in SUITES[name](budget_scale, seed)]
    order = _start_order(cells)
    cell_reports = [None] * len(cells)
    # perfbench/tracer.py replaces distributions' ThreadPoolExecutor to
    # charge pool work to the span that submitted it
    with di.ThreadPoolExecutor(max_workers=min(threads, len(cells))) as pool:
        for i, cell_report in zip(order, pool.map(lambda i: cells[i](), order)):
            cell_reports[i] = cell_report
    report = BoundCheckReport()
    for cell_report in cell_reports:
        report.extend(cell_report)
    for check in report.checks:
        check.seed = seed
    header, rows = report.csv_rows()
    if output is not None:
        write_csv(output, header, rows)
    return report
