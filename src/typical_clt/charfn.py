"""Characteristic functions of weighted sums and of the typical law.

Provides the typical cf f(t) = E J_n(t |X|) over radial atoms deposited
on a log-radius grid, with a stated bound; concentration checks over
random directions of the exact cf f_theta(t) of <X, theta>
(`systems.direction_cf`); and the three smoothing integrals that convert
cf closeness into a Kolmogorov-distance bound:

    I_close = integral_0^T0  |u(t) - v(t)| / t dt
    I_mid   = integral_T0^T  |u(t)| / t dt
    I_tail  = (1/T) integral_0^T |v(t)| dt

Since every f_theta is exact, the only Monte Carlo noise in the checks
over directions is that of the direction sample itself (and of the
sampled norms in the typical cf and the small-ball probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reports
from .errors import DIRECTION_FLOOR, DomainError, check_budget
from .functionals import moment_Mp, small_ball
from .quadrature import blocks
from .reports import BoundCheck, BoundCheckReport
from .rng import make_rng, master_seed
from .sphere_law import jn_table, sample_direction
from .systems import SystemSpec, direction_cf
from .distributions import (TABLE_LOG_STEP, deposit_log_radii, mean_theta_distance,
                            radial_atoms)

DEFAULT_GRID_POINTS = 512
GRID_T_MIN = 1e-3


def default_t_grid(t_max: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced grid on [1e-3, t_max]; cf integrands vary multiplicatively."""
    if not (math.isfinite(t_max) and t_max > GRID_T_MIN):
        raise DomainError(f"t_max must be finite and exceed {GRID_T_MIN}, got {t_max}")
    if points < 2:
        raise DomainError(f"a t grid needs at least 2 points, got {points}")
    return np.geomspace(GRID_T_MIN, t_max, points)


def _check_grid(t_grid) -> np.ndarray:
    """A cf grid as floats: finite, t >= 0 and strictly increasing, else DomainError."""
    t = np.asarray(t_grid, dtype=float)
    if not (np.all((t >= 0.0) & (t < math.inf)) and np.all(np.diff(t) > 0.0)):
        raise DomainError("a cf grid must be finite, t >= 0 (negative t by conjugate "
                          "symmetry) and strictly increasing")
    return t


@dataclass(frozen=True)
class CharFnEstimate:
    """cf values on a nonnegative t grid; f(-t) is the conjugate of f(t)."""

    t: np.ndarray
    values: np.ndarray          # complex
    se: np.ndarray
    budget: int

    def __post_init__(self):
        _check_grid(self.t)

    def csv_rows(self):
        header = ["t", "re", "im", "se"]
        rows = [
            [float(t), float(v.real), float(v.imag), float(s)]
            for t, v, s in zip(self.t, self.values, self.se)
        ]
        return header, rows


def charfn_typical(spec: SystemSpec, t_grid, radial_budget: int = 100_000,
                   rng=0) -> CharFnEstimate:
    """cf of the typical distribution: f(t) = E J_n(t sqrt(n) r), r = |X|/sqrt(n).

    The expectation runs over `distributions.radial_atoms`, deposited on
    log-radius nodes of step delta = TABLE_LOG_STEP (`deposit_log_radii`);
    nodes without mass are dropped.  A fixed-norm system's one atom r = 1
    is the node 1, so f is J_n(t sqrt n) exactly with zero SE.

    At every t, f is within delta^2/8 sup|h''| + `JnTable.bound` of E J_n
    over all the atoms, where h(s) = J_n(b e^s), b = t sqrt(n) r.  By
    J_n' = -(b/n) J_(n+2) and b J_n'' + (n-1) J_n' + b J_n = 0,
    h'' = b^2 ((n-2)/n J_(n+2) - J_n).  On a grid through `charfn_Jn_grid`,
    sup|h''| is 3.0 at n = 5 (its limit as b -> inf), 2.14 at n = 8, 1.61
    at 16, 1.31 at 64, 1.25 at 256, 1.24 at 1024 and 1.236 = sup_u
    4u(u-1)e^(-u) in the Gaussian limit: the bound is 1.5e-7 to 3.6e-7 for
    every n >= 5.  For n <= 4, b^2 J_n grows and the bound is infinite.

    `jn_table` spans max t sqrt(n) times the largest node (at most e^delta
    times the largest atom); a grid that fails its check builds none.
    """
    t = _check_grid(t_grid)
    r, w = radial_atoms(spec, radial_budget, rng)
    low, mass = deposit_log_radii(r, w)
    nodes = np.flatnonzero(mass)
    radii, weights = np.exp((low + nodes) * TABLE_LOG_STEP), mass[nodes]
    ts = t * math.sqrt(spec.n)
    jn = jn_table(spec.n, float(ts.max(initial=0.0)) * float(radii.max()))
    vals = np.empty(t.shape[0], dtype=complex)
    ses = np.empty(t.shape[0])
    for block in blocks(t.shape[0], radii.size):
        jv = jn(ts[block, None] * radii[None, :])
        mean = jv @ weights
        var = np.square(jv - mean[:, None]) @ weights
        vals[block] = mean
        ses[block] = np.sqrt(var / r.size)
    return CharFnEstimate(t=t, values=vals, se=ses,
                          budget=0 if spec.is_fixed_norm else radial_budget)


# ---------------------------------------------------------------------------
# Direction-concentration checks
# ---------------------------------------------------------------------------

def _per_theta_cf_matrix(spec: SystemSpec, t: np.ndarray, theta_budget: int,
                         seed: int) -> np.ndarray:
    """Exact f_theta(t), one row per direction drawn from (seed, "cf_theta", j)."""
    check_budget(theta_budget, DIRECTION_FLOOR, "theta_budget")
    rows = np.empty((theta_budget, t.shape[0]), dtype=complex)
    for j in range(theta_budget):
        theta = sample_direction(spec.n, make_rng(seed, "cf_theta", j))
        rows[j] = direction_cf(spec, theta, t)
    return rows


def poincare_gap_check(spec: SystemSpec, t_grid, theta_budget: int = 48,
                       rng=0) -> BoundCheckReport:
    """Check E_theta |f_theta(t) - f(t)|^2 <= t^2 M_1^2 / (n - 1).

    M_1 is bounded above by the analytic M_2, which exists for every
    catalog system.  The left side is the sample variance of the exact
    f_theta(t) over the drawn directions, with f(t) estimated by their
    mean; its standard error is that of the direction sample alone.
    """
    seed = master_seed(rng)
    t = np.asarray(t_grid, dtype=float)
    m2 = moment_Mp(spec, 2.0)
    m1_sq = m2.value ** 2
    rows = _per_theta_cf_matrix(spec, t, theta_budget, seed)
    center = rows.mean(axis=0)
    sq_dev = np.square(np.abs(rows - center[None, :]))
    lhs = sq_dev.sum(axis=0) / (theta_budget - 1)
    se = sq_dev.std(axis=0, ddof=1) / math.sqrt(theta_budget)
    rhs = np.square(t) * m1_sq / (spec.n - 1)
    report = BoundCheckReport()
    for k in range(t.shape[0]):
        slack = reports.SLACK_SE * float(se[k])
        report.add(BoundCheck(
            name="cf_direction_variance",
            statement="E_theta |f_theta(t) - f(t)|^2 <= t^2 M_1^2 / (n-1)",
            lhs=float(lhs[k]), rhs=float(rhs[k]), slack=slack,
            spec_id=spec.spec_id, n=spec.n, seed=seed, budget=0,
            extra={"t": float(t[k]), "theta_budget": theta_budget},
        ))
    return report


def decay_bound_check(spec: SystemSpec, t_grid, theta_budget: int = 48,
                      sample_budget: int = 20000, rng=0) -> BoundCheckReport:
    """Check E_theta |f_theta(t)| <= 2.1 (e^(-t^2/16) + e^(-n/24) + sqrt(P)).

    P = P{|X - Y|^2 <= n/4}, taken SLACK_SE standard errors above its
    empirical estimate from `sample_budget` pairs; f_theta is exact.
    """
    seed = master_seed(rng)
    t = np.asarray(t_grid, dtype=float)
    sb = small_ball(spec, budget=sample_budget, rng=make_rng(seed, "decay_sb"))
    p_hat = sb.empirical
    p_up = p_hat + reports.SLACK_SE * sb.se
    rows = _per_theta_cf_matrix(spec, t, theta_budget, seed)
    mags = np.abs(rows)
    lhs = mags.mean(axis=0)
    se = mags.std(axis=0, ddof=1) / math.sqrt(theta_budget)
    rhs = 2.1 * (np.exp(-np.square(t) / 16.0) + math.exp(-spec.n / 24.0)
                 + math.sqrt(p_up))
    report = BoundCheckReport()
    for k in range(t.shape[0]):
        slack = reports.SLACK_SE * float(se[k])
        report.add(BoundCheck(
            name="cf_decay_bound",
            statement="E_theta |f_theta(t)| <= 2.1 (exp(-t^2/16) + exp(-n/24) "
                      "+ sqrt(P{|X-Y|^2 <= n/4}))",
            lhs=float(lhs[k]), rhs=float(rhs[k]), slack=slack,
            spec_id=spec.spec_id, n=spec.n, seed=seed, budget=sample_budget,
            extra={"t": float(t[k]), "small_ball": p_hat},
        ))
    return report


# ---------------------------------------------------------------------------
# Smoothing integrals
# ---------------------------------------------------------------------------

def _integrand_over_t(t: np.ndarray, numer: np.ndarray, lo: float, hi: float,
                      extrapolate_zero: bool) -> float:
    """Trapezoid of numer(t)/t over [lo, hi] on the stored grid.

    With extrapolate_zero and lo == 0, the integrand value at t = 0 is
    linearly extrapolated from the two smallest positive grid points
    (numer vanishes linearly at 0, so the ratio has a finite limit).
    """
    inside = (t > lo) & (t < hi)
    if lo == 0.0 and extrapolate_zero:
        (t1, t2), (n1, n2) = t[t > 0.0][:2], numer[t > 0.0][:2]
        g1, g2 = n1 / t1, n2 / t2
        g_lo = max(g1 - t1 * (g2 - g1) / (t2 - t1), 0.0)
    else:
        g_lo = np.interp(lo, t, numer) / max(lo, GRID_T_MIN)
    tt = np.concatenate([[lo], t[inside], [hi]])
    gg = np.concatenate([[g_lo], numer[inside] / t[inside], [np.interp(hi, t, numer) / hi]])
    return float(np.trapezoid(gg, tt))


def esseen_integrals(t: np.ndarray, abs_diff: np.ndarray, abs_mid: np.ndarray,
                     abs_typical: np.ndarray, t0: float, t_max: float):
    """The three smoothing integrals from magnitude series on one grid."""
    if not t_max >= t0 > 0.0:
        raise DomainError(f"need T >= T0 > 0, got T0={t0}, T={t_max}")
    if t[-1] < t_max * (1.0 - 1e-9):
        raise DomainError(f"grid ends at {t[-1]}, does not cover T={t_max}")
    i_close = _integrand_over_t(t, abs_diff, 0.0, t0, extrapolate_zero=True)
    i_mid = _integrand_over_t(t, abs_mid, t0, t_max, extrapolate_zero=False)
    inside = t <= t_max
    tt = np.concatenate([[0.0], t[inside], [t_max]])
    vv = np.concatenate([[abs_typical[0]], abs_typical[inside],
                         [np.interp(t_max, t, abs_typical)]])
    i_tail = float(np.trapezoid(vv, tt)) / t_max
    return i_close, i_mid, i_tail


def smoothing_rhs(u: CharFnEstimate, v: CharFnEstimate, t0: float, t_max: float):
    """Smoothing integrals for a cf pair (u plays f_theta, v plays f)."""
    if not np.array_equal(u.t, v.t):
        raise DomainError("cf estimates must share one grid")
    diff = np.abs(u.values - v.values)
    return esseen_integrals(u.t, diff, np.abs(u.values), np.abs(v.values),
                            t0, t_max)


@dataclass(frozen=True)
class SmoothingReport:
    i_close: float
    i_mid: float
    i_tail: float
    t0: float
    t_max: float
    mean_rho: float
    metadata: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.i_close + self.i_mid + self.i_tail

    @property
    def ratio_to_mean_rho(self) -> float:
        return self.total / self.mean_rho if self.mean_rho > 0 else math.inf


def smoothing_report(spec: SystemSpec, theta_budget: int = 16,
                     radial_budget: int = 50000,
                     grid_points: int = DEFAULT_GRID_POINTS, rng=0,
                     rho_theta_budget: int = 16,
                     rho_sample_budget: int = 50000) -> SmoothingReport:
    """Full-pipeline smoothing bound for a system.

    The integrals split t at the moderate/large-t split of the rate
    analysis: T0 = 5 sqrt(log n) and T = 5 n.  The total of the three
    integrals is compared with the measured mean Kolmogorov distance to
    the typical law and the ratio is logged in the report.
    """
    seed = master_seed(rng)
    n = spec.n
    t0 = 5.0 * math.sqrt(math.log(n))
    t_max = 5.0 * n
    t = default_t_grid(t_max, grid_points)
    rows = _per_theta_cf_matrix(spec, t, theta_budget, seed)
    typical = charfn_typical(spec, t, radial_budget, make_rng(seed, "smooth_radial"))
    abs_diff = np.abs(rows - typical.values[None, :]).mean(axis=0)
    abs_mid = np.abs(rows).mean(axis=0)
    i_close, i_mid, i_tail = esseen_integrals(
        t, abs_diff, abs_mid, np.abs(typical.values), t0, t_max)
    rho = mean_theta_distance(spec, "F", theta_budget=rho_theta_budget,
                              per_theta_budget=rho_sample_budget,
                              rng=make_rng(seed, "smooth_rho"),
                              radial_budget=radial_budget)
    return SmoothingReport(
        i_close=i_close, i_mid=i_mid, i_tail=i_tail, t0=t0, t_max=t_max,
        mean_rho=rho.mean,
        metadata={
            "spec_id": spec.spec_id, "n": n, "theta_budget": theta_budget,
            "seed": seed,
        },
    )
