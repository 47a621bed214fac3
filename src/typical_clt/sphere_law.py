"""Law of the scaled first coordinate of a uniform point on the sphere.

For a point theta uniform on the unit sphere in R^n, the scaled first
coordinate Z = sqrt(n) * theta_1 has density

    phi_n(x) = c (1 - x^2/n)_+^((n-3)/2),
    c = Gamma(n/2) / (sqrt(pi n) Gamma((n-1)/2)),

which converges to the standard normal density as n grows.  This module
provides high-accuracy evaluation of the density, CDF and cosine
transform (characteristic function), a uniform direction sampler, and a
report quantifying the O(1/n) gap to the Gaussian limit.

After the substitution x = sqrt(n) sin(u) the density is a cosine
power, so the CDF is the closed form

    P(Z <= x) = 1/2 + sign(x)/2 W_k(u) / W_k(pi/2),
    W_k(u) = int_0^u cos^k v dv,  k = n - 2,  sin(u) = |x| / sqrt(n),

where W_k(u) / W_k(pi/2) is the regularized incomplete beta function
I_(x^2/n)(1/2, (n-1)/2) of the Beta(1/2, (n-1)/2) law of Z^2/n.  W_k
follows the reduction formula W_k = cos^(k-1) sin / k + (k-1)/k W_(k-2)
from W_0 = u and W_1 = sin u, evaluated in numpy from the angle u
(`_beta_half_mass`).
The cosine transform J_n is integrated after the substitution
x = sin(u), which removes the endpoint singularity at |x| = 1 for small
n and keeps the integrand smooth for every n >= 2.  Its n -> infinity
limit, the standard normal CDF, is a table on the same cubic Hermite
interpolant (`NormalCdfTable`), so the package needs no special-function
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericKernelError, check_dimension
from .quadrature import kernel_sum, panel_nodes
from .reports import BoundCheck, BoundCheckReport
from .rng import as_rng

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Sup-computation grids; fixed so report values are reproducible.
DENSITY_GRID_POINTS = 4096
CF_GRID_POINTS = 2048
DEFAULT_N_GRID = (4, 8, 16, 64, 256, 1024)
# gap_report: allowed ratio of n-scaled gaps to the reference n, and the
# quadrature tolerance of the cf envelope check
GAP_RATE_FACTOR = 4.0
ENVELOPE_TOL = 1e-8
# Cubic Hermite tables: SphereCdfTable's knot count in the angle u on
# [0, pi/2], JnTable's knot step in s; charfn_Jn_grid's quadrature tolerance;
# NormalCdfTable's knot step and its last knot, 18433 knots
CDF_TABLE_KNOTS = 16385
JN_TABLE_STEP = 0.02
JN_GRID_TOL = 1e-10
PHI_TABLE_STEP = 2.0 ** -11
PHI_TABLE_CLAMP = 9.0


def normal_pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def log_norm_const(n: int) -> float:
    """log of the density normalizing constant for dimension n."""
    n = check_dimension(n)
    return math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi * n)


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^n; squared norm within 1e-12 of 1, so every coordinate finite."""

    coords: np.ndarray

    def __post_init__(self):
        nrm2 = float(np.dot(self.coords, self.coords))
        if not abs(nrm2 - 1.0) <= 1e-12:  # a nan or inf coordinate fails too
            raise DomainError(f"direction is not unit length: |theta|^2 = {nrm2!r}")

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def density(n: int, x) -> np.ndarray:
    """Density at x (scalar or array), evaluated in log space to avoid underflow."""
    x2 = np.square(np.asarray(x, dtype=float))
    inside = x2 < n
    out = np.zeros_like(x2)
    ratio = np.where(inside, x2 / n, 0.0)
    out[inside] = np.exp(log_norm_const(n) + 0.5 * (n - 3) * np.log1p(-ratio[inside]))
    return out


def _log_cn(n: int) -> float:
    # c_n = c * sqrt(n): constant of the unscaled coordinate density on [-1, 1]
    return math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi)


def _beta_half_mass(n: int, u):
    """Mass of the density on [0, sqrt(n) sin(u)], for angles u in [0, pi/2].

    The reduction formula divided through by its value at pi/2, where
    the cosine terms vanish: with N_j = W_j(pi/2) = (j-1)/j N_(j-2),

        W_k(u) / N_k = W_(k mod 2)(u) / N_(k mod 2)
                       + sum_(j = 2 or 3, step 2, to k) cos^(j-1) u sin u / (j N_j),

    a sum of non-negative terms that is 1 at u = pi/2.  Within 3e-15 of
    the regularized incomplete beta function up to n = 4096.  The power
    cos^(j-1) u is stepped as p - p sin^2 u, not p cos^2 u: a float
    cos^2 u near 1 carries a relative error of ~1e-16 that the power
    raises n-fold.  The mass is capped at 1/2 against rounding; a nan
    angle gives nan.
    """
    u = np.asarray(u, dtype=float)
    sin_u, cos_u = np.sin(u), np.cos(u)
    sin2 = sin_u * sin_u
    k = n - 2
    if k % 2:  # W_1 = sin u, N_1 = 1, first power term cos^2 u sin u
        w, norm, p = sin_u, 1.0, sin_u * cos_u * cos_u
    else:      # W_0 = u, N_0 = pi/2, first power term cos u sin u
        w, norm, p = u / (math.pi / 2.0), math.pi / 2.0, sin_u * cos_u
    term = np.empty_like(u)
    for j in range(2 + k % 2, k + 1, 2):
        norm *= (j - 1) / j
        np.multiply(p, 1.0 / (j * norm), out=term)
        w += term
        np.multiply(p, sin2, out=term)
        p -= term
    return 0.5 * np.minimum(w, 1.0)


def cdf(n: int, x: float) -> float:
    """CDF at x in closed form; symmetric by construction, cdf(0) = 1/2, cdf(nan) = nan."""
    n = check_dimension(n)
    root = math.sqrt(n)
    if x <= -root:
        return 0.0
    if x >= root:
        return 1.0
    if x > 0.0:
        return 1.0 - cdf(n, -x)
    return 0.5 - float(_beta_half_mass(n, math.asin(-x / root)))


class HermiteTable:
    """Cubic Hermite interpolant on the knots 0, step, 2 step, ...

    From the values y and slopes d of f at the knots.  On each interval
    it is the power form in s = t - knot, evaluated by Horner's rule;
    where |f''''| <= d4 it is within `bound` = step^4/384 d4 of f.
    """

    def __init__(self, y: np.ndarray, d: np.ndarray, step: float, d4: float):
        m = np.diff(y) / step
        self.step = step
        self.bound = step ** 4 / 384.0 * d4
        self._last = y.size - 2
        self._coef = (y[:-1], d[:-1], (3.0 * m - 2.0 * d[:-1] - d[1:]) / step,
                      (d[:-1] + d[1:] - 2.0 * m) / (step * step))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The interpolant at t in [0, last knot]; nan takes the last interval."""
        j = np.fmin(t * (1.0 / self.step), self._last).astype(np.intp)
        s = t - j * self.step
        c0, c1, c2, c3 = self._coef
        return c0[j] + s * (c1[j] + s * (c2[j] + s * c3[j]))


def _rademacher_abs_moment3(k: int) -> float:
    """E|S_k|^3 for S_k a sum of k independent random signs."""
    j = np.arange(k + 1)
    log_p = np.concatenate([[0.0], np.cumsum(np.log((k + 1 - j[1:]) / j[1:]))])
    return float(np.exp(log_p - k * math.log(2.0)) @ np.abs(k - 2.0 * j) ** 3)


class SphereCdfTable:
    """The CDF as a cubic Hermite table in the angle u, sin(u) = |x| / sqrt(n).

    Used for mixture evaluation, where millions of CDF lookups are needed.
    The half mass y(u) = W_k(u) / (2 N_k), k = n - 2, is tabulated at
    CDF_TABLE_KNOTS equispaced angles in [0, pi/2] with its closed-form
    slope y'(u) = cos^k(u) / (2 N_k), which is bounded for every n >= 2
    (the slope in x, the density, is not for n < 5).  As cos^k u =
    E cos(S_k u) for S_k a sum of k random signs, |y''''| <=
    E|S_k|^3 / (2 N_k), so the table is within `bound` of the closed
    form: 0 at n = 2, where y is linear, 9e-15 at n = 256 and 2.3e-12 at
    n = 4096.  The knot interval of x is that of its angle, so no search
    is needed.
    """

    def __init__(self, n: int):
        self.n = n = check_dimension(n)
        self.root = math.sqrt(n)
        u = np.linspace(0.0, math.pi / 2.0, CDF_TABLE_KNOTS)
        c = math.exp(_log_cn(n))  # 1 / (2 N_k)
        self._half = HermiteTable(_beta_half_mass(n, u), c * np.cos(u) ** (n - 2),
                                  u[1], c * _rademacher_abs_moment3(n - 2))
        self.bound = self._half.bound

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.arcsin(np.minimum(np.abs(x) / self.root, 1.0))
        return 0.5 + np.copysign(self._half(u), x)


@lru_cache(maxsize=64)
def cdf_table(n: int) -> SphereCdfTable:
    return SphereCdfTable(n)


class NormalCdfTable:
    """The standard normal CDF as a cubic Hermite table of its half mass.

    Phi(x) = 1/2 + sign(x) half(min(|x|, PHI_TABLE_CLAMP)), with
    half(x) = erf(x / sqrt 2) / 2 tabulated every PHI_TABLE_STEP on
    [0, PHI_TABLE_CLAMP] and its slope the normal density.  |half''''|
    = |He_3 phi| peaks at x^2 = 3 - sqrt 6, so `bound` is 8e-17.  At the
    clamp half is 1/2 in floating point (Phi(-9) = 1.1e-19), so beyond
    it, and at +-inf, the table gives exactly 0 or 1; nan gives nan.
    """

    def __init__(self):
        x = np.arange(0.0, PHI_TABLE_CLAMP + PHI_TABLE_STEP, PHI_TABLE_STEP)
        half = 0.5 * np.array([math.erf(v) for v in x / math.sqrt(2.0)])
        z = math.sqrt(3.0 - math.sqrt(6.0))
        self._half = HermiteTable(half, normal_pdf(x), PHI_TABLE_STEP,
                                  abs(z ** 3 - 3.0 * z) * float(normal_pdf(z)))
        self.bound = self._half.bound

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 + np.copysign(self._half(np.minimum(np.abs(x), PHI_TABLE_CLAMP)), x)


@lru_cache(maxsize=1)
def normal_cdf_table() -> NormalCdfTable:
    return NormalCdfTable()


def sample_direction(n: int, rng) -> Direction:
    """Uniform direction on S^(n-1) by normalizing a Gaussian vector."""
    n = check_dimension(n)
    gen = as_rng(rng)
    while True:
        g = gen.standard_normal(n)
        nrm = np.linalg.norm(g)
        if nrm > 0.0:  # all-zero draw has probability 0; resample if it happens
            return Direction(coords=g / nrm)


# ---------------------------------------------------------------------------
# Characteristic function J_n
# ---------------------------------------------------------------------------

def _jn_rule(n: int, max_arg: float, panels: int | None = None):
    """Quadrature rule for J_n: nodes sin(u), combined weights, on [0, U].

    U truncates where cos(u)^(n-2) < ~1e-18; the panel count resolves both
    the oscillation of cos(arg * sin u) and the concentration scale
    1/sqrt(n) of the cosine power.
    """
    power = n - 2
    if power > 0:
        U = min(math.pi / 2.0, math.sqrt(84.0 / power))
    else:
        U = math.pi / 2.0
    if panels is None:
        panels = max(
            8,
            int(math.ceil(abs(max_arg) * U / 8.0)),
            int(math.ceil(4.0 * U * math.sqrt(max(power, 1)))),
        )
    nodes, weights = panel_nodes(0.0, U, panels)
    sin_u = np.sin(nodes)
    g = weights * (np.exp(power * np.log(np.cos(nodes))) if power else 1.0)
    g = g * (2.0 * math.exp(_log_cn(n)))
    return sin_u, g, panels


def _jn_apply(sin_u, g, args: np.ndarray) -> np.ndarray:
    return kernel_sum(lambda s, x: np.cos(s * x), args, sin_u, g)


def charfn_Jn_grid(n: int, args) -> np.ndarray:
    """Vectorized J_n over an array of arguments (one shared rule).

    A subsample is recomputed at doubled panel count and must agree to
    JN_GRID_TOL in absolute value; NumericKernelError otherwise.
    """
    n = check_dimension(n)
    args = np.atleast_1d(np.asarray(args, dtype=float))
    s = np.abs(args)
    max_arg = float(s.max()) if s.size else 0.0
    sin_u, g, panels = _jn_rule(n, max_arg)
    vals = _jn_apply(sin_u, g, s)
    if s.size:
        idx = np.unique(np.linspace(0, s.size - 1, min(48, s.size)).astype(int))
        order = np.argsort(s)
        check_idx = np.unique(np.concatenate([idx, order[-4:]]))
        sin2, g2, _ = _jn_rule(n, max_arg, panels=2 * panels)
        ref = _jn_apply(sin2, g2, s[check_idx])
        delta = float(np.max(np.abs(ref - vals[check_idx])))
        if delta > JN_GRID_TOL:
            raise NumericKernelError(
                f"J_n grid quadrature not converged: n={n}, "
                f"max_arg={max_arg:.3g}, panels={panels}, delta={delta:.3e}"
            )
    return vals


def _jn_cut(n: int, k: int) -> float:
    """A J_n table's k-th candidate cutoff, 8 sqrt(n) 1.5^k."""
    return 8.0 * math.sqrt(n) * 1.5 ** k


class JnTable:
    """J_n as a cubic Hermite table on [0, cut], for bulk evaluation.

    Knots every JN_TABLE_STEP from 0, values from `charfn_Jn_grid` and
    slopes from J_n'(s) = -(s/n) J_(n+2)(s).  J_n is the cf of a unit
    sphere coordinate xi, so |J_n''''| <= E xi^4 = 3/(n(n+2)), and
    `bound` is the Hermite term h^4/384 * 3/(n(n+2)) (3e-13 at n = 64)
    plus the quadrature tolerance JN_GRID_TOL, carried by the values and,
    scaled by h/4 * cut/n, by the slopes.  Cut: the first `_jn_cut(n, k)`,
    k < reach, past which the verified envelope is below 1e-12 (0
    beyond), else `_jn_cut(n, reach)` (nan beyond).
    """

    def __init__(self, n: int, reach: int):
        self._beyond = math.nan
        for k in range(reach):
            cut = _jn_cut(n, k)
            probe = charfn_Jn_grid(n, np.linspace(cut, 3.0 * cut, 64))
            if float(np.abs(probe).max()) < 1e-12:
                self._beyond, reach = 0.0, k
                break
        s = np.arange(0.0, _jn_cut(n, reach) + JN_TABLE_STEP, JN_TABLE_STEP)
        vals = charfn_Jn_grid(n, s)
        vals[0] = 1.0
        self.n = n
        self.cut = float(s[-1])
        self._table = HermiteTable(vals, -(s / n) * charfn_Jn_grid(n + 2, s),
                                   JN_TABLE_STEP, 3.0 / (n * (n + 2)))
        self.bound = self._table.bound + JN_GRID_TOL * (1.0 + JN_TABLE_STEP * self.cut / (4.0 * n))

    def __call__(self, s) -> np.ndarray:
        s = np.abs(np.asarray(s, dtype=float))
        return np.where(s <= self.cut, self._table(np.fmin(s, self.cut)), self._beyond)


def jn_table(n: int, max_arg: float) -> JnTable:
    """Bulk J_n on [0, max_arg], a JnTable cached per `_jn_cut` interval.

    For small n the envelope decays like s^(-(n-1)/2), below 1e-12 only
    from s = 710 at n = 12 and later below, so the table runs to the
    first cutoff at or past max_arg and its build grows as max_arg^2.
    """
    n = check_dimension(n)
    if not math.isfinite(max_arg):
        raise DomainError(f"J_n table needs a finite largest argument, got {max_arg!r}")
    reach = 0
    while _jn_cut(n, reach) < max_arg:
        reach += 1
    return _jn_table(n, reach)


_jn_table = lru_cache(maxsize=32)(JnTable)


# ---------------------------------------------------------------------------
# Gap report: distance of phi_n / J_n from their Gaussian limits
# ---------------------------------------------------------------------------

def _density_gap_sup(n: int) -> float:
    """sup over the x grid of |phi_n(x) - phi(x)| e^(x^2/8).

    Beyond the support the gap equals phi(x) e^(x^2/8), which decreases in
    |x|, so including the endpoints +-sqrt(n) covers the whole line.
    """
    root = math.sqrt(n)
    x = np.linspace(-root, root, DENSITY_GRID_POINTS)
    # endpoint refinement: geometric approach to the support boundary
    approach = root * (1.0 - 2.0 ** -np.arange(1, 44, dtype=float))
    x = np.unique(np.concatenate([x, approach, -approach]))
    gap = np.abs(density(n, x) - normal_pdf(x)) * np.exp(np.square(x) / 8.0)
    return float(gap.max())


def _cf_gap_and_envelope(n: int):
    """(sup_t |J_n(t sqrt n) - e^(-t^2/2)|, worst envelope excess) on the t grid."""
    root = math.sqrt(n)
    t = np.linspace(0.0, 3.0 * root, CF_GRID_POINTS)
    j = charfn_Jn_grid(n, t * root)
    gauss = np.exp(-0.5 * np.square(t))
    k_sup = float(np.max(np.abs(j - gauss)))
    envelope = 4.1 * gauss + 4.0 * math.exp(-n / 12.0)
    worst_excess = float(np.max(np.abs(j) - envelope))
    return k_sup, worst_excess


def gap_report(n_grid=DEFAULT_N_GRID, reference_n: int = 64) -> BoundCheckReport:
    """Quantify the O(1/n) Gaussian gaps and check the cf envelope bound.

    For each n the report records D_n (weighted density sup gap, n >= 3)
    and K_n (cf sup gap).  The family checks assert that n*D_n and n*K_n
    stay within GAP_RATE_FACTOR of their value at `reference_n`, and that
    |J_n(t sqrt n)| never exceeds 4.1 e^(-t^2/2) + 4 e^(-n/12) beyond
    ENVELOPE_TOL.
    """
    n_grid = tuple(check_dimension(n) for n in n_grid)
    if not n_grid:
        raise DomainError("gap_report needs at least one n")
    report = BoundCheckReport()
    nd, nk = {}, {}
    for n in n_grid:
        if n >= 3:
            nd[n] = n * _density_gap_sup(n)
        k_sup, excess = _cf_gap_and_envelope(n)
        nk[n] = n * k_sup
        report.add(BoundCheck(
            name="cf_envelope",
            statement="|J_n(t sqrt n)| <= 4.1 exp(-t^2/2) + 4 exp(-n/12)",
            lhs=excess, rhs=0.0, slack=ENVELOPE_TOL,
            spec_id="sphere", n=n,
            extra={"t_points": CF_GRID_POINTS},
        ))

    def family_check(scaled: dict, name: str, statement: str):
        if not scaled:  # the density family has no n < 3
            return
        ref = scaled.get(reference_n, scaled[sorted(scaled)[len(scaled) // 2]])
        for n, v in scaled.items():
            ratio = max(v / ref, ref / v) if min(v, ref) > 0 else math.inf
            report.add(BoundCheck(
                name=name, statement=statement,
                lhs=ratio, rhs=GAP_RATE_FACTOR, slack=0.0,
                spec_id="sphere", n=n,
                extra={"scaled_gap": v, "reference": ref},
            ))

    family_check(
        nd, "density_gap_rate",
        "n * sup |phi_n - phi| e^(x^2/8) within factor of reference n",
    )
    family_check(
        nk, "cf_gap_rate",
        "n * sup |J_n(t sqrt n) - e^(-t^2/2)| within factor of reference n",
    )
    return report
