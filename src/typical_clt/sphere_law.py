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
(`_beta_half_mass`), so no command that reads this CDF imports scipy.
The cosine transform J_n is integrated after the substitution
x = sin(u), which removes the endpoint singularity at |x| = 1 for small
n and keeps the integrand smooth for every n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, NumericKernelError
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
# SphereCdfTable knots; JnTable spline step
CDF_TABLE_KNOTS = 16385
JN_TABLE_STEP = 0.02
# Largest n whose bulk J_n is the closed form: JnTable's cutoff search
# fails for n in {2, 4, 8, 12} and below.
JN_CLOSED_FORM_MAX_N = 12


def normal_pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def log_norm_const(n: int) -> float:
    """log of the density normalizing constant for dimension n."""
    if n < 2 or int(n) != n:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    n = int(n)
    return math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi * n)


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^n; squared norm within 1e-12 of 1."""

    coords: np.ndarray

    def __post_init__(self):
        nrm2 = float(np.dot(self.coords, self.coords))
        if abs(nrm2 - 1.0) > 1e-12:
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
    scipy's betainc up to n = 4096.  The power cos^(j-1) u is stepped as
    p - p sin^2 u, not p cos^2 u: a float cos^2 u near 1 carries a
    relative error of ~1e-16 that the power raises n-fold.  The mass is
    capped at 1/2 against rounding.
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
    return 0.5 * np.fmin(w, 1.0)


def cdf(n: int, x: float) -> float:
    """CDF at x in closed form; symmetric by construction, cdf(0) = 1/2."""
    root = math.sqrt(n)
    if x <= -root:
        return 0.0
    if x >= root:
        return 1.0
    if x > 0.0:
        return 1.0 - cdf(n, -x)
    return 0.5 - float(_beta_half_mass(n, math.asin(-x / root)))


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end knot, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes of the PCHIP interpolant, from interval widths h and secants m.

    Interior knots take the weighted harmonic mean of the two secants, or
    0 where they differ in sign or one is 0 (Fritsch-Carlson); the ends
    take `_pchip_end_slope` (Moler, Numerical Computing with MATLAB 3.6).
    """
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.empty(m.size + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where flat
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class SphereCdfTable:
    """Fast monotone interpolant of the CDF, accurate to about 1e-7.

    Used for mixture evaluation where millions of CDF lookups are needed:
    the PCHIP interpolant through closed-form values at the knots
    sqrt(n) sin(u), u equispaced in [0, pi/2], which crowd toward the
    support edge where the density vanishes.  Its slopes, cubic Hermite
    coefficients and power-form evaluation are those of scipy's
    PchipInterpolator, operation for operation, so the two agree bit for
    bit.  The knot interval of a point v is searchsorted(knots, v,
    "right") - 1 (the last interval at the last knot), found from the
    guess arcsin(v / sqrt(n)) / du and then moved to the knots it lies
    between.
    """

    def __init__(self, n: int):
        self.n = n
        self.root = math.sqrt(n)
        u = np.linspace(0.0, math.pi / 2.0, CDF_TABLE_KNOTS)
        x = self.root * np.sin(u)
        y = _beta_half_mass(n, u)
        h = np.diff(x)
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._knots = x
        # power-form coefficients of 1, s, s^2, s^3 on each interval, s = v - knot
        self._coef = (y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def _interval(self, v: np.ndarray) -> np.ndarray:
        """searchsorted(knots, v, "right") - 1, capped at the last interval.

        v lies in [0, sqrt(n)] or is nan, which takes the last interval.
        """
        x, last = self._knots, CDF_TABLE_KNOTS - 2
        guess = np.arcsin(v / self.root)
        guess *= (CDF_TABLE_KNOTS - 1) / (math.pi / 2.0)
        j = np.fmin(guess, last).astype(np.intp)
        while True:  # the guess is off by at most a knot or so
            down = v < x[j]
            up = v >= x[j + 1]
            up &= j < last
            if not (down.any() or up.any()):
                return j
            j -= down
            j += up

    def _half(self, v: np.ndarray) -> np.ndarray:
        """The interpolant of the mass on [0, v], for v in [0, sqrt(n)]."""
        j = self._interval(v)
        s = v - self._knots[j]
        s2 = s * s
        c0, c1, c2, c3 = self._coef
        return c0[j] + c1[j] * s + c2[j] * s2 + c3[j] * (s2 * s)  # scipy's order

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.clip(np.abs(x), 0.0, self.root)
        h = self._half(ax)
        return np.where(x >= 0.0, 0.5 + h, 0.5 - h)


@lru_cache(maxsize=64)
def cdf_table(n: int) -> SphereCdfTable:
    return SphereCdfTable(n)


def sample_direction(n: int, rng) -> Direction:
    """Uniform direction on S^(n-1) by normalizing a Gaussian vector."""
    if n < 2 or int(n) != n:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    gen = as_rng(rng)
    while True:
        g = gen.standard_normal(int(n))
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
    1e-10 in absolute value; NumericKernelError otherwise.
    """
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
        if delta > 1e-10:
            raise NumericKernelError(
                f"J_n grid quadrature not converged: n={n}, "
                f"max_arg={max_arg:.3g}, panels={panels}, delta={delta:.3e}"
            )
    return vals


class JnTable:
    """Cubic-spline tabulation of J_n for bulk evaluation.

    J_n oscillates with period ~2 pi in its raw argument and its fourth
    derivative is bounded by 1, so a JN_TABLE_STEP = 0.02 spline is
    accurate to ~1e-9.  Beyond the cutoff (where the verified envelope has
    dropped below 1e-12) the table returns 0.
    """

    def __init__(self, n: int):
        from scipy.interpolate import CubicSpline

        cut = 8.0 * math.sqrt(n)
        for _ in range(8):
            probe = np.linspace(cut, 3.0 * cut, 64)
            if float(np.abs(charfn_Jn_grid(n, probe)).max()) < 1e-12:
                break
            cut *= 1.5
        else:
            raise NumericKernelError(f"J_n envelope does not decay by s={cut} (n={n})")
        s = np.arange(0.0, cut + JN_TABLE_STEP, JN_TABLE_STEP)
        vals = charfn_Jn_grid(n, s)
        vals[0] = 1.0
        self.n = n
        self.cut = float(s[-1])
        self._spline = CubicSpline(s, vals, extrapolate=False)

    def __call__(self, s) -> np.ndarray:
        s = np.abs(np.asarray(s, dtype=float))
        out = np.zeros(s.shape)
        inside = s <= self.cut
        out[inside] = self._spline(s[inside])
        return out


def _jn_hyp0f1(n: int, s) -> np.ndarray:
    """J_n(s) = 0F1(; n/2; -s^2/4) = Gamma(n/2) (2/s)^(n/2-1) J_(n/2-1)(s)."""
    from scipy.special import hyp0f1

    return hyp0f1(0.5 * n, -0.25 * np.square(np.asarray(s, dtype=float)))


@lru_cache(maxsize=32)
def jn_table(n: int):
    """Bulk J_n evaluator: the closed form for n <= JN_CLOSED_FORM_MAX_N, else a JnTable.

    For small n the envelope decays like s^(-(n-1)/2) and never reaches
    the table's 1e-12 cutoff; there the closed form is within 6e-15 of
    the Bessel form on s in [0, 2000].  scipy's hyp0f1 overflows to nan
    for large n and large s (n = 512), so larger n keep the table.
    """
    if n <= JN_CLOSED_FORM_MAX_N:
        return partial(_jn_hyp0f1, n)
    return JnTable(n)


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
    n_grid = tuple(int(n) for n in n_grid)
    if any(n < 2 for n in n_grid):
        raise DomainError("gap_report requires every n >= 2")
    report = BoundCheckReport()
    nd, nk = {}, {}
    for n in n_grid:
        if n >= 3:
            d_sup = _density_gap_sup(n)
            nd[n] = n * d_sup
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
        ref = scaled.get(reference_n, None)
        if ref is None:
            ref = scaled[sorted(scaled)[len(scaled) // 2]]
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
