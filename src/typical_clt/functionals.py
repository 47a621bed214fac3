"""Correlation-type functionals of a random vector X in R^n.

Implements estimators for

    M_p  = sup_theta (E |<X, theta>|^p)^(1/p)          (maximal L^p norm)
    m_p  = n^(-1/2) (E |<X, Y>|^p)^(1/p)               (Y an independent copy)
    s_2p = sqrt(n) (E | |X|^2/n - 1 |^p)^(1/p)         (norm concentration)

together with the variance chain for |X|, the small-ball probability
P{|X - Y|^2 <= n/4} with its moment bound, and the exponential lower-tail
bound for sums of nonnegative i.i.d. variables with unit mean.

M_p is exact where a closed form exists (Gaussian systems, and p = 2 for
isotropic ones, so M_2 for every kind).  Elsewhere a search maximizes an
empirical L^p norm over candidate directions with coordinate-ascent
refinement; that is a lower-bound estimate and is flagged as such.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import reports
from .errors import DomainError, NumericKernelError, check_budget
from .quadrature import blocks
from .reports import BoundCheck, BoundCheckReport
from .rng import as_rng, make_rng
from .systems import SystemSpec, sample_vector, spiked_eigenvalues, squared_norms

BOOTSTRAP_REPS = 200
SEARCH_DIRECTIONS = 64  # random candidates of the M_p search


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error; both finite, else the estimate overflowed."""

    value: float
    se: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.se)):
            raise NumericKernelError(
                f"estimate overflows a float: value {self.value}, se {self.se}")


def check_order(p: float) -> None:
    """The moment orders of this module: finite p >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise DomainError(f"moment order must be finite with p >= 1, got {p}")


def _bootstrap_se(values: np.ndarray, statistic, rng: np.random.Generator):
    """SE of statistic(values) under i.i.d. resampling of the entries.

    A float, or a list of floats for a statistic returning a tuple.
    """
    m = values.shape[0]
    stats = np.array([statistic(values[rng.integers(0, m, size=m)])
                      for _ in range(BOOTSTRAP_REPS)])
    return stats.std(axis=0, ddof=1).tolist()


def root_mean_se(v: np.ndarray, p: float) -> float:
    """Delta-method SE of (mean v)^(1/p) over the i.i.d. entries of v."""
    return float(v.std(ddof=1) / math.sqrt(v.size) * (1.0 / p)
                 * v.mean() ** (1.0 / p - 1.0))


def gauss_abs_moment(p: float) -> float:
    """E|Z|^p for standard normal Z; NumericKernelError past the float range."""
    try:
        return 2.0 ** (p / 2.0) * math.exp(math.lgamma((p + 1.0) / 2.0)) / math.sqrt(math.pi)
    except OverflowError:
        raise NumericKernelError(f"E|Z|^p overflows a float at p = {p}") from None


def _abs_pow(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """|x|^p, avoiding the generic pow kernel for the common small orders.

    With `out` (x's shape) the result is written there, bit for bit, and
    x is used as scratch.
    """
    if p == 1.0:
        return np.abs(x, out=out)
    if p == 2.0:
        return np.square(x, out=out)
    if p == 3.0:
        if out is None:
            return np.square(x) * np.abs(x)
        np.abs(x, out=out)
        return np.multiply(np.square(x, out=x), out, out=out)
    return np.power(np.abs(x, out=out), p, out=out)


# ---------------------------------------------------------------------------
# M_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate(Estimate):
    strategy: str           # "analytic" or "search"
    direction: np.ndarray | None = None

    @property
    def is_lower_bound(self) -> bool:
        return self.strategy == "search"


def _analytic_Mp(spec: SystemSpec, p: float) -> float | None:
    if spec.is_gaussian:
        if spec.kind == "gaussian_anisotropic":
            top = math.sqrt(max(spiked_eigenvalues(spec.n)))
        else:
            top = 1.0
        return top * gauss_abs_moment(p) ** (1.0 / p)
    if p == 2.0 and spec.is_isotropic:
        return 1.0
    return None


def _empirical_lp(matrix: np.ndarray, directions: np.ndarray, p: float) -> np.ndarray:
    """(E_hat |X . d|^p)^(1/p) for each column d of `directions`, by `quadrature.blocks`.

    Each block's |X . d|^p goes under the running column sums, and one
    np.add.reduce over these stacked rows adds them in the row order of a
    one-shot np.mean(axis=0), so the block size never changes a bit.  The
    even columns take a blocked gemm, exact at a multiple of 8 rows; BLAS
    forms the odd last column of a gemm in a way no row block reproduces,
    so that column takes a blocked matvec, which the block rule keeps
    independent of the block size.
    """
    rows, width = matrix.shape[0], directions.shape[1]
    even = width - width % 2
    sums = np.zeros(width)
    for b in blocks(rows, width):
        stack = np.empty((b.stop - b.start + 1, width))
        stack[0] = sums
        _abs_pow(matrix[b] @ directions[:, :even], p, out=stack[1:, :even])
        if even < width:
            _abs_pow(matrix[b] @ directions[:, -1], p, out=stack[1:, -1])
        sums = np.add.reduce(stack, axis=0)
    return (sums / rows) ** (1.0 / p)


def _search_Mp(spec: SystemSpec, p: float, budget: int, rng) -> MomentEstimate:
    gen = as_rng(rng, "mp_search")
    batch = sample_vector(spec, budget, gen)
    n = spec.n
    # candidates: coordinate axes, the diagonal, and random directions
    cand = [np.eye(n), np.full((n, 1), 1.0 / math.sqrt(n))]
    rand = gen.standard_normal((n, SEARCH_DIRECTIONS))
    rand /= np.linalg.norm(rand, axis=0, keepdims=True)
    cand.append(rand)
    directions = np.concatenate(cand, axis=1)
    scores = _empirical_lp(batch.matrix, directions, p)
    best = int(np.argmax(scores))
    theta = directions[:, best].copy()
    value = float(scores[best])
    # coordinate ascent with shrinking step; stops once gains hit batch noise
    signed_axes = np.concatenate([np.eye(n), -np.eye(n)], axis=1)
    for step in (0.5, 0.2, 0.08, 0.03, 0.01):
        for _ in range(10):
            props = theta[:, None] + step * signed_axes
            props /= np.linalg.norm(props, axis=0, keepdims=True)
            sc = _empirical_lp(batch.matrix, props, p)
            j = int(np.argmax(sc))
            if sc[j] <= value * (1.0 + 1e-6):
                break
            value = float(sc[j])
            theta = props[:, j].copy()
    se = root_mean_se(_abs_pow(batch.matrix @ theta, p), p)
    return MomentEstimate(value=value, se=se, strategy="search", direction=theta)


def moment_Mp(spec: SystemSpec, p: float, budget: int = 20000, rng=0) -> MomentEstimate:
    """Maximal L^p norm of the linear marginals.

    The closed form (exact, SE 0) where one exists, otherwise the search
    over directions, which is a lower-bound estimate.
    """
    check_order(p)
    analytic = _analytic_Mp(spec, p)
    if analytic is not None:
        return MomentEstimate(value=analytic, se=0.0, strategy="analytic")
    check_budget(budget)
    return _search_Mp(spec, p, budget, rng)


# ---------------------------------------------------------------------------
# m_p and sigma_2p
# ---------------------------------------------------------------------------

def _pair_blocks(spec: SystemSpec, pairs: int, rng, keys: tuple):
    """(block, X rows, Y rows) over `pairs` independent pairs, by `quadrature.blocks`.

    X and Y are the one-shot draws sample_vector(spec, pairs, g) of
    g = as_rng(rng, keys[0]) and as_rng(rng, keys[1]); a block drawn
    from g yields the next rows of that draw, so memory holds one block
    of each.  A Generator `rng` serves X and then Y: it is first advanced
    past X by drawing X's blocks once more, unkept, while a twin of its
    state draws the X that is used.
    """
    gen_x, gen_y = (as_rng(rng, key) for key in keys)
    if gen_x is gen_y:
        gen_x = copy.deepcopy(gen_y)
        for block in blocks(pairs, spec.n):
            sample_vector(spec, block.stop - block.start, gen_y)
    for block in blocks(pairs, spec.n):
        rows = block.stop - block.start
        yield (block, sample_vector(spec, rows, gen_x).matrix,
               sample_vector(spec, rows, gen_y).matrix)


def _pair_inner_products(spec: SystemSpec, pairs: int, rng) -> np.ndarray:
    """<X_i, Y_i> over `pairs` independent pairs of `_pair_blocks`, keys "pairs_x", "pairs_y"."""
    out = np.empty(pairs)
    for block, x, y in _pair_blocks(spec, pairs, rng, ("pairs_x", "pairs_y")):
        out[block] = np.einsum("ij,ij->i", x, y)
    return out


def moment_mp(spec: SystemSpec, p: float, pairs: int = 20000, rng=0) -> Estimate:
    """m_p estimate over independent pairs, with delta-method SE."""
    check_order(p)
    check_budget(pairs, name="pairs")
    v = _abs_pow(_pair_inner_products(spec, pairs, rng), p)
    root_n = math.sqrt(spec.n)
    return Estimate(value=float(v.mean() ** (1.0 / p) / root_n),
                    se=root_mean_se(v, p) / root_n)


def sigma_2p(spec: SystemSpec, p: float, budget: int = 20000, rng=0) -> Estimate:
    """sigma_{2p} estimate: sqrt(n) (E | |X|^2/n - 1 |^p)^(1/p)."""
    check_order(p)
    check_budget(budget)
    gen = as_rng(rng, "sigma")
    dev = _abs_pow(squared_norms(spec, budget, gen) / spec.n - 1.0, p)
    root_n = math.sqrt(spec.n)

    def stat(sample):
        return root_n * sample.mean() ** (1.0 / p)

    if not dev.any():  # fixed-norm system: exactly zero, no resampling noise
        return Estimate(value=0.0, se=0.0)
    boot = as_rng(rng, "sigma_boot")
    return Estimate(value=float(stat(dev)), se=_bootstrap_se(dev, stat, boot))


# ---------------------------------------------------------------------------
# Variance chain and small-ball bound
# ---------------------------------------------------------------------------

def norm_variance_check(spec: SystemSpec, budget: int = 20000, rng=0) -> BoundCheckReport:
    """Check Var|X| <= sigma_4^2 and sigma_2^2/4 <= Var|X| <= sigma_2 sqrt(n).

    Each inequality gets SLACK_SE bootstrap standard errors of its margin
    as slack, plus an absolute 1e-9: for fixed-norm systems every
    quantity is zero up to float epsilon, and the chain must hold with
    equality rather than fail on rounding noise.
    """
    check_budget(budget)
    # squared norms are exact for the +-1-valued systems; take sqrt after
    sq = squared_norms(spec, budget, as_rng(rng, "normvar"))
    n = spec.n
    root_n = math.sqrt(n)

    def stats(sample):
        var_norm = np.sqrt(sample).var(ddof=1)
        sq_dev = np.abs(sample / n - 1.0)
        sigma2 = root_n * sq_dev.mean()
        sigma4_sq = n * np.mean(np.square(sq_dev))
        return var_norm, sigma2, sigma4_sq

    def margins(sample):
        vn, s2, s4sq = stats(sample)
        return s4sq - vn, vn - 0.25 * s2 ** 2, s2 * root_n - vn

    var_norm, sigma2, sigma4_sq = stats(sq)
    ses = _bootstrap_se(sq, margins, as_rng(rng, "normvar_boot"))

    names = [
        ("var_norm_le_sigma4sq", "Var|X| <= sigma_4^2", var_norm, sigma4_sq),
        ("sigma2sq_quarter_le_var_norm", "sigma_2^2 / 4 <= Var|X|",
         0.25 * sigma2 ** 2, var_norm),
        ("var_norm_le_sigma2_rootn", "Var|X| <= sigma_2 sqrt(n)",
         var_norm, sigma2 * root_n),
    ]
    report = BoundCheckReport()
    for (name, statement, lhs, rhs), se in zip(names, ses):
        report.add(BoundCheck(
            name=name, statement=statement, lhs=float(lhs), rhs=float(rhs),
            slack=reports.SLACK_SE * se + 1e-9,
            spec_id=spec.spec_id, n=n, budget=budget,
        ))
    return report


@dataclass(frozen=True)
class SmallBallResult:
    empirical: float
    se: float
    bound: float
    bound_se: float

    @property
    def slack(self) -> float:
        return reports.SLACK_SE * (self.se + self.bound_se)

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + self.slack


def small_ball(spec: SystemSpec, budget: int = 20000, rng=0) -> SmallBallResult:
    """Empirical P{|X - Y|^2 <= n/4} against its moment bound.

    The bound 4^q m_q^q / n^(q/2) + 4^(2p) s_2p^(2p) / n^p at p = q = 2,
    that is 4^2 m_2^2 / n + 4^4 s_4^4 / n^2, evaluated from estimates on
    the same pair sample, the pairs of `_pair_blocks` (keys "sb_x", "sb_y").
    """
    check_budget(budget)
    n = spec.n
    diff2, ip, sq = np.empty(budget), np.empty(budget), np.empty(budget)
    for b, x, y in _pair_blocks(spec, budget, rng, ("sb_x", "sb_y")):
        diff2[b] = np.square(x - y).sum(axis=1)
        ip[b] = np.einsum("ij,ij->i", x, y)
        sq[b] = np.square(x).sum(axis=1)
    hits = diff2 <= n / 4.0
    emp = float(hits.mean())
    se = math.sqrt(emp * (1.0 - emp) / budget)

    ip2 = np.square(ip)
    # 4^2 m_2^2 / n = 16 E<X,Y>^2 / n^2
    term1 = 16.0 * ip2.mean() / n ** 2
    dev = np.square(sq / n - 1.0)
    # sigma_4^4 / n^2 = (E dev)^2 by the definition of sigma_4
    term2 = 256.0 * dev.mean() ** 2
    bound = float(term1 + term2)
    se_t1 = 16.0 * ip2.std(ddof=1) / math.sqrt(budget) / n ** 2
    se_t2 = 512.0 * dev.mean() * dev.std(ddof=1) / math.sqrt(budget)
    return SmallBallResult(empirical=emp, se=se, bound=bound,
                           bound_se=float(math.hypot(se_t1, se_t2)))


# ---------------------------------------------------------------------------
# Lower-tail bound for sums of nonnegative unit-mean variables
# ---------------------------------------------------------------------------

class TwoPointXi:
    """xi = 0 or 2 with probability 1/2 each; E xi 1{xi > k} = 1 for k < 2."""

    def tail_mean(self, kappa: float) -> float:
        return 1.0 if kappa < 2.0 else 0.0

    def sample_sum(self, n: int, size: int, rng) -> np.ndarray:
        gen = as_rng(rng)
        return 2.0 * gen.binomial(n, 0.5, size=size)


class ExponentialXi:
    """Standard exponential xi; E xi 1{xi > k} = (1 + k) e^(-k)."""

    def tail_mean(self, kappa: float) -> float:
        return (1.0 + kappa) * math.exp(-kappa)

    def sample_sum(self, n: int, size: int, rng) -> np.ndarray:
        gen = as_rng(rng)
        return gen.gamma(shape=float(n), scale=1.0, size=size)


@dataclass(frozen=True)
class LowerTailBound:
    lam: float
    kappa: float

    def bound(self, n: int) -> float:
        return math.exp(-(1.0 - self.lam) ** 2 * n / (8.0 * self.kappa))


def lower_tail_bound(xi, lam: float) -> LowerTailBound:
    """Smallest admissible truncation level kappa and the tail bound.

    kappa must satisfy E xi 1{xi > kappa} <= (1 - lam)/2.  A geometric
    grid kappa = 1e-3 * 2^k, k < 60, locates a bracket, then bisection
    refines to the minimal admissible level (smaller kappa gives a
    stronger bound exp(-(1-lam)^2 n / (8 kappa))).
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    if abs(xi.tail_mean(0.0) - 1.0) > 1e-9:
        raise DomainError("xi must be nonnegative with mean 1")
    target = (1.0 - lam) / 2.0
    lo, hi = 0.0, None
    kappa = 1e-3
    for _ in range(60):
        if xi.tail_mean(kappa) <= target:
            hi = kappa
            break
        lo = kappa
        kappa *= 2.0
    if hi is None:
        raise NumericKernelError(
            f"no admissible truncation level up to {kappa}; tail mean decays too slowly"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if xi.tail_mean(mid) <= target:
            hi = mid
        else:
            lo = mid
    return LowerTailBound(lam=lam, kappa=hi)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

@dataclass
class FunctionalsReport:
    spec_id: str
    n: int
    max_moments: dict = field(default_factory=dict)   # p -> MomentEstimate
    pair_moments: dict = field(default_factory=dict)  # p -> Estimate (m_p)
    norm_moments: dict = field(default_factory=dict)  # p -> Estimate (sigma_2p)
    var_norm: Estimate | None = None
    small_ball: SmallBallResult | None = None
    budget: int = 0
    seed: int = 0

    def csv_rows(self):
        header = ["spec_id", "functional", "p", "estimate", "se", "budget", "seed"]
        rows = []
        for p, est in sorted(self.max_moments.items()):
            rows.append([self.spec_id, "M_p", p, est.value, est.se, self.budget, self.seed])
        for p, est in sorted(self.pair_moments.items()):
            rows.append([self.spec_id, "m_p", p, est.value, est.se, self.budget, self.seed])
        for p, est in sorted(self.norm_moments.items()):
            rows.append([self.spec_id, "sigma_2p", p, est.value, est.se, self.budget, self.seed])
        if self.var_norm is not None:
            rows.append([self.spec_id, "var_norm", "", self.var_norm.value,
                         self.var_norm.se, self.budget, self.seed])
        if self.small_ball is not None:
            rows.append([self.spec_id, "small_ball", "", self.small_ball.empirical,
                         self.small_ball.se, self.budget, self.seed])
            rows.append([self.spec_id, "small_ball_bound", "", self.small_ball.bound,
                         self.small_ball.bound_se, self.budget, self.seed])
        return header, rows


def compute_functionals(spec: SystemSpec, p_values=(2.0, 3.0), budget: int = 20000,
                        seed: int = 0) -> FunctionalsReport:
    """One-stop report of all functionals for a spec."""
    for p in p_values:
        check_order(p)
    report = FunctionalsReport(spec_id=spec.spec_id, n=spec.n, budget=budget, seed=seed)
    for p in p_values:
        report.max_moments[p] = moment_Mp(spec, p, budget=budget,
                                          rng=make_rng(seed, "Mp", int(2 * p)))
        report.pair_moments[p] = moment_mp(spec, p, pairs=budget,
                                           rng=make_rng(seed, "mp", int(2 * p)))
    for p in (1.0, 1.5, 2.0):
        report.norm_moments[p] = sigma_2p(spec, p, budget=budget,
                                          rng=make_rng(seed, "s2p", int(2 * p)))
    norms = np.sqrt(squared_norms(spec, budget, make_rng(seed, "varnorm")))
    boot = make_rng(seed, "varnorm_boot")
    report.var_norm = Estimate(
        value=float(norms.var(ddof=1)),
        se=_bootstrap_se(norms, lambda s: s.var(ddof=1), boot),
    )
    report.small_ball = small_ball(spec, budget=budget, rng=make_rng(seed, "smallball"))
    return report
