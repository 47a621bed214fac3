"""Empirical and mixture CDFs, and the Kolmogorov distance between them.

The typical distribution of the weighted sums is represented as a scale
mixture: an average of kernel CDFs K(x / r) over radial atoms r > 0
with weights summing to one.  The kernel is either the standard normal
CDF or the sphere-coordinate CDF for a given dimension, so a mixture is
continuous.  Its atoms are r = |X|/sqrt(n), positive almost surely, or
the single atom r = 1 of a fixed-norm system.

The Kolmogorov distance is computed between a step CDF and a mixture,
the one pair every command compares.  It is exact: the sup is attained
at a jump of the step CDF, where both of its one-sided limits are
checked.

Mixtures with many atoms are read from a lookup table; small mixtures
are evaluated exactly, which is what the distance-oracle checks
exercise.  A scale mixture is a convolution in log scale (a Mellin
convolution): for x > 0, with s = log x,

    M(x) - 1/2 = sum_i w_i g(s - log r_i),    g(s) = K(e^s) - 1/2.

The table is built in one pass (`MixtureCDF._build_lut`): each atom's
weight is split linearly between the two nearest nodes of a log-radius
grid of step TABLE_LOG_STEP (cloud-in-cell deposition, `deposit_log_radii`,
which the typical cf shares; Hockney and Eastwood, Computer Simulation
Using Particles, 1981), g is sampled from the kernel's table on the same
step, and one real FFT convolves the two.  That gives M - 1/2 at the
geometric nodes x_i = e^(i step), from r_min e^-TABLE_LOG_REACH or below
up to span or above, where every kernel is 1.  Both kernels are
symmetric, so M(-x) = 1 - M(x): the table holds the nodes -x, 0 and x,
and `cdf` reads it by linear interpolation in x, which pays no log per
lookup.  Its distance from the mixture with the exact kernel is at most
`MixtureCDF.table_bound`, the sum of five terms, none of which depends
on r_min:

    deposition         step^2/8 sup|g''|,    g''(s) = z k(z) + z^2 k'(z), z = e^s;
    interpolation      (e^step - 1)^2/8 sup|z^2 k'(z)|   on the geometric nodes;
    first interval     e^(-2 REACH)/8 sup|k'|            on [0, x_0];
    the kernel table's own `bound`;
    FFT rounding       24 u log2(N) |g|_2,   u the unit roundoff, N the FFT size

for the kernel density k (`_kernel_constants`), the deposition term
that of `deposit_log_radii`.  The FFT term is Higham's bound for
the radix-2 FFT (Accuracy and Stability of Numerical Algorithms, 2nd
ed., 2002, ch. 24) carried through the two forward transforms, the
product and the inverse, with sum w_i = 1: about 1e-12, against a
rounding of 2e-16 to 3e-16 measured on 100k-atom catalog tables.  At
step 2^-10 the first two terms are 3.9e-8 and 5.5e-8 for the Gaussian
kernel and 1.8e-7 each for the sphere kernel of n = 5, its worst.  The
sphere kernel of n < 5 has an unbounded k', so its tables have an
infinite bound.  Each kernel is evaluated through a cubic Hermite
table: the normal CDF's (`sphere_law.NormalCdfTable`, within 8e-17 of
it and exactly 1 from PHI_TABLE_CLAMP on) and the closed-form sphere
CDF's (`sphere_law.SphereCdfTable`, within 2.3e-12 at n = 4096, and 1
up to rounding from sqrt(n) on).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (DIRECTION_FLOOR, DomainError, check_budget, check_dimension,
                     check_count)
from .quadrature import kernel_sum
from .rng import make_rng, master_seed
from .sphere_law import (PHI_TABLE_CLAMP, cdf_table, log_norm_const, normal_cdf_table,
                         sample_direction)
from .systems import SystemSpec, project, squared_norms

# E sup_x |F_N(x) - F(x)| ~ sqrt(pi/2) ln(2) / sqrt(N) for an N-sample
# empirical CDF of a continuous law.
NOISE_FLOOR_COEF = math.sqrt(math.pi / 2.0) * math.log(2.0)

EXACT_PRODUCT_LIMIT = 20_000_000
# A lookup table's step in log radius, and how far (in log x) its first
# node lies below the smallest radius
TABLE_LOG_STEP = 2.0 ** -10
TABLE_LOG_REACH = 10.0


def noise_floor(per_theta_budget: int) -> float:
    check_budget(per_theta_budget, name="per_theta_budget")
    return NOISE_FLOOR_COEF / math.sqrt(per_theta_budget)


# ---------------------------------------------------------------------------
# Step CDF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCDF:
    """Empirical CDF with sorted sample values; right-continuous."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "StepCDF":
        arr = np.sort(np.asarray(samples, dtype=float))
        # nan sorts last, so the two ends show any non-finite sample
        if arr.size == 0 or not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise DomainError("empirical CDF needs at least one sample, all finite")
        return cls(values=arr)

    @property
    def count(self) -> int:
        return self.values.size

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.values, x, side="right") / self.count


# ---------------------------------------------------------------------------
# Mixture CDF
# ---------------------------------------------------------------------------

def deposit_log_radii(radii: np.ndarray, weights: np.ndarray) -> tuple[int, np.ndarray]:
    """Cloud-in-cell deposition: mass[i] on the node e^((low + i) TABLE_LOG_STEP).

    Each atom's weight is split linearly between the two nodes around its
    log radius, which keeps the total weight and the mean log radius.
    """
    pos = np.log(radii) / TABLE_LOG_STEP
    j = np.floor(pos)
    frac = pos - j
    low = int(j.min())
    j = (j - low).astype(np.intp)
    size = int(j.max()) + 2
    return low, (np.bincount(j, weights * (1.0 - frac), size)
                 + np.bincount(j + 1, weights * frac, size))


def _kernel_constants(kernel: str, n: int | None) -> tuple[float, float, float]:
    """(sup|g''|, sup|z^2 k'(z)|, sup|k'|) of a kernel with density k.

    g''(s) = z k(z) + z^2 k'(z) at z = e^s is the second derivative of
    g(s) = K(e^s) - 1/2; the three bound a mixture table's deposition,
    interpolation and first-interval terms.  For the Gaussian kernel
    k' = -z k, so g'' = z (1 - z^2) k, extremal at z^2 = 2 -+ sqrt 3.  For
    the sphere kernel, g'' = c sqrt(n) h(u) with u = z^2/n and
    h(u) = sqrt(u) (1-u)^((n-5)/2) (1 - m u), m = n - 2, whose interior
    critical points solve m^2 u^2 - (4m-2) u + 1 = 0; at n = 5 the sup is
    the edge value |h(1)|.  For n < 5, k' is unbounded.
    """
    if kernel == "gaussian":
        pdf = 1.0 / math.sqrt(2.0 * math.pi)
        g2 = max(math.sqrt(z2) * abs(1.0 - z2) * math.exp(-0.5 * z2)
                 for z2 in (2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)))
        # z^3 k(z) peaks at z^2 = 3, |k'| = z k(z) at z = 1
        return pdf * g2, pdf * 3.0 ** 1.5 * math.exp(-1.5), pdf * math.exp(-0.5)
    if n < 5:
        return math.inf, math.inf, math.inf
    c = math.exp(log_norm_const(n))
    a, m = 0.5 * (n - 5), n - 2
    root = math.sqrt((3 * m - 1) * (m - 1))
    crit = [(2 * m - 1 + s * root) / (m * m) for s in (-1.0, 1.0)] + [1.0]
    h = max(abs(math.sqrt(u) * (1.0 - u) ** a * (1.0 - m * u)) for u in crit if u <= 1.0)
    # |z^2 k'(z)| = c (n-3) sqrt(n) u^(3/2) (1-u)^((n-5)/2), largest at u = 3/m;
    # |k'(z)| = c (n-3)/n z (1-u)^((n-5)/2), largest at u = 1/(n-4)
    u2, u1 = 3.0 / m, 1.0 / (n - 4)
    return (c * math.sqrt(n) * h,
            c * (n - 3) * math.sqrt(n) * u2 ** 1.5 * (1.0 - u2) ** a,
            c * (n - 3) / n * math.sqrt(n * u1) * (1.0 - u1) ** a)


@dataclass
class MixtureCDF:
    """Scale mixture E K(x / r) over radial atoms (r, weight)."""

    radii: np.ndarray
    weights: np.ndarray
    kernel: str                 # "gaussian" or "sphere"
    n: int | None = None        # sphere kernel dimension
    # set by the lookup-table build: its certified bound
    table_bound: float | None = field(default=None, init=False, compare=False)
    _lut: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.radii.shape != self.weights.shape or self.radii.ndim != 1:
            raise DomainError("radii and weights must be 1-d arrays of equal length")
        if not np.all((self.radii > 0.0) & (self.radii < math.inf)):
            raise DomainError("radial atoms must be positive and finite")
        if not np.all((self.weights > 0.0) & (self.weights < math.inf)):
            raise DomainError("atom weights must be positive and finite")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom weights must sum to 1, got {total!r}")
        self.weights = self.weights / total
        if self.kernel not in ("gaussian", "sphere"):
            raise DomainError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "sphere":
            self.n = check_dimension(self.n)

    # -- kernel primitives --------------------------------------------------

    def _kernel_table(self):
        """The kernel CDF's Hermite table, which carries its own `bound`."""
        return normal_cdf_table() if self.kernel == "gaussian" else cdf_table(self.n)

    @property
    def _reach(self) -> float:
        """|z| from which the kernel table reads 0 or 1."""
        return math.sqrt(self.n) if self.kernel == "sphere" else PHI_TABLE_CLAMP

    @property
    def span(self) -> float:
        """|x| from which the kernel table reads 0 or 1 at every atom."""
        return self._reach * float(self.radii.max())

    # -- evaluation ---------------------------------------------------------

    def _direct(self, x: np.ndarray) -> np.ndarray:
        table = self._kernel_table()
        return kernel_sum(lambda xs, r: table(xs / r), x, self.radii, self.weights)

    def _build_lut(self) -> tuple[np.ndarray, np.ndarray]:
        """The lookup table (grid, values) of the module docstring; sets table_bound.

        Nodes are the integer multiples of the step in log radius, so the
        nodes j of `deposit_log_radii`, the table's nodes i and g's samples
        at i - j share one grid.  The output nodes need g only at offsets
        that the deposited nodes reach without wrapping around, so the FFT
        size is the sample count of g, not the full convolution's length.
        """
        step = TABLE_LOG_STEP
        low, mass = deposit_log_radii(self.radii, self.weights)
        size = mass.size
        # output nodes from x_0 <= r_min e^-REACH to past span at the top node
        first = low - round(TABLE_LOG_REACH / step)
        last = low + size - 1 + math.ceil(math.log(self._reach) / step)
        count = last - first + 1
        table = self._kernel_table()
        g = table(np.exp(np.arange(first - low - size + 1, last - low + 1) * step)) - 0.5
        fft_size = 1 << (g.size - 1).bit_length()
        out = np.fft.irfft(np.fft.rfft(mass, fft_size) * np.fft.rfft(g, fft_size),
                           fft_size)[size - 1:size - 1 + count]
        np.clip(out, -0.5, 0.5, out=out)  # keeps FFT rounding (~2e-16) inside [0, 1]
        g2, z2k, dk = _kernel_constants(self.kernel, self.n)
        unit = np.finfo(float).eps / 2.0
        self.table_bound = (step * step / 8.0 * g2 + math.expm1(step) ** 2 / 8.0 * z2k
                            + math.exp(-2.0 * TABLE_LOG_REACH) / 8.0 * dk + table.bound
                            + 24.0 * unit * math.log2(fft_size) * float(np.linalg.norm(g)))
        x = np.exp(np.arange(first, last + 1) * step)
        return (np.concatenate((-x[::-1], [0.0], x)),
                np.concatenate((0.5 - out[::-1], [0.5], 0.5 + out)))

    def _ensure_lut(self):
        if self._lut is None:
            self._lut = self._build_lut()
        return self._lut

    def tabulates(self, points: int) -> bool:
        """Whether `cdf` reads `points` points from the lookup table."""
        return points * self.radii.size > EXACT_PRODUCT_LIMIT

    def cdf(self, x):
        """Mixture CDF at x (scalar or array).

        Direct summation over all atoms when atoms * points is small, the
        lookup table (built on first use) otherwise.
        """
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.tabulates(x.size):
            vals = self._direct(x)
        else:
            grid, lut = self._ensure_lut()
            vals = np.interp(x, grid, lut, left=0.0, right=float(self.weights.sum()))
        return float(vals[0]) if scalar else vals


def gaussian_mixture_cdf(atoms) -> MixtureCDF:
    """Mixture of centered Gaussians: atoms is a sequence of (r, weight)."""
    atoms = list(atoms)
    radii = np.array([a[0] for a in atoms], dtype=float)
    weights = np.array([a[1] for a in atoms], dtype=float)
    return MixtureCDF(radii=radii, weights=weights, kernel="gaussian")


def radial_atoms(spec: SystemSpec, radial_budget: int, rng):
    """Atoms r = |X|/sqrt(n) of `radial_budget` draws, each of weight 1/N.

    Fixed-norm systems give the single atom r = 1 exactly, whatever the budget.
    """
    if spec.is_fixed_norm:
        return np.array([1.0]), np.array([1.0])
    check_budget(radial_budget, name="radial_budget")
    r = np.sqrt(squared_norms(spec, radial_budget, rng)) / math.sqrt(spec.n)
    return r, np.full(r.size, 1.0 / r.size)


def typical_cdf(spec: SystemSpec, radial_budget: int = 100_000, rng=0) -> MixtureCDF:
    """Typical distribution F as a sphere-kernel mixture over r = |X|/sqrt(n)."""
    r, w = radial_atoms(spec, radial_budget, rng)
    return MixtureCDF(radii=r, weights=w, kernel="sphere", n=spec.n)


def standard_normal_cdf() -> MixtureCDF:
    return gaussian_mixture_cdf([(1.0, 1.0)])


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceReport:
    rho: float
    location: float
    metadata: dict = field(default_factory=dict)


def kolmogorov_distance(u, v) -> DistanceReport:
    """sup-norm distance between a step CDF and a mixture, in either order."""
    step, mix = (v, u) if isinstance(u, MixtureCDF) else (u, v)
    if not (isinstance(step, StepCDF) and isinstance(mix, MixtureCDF)):
        raise DomainError(f"cannot compare {type(u).__name__} with {type(v).__name__}")
    # the jump points are the distinct sorted values; at the i-th one,
    # F(x-) = counts[i] counts the values before it and F(x) = counts[i + 1]
    x = step.values
    is_first = np.concatenate(([True], x[1:] != x[:-1]))
    pts = x[is_first]
    m = mix.cdf(pts)  # continuous: one value serves both one-sided limits
    counts = np.append(np.flatnonzero(is_first), x.size) / step.count
    # as F(x-) <= F(x), max(|F(x) - m|, |F(x-) - m|) = max(F(x) - m, m - F(x-))
    d = counts[1:] - m
    np.maximum(d, m - counts[:-1], out=d)
    i = int(np.argmax(d))
    metadata = {"points": pts.size}
    if mix.tabulates(pts.size):
        metadata.update(table_bound=mix.table_bound)
    return DistanceReport(rho=float(d[i]), location=float(pts[i]), metadata=metadata)


# ---------------------------------------------------------------------------
# Mean Kolmogorov distance over random directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanThetaDistance:
    mean: float
    se: float
    per_theta: np.ndarray
    noise_floor: float
    spec_id: str
    n: int
    target: str
    theta_budget: int
    per_theta_budget: int
    radial_budget: int
    seed: int


def build_target(spec: SystemSpec, target: str, radial_budget: int, rng) -> MixtureCDF:
    if target == "phi":
        return standard_normal_cdf()
    if target == "F":
        return typical_cdf(spec, radial_budget, rng)
    if target == "G":  # law of r Z with Z standard normal
        r, w = radial_atoms(spec, radial_budget, rng)
        return MixtureCDF(radii=r, weights=w, kernel="gaussian")
    raise DomainError(f"unknown target {target!r}; expected one of phi, F, G")


def mean_theta_distances(
    cells,
    target: str = "phi",
    theta_budget: int = 64,
    per_theta_budget: int = 100_000,
    radial_budget: int = 100_000,
    threads: int = 1,
) -> list[MeanThetaDistance]:
    """`mean_theta_distance` of each (spec, rng) in `cells`, in one ordered pool.

    The pool's tasks start in submission order: each cell's target build
    (with its lookup table, when the directions read one) is queued one
    cell ahead of the directions that read it, so the next table is built
    while these directions draw.  A direction draws and sorts its sample,
    then waits for its target; as its build started first, the wait ends.
    Only a cell's directions hold its build's future, so a target lives only
    while its cell is in flight: at one thread, two at a time (the one
    read and the next).  A failed task fails the call: its exception is
    raised and the tasks not yet started are cancelled.  Every task seeds
    itself from its cell's keys, so the results do not depend on `threads`.
    Each pool thread runs as many BLAS threads as were fixed when numpy
    loaded: set the BLAS variables before importing numpy (the CLI does).
    """
    check_count(threads, "threads")
    check_budget(theta_budget, DIRECTION_FLOOR, "theta_budget")
    check_budget(per_theta_budget, name="per_theta_budget")
    cells = list(cells)
    specs = [spec for spec, _ in cells]
    masters = [master_seed(rng) for _, rng in cells]

    def build(k: int) -> MixtureCDF:
        mix = build_target(specs[k], target, radial_budget, make_rng(masters[k], "radial"))
        # a direction's step CDF has at most per_theta_budget jump points,
        # so the table is read only if this builds it, before any reader
        if mix.tabulates(per_theta_budget):
            mix._ensure_lut()
        return mix

    def one_theta(task) -> float:
        k, j, target_future = task
        theta = sample_direction(specs[k].n, make_rng(masters[k], "theta", j))
        step = StepCDF.from_samples(
            project(specs[k], theta, per_theta_budget, make_rng(masters[k], "batch", j)))
        return kolmogorov_distance(step, target_future.result()).rho

    # perfbench/tracer.py replaces this module's ThreadPoolExecutor to
    # charge pool work to the span that submitted it
    with ThreadPoolExecutor(max_workers=min(threads, theta_budget)) as pool:
        def tasks():
            builds = []
            for k in range(len(specs) + 1):
                if k < len(specs):
                    builds.append(pool.submit(build, k))
                if k > 0:
                    yield from ((k - 1, j, builds[k - 1]) for j in range(theta_budget))

        try:
            rhos = np.array(list(pool.map(one_theta, tasks())))
        except BaseException:
            # map cancels its own tasks; this also cancels the queued builds
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    per_theta = rhos.reshape(len(specs), theta_budget)
    return [MeanThetaDistance(
        mean=float(rho.mean()),
        se=float(rho.std(ddof=1) / math.sqrt(theta_budget)),
        per_theta=rho,
        noise_floor=noise_floor(per_theta_budget),
        spec_id=spec.spec_id,
        n=spec.n,
        target=target,
        theta_budget=theta_budget,
        per_theta_budget=per_theta_budget,
        radial_budget=radial_budget,
        seed=master,
    ) for spec, master, rho in zip(specs, masters, per_theta)]


def mean_theta_distance(
    spec: SystemSpec,
    target: str = "phi",
    theta_budget: int = 64,
    per_theta_budget: int = 100_000,
    rng=0,
    radial_budget: int = 100_000,
    threads: int = 1,
) -> MeanThetaDistance:
    """Mean over random directions of rho(empirical F_theta, target CDF).

    Draws `theta_budget` directions; for each, builds a step CDF of
    `per_theta_budget` fresh values of the weighted sum (from
    `systems.project`, which forms no sample matrix for trigonometric and
    Walsh systems) and measures the exact Kolmogorov distance to the
    target.  Nothing is subtracted from the estimates; the empirical-CDF
    noise floor is reported alongside.  The one-cell case of
    `mean_theta_distances`.
    """
    return mean_theta_distances([(spec, rng)], target, theta_budget=theta_budget,
                                per_theta_budget=per_theta_budget,
                                radial_budget=radial_budget, threads=threads)[0]
