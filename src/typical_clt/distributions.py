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

Mixtures with many atoms are evaluated through a compression of the
atoms into equal-width radius cells plus a dense lookup table; small
mixtures are evaluated exactly, which is what the distance-oracle checks
exercise.  The table keeps a cell count, up to a ceiling of
COMPRESS_ATOMS, whose certified bound (`MixtureCDF.table_bound`) on its
distance from the direct sum over all atoms is at most TABLE_TOL, and
one atom per non-empty cell.  Equal widths, not equal masses, because
the bound below is set by the sparse tails, where equal-mass bins are
wide.  Each compressed atom is the weighted mean radius of its bin, so
the first-order Taylor term in r cancels and

    sup_x |sum_i w_i K(x/r_i) - sum_b W_b K(x/rbar_b)|
        <= C_K / 2 * sum_b sum_(i in b) w_i (r_i - rbar_b)^2 / min_(i in b) r_i^2,

with C_K = sup_z |2 z k(z) + z^2 k'(z)| = sup_z |(z^2 k)'(z)| for the
kernel density k; the linear interpolation of the table adds
(dx)^2/8 sup|k'| / min r^2.  The sphere kernel of n < 5 has an
unbounded k', so its tables keep the ceiling count of cells and an
infinite bound.  Each kernel is evaluated through a cubic Hermite table:
the normal CDF's (`sphere_law.NormalCdfTable`, within 8e-17 of it) and
the closed-form sphere CDF's (`sphere_law.SphereCdfTable`, within
2.3e-12 at n = 4096).  The certified bound adds the kernel table's own
bound, so it holds against the direct sum with the exact kernel.

Both kernels are symmetric, so every scale mixture M of them has
M(-x) = 1 - M(x).  A lookup table sums the atoms only on the lower half
of its grid, linspace(-span, span, LUT_POINTS), and fills the upper half
as 1 - M at the mirrored points.
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
from .sphere_law import cdf_table, log_norm_const, normal_cdf_table, sample_direction
from .systems import SystemSpec, project, squared_norms

# E sup_x |F_N(x) - F(x)| ~ sqrt(pi/2) ln(2) / sqrt(N) for an N-sample
# empirical CDF of a continuous law.
NOISE_FLOOR_COEF = math.sqrt(math.pi / 2.0) * math.log(2.0)

EXACT_PRODUCT_LIMIT = 20_000_000
COMPRESS_ATOMS = 2048  # ceiling of a lookup table's atom count
TABLE_TOL = 1e-6       # certified sup distance of a table from its mixture
LUT_POINTS = 32768
GAUSSIAN_SPAN_FACTOR = 12.0


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

def equal_mass_starts(weights: np.ndarray, max_atoms: int) -> np.ndarray:
    """First index of each equal-weight bin of atoms in radius order."""
    if weights.size <= max_atoms:
        return np.arange(weights.size)
    cum = np.cumsum(weights)
    edges = np.searchsorted(cum, np.linspace(0.0, cum[-1], max_atoms + 1)[1:-1],
                            side="left")
    cuts = np.unique(edges + 1)
    return np.concatenate(([0], cuts[cuts < weights.size]))


def _equal_width_starts(r: np.ndarray, cells: int) -> np.ndarray:
    """First index of each non-empty one of `cells` equal-width cells of sorted r.

    With at least as many cells as atoms, every atom is its own bin.
    """
    if cells >= r.size:
        return np.arange(r.size)
    edges = np.linspace(r[0], r[-1], cells + 1)[1:-1]
    return np.unique(np.concatenate(([0], np.searchsorted(r, edges, side="left"))))


def compress_atoms(r: np.ndarray, w: np.ndarray, starts: np.ndarray):
    """Merge each bin of the atoms (r ascending, weights w) into one atom.

    Bin b holds the atoms from starts[b] up to the next start; its atom
    is the bin's weighted mean radius with the bin's total weight.  When
    every atom is its own bin, the atoms come back as they are.  Lookup
    tables, their certified bound and the typical cf all read this atom.
    """
    if starts.size == r.size:
        return r, w
    mass = np.add.reduceat(w, starts)
    return np.add.reduceat(w * r, starts) / mass, mass


def _kernel_constants(kernel: str, n: int | None) -> tuple[float, float]:
    """(C_K, sup|k'|) of a kernel with density k, C_K = sup_z |(z^2 k)'(z)|.

    r^2 |d^2/dr^2 K(x/r)| <= C_K bounds the compression error and
    sup|k'| the interpolation error of a mixture's table.  For the sphere
    kernel, (z^2 k)'(z) = c sqrt(n) g(u) with u = z^2/n and
    g(u) = sqrt(u) (1-u)^((n-5)/2) (2 - (n-1) u), whose interior critical
    points solve m(m-1) u^2 - (5m-6) u + 2 = 0, m = n - 1; at n = 5 the
    sup is the edge value |g(1)|.  For n < 5, k' is unbounded.
    """
    if kernel == "gaussian":
        z2 = 0.5 * (5.0 - math.sqrt(17.0))
        pdf = 1.0 / math.sqrt(2.0 * math.pi)
        return (pdf * math.sqrt(z2) * (2.0 - z2) * math.exp(-0.5 * z2),
                pdf * math.exp(-0.5))
    if n < 5:
        return math.inf, math.inf
    c = math.exp(log_norm_const(n))
    a, m = 0.5 * (n - 5), n - 1
    root = math.sqrt((5 * m - 6) ** 2 - 8 * m * (m - 1))
    crit = [(5 * m - 6 + s * root) / (2 * m * (m - 1)) for s in (-1.0, 1.0)] + [1.0]
    g = max(abs(math.sqrt(u) * (1.0 - u) ** a * (2.0 - m * u)) for u in crit if u <= 1.0)
    # |k'(z)| = c (n-3)/n z (1-u)^((n-5)/2), largest at u = 1/(n-4)
    u = 1.0 / (n - 4)
    return c * math.sqrt(n) * g, c * (n - 3) / n * math.sqrt(n * u) * (1.0 - u) ** a


def _compression_bound(r: np.ndarray, w: np.ndarray, starts: np.ndarray,
                      c_k: float) -> float:
    """Bound on the sup gap of the mixture (r, w) and its binned means.

    r sorted ascending; bin b holds the atoms from starts[b] up to the
    next start.  The first-order Taylor term cancels because each bin's
    atom sits at its weighted mean radius, that of `compress_atoms`.
    """
    mean, _ = compress_atoms(r, w, starts)
    dev = r - np.repeat(mean, np.diff(starts, append=r.size))
    spread = np.add.reduceat(w * np.square(dev), starts)
    return 0.5 * c_k * float(np.sum(spread / np.square(r[starts])))


@dataclass
class MixtureCDF:
    """Scale mixture E K(x / r) over radial atoms (r, weight)."""

    radii: np.ndarray
    weights: np.ndarray
    kernel: str                 # "gaussian" or "sphere"
    n: int | None = None        # sphere kernel dimension
    # set by the lookup-table build: its atom count and certified bound
    table_atoms: int | None = field(default=None, init=False, compare=False)
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
    def max_radius(self) -> float:
        return float(self.radii.max())

    @property
    def span(self) -> float:
        """|x| beyond which the CDF is 0/1 up to ~1e-33."""
        if self.kernel == "sphere":
            return math.sqrt(self.n) * self.max_radius
        return GAUSSIAN_SPAN_FACTOR * self.max_radius

    # -- evaluation ---------------------------------------------------------

    def _direct(self, x: np.ndarray, radii: np.ndarray, weights: np.ndarray) -> np.ndarray:
        table = self._kernel_table()
        return kernel_sum(lambda xs, r: table(xs / r), x, radii, weights)

    def _certified_count(self, r: np.ndarray, w: np.ndarray) -> tuple[int, float]:
        """A cell count whose table bound is <= TABLE_TOL, and that bound.

        r, w are the atoms in radius order.  Bisects on [1, COMPRESS_ATOMS]
        over equal-width cells; the bound is not monotone in the count, so
        the result is a certified count, not necessarily the fewest.  A
        mixture that no count certifies keeps the ceiling and reports its
        (larger or infinite) bound.
        """
        c_k, dk = _kernel_constants(self.kernel, self.n)
        cap = min(r.size, COMPRESS_ATOMS)
        if math.isinf(c_k):
            return cap, math.inf
        step = 2.0 * self.span / (LUT_POINTS - 1)
        # the linear table's interpolation term, and the kernel table's
        interp = step * step / 8.0 * dk / r[0] ** 2 + self._kernel_table().bound

        def bound(count: int) -> float:
            return _compression_bound(r, w, _equal_width_starts(r, count), c_k) + interp

        lo, hi = 1, cap
        if bound(hi) <= TABLE_TOL:
            while lo < hi:
                mid = (lo + hi) // 2
                if bound(mid) <= TABLE_TOL:
                    hi = mid
                else:
                    lo = mid + 1
        return hi, bound(hi)

    def _ensure_lut(self):
        if self._lut is None:
            order = np.argsort(self.radii)
            r, w = self.radii[order], self.weights[order]
            cells, self.table_bound = self._certified_count(r, w)
            r, w = compress_atoms(r, w, _equal_width_starts(r, cells))
            self.table_atoms = r.size
            w = w / w.sum()
            span = self.span
            grid = np.linspace(-span, span, LUT_POINTS)
            low = self._direct(grid[:LUT_POINTS // 2], r, w)
            self._lut = (grid, np.concatenate((low, 1.0 - low[::-1])))
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
            vals = self._direct(x, self.radii, self.weights)
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
        metadata.update(table_atoms=mix.table_atoms, table_bound=mix.table_bound)
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
