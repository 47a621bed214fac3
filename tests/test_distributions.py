import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from typical_clt import distributions as di
from typical_clt import quadrature
from typical_clt import systems as sy
from typical_clt.errors import ConfigurationError, DomainError, InsufficientDataError
from typical_clt.quadrature import kernel_sum
from typical_clt.rng import make_rng, master_seed
from typical_clt.sphere_law import normal_cdf_table


def spec_iid(base, n=16):
    return sy.SystemSpec(kind=base, n=n)


def _normalized(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


# Random CDFs for the property tests: empirical CDFs of scaled normal
# samples, and Gaussian mixtures with one to four positive radii.
step_cdfs = st.builds(
    lambda seed, size, scale: di.StepCDF.from_samples(
        scale * np.random.default_rng(seed).standard_normal(size)),
    st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(0.2, 3.0))
gaussian_mixtures = st.lists(
    st.tuples(st.floats(0.2, 3.0), st.floats(0.05, 1.0)), min_size=1, max_size=4,
).map(lambda atoms: di.gaussian_mixture_cdf(
    zip([r for r, _ in atoms], _normalized([w for _, w in atoms]))))


class TestStepCDF:
    def test_basic_steps(self):
        step = di.StepCDF.from_samples([1.0, 0.0, 1.0])
        assert step.cdf(-0.5) == 0.0
        assert step.cdf(0.0) == pytest.approx(1.0 / 3.0)
        assert step.cdf(0.5) == pytest.approx(1.0 / 3.0)
        assert step.cdf(1.0) == 1.0
        assert step.cdf(np.nextafter(1.0, 0.0)) == pytest.approx(1.0 / 3.0)

    def test_single_sample_unit_step(self):
        step = di.StepCDF.from_samples([5.0])
        assert step.cdf(4.999999) == 0.0
        assert step.cdf(5.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            di.StepCDF.from_samples([])

    def test_monotone_zero_one(self):
        rng = np.random.default_rng(0)
        step = di.StepCDF.from_samples(rng.standard_normal(500))
        xs = np.linspace(-5, 5, 1001)
        vals = step.cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_dkw_critical_value_frequency(self):
        # over 200 repetitions of 1e5 standard normal draws, the Kolmogorov
        # statistic stays below 1.36/sqrt(N) at least 95% of the time
        n = 100_000
        crit = 1.36 / math.sqrt(n)
        rng = np.random.default_rng(0)
        hits = 0
        i = np.arange(n)
        for _ in range(200):
            x = np.sort(rng.standard_normal(n))
            p = ndtr(x)
            d = max(((i + 1) / n - p).max(), (p - i / n).max())
            hits += d <= crit
        assert hits / 200 >= 0.95


class TestMixtureCDF:
    def test_weight_validation(self):
        with pytest.raises(DomainError):
            di.MixtureCDF(radii=np.array([1.0, 2.0]), weights=np.array([0.5, 0.6]),
                          kernel="gaussian")
        with pytest.raises(DomainError):
            di.MixtureCDF(radii=np.array([-1.0]), weights=np.array([1.0]),
                          kernel="gaussian")

    @pytest.mark.parametrize("radii, weights", [([np.nan], [1.0]), ([np.inf], [1.0]),
                                                ([1.0], [np.nan])],
                             ids=["radius-nan", "radius-inf", "weight-nan"])
    def test_non_finite_atom_rejected(self, radii, weights):
        # each was a nan CDF, or 0.5 at every x for an infinite radius
        with pytest.raises(DomainError):
            di.MixtureCDF(radii=radii, weights=weights, kernel="gaussian")

    def test_single_atom_is_normal(self):
        mix = di.standard_normal_cdf()
        for x in (-2.0, -0.3, 0.0, 1.7):
            assert mix.cdf(x) == pytest.approx(float(ndtr(x)), abs=1e-15)

    def test_two_atom_values(self):
        mix = di.gaussian_mixture_cdf([(0.5, 0.5), (1.5, 0.5)])
        assert mix.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # normal-CDF table oracle via erf: (Phi(2) + Phi(2/3)) / 2
        oracle = 0.5 * (0.5 * (1 + math.erf(2.0 / math.sqrt(2)))
                        + 0.5 * (1 + math.erf(2.0 / 3.0 / math.sqrt(2))))
        assert mix.cdf(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_zero_atom_step(self):
        # a zero radius would be a unit step at 0; mixtures are continuous
        for kernel, n in (("gaussian", None), ("sphere", 8)):
            with pytest.raises(DomainError):
                di.MixtureCDF(radii=np.array([0.0, 1.0]),
                              weights=np.array([0.25, 0.75]), kernel=kernel, n=n)

    def test_kernel_sum_independent_of_chunk(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, nodes, w = rng.normal(size=37), rng.uniform(0.5, 2.0, 11), rng.random(11)
        whole = ndtr(x[:, None] / nodes[None, :]) @ w
        for rows in (1, 5, 8, 37, 100):  # blocks of 1, 5, 8, 32 and 37 rows
            monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", rows * nodes.size)
            got = kernel_sum(lambda xs, r: ndtr(xs / r), x, nodes, w)
            assert np.allclose(got, whole, rtol=0.0, atol=1e-15), rows

    def test_lut_matches_direct(self):
        rng = np.random.default_rng(5)
        radii = rng.uniform(0.5, 1.5, 20_000)
        mix = di.MixtureCDF(radii=radii, weights=np.full(20_000, 5e-5),
                            kernel="gaussian")
        xs = np.linspace(-6, 6, 4001)
        # 4001 points x 20000 atoms take the table; a fifth of them sum directly
        assert xs.size * radii.size > di.EXACT_PRODUCT_LIMIT
        direct = np.concatenate([mix.cdf(part) for part in np.array_split(xs, 5)])
        assert np.abs(direct - mix.cdf(xs)).max() < 1e-6


class TestDepositLogRadii:
    def test_keeps_weight_and_mean_log_radius(self):
        rng = np.random.default_rng(3)
        r = np.sqrt(rng.chisquare(16, 10_000) / 16)
        w = np.full(r.size, 1e-4)
        low, mass = di.deposit_log_radii(r, w)
        log_nodes = (low + np.arange(mass.size)) * di.TABLE_LOG_STEP
        assert np.all(mass >= 0.0)
        assert mass.sum() == pytest.approx(w.sum(), abs=1e-14)
        assert mass @ log_nodes == pytest.approx(w @ np.log(r), abs=1e-14)

    def test_unit_atom_is_node_one(self):
        low, mass = di.deposit_log_radii(np.array([1.0]), np.array([1.0]))
        nodes = np.flatnonzero(mass)
        assert np.exp((low + nodes) * di.TABLE_LOG_STEP).tolist() == [1.0]
        assert mass[nodes].tolist() == [1.0]


def _midpoint_gap(mix, every=1):
    """Largest gap of the table from the direct sum over all atoms, read at
    the midpoints of the table's intervals, where linear interpolation errs
    most."""
    grid, lut = mix._ensure_lut()
    mid = 0.5 * (grid[1:] + grid[:-1])[::every]
    return float(np.abs(np.interp(mid, grid, lut) - mix._direct(mid)).max())


class TestTableBound:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(2000, 20_000),
           n=st.sampled_from([None, 5, 8, 16, 64, 256]))
    def test_bound_covers_table_gap(self, seed, atoms, n):
        # radii like |X|/sqrt(n)'s: root mean squares of n Gaussian coordinates
        # (of 16 for the Gaussian kernel)
        rng = np.random.default_rng(seed)
        dim = 16 if n is None else n
        mix = di.MixtureCDF(radii=np.sqrt(rng.chisquare(dim, atoms) / dim),
                            weights=np.full(atoms, 1.0 / atoms),
                            kernel="gaussian" if n is None else "sphere", n=n)
        assert _midpoint_gap(mix, every=64) <= mix.table_bound <= 1e-6

    def test_uniform_n16_certifies_few_atoms(self):
        mix = di.typical_cdf(spec_iid("uniform", 16), radial_budget=100_000)
        mix._ensure_lut()
        assert mix.table_bound <= 1e-6

    @pytest.mark.parametrize("kind, n, target", [
        ("normal", 8, "G"), ("exponential", 8, "G"), ("exponential", 16, "G"),
        *[("uniform", n, t) for n in (16, 32, 64, 128, 256) for t in ("F", "G")]])
    def test_catalog_tables_certify(self, kind, n, target):
        # the radial atoms of a sweep cell at seed 42
        seed = master_seed(make_rng(42, "sweep_n", n))
        mix = di.build_target(spec_iid(kind, n), target, 100_000, make_rng(seed, "radial"))
        mix._ensure_lut()
        assert mix.table_bound <= 1e-6

    @pytest.mark.parametrize("kind, n, target", [("exponential", 8, "G"),
                                                 ("uniform", 16, "F")])
    def test_table_within_bound_at_every_midpoint(self, kind, n, target):
        mix = di.build_target(spec_iid(kind, n), target, 2000, make_rng(42, "radial"))
        assert _midpoint_gap(mix) <= mix.table_bound

    def test_identical_radii_one_atom(self):
        # all weight on the two log-grid nodes around log 1.3; the bound is
        # the closed-form sum plus an FFT rounding term of ~1e-12
        mix = di.MixtureCDF(radii=np.full(5000, 1.3), weights=np.full(5000, 1.0 / 5000),
                            kernel="gaussian")
        g2, z2k, dk = di._kernel_constants("gaussian", None)
        step = di.TABLE_LOG_STEP
        closed = (step * step / 8.0 * g2 + math.expm1(step) ** 2 / 8.0 * z2k
                  + math.exp(-2.0 * di.TABLE_LOG_REACH) / 8.0 * dk + normal_cdf_table().bound)
        assert _midpoint_gap(mix, every=16) <= mix.table_bound
        assert 0.0 < mix.table_bound - closed <= 1e-11

    @pytest.mark.parametrize("kernel, n", [("gaussian", None), ("sphere", 16)])
    def test_table_halves_sum_to_one(self, kernel, n):
        # the upper half of the table is 1 minus the lower half, mirrored
        rng = np.random.default_rng(2)
        mix = di.MixtureCDF(radii=np.sqrt(rng.chisquare(16, 5000) / 16),
                            weights=np.full(5000, 1.0 / 5000), kernel=kernel, n=n)
        grid, lut = mix._ensure_lut()
        assert np.abs(lut + lut[::-1] - 1.0).max() <= 2.2e-16
        assert np.abs(grid + grid[::-1]).max() <= 4 * np.finfo(float).eps * mix.span

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unbounded_kernel_derivative_infinite_bound(self, n):
        # k' is unbounded for n < 5, so no bound is stated; the table still
        # holds within 1e-5 of the direct sum
        mix = di.typical_cdf(spec_iid("uniform", n), radial_budget=2000, rng=1)
        assert _midpoint_gap(mix) <= 1e-5
        assert mix.table_bound == math.inf

    @pytest.mark.parametrize("n", [None, 5, 6, 8, 16, 64, 256])
    def test_kernel_constants_match_dense_grid(self, n):
        # sup |z k + z^2 k'|, sup |z^2 k'| and sup |k'|, by finite differences
        from typical_clt.sphere_law import density, normal_pdf
        g2, z2k, dk = di._kernel_constants("gaussian" if n is None else "sphere", n)
        z = np.linspace(-1.0, 1.0, 400_001) * (12.0 if n is None else math.sqrt(n))
        k = normal_pdf(z) if n is None else density(n, z)
        dk_grid = np.gradient(k, z)
        assert g2 == pytest.approx(np.abs(z * k + z * z * dk_grid).max(), rel=1e-4)
        assert z2k == pytest.approx(np.abs(z * z * dk_grid).max(), rel=1e-4)
        assert dk == pytest.approx(np.abs(dk_grid).max(), rel=1e-4)

    def test_distance_reports_table(self):
        mix = di.typical_cdf(spec_iid("uniform", 64), radial_budget=20_000, rng=3)
        small = di.StepCDF.from_samples(np.random.default_rng(4).standard_normal(500))
        assert "table_bound" not in di.kolmogorov_distance(small, mix).metadata
        big = di.StepCDF.from_samples(np.random.default_rng(4).standard_normal(2000))
        meta = di.kolmogorov_distance(big, mix).metadata
        assert meta["table_bound"] == mix.table_bound <= 1e-6

    def test_radial_atoms_stream_rows(self):
        # a whole 100000 x 256 matrix and its square would take 410 MB
        tracemalloc.start()
        try:
            di.typical_cdf(spec_iid("uniform", 256), radial_budget=100_000, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestTypicalCDF:
    def test_fixed_norm_single_atom(self):
        for spec in (sy.SystemSpec(kind="trigonometric", n=64),
                      sy.SystemSpec(kind="walsh", n=63),
                      spec_iid("rademacher", 64)):
            mix = di.typical_cdf(spec, radial_budget=100, rng=1)
            assert mix.kernel == "sphere" and mix.n == spec.n
            assert np.array_equal(mix.radii, [1.0])

    def test_normal_mixture_symmetric(self):
        mix = di.typical_cdf(spec_iid("normal", 64), radial_budget=20_000, rng=2)
        assert mix.cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(50, 100),
           n=st.sampled_from([None, 8, 16, 64]))
    def test_monotone_on_grid(self, seed, atoms, n):
        # a Gaussian (n None) or sphere mixture with radii like |X|/sqrt(n)'s;
        # the dense grid takes the table path, its every 64th point the direct one
        rng = np.random.default_rng(seed)
        mix = di.MixtureCDF(radii=rng.uniform(0.5, 2.0, atoms),
                            weights=_normalized(rng.uniform(0.1, 1.0, atoms)),
                            kernel="gaussian" if n is None else "sphere", n=n)
        xs = np.linspace(-1.2 * mix.span, 1.2 * mix.span,
                         di.EXACT_PRODUCT_LIMIT // atoms + 1)
        table = mix.cdf(xs)
        direct = mix.cdf(xs[::64])
        for vals in (table, direct):
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
        assert np.abs(table[::64] - direct).max() < 1e-6


class TestKolmogorovDistance:
    def test_rademacher_vs_normal(self):
        step = di.StepCDF.from_samples([-1.0, 1.0])
        rep = di.kolmogorov_distance(step, di.standard_normal_cdf())
        assert rep.rho == pytest.approx(float(ndtr(1.0)) - 0.5, abs=1e-9)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            samples = rng.standard_normal(int(rng.integers(3, 50)))
            k = int(rng.integers(1, 6))
            radii = rng.uniform(0.3, 2.5, k)
            mix = di.MixtureCDF(radii=radii, weights=np.full(k, 1.0 / k),
                                kernel="gaussian")
            step = di.StepCDF.from_samples(samples)
            exact = di.kolmogorov_distance(step, mix).rho
            span = 10.0 * radii.max()
            grid = np.unique(np.concatenate([
                np.linspace(-span, span, 1_000_000),
                step.values, step.values - 1e-12]))
            brute = np.abs(step.cdf(grid) - mix.cdf(grid)).max()
            assert abs(exact - brute) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3000),
           spread=st.integers(0, 40))
    def test_step_mixture_exact_with_ties(self, seed, size, spread):
        # integer samples repeat; the distance equals the one read at the
        # distinct values through searchsorted, bit for bit
        samples = np.random.default_rng(seed).integers(-spread, spread + 1, size)
        step = di.StepCDF.from_samples(samples.astype(float))
        mix = di.gaussian_mixture_cdf([(0.7 * spread + 0.5, 0.4), (spread + 1.0, 0.6)])
        pts = np.unique(step.values)
        m = mix.cdf(pts)
        left = np.searchsorted(step.values, pts, side="left") / step.count
        d = np.maximum(np.abs(step.cdf(pts) - m), np.abs(left - m))
        i = int(np.argmax(d))
        report = di.kolmogorov_distance(step, mix)
        assert (report.rho, report.location) == (float(d[i]), float(pts[i]))
        assert report.metadata["points"] == pts.size

    @settings(max_examples=25, deadline=None)
    @given(step=step_cdfs, mix=gaussian_mixtures)
    def test_step_mixture_symmetric(self, step, mix):
        # either argument order gives the same report, bit for bit
        assert di.kolmogorov_distance(step, mix) == di.kolmogorov_distance(mix, step)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(200)
        mix = di.gaussian_mixture_cdf([(0.8, 0.5), (1.3, 0.5)])
        base = di.kolmogorov_distance(di.StepCDF.from_samples(samples), mix).rho
        for c in (0.1, 3.7):
            scaled_mix = di.gaussian_mixture_cdf([(0.8 * c, 0.5), (1.3 * c, 0.5)])
            scaled = di.kolmogorov_distance(
                di.StepCDF.from_samples(c * samples), scaled_mix).rho
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_type_dispatch(self):
        # only a step CDF and a mixture are compared, in either order
        step = di.StepCDF.from_samples([1.0])
        mix = di.standard_normal_cdf()
        for u, v in ((step, "not a cdf"), ("not a cdf", mix), (step, step), (mix, mix)):
            with pytest.raises(DomainError):
                di.kolmogorov_distance(u, v)


class TestMeanThetaDistance:
    def test_gaussian_is_pure_noise(self):
        res = di.mean_theta_distance(spec_iid("normal", 16), "phi",
                                     theta_budget=16, per_theta_budget=20_000,
                                     rng=3)
        assert 0.6 <= res.mean / res.noise_floor <= 1.5

    def test_trig_n64_magnitude(self):
        res = di.mean_theta_distance(sy.SystemSpec(kind="trigonometric", n=64),
                                     "phi", theta_budget=16,
                                     per_theta_budget=100_000, rng=3)
        assert res.mean <= 0.05

    def test_trig_decay_64_to_256(self):
        r64 = di.mean_theta_distance(sy.SystemSpec(kind="trigonometric", n=64),
                                     "phi", theta_budget=12,
                                     per_theta_budget=50_000, rng=5)
        r256 = di.mean_theta_distance(sy.SystemSpec(kind="trigonometric", n=256),
                                      "phi", theta_budget=12,
                                      per_theta_budget=50_000, rng=5)
        assert r256.mean < r64.mean - 2.0 * (r64.se + r256.se)

    def test_budget_validation(self):
        with pytest.raises(InsufficientDataError):
            di.mean_theta_distance(spec_iid("normal"), "phi", theta_budget=1)
        with pytest.raises(InsufficientDataError):
            di.mean_theta_distance(spec_iid("normal"), "phi", per_theta_budget=10)

    def test_target_validation(self):
        with pytest.raises(DomainError):
            di.mean_theta_distance(spec_iid("normal"), "H")

    def test_normalized_aniso_accepts_phi(self):
        # its eigenvalues sum to 63.999999999999886, n only up to rounding
        spec = sy.built_in_spec("aniso", 64)
        res = di.mean_theta_distance(spec, "phi", theta_budget=2,
                                     per_theta_budget=500, rng=3)
        assert 0.0 < res.mean < 1.0

    def test_threads_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            di.mean_theta_distance(spec_iid("normal", 8), "phi", theta_budget=2,
                                   per_theta_budget=500, threads=0)

    @pytest.fixture
    def table_builds(self, monkeypatch):
        # the list records the atom count of each lookup-table build
        builds = []
        original = di.MixtureCDF._build_lut

        def counting(self):
            builds.append(self.radii.size)
            return original(self)

        monkeypatch.setattr(di.MixtureCDF, "_build_lut", counting)
        return builds

    def test_table_built_once_when_read(self, table_builds):
        # 100 atoms x 320000 jump points per direction take the table path;
        # both pool threads read it, and one of them builds it
        assert 100 * 320_000 > di.EXACT_PRODUCT_LIMIT
        di.mean_theta_distance(spec_iid("uniform", 16), "G", theta_budget=4,
                               per_theta_budget=320_000, radial_budget=100,
                               rng=2, threads=2)
        assert table_builds == [100]

    def test_table_never_built_when_unread(self, table_builds):
        # 100 atoms x 1000 points are summed directly
        di.mean_theta_distance(spec_iid("uniform", 16), "G", theta_budget=4,
                               per_theta_budget=1000, radial_budget=100,
                               rng=2, threads=2)
        assert table_builds == []

    def test_pool_stress_many_cells(self):
        # more pool threads than cores and a short switch interval, so each
        # direction's wait on its cell's build is raced; a direction given
        # another cell's target changes the numbers, a wait that never ends
        # hangs
        cells = [(spec_iid("uniform", n), 40 + n) for n in (8, 9, 10, 11, 12, 13)]
        kw = dict(theta_budget=3, per_theta_budget=300, radial_budget=300)
        serial = di.mean_theta_distances(cells, "F", threads=1, **kw)
        pooled = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: pooled.extend(
                di.mean_theta_distances(cells, "F", threads=8, **kw)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert [r.per_theta.tolist() for r in pooled] == \
            [r.per_theta.tolist() for r in serial]

    def test_thread_determinism(self):
        spec = sy.SystemSpec(kind="trigonometric", n=16)
        r1 = di.mean_theta_distance(spec, "phi", theta_budget=6,
                                    per_theta_budget=2000, rng=7, threads=1)
        r8 = di.mean_theta_distance(spec, "phi", theta_budget=6,
                                    per_theta_budget=2000, rng=7, threads=8)
        assert np.array_equal(r1.per_theta, r8.per_theta)


class TestTypicalVsNormalBoundedness:
    def test_ratio_bounded_over_n(self):
        # rho(F, Phi) * sqrt(n) / (1 + sigma_2) stays bounded as n grows;
        # rho is the largest gap on a grid of spacing 1e-4 over [-10, 10]
        from typical_clt.functionals import sigma_2p
        xs = np.linspace(-10.0, 10.0, 200_001)
        ratios = {}
        for n in (16, 64, 256, 512):
            spec = spec_iid("uniform", n)
            mix = di.typical_cdf(spec, radial_budget=20_000, rng=6)
            rho = float(np.abs(mix.cdf(xs) - ndtr(xs)).max())
            sigma2 = sigma_2p(spec, 1.0, budget=20_000, rng=6).value
            ratios[n] = rho * math.sqrt(n) / (1.0 + sigma2)
        base = ratios[16]
        assert all(v <= 2.0 * base for v in ratios.values()), ratios
