import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betainc, hyp0f1, j0, ndtr

from typical_clt import sphere_law as sl
from typical_clt.errors import DomainError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestNormConst:
    # the normalizing constant c is the density at the center, density(n, 0)

    def test_n3_uniform_law(self):
        # Z_3 is uniform on [-sqrt(3), sqrt(3)]: constant density 1/(2 sqrt 3)
        assert sl.density(3, 0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(3)), abs=1e-15)

    def test_limit(self):
        assert abs(sl.density(1000, 0.0) - INV_SQRT_2PI) < 0.01

    def test_bounded_and_monotone(self):
        vals = [float(sl.density(n, 0.0)) for n in range(2, 1025)]
        assert all(v < INV_SQRT_2PI for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sl.density(1, 0.0)


class TestDensity:
    def test_n3_constant(self):
        assert sl.density(3, 0.5) == pytest.approx(1.0 / (2.0 * math.sqrt(3)), abs=1e-15)

    def test_center_equals_norm_const(self):
        assert sl.density(100, 0.0) == np.exp(sl.log_norm_const(100))

    def test_boundary_zero(self):
        assert sl.density(5, math.sqrt(5)) == 0.0
        assert sl.density(5, -10.0) == 0.0

    @given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
    def test_even(self, x):
        assert sl.density(64, x) == sl.density(64, -x)

    def test_no_underflow_near_boundary(self):
        x = math.sqrt(1024) * (1 - 1e-12)
        val = sl.density(1024, x)
        assert 0.0 <= val < 1.0

    @pytest.mark.parametrize("n", [3, 4, 7, 64, 501, 1024])
    def test_normalization_spot(self, n):
        root = math.sqrt(n)
        total, _ = quad(lambda x: sl.density(n, x), -root, root,
                        epsabs=1e-13, limit=200, points=[0.0])
        assert abs(total - 1.0) < 1e-10

    def test_normalization_full_range(self):
        # every dimension in 3..1024 integrates to 1 within 1e-10
        for n in range(3, 1025):
            root = math.sqrt(n)
            half, _ = quad(lambda x: sl.density(n, x), 0.0, root,
                           epsabs=1e-13, limit=200)
            assert abs(2.0 * half - 1.0) < 1e-10, n

    def test_uniform_envelope_bound(self):
        # (1 - x^2/n)_+^((n-3)/2) <= exp(-x^2/8) holds for n >= 4
        # (at n = 3 the left side is 1 on the whole support)
        for n in (4, 8, 64, 1024):
            x = np.linspace(-math.sqrt(n), math.sqrt(n), 4097)
            p = sl.density(n, x) / sl.density(n, 0.0)
            assert np.all(p <= np.exp(-np.square(x) / 8.0) + 1e-15), n


class TestCdf:
    def test_half_at_zero(self):
        assert sl.cdf(17, 0.0) == 0.5

    def test_n3_uniform_oracle(self):
        assert sl.cdf(3, 1.0) == pytest.approx((1 + 1 / math.sqrt(3)) / 2, abs=1e-12)

    def test_saturation(self):
        assert sl.cdf(50, 10.0) == 1.0
        assert sl.cdf(50, -10.0) == 0.0

    def test_n2_arcsine_oracle(self):
        # n = 2: cdf(x) = 1/2 + asin(x / sqrt 2) / pi
        for x in (-1.2, -0.3, 0.7, 1.0):
            expect = 0.5 + math.asin(x / math.sqrt(2)) / math.pi
            assert sl.cdf(2, x) == pytest.approx(expect, abs=1e-10)

    def test_symmetry_exact(self):
        for x in np.linspace(0.1, 2.9, 13):
            assert sl.cdf(9, x) + sl.cdf(9, -x) == 1.0

    def test_nondecreasing(self):
        xs = np.linspace(-3.0, 3.0, 101)
        vals = [sl.cdf(6, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_closed_form_matches_quadrature(self):
        for n in (4, 16, 64, 256):
            for x in (-2.5, -0.7, 0.3, 1.9):
                mass, _ = quad(lambda y: sl.density(n, y), 0.0, abs(x),
                               epsabs=1e-14, limit=200)
                assert sl.cdf(n, x) == pytest.approx(0.5 + math.copysign(mass, x),
                                                     abs=1e-12), (n, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 64, 256, 600, 1024, 4096])
    def test_table_within_bound(self, n):
        # at every interval midpoint, on both sides, within the table's
        # Hermite bound plus a few ulps; the closed form takes the angle
        # the table computes, since at n = 2 the CDF in x has an infinite
        # slope at the support edge
        table = sl.cdf_table(n)
        u = np.linspace(0.0, math.pi / 2.0, sl.CDF_TABLE_KNOTS)
        root = math.sqrt(n)
        xs = root * np.sin(0.5 * (u[1:] + u[:-1]))
        half = sl._beta_half_mass(n, np.arcsin(xs / root))
        tol = table.bound + 4 * np.finfo(float).eps
        assert np.abs(table(xs) - 0.5 - half).max() <= tol
        assert np.abs(0.5 - table(-xs) - half).max() <= tol

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 64, 256, 600, 1024, 4096])
    def test_closed_form_is_betainc(self, n):
        # the reduction formula against scipy's betainc at every table knot.
        # x = sin^2 u rounds near 1, where I_x(1/2, b) is ill-conditioned, so
        # there the oracle is 1 - I_(1-x)(b, 1/2) with 1 - x = cos^2 u
        u = np.linspace(0.0, math.pi / 2.0, sl.CDF_TABLE_KNOTS)
        sin2, cos2 = np.square(np.sin(u)), np.square(np.cos(u))
        a, b = 0.5, 0.5 * (n - 1)
        oracle = 0.5 * np.where(sin2 <= 0.5, betainc(a, b, sin2),
                                1.0 - betainc(b, a, cos2))
        half = sl._beta_half_mass(n, u)
        assert np.abs(half - oracle).max() <= (1e-14 if n <= 1024 else 5e-14)
        assert half.max() == half[-1] == 0.5
        root = math.sqrt(n)
        assert sl.cdf(n, root) == 1.0 and sl.cdf(n, -root) == 0.0

    def test_table_ends_and_nan(self):
        # 0 and 1 at and beyond the support, 1/2 at 0 of either sign, nan kept
        table = sl.cdf_table(5)
        root = math.sqrt(5)
        xs = np.array([-2.0 * root, -root, -0.0, 0.0, root, 2.0 * root, np.nan])
        assert np.array_equal(table(xs), [0.0, 0.0, 0.5, 0.5, 1.0, 1.0, np.nan],
                              equal_nan=True)

    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_closed_form_keeps_nan(self, n):
        # as the table does: the half mass's cap at 1/2 must not drop a nan
        assert math.isnan(sl.cdf(n, math.nan))


class TestNormalCdfTable:
    def test_within_bound_of_ndtr(self):
        # at every interval midpoint of [0, 9], on both sides, within the
        # table's Hermite bound plus one rounding of a value near 1
        table = sl.normal_cdf_table()
        mid = (np.arange(round(sl.PHI_TABLE_CLAMP / sl.PHI_TABLE_STEP)) + 0.5) * sl.PHI_TABLE_STEP
        xs = np.concatenate([mid, -mid])
        assert np.abs(table(xs) - ndtr(xs)).max() <= table.bound + 2.2e-16

    def test_exact_ends_and_nan(self):
        # Phi(-9.5) = 1e-21 is below a rounding of 1, so past the last knot
        # the table gives exactly 0 or 1, never nan; nan stays nan, as in ndtr
        far = np.array([9.5, 40.0, 1e300, np.inf])
        table = sl.normal_cdf_table()
        assert np.array_equal(table(far), np.ones(4))
        assert np.array_equal(table(-far), np.zeros(4))
        assert math.isnan(float(table(math.nan)))

    def test_symmetric(self):
        table = sl.normal_cdf_table()
        xs = np.linspace(-12.0, 12.0, 100_001)
        assert np.abs(table(-xs) + table(xs) - 1.0).max() <= 2.2e-16


@pytest.mark.parametrize("half, top", [
    (lambda: sl.normal_cdf_table()._half, sl.PHI_TABLE_CLAMP),
    (lambda: sl.cdf_table(64)._half, math.pi / 2.0),
], ids=["normal", "sphere64"])
def test_hermite_in_place_horner_is_the_expression(half, top):
    # the in-place Horner steps round exactly as the nested expression
    table = half()
    t = np.random.default_rng(5).uniform(0.0, top, 65536)
    j = np.fmin(t * (1.0 / table.step), table._last).astype(np.intp)
    s = t - j * table.step
    c0, c1, c2, c3 = table._coef
    assert np.array_equal(table(t), c0[j] + s * (c1[j] + s * (c2[j] + s * c3[j])))


class TestSampleDirection:
    def test_unit_norm(self):
        for seed in range(5):
            theta = sl.sample_direction(12, seed)
            assert abs(np.dot(theta.coords, theta.coords) - 1.0) <= 1e-12

    def test_deterministic(self):
        a = sl.sample_direction(6, 123)
        b = sl.sample_direction(6, 123)
        assert np.array_equal(a.coords, b.coords)

    def test_first_coordinate_moments(self):
        rng = np.random.default_rng(7)
        draws = np.array([sl.sample_direction(8, rng).coords for _ in range(100_000)])
        first = draws[:, 0]
        assert abs(first.mean()) <= 3.0 / math.sqrt(8 * 100_000)
        # E theta_1^2 = 1/n
        assert abs(first.var() - 1.0 / 8.0) <= 0.05 / 8.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sl.sample_direction(1, 0)


class TestCharfnJn:
    def test_at_zero(self):
        assert sl.charfn_Jn_grid(10, [0.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_n3_closed_form(self):
        # J_3(t) = sin(t)/t for the uniform coordinate on [-1, 1]
        t = np.array([0.5, 2.0, 7.3])
        assert np.abs(sl.charfn_Jn_grid(3, t) - np.sin(t) / t).max() <= 1e-10

    def test_n2_bessel_oracle(self):
        t = np.array([0.7, 5.0, 23.0])
        assert np.abs(sl.charfn_Jn_grid(2, t) - j0(t)).max() <= 1e-10

    def test_even_and_bounded(self):
        t = np.array([0.3, 1.7, 9.2])
        assert np.array_equal(sl.charfn_Jn_grid(12, t), sl.charfn_Jn_grid(12, -t))
        t = np.linspace(0.0, 40.0, 300)
        assert np.abs(sl.charfn_Jn_grid(12, t)).max() <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           s_max=st.floats(0.1, 200.0))
    def test_bounded_property(self, n, seed, s_max):
        s = np.random.default_rng(seed).uniform(-s_max, s_max, 64)
        assert np.abs(sl.charfn_Jn_grid(n, s)).max() <= 1.0 + 1e-12

    def test_gaussian_limit_at_unit_scale(self):
        rep = sl.gap_report(n_grid=(64,), reference_n=64)
        k64 = next(c.extra["scaled_gap"] / 64 for c in rep.checks
                   if c.name == "cf_gap_rate" and c.n == 64)
        val = sl.charfn_Jn_grid(64, [math.sqrt(64) * 1.0])[0]
        assert abs(val - math.exp(-0.5)) <= k64 + 1e-12

    def test_fourier_consistency_with_density(self):
        # J_n(t sqrt n) equals the cosine transform of the density
        for n in (3, 8, 64):
            root = math.sqrt(n)
            x = np.linspace(-root, root, 2 ** 18 + 1)
            dens = sl.density(n, x)
            t = np.array([0.5, 3.0, 11.0, 20.0])
            jn = sl.charfn_Jn_grid(n, t * root)
            for tt, val in zip(t, jn):
                ft = np.trapezoid(np.cos(tt * x) * dens, x)
                assert abs(val - ft) < 1e-6, (n, tt)

    def test_table_matches_direct(self):
        # at every interval midpoint, within the table's bound (its Hermite
        # and quadrature terms) plus the reference quadrature's tolerance;
        # asked for s = 1000, past every envelope cutoff here (493 at
        # n = 13), each table runs to its envelope cutoff
        for n in (13, 16, 48, 64, 256):
            table = sl.jn_table(n, 1000.0)
            knots = np.arange(0.0, table.cut + sl.JN_TABLE_STEP, sl.JN_TABLE_STEP)
            mid = 0.5 * (knots[1:] + knots[:-1])
            err = np.abs(table(mid) - sl.charfn_Jn_grid(n, mid)).max()
            assert err <= table.bound + sl.JN_GRID_TOL, n
        assert table(table.cut + 1.0) == 0.0

    def test_table_spans_the_arguments_asked_for(self):
        # J_13's envelope reaches 1e-12 only at s = 493; a table asked for
        # s <= 53 stops at the first candidate cutoff past it, 8 sqrt(13)
        # 1.5^2 = 64.9, and reads nan beyond, not a false 0.  Any argument
        # up to that cutoff reads the same cached table.
        table = sl.jn_table(13, 53.0)
        assert 64.8 < table.cut < 64.9 + sl.JN_TABLE_STEP
        assert math.isnan(table(table.cut + 1.0))
        assert sl.jn_table(13, 44.0) is table and sl.jn_table(13, 64.8) is table
        assert sl.jn_table(13, 66.0) is not table

    def test_one_table_per_cutoff_reached(self):
        # J_64's envelope is below 1e-12 past the first candidate, 64, so
        # tables asked for 80, 101.4 and 150 (reach 1, 2, 3) all stop there
        table = sl.jn_table(64, 80.0)
        assert sl.jn_table(64, 101.4) is table and sl.jn_table(64, 150.0) is table
        assert table.cut == 64.0 and table(table.cut + 1.0) == 0.0
        s = np.linspace(0.0, 70.0, 2001)
        for reach in (1, 2, 3):
            assert np.array_equal(table(s), sl.JnTable(64, reach)(s))

    def test_one_stop_probe_per_new_table(self, monkeypatch):
        # a new table probes its cutoffs once (reach 1 took two probes, reach
        # 3, past the stop, three); a new reach of a built table probes once
        # and builds nothing, and a reach asked before does not probe
        def clear_caches():
            sl._jn_table.cache_clear()
            sl._jn_stopped.cache_clear()

        calls = []
        stop = sl._jn_stop
        monkeypatch.setattr(sl, "_jn_stop", lambda n, reach: calls.append(reach) or stop(n, reach))
        clear_caches()
        table = sl.jn_table(64, 150.0)
        assert calls == [3]
        assert sl.jn_table(64, 150.0) is table and calls == [3]
        assert sl.jn_table(64, 80.0) is table and calls == [3, 1]
        clear_caches()
        assert sl.jn_table(64, 80.0) is not table and calls == [3, 1, 1]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_bulk_evaluator_small_n(self, n):
        # every n is a table; up to s = 60 no envelope of n <= 12 falls
        # below 1e-12, so those tables run to the first cutoff past 60
        s = np.linspace(0.0, 60.0, 301)
        bulk = sl.jn_table(n, 60.0)(s)
        assert bulk[0] == 1.0
        assert np.abs(bulk - sl.charfn_Jn_grid(n, s)).max() < 1e-9

    @pytest.mark.parametrize("n, s_max", [*((n, 60.0) for n in range(2, 13)), (2, 200.0)])
    def test_small_n_table_matches_closed_form(self, n, s_max):
        # J_n(s) = 0F1(; n/2; -s^2/4), scipy's hyp0f1 as an oracle, at every
        # knot and interval midpoint up to s_max, within the table's bound
        table = sl.jn_table(n, s_max)
        assert math.isnan(table(table.cut + 1.0))
        s = np.arange(0.0, s_max, 0.5 * sl.JN_TABLE_STEP)
        err = np.abs(table(s) - hyp0f1(0.5 * n, -0.25 * np.square(s))).max()
        assert err <= table.bound, (n, err, table.bound)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("max_arg", [math.nan, math.inf])
    def test_non_finite_argument_rejected(self, n, max_arg):
        with pytest.raises(DomainError):
            sl.jn_table(n, max_arg)


@pytest.fixture(scope="module")
def report():
    return sl.gap_report()


class TestGapReport:

    def test_all_envelope_checks_pass(self, report):
        env = [c for c in report.checks if c.name == "cf_envelope"]
        assert len(env) == 6
        assert all(c.passed for c in env)

    def test_gap_families_bounded(self, report):
        for name in ("density_gap_rate", "cf_gap_rate"):
            fam = [c for c in report.checks if c.name == name]
            assert fam and all(c.passed for c in fam)

    def test_n3_uniform_gap_oracle(self):
        # direct evaluation with the constant density of the n = 3 law
        rep = sl.gap_report(n_grid=(3,), reference_n=3)
        d3 = next(c.extra["scaled_gap"] / 3 for c in rep.checks
                  if c.name == "density_gap_rate")
        root = math.sqrt(3.0)
        xs = np.linspace(-root, root, 4096)
        approach = root * (1.0 - 2.0 ** -np.arange(1, 44, dtype=float))
        xs = np.unique(np.concatenate([xs, approach, -approach]))
        const = 1.0 / (2.0 * root)
        gap = np.abs(const - INV_SQRT_2PI * np.exp(-xs ** 2 / 2)) * np.exp(xs ** 2 / 8)
        assert d3 == pytest.approx(float(gap.max()), rel=1e-12)

    def test_doubling_rate(self):
        rep = sl.gap_report(n_grid=(64, 128), reference_n=64)
        scaled = {c.n: c.extra["scaled_gap"] for c in rep.checks
                  if c.name == "cf_gap_rate"}
        ratio = scaled[128] / scaled[64]
        assert 0.3 <= ratio <= 3.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sl.gap_report(n_grid=(1, 4))
        with pytest.raises(DomainError):
            sl.gap_report(n_grid=())

    def test_n2_alone_has_no_density_rows(self):
        # the density family starts at n = 3; the cf rows still come
        rep = sl.gap_report(n_grid=(2,), reference_n=2)
        assert sorted(c.name for c in rep.checks) == ["cf_envelope", "cf_gap_rate"]


@settings(max_examples=25)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_cdf_table_matches_normal_limit_loosely(x):
    # sanity anchor: for large n the sphere CDF is close to the normal CDF
    assert abs(sl.cdf_table(4096)(x) - ndtr(x)) < 5e-4
