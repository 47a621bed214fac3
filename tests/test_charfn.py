import math

import numpy as np
import pytest

from typical_clt import charfn as cf
from typical_clt import distributions as di
from typical_clt import systems as sy
from typical_clt.errors import DomainError
from typical_clt.functionals import sigma_2p
from typical_clt.quadrature import kernel_sum
from typical_clt.rng import make_rng
from typical_clt.sphere_law import charfn_Jn_grid, density, jn_table, sample_direction


def spec_iid(base, n=64):
    return sy.SystemSpec(kind=base, n=n)


TRIG64 = sy.SystemSpec(kind="trigonometric", n=64)


class TestCharFnEstimate:
    def test_negative_grid_rejected(self):
        with pytest.raises(DomainError):
            cf.CharFnEstimate(t=np.array([-1.0, 0.0]),
                              values=np.ones(2, complex), se=np.zeros(2), budget=1)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(DomainError):
            cf.CharFnEstimate(t=np.array([0.0, 0.0]),
                              values=np.ones(2, complex), se=np.zeros(2), budget=1)

    def test_csv_rows(self):
        est = cf.CharFnEstimate(t=np.array([0.0, 1.0]),
                                values=np.array([1.0, 0.5 + 0.1j]),
                                se=np.array([0.0, 0.01]), budget=10)
        header, rows = est.csv_rows()
        assert header == ["t", "re", "im", "se"]
        assert rows[1][1] == 0.5 and rows[1][2] == 0.1


class TestWeightedSumCf:
    def test_value_at_zero_is_exact_one(self):
        theta = sample_direction(8, 1)
        values = sy.direction_cf(spec_iid("rademacher", 8), theta, [0.0, 1.0])
        assert values[0] == 1.0 + 0.0j

    def test_rademacher_axis_is_cosine(self):
        from typical_clt.sphere_law import Direction
        e1 = Direction(coords=np.eye(8)[0].astype(float))
        t = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        values = sy.direction_cf(spec_iid("rademacher", 8), e1, t)
        assert np.abs(values - np.cos(t)).max() <= 1e-15

    def test_gaussian_cf(self):
        theta = sample_direction(16, 4)
        t = np.array([1.0])
        values = sy.direction_cf(spec_iid("normal", 16), theta, t)
        assert values[0] == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_modulus_bounded(self):
        theta = sample_direction(16, 6)
        t = np.linspace(0, 20, 41)
        values = sy.direction_cf(spec_iid("uniform", 16), theta, t)
        assert np.all(np.abs(values) <= 1.0 + 1e-14)


class TestTypicalCf:
    def test_fixed_norm_exact(self):
        t = np.array([0.0, 0.5, 1.0, 3.0])
        est = cf.charfn_typical(TRIG64, t)
        expect = charfn_Jn_grid(64, t * 8.0)
        assert np.abs(est.values.real - expect).max() <= 1e-9
        assert np.all(est.se == 0.0)

    def test_gaussian_system_typical_cf_is_gaussian(self):
        # for the standard normal system, <X, theta> ~ N(0,1) for every theta,
        # so the typical cf equals exp(-t^2/2)
        t = np.array([0.0, 0.5, 1.0, 2.0])
        est = cf.charfn_typical(spec_iid("normal", 64), t,
                                radial_budget=50_000, rng=1)
        diff = np.abs(est.values.real - np.exp(-0.5 * t ** 2))
        assert np.all(diff <= 3.0 * est.se + 1e-5)

    def test_cross_check_theta_averaged_empirical(self):
        # direction-averaged empirical cf agrees with E J_n(t |X|) at t = 1
        spec = spec_iid("normal", 64)
        est = cf.charfn_typical(spec, np.array([1.0]), radial_budget=50_000, rng=2)
        vals = []
        for j in range(32):
            theta = sample_direction(64, make_rng(9, "xc_theta", j))
            vals.append(sy.direction_cf(spec, theta, np.array([1.0]))[0])
        avg = np.mean(vals)
        se = np.std(vals) / math.sqrt(32)
        assert abs(est.values[0] - avg) <= 3.0 * (se + est.se[0]) + 1e-3

    def test_triangle_vs_mean_modulus(self):
        # |f(t)| <= E_theta |f_theta(t)|
        spec = spec_iid("uniform", 32)
        t = np.array([0.5, 1.0, 2.0, 4.0])
        typical = cf.charfn_typical(spec, t, radial_budget=40_000, rng=3)
        rows = cf._per_theta_cf_matrix(spec, t, 32, seed=4)
        mean_mod = np.abs(rows).mean(axis=0)
        se = np.abs(rows).std(axis=0, ddof=1) / math.sqrt(32)
        assert np.all(np.abs(typical.values) <= mean_mod + 3.0 * (se + typical.se))

    def test_consistency_with_mixture_density_transform(self):
        # the typical cf equals the numerical cosine transform of the density
        # of the typical mixture (same radial draws) on [0, 5] within 1e-3
        spec = spec_iid("uniform", 32)
        est = cf.charfn_typical(spec, np.linspace(0.0, 5.0, 11),
                                radial_budget=20_000, rng=5)
        mix = di.typical_cdf(spec, radial_budget=20_000, rng=5)
        low, mass = di.deposit_log_radii(mix.radii, mix.weights)
        nodes = np.flatnonzero(mass)
        radii, weights = np.exp((low + nodes) * di.TABLE_LOG_STEP), mass[nodes]
        xs = np.linspace(-mix.span, mix.span, 2 ** 16 + 1)
        # mixture density: sum_i w_i phi_n(x / r_i) / r_i
        dens = kernel_sum(lambda x, r: density(32, x / r), xs, radii,
                          weights / weights.sum() / radii)
        ft = np.array([np.trapezoid(np.cos(tt * xs) * dens, xs) for tt in est.t])
        assert np.abs(est.values.real - ft).max() <= 1e-3

    @pytest.mark.parametrize("kind, n", [("uniform", 16), ("normal", 8)])
    def test_deposition_within_bound_of_all_atoms(self, kind, n):
        # the docstring's bound, delta^2/8 sup|h''| plus the J_n table's own
        # bound once for each of the two sums read through it
        spec = spec_iid(kind, n)
        t = cf.default_t_grid(10.0, 64)
        est = cf.charfn_typical(spec, t, radial_budget=100_000, rng=42)
        r, w = di.radial_atoms(spec, 100_000, 42)
        low, mass = di.deposit_log_radii(r, w)
        # the largest J_n argument of charfn_typical, so both read one table
        b_max = t[-1] * math.sqrt(n) * math.exp((low + np.flatnonzero(mass)[-1])
                                                 * di.TABLE_LOG_STEP)
        jn = jn_table(n, float(b_max))
        every = kernel_sum(lambda ts, rs: jn(ts * rs), t * math.sqrt(n), r, w)
        b = np.linspace(0.0, b_max, 20_001)
        h2 = b * b * ((n - 2) / n * charfn_Jn_grid(n + 2, b) - charfn_Jn_grid(n, b))
        bound = di.TABLE_LOG_STEP ** 2 / 8.0 * float(np.abs(h2).max()) + 2.0 * jn.bound
        assert np.abs(est.values.real - every).max() <= bound

    def test_boundedness_profile(self):
        # |f(t)| <= C ((1 + sigma_4^2)/n + exp(-t^2/4)) with one fitted C
        for spec in (TRIG64, spec_iid("uniform", 64)):
            t = np.linspace(0.0, 12.0, 25)
            typ = cf.charfn_typical(spec, t, radial_budget=30_000, rng=6)
            s4 = sigma_2p(spec, 2.0, budget=30_000, rng=6).value
            envelope = (1.0 + s4 ** 2) / 64.0 + np.exp(-t ** 2 / 4.0)
            c_hat = float(np.max(np.abs(typ.values) / envelope))
            assert np.isfinite(c_hat) and c_hat < 50.0, (spec.spec_id, c_hat)


class TestDirectionConcentration:
    def test_poincare_zero_at_origin(self):
        rep = cf.poincare_gap_check(TRIG64, [0.0], theta_budget=8, rng=1)
        check = rep.checks[0]
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.passed

    def test_poincare_trig(self):
        rep = cf.poincare_gap_check(TRIG64, [0.5, 1.0, 2.0, 4.0],
                                    theta_budget=32, rng=2)
        assert rep.all_passed, [(c.extra["t"], c.lhs, c.rhs) for c in rep.checks]

    def test_poincare_gaussian_flat(self):
        # rotational invariance: f_theta identical across theta
        rep = cf.poincare_gap_check(spec_iid("normal", 64), [0.5, 1.0, 2.0],
                                    theta_budget=24, rng=3)
        assert rep.all_passed
        assert all(c.lhs <= 1e-24 and c.budget == 0 for c in rep.checks)

    def test_generator_seeds_the_check(self):
        # a Generator is drawn from, never replaced by a fixed seed
        def lhs(rng):
            rep = cf.poincare_gap_check(spec_iid("uniform", 16), [1.0], theta_budget=6,
                                        rng=rng)
            return rep.checks[0].lhs

        assert lhs(np.random.default_rng(1)) != lhs(np.random.default_rng(999))
        assert lhs(np.random.default_rng(1)) == lhs(np.random.default_rng(1))

    def test_non_seed_rng_rejected(self):
        with pytest.raises(TypeError):
            cf.poincare_gap_check(TRIG64, [1.0], theta_budget=4, rng=1.5)

    def test_decay_at_zero_trivial(self):
        rep = cf.decay_bound_check(TRIG64, [0.0], theta_budget=8,
                                   sample_budget=2000, rng=4)
        check = rep.checks[0]
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs >= 2.1 and check.passed

    def test_decay_trig_large_t(self):
        rep = cf.decay_bound_check(TRIG64, [6.0], theta_budget=24,
                                   sample_budget=20_000, rng=5)
        assert rep.all_passed
        assert rep.checks[0].lhs < 0.2

    def test_decay_uniform_grid(self):
        rep = cf.decay_bound_check(spec_iid("uniform", 32),
                                   np.linspace(0.0, 10.0, 11),
                                   theta_budget=24, sample_budget=20_000, rng=6)
        assert rep.all_passed


class TestSmoothing:
    def grid_estimate(self, values, t):
        return cf.CharFnEstimate(t=t, values=values.astype(complex),
                                 se=np.zeros(t.size), budget=1)

    def test_equal_inputs_zero_close_integral(self):
        t = cf.default_t_grid(10.0, 128)
        u = self.grid_estimate(np.exp(-t ** 2 / 2), t)
        i_close, _, _ = cf.smoothing_rhs(u, u, 2.0, 10.0)
        assert i_close == 0.0

    def test_unit_cf_tail_integral(self):
        t = cf.default_t_grid(10.0, 128)
        u = self.grid_estimate(np.exp(-t ** 2 / 2), t)
        ones = self.grid_estimate(np.ones(t.size), t)
        _, _, i_tail = cf.smoothing_rhs(u, ones, 2.0, 10.0)
        assert i_tail == pytest.approx(1.0, abs=1e-9)

    def test_grid_must_cover_range(self):
        t = cf.default_t_grid(5.0, 64)
        u = self.grid_estimate(np.ones(t.size), t)
        with pytest.raises(DomainError):
            cf.smoothing_rhs(u, u, 2.0, 50.0)

    def test_bad_t0(self):
        t = cf.default_t_grid(5.0, 64)
        u = self.grid_estimate(np.ones(t.size), t)
        with pytest.raises(DomainError):
            cf.smoothing_rhs(u, u, 6.0, 5.0)

    def test_singularity_handling_linear_cf_difference(self):
        # |u - v| = a t near 0 gives integrand a: the close integral over
        # [0, T0] should be a * T0 despite the 1/t weight
        t = cf.default_t_grid(4.0, 256)
        u = self.grid_estimate(np.ones(t.size), t)
        v = self.grid_estimate(np.clip(1.0 - 0.05 * t, 0, None), t)
        i_close, _, _ = cf.smoothing_rhs(u, v, 2.0, 4.0)
        assert i_close == pytest.approx(0.05 * 2.0, rel=1e-6)

    def test_grid_from_zero_close_integral(self):
        # a grid point at t = 0, where |u - v| / t is 0/0, leaves I_close as it was
        t = cf.default_t_grid(80.0, 256)
        u = self.grid_estimate(np.exp(-t ** 2 / 2), t)
        v = self.grid_estimate(np.exp(-t ** 2 / 2 + 0.1j * t), t)
        t0 = np.concatenate(([0.0], t))
        u0 = self.grid_estimate(np.concatenate(([1.0], u.values)), t0)
        v0 = self.grid_estimate(np.concatenate(([1.0], v.values)), t0)
        i_close = cf.smoothing_rhs(u, v, 2.0, 80.0)[0]
        assert math.isfinite(i_close) and i_close > 0.0
        assert cf.smoothing_rhs(u0, v0, 2.0, 80.0)[0] == i_close

    def test_full_pipeline_trig(self):
        rep = cf.smoothing_report(TRIG64, theta_budget=8,
                                  radial_budget=5000, grid_points=256, rng=7,
                                  rho_theta_budget=8, rho_sample_budget=20_000)
        assert rep.t0 == pytest.approx(5.0 * math.sqrt(math.log(64)))
        assert rep.t_max == pytest.approx(320.0)
        for term in (rep.i_close, rep.i_mid, rep.i_tail):
            assert np.isfinite(term) and term >= 0.0
        assert rep.mean_rho > 0.0
        assert np.isfinite(rep.ratio_to_mean_rho)
