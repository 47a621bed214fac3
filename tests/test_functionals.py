import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from typical_clt import functionals as fn
from typical_clt import quadrature
from typical_clt import systems as sy
from typical_clt.errors import DomainError, InsufficientDataError
from typical_clt.quadrature import blocks
from typical_clt.rng import as_rng, make_rng


def spec_iid(base, n=64):
    return sy.SystemSpec(kind=base, n=n)


class TestMomentMp:
    def test_trig_p2_analytic(self):
        est = fn.moment_Mp(sy.SystemSpec(kind="trigonometric", n=64), 2.0)
        assert est.value == 1.0 and est.strategy == "analytic"
        assert not est.is_lower_bound

    def test_aniso_p2(self):
        # eigenvalues (1.6, 0.8, 0.8, 0.8): M_2 is the root of the largest
        spec = sy.built_in_spec("aniso", 4)
        assert fn.moment_Mp(spec, 2.0).value == pytest.approx(math.sqrt(1.6))

    def test_gaussian_any_p(self):
        # M_3 for the standard Gaussian: (E|Z|^3)^(1/3) = (2 sqrt(2/pi))^(1/3)
        est = fn.moment_Mp(spec_iid("normal"), 3.0)
        assert est.strategy == "analytic"
        assert est.value == pytest.approx((2.0 * math.sqrt(2.0 / math.pi)) ** (1 / 3))

    def test_p_below_one(self):
        with pytest.raises(DomainError):
            fn.moment_Mp(spec_iid("normal"), 0.5)

    def test_search_budget(self):
        # functionals --budget reaches the search, which needs 100 draws
        with pytest.raises(InsufficientDataError):
            fn.moment_Mp(spec_iid("rademacher", 8), 3.0, budget=10)

    def test_analytic_fallback_flag(self):
        # no closed form for the rademacher M_3: the search runs, flagged
        est = fn.moment_Mp(spec_iid("rademacher", 8), 3.0, budget=5000, rng=1)
        assert est.strategy == "search" and est.is_lower_bound

    def test_search_matches_grid_oracle_n4(self):
        # oracle: 1-degree spherical grid, E|S|^3 exact over the 16 sign vectors
        signs = np.array([[1 if (i >> b) & 1 else -1 for b in range(4)]
                          for i in range(16)], dtype=float)
        step = math.pi / 180.0
        angles = np.arange(0.0, math.pi + 1e-12, step)
        best = -1.0
        s2g, c2g = np.sin(angles)[:, None], np.cos(angles)[:, None]
        s3g, c3g = np.sin(angles)[None, :], np.cos(angles)[None, :]
        for p1 in angles:
            s1, c1 = math.sin(p1), math.cos(p1)
            theta = np.stack(np.broadcast_arrays(
                np.full((angles.size, angles.size), c1),
                s1 * c2g + 0.0 * s3g, s1 * s2g * c3g, s1 * s2g * s3g), axis=-1)
            proj = theta @ signs.T
            vals = np.mean(np.abs(proj) ** 3, axis=-1) ** (1.0 / 3.0)
            best = max(best, float(vals.max()))
        est = fn.moment_Mp(spec_iid("rademacher", 4), 3.0, budget=40_000, rng=11)
        assert abs(est.value - best) / best < 0.01

    def test_scale_doubling(self, monkeypatch):
        spec = spec_iid("rademacher", 8)
        a = fn.moment_Mp(spec, 3.0, budget=10_000, rng=5)
        rows = sy._sample_rows
        monkeypatch.setattr(sy, "_sample_rows",
                            lambda spec, count, gen: 2.0 * rows(spec, count, gen))
        b = fn.moment_Mp(spec, 3.0, budget=10_000, rng=5)
        # identical draws scaled by 2: same argmax direction, doubled value
        assert b.value == pytest.approx(2.0 * a.value, rel=1e-12)
        assert np.allclose(a.direction, b.direction)

    def test_ascent_stops_at_batch_noise(self, monkeypatch):
        # each step size ends once its best proposal gains under one SE of
        # the current score: 6 scoring passes here, 45 under a 1e-6
        # relative-gain rule, which climbed into the batch's noise
        passes = []
        score = fn._empirical_lp
        monkeypatch.setattr(fn, "_empirical_lp",
                            lambda *args: passes.append(1) or score(*args))
        spec = spec_iid("rademacher", 64)
        est = fn.moment_Mp(spec, 3.0, budget=20_000, rng=0)
        assert len(passes) <= 8
        # the reported SE is still the delta-method SE on the search batch
        batch = sy.sample_vector(spec, 20_000, as_rng(0, "mp_search")).matrix
        assert est.se == fn.root_mean_se(fn._abs_pow(batch @ est.direction, 3.0), 3.0)


class TestEmpiricalLp:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    def test_buffers_bit_for_bit(self, monkeypatch, p):
        # the blocked scores equal the plain formula on one-shot products:
        # one gemm for the even columns, one matvec for an odd last column
        # (at this seed the one-shot gemm's last column scores differently)
        gen = make_rng(8, "lp2")
        matrix = gen.standard_normal((3000, 16))
        directions = gen.standard_normal((16, 33))
        for width in (32, 33):
            proj = matrix @ directions[:, :32]
            if width == 33:
                proj = np.column_stack([proj, matrix @ directions[:, 32]])
            plain = np.mean(np.square(proj) * np.abs(proj) if p == 3.0
                            else np.abs(proj) ** p, axis=0) ** (1.0 / p)
            for entries in (1 << 12, quadrature.BLOCK_ENTRIES):
                monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", entries)
                got = fn._empirical_lp(matrix, directions[:, :width], p)
                assert np.array_equal(got, plain), (width, entries)


class TestMomentMpPairs:
    def test_aniso_m2_squared(self):
        spec = sy.built_in_spec("aniso", 4)
        est = fn.moment_mp(spec, 2.0, pairs=60_000, rng=1)
        # m_2^2 = sum(lambda^2)/n = (1.6^2 + 3 * 0.8^2)/4 = 1.12
        assert est.value ** 2 == pytest.approx(1.12, abs=8.0 * est.se)

    def test_isotropic_m2_equals_one(self):
        for spec in (spec_iid("rademacher", 32), sy.SystemSpec(kind="walsh", n=31)):
            est = fn.moment_mp(spec, 2.0, pairs=40_000, rng=2)
            assert abs(est.value - 1.0) <= 3.0 * est.se

    def test_monotone_in_p(self):
        spec = spec_iid("uniform", 32)
        m2 = fn.moment_mp(spec, 2.0, pairs=30_000, rng=3)
        m3 = fn.moment_mp(spec, 3.0, pairs=30_000, rng=3)
        assert m2.value <= m3.value + 3.0 * (m2.se + m3.se)

    def test_pair_budget(self):
        with pytest.raises(InsufficientDataError):
            fn.moment_mp(spec_iid("normal"), 2.0, pairs=50)


class TestPairInnerProducts:
    @pytest.mark.parametrize("spec", sy.default_catalog(8), ids=lambda s: s.spec_id)
    @pytest.mark.parametrize("seed", ["int", "generator"])
    def test_streamed_equals_one_shot(self, spec, seed):
        def fresh():
            return 11 if seed == "int" else np.random.default_rng(5)

        # above the block size, not a multiple of it
        pairs = 2 * next(blocks(1 << 62, spec.n)).stop + 123
        ref_rng, rng = fresh(), fresh()
        x = sy.sample_vector(spec, pairs, as_rng(ref_rng, "pairs_x")).matrix
        y = sy.sample_vector(spec, pairs, as_rng(ref_rng, "pairs_y")).matrix
        got = fn._pair_inner_products(spec, pairs, rng)
        assert np.array_equal(got, np.einsum("ij,ij->i", x, y))
        if seed == "generator":  # later draws continue from the same state
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSigma2p:
    def test_fixed_norm_exactly_zero(self):
        est = fn.sigma_2p(sy.SystemSpec(kind="fixed_norm_rademacher", n=32), 2.0,
                          budget=2000, rng=1)
        assert est.value == 0.0 and est.se == 0.0

    def test_trigonometric_float_zero(self):
        est = fn.sigma_2p(sy.SystemSpec(kind="trigonometric", n=64), 1.5,
                          budget=2000, rng=1)
        assert est.value <= 1e-12

    def test_uniform_sigma4_squared(self):
        # Var(X_1^2) for the uniform base: E X^4 - 1 = 9/5 - 1 = 0.8
        est = fn.sigma_2p(spec_iid("uniform"), 2.0, budget=60_000, rng=2)
        se_sq = 2.0 * est.value * est.se
        assert est.value ** 2 == pytest.approx(0.8, abs=3.0 * se_sq + 1e-3)

    def test_normal_sigma2_chi_square_oracle(self):
        est = fn.sigma_2p(spec_iid("normal"), 1.0, budget=60_000, rng=3)
        chi = np.random.default_rng(123).chisquare(64, 400_000)
        oracle = np.abs(chi - 64.0) / 8.0
        se_o = oracle.std(ddof=1) / math.sqrt(oracle.size)
        assert est.value == pytest.approx(oracle.mean(), abs=3.0 * (est.se + se_o))

    def test_monotone_in_p(self):
        spec = spec_iid("exponential", 32)
        s = {p: fn.sigma_2p(spec, p, budget=30_000, rng=4) for p in (1.0, 1.5, 2.0)}
        assert s[1.0].value <= s[1.5].value + 3.0 * (s[1.0].se + s[1.5].se)
        assert s[1.5].value <= s[2.0].value + 3.0 * (s[1.5].se + s[2.0].se)

    def test_budget(self):
        with pytest.raises(InsufficientDataError):
            fn.sigma_2p(spec_iid("normal"), 1.0, budget=10)


@pytest.mark.parametrize("estimate", [
    lambda b: fn.moment_Mp(spec_iid("uniform", 8), 3.0, budget=b, rng=1),
    lambda b: fn.moment_mp(spec_iid("uniform", 8), 2.0, pairs=b, rng=1),
    lambda b: fn.sigma_2p(spec_iid("uniform", 8), 2.0, budget=b, rng=1),
    lambda b: fn.norm_variance_check(spec_iid("uniform", 8), budget=b, rng=1),
    lambda b: fn.small_ball(spec_iid("uniform", 8), budget=b, rng=1),
], ids=["moment_Mp", "moment_mp", "sigma_2p", "norm_variance_check", "small_ball"])
def test_budget_floor_of_every_estimator(estimate):
    # below 100 draws or pairs a typed error, never a NaN standard error
    with pytest.raises(InsufficientDataError):
        estimate(99)
    estimate(100)


class TestNormVarianceChain:
    def test_fixed_norm_equalities(self):
        rep = fn.norm_variance_check(sy.SystemSpec(kind="fixed_norm_rademacher", n=16),
                                     budget=2000, rng=1)
        assert rep.all_passed
        for c in rep.checks:
            assert c.lhs == 0.0 and c.rhs == 0.0

    @pytest.mark.parametrize("base", ["normal", "exponential"])
    def test_chain_holds(self, base):
        rep = fn.norm_variance_check(spec_iid(base), budget=30_000, rng=2)
        assert rep.all_passed, [(c.name, c.lhs, c.rhs) for c in rep.checks]


class TestSmallBall:
    def test_fixed_norm_n16_binomial_oracle(self):
        # |X-Y|^2 = 2n - 2<X,Y> <= n/4 iff the vectors agree in <= 1 coordinate
        spec = sy.SystemSpec(kind="fixed_norm_rademacher", n=16)
        res = fn.small_ball(spec, budget=400_000, rng=3)
        exact = float(binom.cdf(1, 16, 0.5))
        assert res.passed
        assert res.empirical == pytest.approx(exact, abs=4.0 * math.sqrt(exact / 400_000))
        assert res.empirical <= res.bound

    def test_normal_n64_negligible(self):
        res = fn.small_ball(spec_iid("normal"), budget=50_000, rng=4)
        assert res.empirical == 0.0
        assert res.passed

    def test_trigonometric_n32(self):
        res = fn.small_ball(sy.SystemSpec(kind="trigonometric", n=32),
                            budget=50_000, rng=5)
        assert res.passed


class TestLowerTail:
    def test_two_point_xi(self):
        lt = fn.lower_tail_bound(fn.TwoPointXi(), 0.5)
        assert lt.kappa == pytest.approx(2.0, abs=1e-9)
        assert lt.bound(100) == pytest.approx(math.exp(-100.0 / 64.0), rel=1e-6)
        # oracle: S_n = 2 Binom(n, 1/2); P{S_100 <= 50} = P{B <= 25}
        exact = float(binom.cdf(25, 100, 0.5))
        assert exact <= lt.bound(100)
        sums = fn.TwoPointXi().sample_sum(100, 100_000, 7)
        assert np.mean(sums <= 50.0) <= lt.bound(100)

    def test_exponential_xi_root_oracle(self):
        # (1 + kappa) e^(-kappa) = 1/4 defines the minimal admissible level
        kappa_star = brentq(lambda k: (1 + k) * math.exp(-k) - 0.25, 0.1, 10.0)
        lt = fn.lower_tail_bound(fn.ExponentialXi(), 0.5)
        assert lt.kappa == pytest.approx(kappa_star, abs=1e-8)
        sums = fn.ExponentialXi().sample_sum(100, 100_000, 8)
        assert np.mean(sums <= 50.0) <= lt.bound(100)

    def test_lambda_domain(self):
        for lam in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                fn.lower_tail_bound(fn.ExponentialXi(), lam)

    def test_bound_in_unit_interval(self):
        lt = fn.lower_tail_bound(fn.ExponentialXi(), 0.25)
        for n in (1, 10, 1000):
            assert 0.0 < lt.bound(n) <= 1.0


class TestFunctionalsReport:
    def test_csv_rows(self):
        spec = spec_iid("uniform", 16)
        report = fn.compute_functionals(spec, p_values=(2.0,), budget=2000, seed=9)
        header, rows = report.csv_rows()
        assert header[0] == "spec_id"
        names = {row[1] for row in rows}
        assert {"M_p", "m_p", "sigma_2p", "var_norm", "small_ball"} <= names
        assert all(row[0] == "uniform-n16" for row in rows)

    def test_budget_reaches_Mp(self):
        # the report's budget is the draw count of every estimate, M_p too
        spec = spec_iid("uniform", 16)
        report = fn.compute_functionals(spec, p_values=(3.0,), budget=2000, seed=9)
        alone = fn.moment_Mp(spec, 3.0, budget=2000, rng=make_rng(9, "Mp", 6))
        got = report.max_moments[3.0]
        assert got.strategy == "search"
        assert (got.value, got.se) == (alone.value, alone.se)

    def test_scale_behavior_prop_2_2(self):
        # (E|X|^p)^(1/p) <= M_p sqrt(n) on a couple of specs
        for spec in (spec_iid("normal", 16), sy.SystemSpec(kind="trigonometric", n=16)):
            batch = sy.sample_vector(spec, 30_000, 3)
            norms = np.linalg.norm(batch.matrix, axis=1)
            for p in (2.0, 3.0):
                mp = fn.moment_Mp(spec, p, rng=4)
                vals = norms ** p
                lhs = vals.mean() ** (1.0 / p)
                se = vals.std(ddof=1) / math.sqrt(vals.size) / p * vals.mean() ** (1 / p - 1)
                assert lhs <= mp.value * math.sqrt(16) + 3.0 * (se + mp.se * 4.0)
