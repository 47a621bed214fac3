import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from typical_clt import systems as sy
from typical_clt.errors import ConfigurationError, DomainError, NumericKernelError
from typical_clt.quadrature import blocks
from typical_clt.rng import as_rng, make_rng, master_seed
from typical_clt.sphere_law import Direction, sample_direction


SQRT2 = math.sqrt(2.0)


def spec_iid(base, n=16):
    return sy.SystemSpec(kind=base, n=n)


class TestSpecValidation:
    def test_trigonometric_needs_even_n(self):
        with pytest.raises(ConfigurationError):
            sy.SystemSpec(kind="trigonometric", n=7)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            sy.SystemSpec(kind="levy_flight", n=8)

    def test_default_walsh_characters_graded_lex(self):
        chars = sy.default_walsh_characters(9)
        assert chars == ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))

    def test_fixed_norm_flags(self):
        assert sy.SystemSpec(kind="trigonometric", n=8).is_fixed_norm
        assert sy.SystemSpec(kind="walsh", n=7).is_fixed_norm
        assert spec_iid("rademacher").is_fixed_norm
        assert not spec_iid("uniform").is_fixed_norm


# Every name built_in_spec accepts (besides upper-case spellings), with
# the kind and the n = 64 spec_id it gives.
CATALOG_NAMES = {
    "rademacher": ("rademacher", "rademacher-n64"),
    "uniform": ("uniform", "uniform-n64"),
    "exponential": ("exponential", "exponential-n64"),
    "normal": ("normal", "normal-n64"),
    "trigonometric": ("trigonometric", "trig-n64"),
    "trig": ("trigonometric", "trig-n64"),
    "walsh": ("walsh", "walsh-n64"),
    "fixed_norm_rademacher": ("fixed_norm_rademacher", "fixed_norm-n64"),
    "fixed_norm": ("fixed_norm_rademacher", "fixed_norm-n64"),
    "gaussian_anisotropic": ("gaussian_anisotropic", "aniso-n64"),
    "aniso": ("gaussian_anisotropic", "aniso-n64"),
}


class TestCatalogContract:
    @pytest.mark.parametrize("name", [*CATALOG_NAMES, *(k.upper() for k in CATALOG_NAMES)])
    def test_name_gives_kind_and_spec_id(self, name):
        spec = sy.built_in_spec(name, 64)
        assert (spec.kind, spec.spec_id) == CATALOG_NAMES[name.lower()]

    def test_default_catalog_order(self):
        assert [spec.spec_id for spec in sy.default_catalog(64)] == [
            "rademacher-n64", "uniform-n64", "exponential-n64", "normal-n64",
            "trig-n64", "walsh-n63", "fixed_norm-n64", "aniso-n64"]

    @pytest.mark.parametrize("spec", sy.default_catalog(16), ids=lambda s: s.spec_id)
    def test_mean_square_norm_is_n(self, spec):
        # E|X|^2 = n: on every row of the fixed-norm kinds (exactly for the
        # +-1-valued ones), by the covariance trace for the anisotropic
        # Gaussian, and within 4 SE of the sample mean for the iid kinds
        n = spec.n
        if spec.kind == "gaussian_anisotropic":
            for m in (n, 32, 64, 256, 1024):
                assert abs(sum(sy.spiked_eigenvalues(m)) - m) <= 1e-12 * m
            return
        sq = np.square(sy.sample_vector(spec, 20_000, 5).matrix).sum(axis=1)
        if spec.is_fixed_norm:
            tol = 1e-12 * n if spec.kind == "trigonometric" else 0.0
            assert np.abs(sq - n).max() <= tol
        else:
            assert abs(sq.mean() - n) <= 4.0 * sq.std(ddof=1) / math.sqrt(sq.size)


class TestSampling:
    def test_trigonometric_rows_fixed_norm(self):
        batch = sy.sample_vector(sy.SystemSpec(kind="trigonometric", n=64), 500, 3)
        norms = np.square(batch.matrix).sum(axis=1)
        assert np.abs(norms - 64.0).max() <= 1e-9

    def test_fixed_norm_rademacher_rows(self):
        batch = sy.sample_vector(sy.SystemSpec(kind="fixed_norm_rademacher", n=32), 500, 3)
        assert np.all(np.square(batch.matrix).sum(axis=1) == 32.0)
        assert set(np.unique(batch.matrix)) == {-1.0, 1.0}

    def test_normal_mean_square(self):
        batch = sy.sample_vector(spec_iid("normal", 16), 100_000, 5)
        ratio = np.square(batch.matrix).sum(axis=1).mean() / 16.0
        assert 0.98 <= ratio <= 1.02

    def test_uniform_base_bounds_and_variance(self):
        batch = sy.sample_vector(spec_iid("uniform", 4), 50_000, 9)
        assert np.abs(batch.matrix).max() <= math.sqrt(3.0)
        assert batch.matrix.var() == pytest.approx(1.0, abs=0.02)

    def test_exponential_base_centered(self):
        batch = sy.sample_vector(spec_iid("exponential", 4), 50_000, 9)
        assert batch.matrix.min() >= -1.0
        assert batch.matrix.mean() == pytest.approx(0.0, abs=0.02)
        assert batch.matrix.var() == pytest.approx(1.0, abs=0.03)

    def test_deterministic_given_seed(self):
        spec = sy.SystemSpec(kind="walsh", n=15)
        a = sy.sample_vector(spec, 1000, 42)
        b = sy.sample_vector(spec, 1000, 42)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("spec, reference", [
        (spec_iid("rademacher", 8),
         lambda gen: gen.integers(0, 2, size=(500, 8)).astype(float) * 2.0 - 1.0),
        (sy.SystemSpec(kind="fixed_norm_rademacher", n=8),
         lambda gen: gen.integers(0, 2, size=(500, 8)).astype(float) * 2.0 - 1.0),
        (spec_iid("exponential", 8),
         lambda gen: gen.standard_exponential(size=(500, 8)) - 1.0),
        (sy.built_in_spec("aniso", 8),
         lambda gen: gen.standard_normal(size=(500, 8))
         * np.sqrt(np.asarray(sy.spiked_eigenvalues(8)))[None, :]),
    ], ids=["rademacher", "fixed_norm", "exponential", "aniso"])
    def test_in_place_affine_maps_match_reference(self, spec, reference):
        got = sy.sample_vector(spec, 500, make_rng(3, "x")).matrix
        assert np.array_equal(got, reference(make_rng(3, "x")))

    @pytest.mark.parametrize("lo, hi", [(-sy.SQRT3, sy.SQRT3), (-math.pi, math.pi)])
    def test_uniform_is_generator_uniform(self, lo, hi):
        for seed in range(20):
            assert np.array_equal(sy._uniform(make_rng(seed), lo, hi, (300, 7)),
                                  make_rng(seed).uniform(lo, hi, size=(300, 7)))

    @pytest.mark.parametrize("draw", [
        lambda: sy.sample_vector(spec_iid("uniform", 8), 500, make_rng(3, "x")).matrix,
        lambda: sy.sample_vector(sy.SystemSpec(kind="trigonometric", n=8), 500,
                                 make_rng(3, "x")).matrix,
        lambda: sy.project(sy.SystemSpec(kind="trigonometric", n=8),
                           sample_direction(8, 1), 500, make_rng(3, "x")),
    ], ids=["uniform_rows", "trig_rows", "trig_projector"])
    def test_uniform_draws_match_generator_uniform(self, monkeypatch, draw):
        got = draw()
        monkeypatch.setattr(sy, "_uniform",
                            lambda gen, lo, hi, size: gen.uniform(lo, hi, size=size))
        assert np.array_equal(got, draw())

    @pytest.mark.parametrize("kind", sy.KINDS)
    def test_block_fill_is_the_one_shot_draw(self, kind):
        # one block, two blocks and 9 rows, two blocks and a lone row (which
        # joins the second block): each equals the one-shot draw bit for bit
        spec = sy.SystemSpec(kind=kind, n=64)
        step = next(blocks(1 << 62, spec.n)).stop
        for count in (step, 2 * step + 9, 2 * step + 1):
            got = sy.sample_vector(spec, count, make_rng(4, "x", count)).matrix
            assert np.array_equal(got, sy._sample_rows(spec, count, make_rng(4, "x", count)))
        gen = make_rng(4, "twice")
        halves = [sy.sample_vector(spec, count, gen).matrix for _ in range(2)]
        whole = sy.sample_vector(spec, 2 * count, make_rng(4, "twice")).matrix
        assert np.array_equal(whole, np.concatenate(halves))

    @pytest.mark.parametrize("kind", sy.KINDS)
    def test_block_fill_holds_one_matrix(self, kind):
        # the one-shot draw held a second full-size array for rademacher,
        # fixed_norm (integer signs) and trig (angles): 2.0x the matrix
        spec = sy.SystemSpec(kind=kind, n=64)
        sy.sample_vector(spec, 8, 0)  # the kind's cached tables
        tracemalloc.start()
        try:
            batch = sy.sample_vector(spec, 20_000, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= batch.matrix.nbytes + 2 * 2**20

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            sy.sample_vector(spec_iid("normal"), 0, 1)

    @pytest.mark.parametrize("draw", [
        lambda c: sy.sample_vector(spec_iid("normal"), c, 1),
        lambda c: sy.project(sy.SystemSpec(kind="trigonometric", n=8),
                             sample_direction(8, 0), c, 1),
        lambda c: sy.squared_norms(spec_iid("normal"), c, 1),
    ], ids=["sample_vector", "project", "squared_norms"])
    def test_non_integer_count_rejected(self, draw):
        # a count of 2.5 was numpy's TypeError
        with pytest.raises(ConfigurationError):
            draw(2.5)


class TestSquaredNorms:
    @pytest.mark.parametrize("spec", sy.default_catalog(64), ids=lambda s: s.spec_id)
    def test_bit_identical_to_matrix(self, spec):
        # 70001 rows from a Generator and 65539 from a seed both span
        # many blocks
        for count, rng in ((70_001, lambda: np.random.default_rng(4)),
                           (65_539, lambda: 11)):
            a = sy.squared_norms(spec, count, rng())
            b = np.square(sy.sample_vector(spec, count, rng()).matrix).sum(axis=1)
            assert np.array_equal(a, b)


class TestRngRule:
    def test_int_seed_derives_child_stream(self):
        a = as_rng(7, "key", 3).integers(1 << 30, size=4)
        assert np.array_equal(a, make_rng(7, "key", 3).integers(1 << 30, size=4))
        assert master_seed(np.int64(7)) == 7

    def test_generator_used_as_given(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen, "key") is gen
        first, second = np.random.default_rng(1), np.random.default_rng(2)
        assert master_seed(first) != master_seed(second)

    @pytest.mark.parametrize("bad", [1.5, None, "7"])
    def test_other_types_rejected(self, bad):
        with pytest.raises(TypeError):
            as_rng(bad, "key")
        with pytest.raises(TypeError):
            master_seed(bad)


class TestWeightedSum:
    def test_coordinate_projection(self):
        spec = spec_iid("rademacher", 8)
        batch = sy.sample_vector(spec, 2000, 1)
        e1 = Direction(coords=np.eye(8)[0])
        s = sy.weighted_sum(batch, e1)
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_diagonal_direction(self):
        spec = spec_iid("rademacher", 16)
        batch = sy.sample_vector(spec, 2000, 1)
        diag = Direction(coords=np.full(16, 0.25))
        s = sy.weighted_sum(batch, diag)
        expect = batch.matrix.sum(axis=1) / 4.0
        assert np.allclose(s, expect, atol=1e-12)

    def test_variance_bounded_by_M2(self):
        spec = sy.SystemSpec(kind="trigonometric", n=32)
        batch = sy.sample_vector(spec, 50_000, 2)
        theta = sample_direction(32, 4)
        s = sy.weighted_sum(batch, theta)
        se = np.square(s).std(ddof=1) / math.sqrt(s.size)
        assert s.var() <= 1.0 + 3.0 * se  # M_2^2 = 1 for isotropic systems

    def test_dimension_mismatch(self):
        batch = sy.sample_vector(spec_iid("normal", 8), 10, 0)
        with pytest.raises(DomainError):
            sy.weighted_sum(batch, Direction(coords=np.eye(4)[0]))


def matrix_path(spec, theta, count, rng):
    return sy.weighted_sum(sy.sample_vector(spec, count, rng), theta)


FALLBACK_SPECS = [spec for spec in sy.default_catalog(8)
                  if spec.kind not in ("trigonometric", "walsh")]


class TestProject:
    # The walsh lookup equals the matrix path bit for bit where BLAS runs
    # every row of the matrix path through the same matvec kernel: with
    # counts that are multiples of 4, or 2^16 + 1 rows.

    @pytest.mark.parametrize("n", [3, 15, 16, 63])
    def test_walsh_bit_identical(self, n):
        spec = sy.SystemSpec(kind="walsh", n=n)
        theta = sample_direction(n, 5)
        a = sy.project(spec, theta, 4096, make_rng(9, "batch"))
        assert np.array_equal(a, matrix_path(spec, theta, 4096, make_rng(9, "batch")))

    def test_walsh_any_count_agrees_to_rounding(self):
        # at other counts BLAS evaluates trailing rows of the matrix path in a
        # 2-row remainder block, which can move their last bit
        spec = sy.SystemSpec(kind="walsh", n=63)
        theta = sample_direction(63, 5)
        a = sy.project(spec, theta, 5003, make_rng(9, "batch"))
        b = matrix_path(spec, theta, 5003, make_rng(9, "batch"))
        assert np.all(np.abs(a - b) <= 1e-15 * (1.0 + np.abs(b)))

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=lambda s: s.spec_id)
    def test_fallback_bit_identical(self, spec):
        theta = sample_direction(spec.n, 5)
        a = sy.project(spec, theta, 3001, make_rng(9, "batch"))
        assert np.array_equal(a, matrix_path(spec, theta, 3001, make_rng(9, "batch")))

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_trigonometric_within_rounding(self, n):
        spec = sy.SystemSpec(kind="trigonometric", n=n)
        theta = sample_direction(n, 5)
        a = sy.project(spec, theta, 3001, make_rng(9, "batch"))
        b = matrix_path(spec, theta, 3001, make_rng(9, "batch"))
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))

    @pytest.mark.parametrize("spec", [
        sy.SystemSpec(kind="walsh", n=15),
        sy.SystemSpec(kind="trigonometric", n=16),
        spec_iid("uniform", 4),
    ], ids=lambda s: s.spec_id)
    def test_integer_seed_reproduces_shards(self, spec):
        # an integer seed gives one stream for all 2^16 + 1 rows, the
        # matrix path's
        count = (1 << 16) + 1
        theta = sample_direction(spec.n, 5)
        a = sy.project(spec, theta, count, 7)
        b = matrix_path(spec, theta, count, 7)
        if spec.kind == "trigonometric":
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))
        else:
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        spec_iid("uniform", 256),
        spec_iid("exponential", 1024),
        sy.SystemSpec(kind="gaussian_anisotropic", n=64),
        sy.SystemSpec(kind="walsh", n=4095),  # 1957 rows, fewer than the cube's
    ], ids=lambda s: s.spec_id)
    def test_blocks_match_matrix_path(self, spec):
        count = 2 * next(blocks(1 << 62, spec.n)).stop + 5  # three blocks
        theta = sample_direction(spec.n, 5)
        a = sy.project(spec, theta, count, make_rng(9, "batch"))
        b = matrix_path(spec, theta, count, make_rng(9, "batch"))
        assert np.all(np.abs(a - b) <= 1e-15 * (1.0 + np.abs(b)))

    def test_streams_rows(self):
        # the matrix path forms the 100000 x 256 matrix, 205 MB
        spec = spec_iid("uniform", 256)
        theta = sample_direction(256, 5)
        tracemalloc.start()
        try:
            sy.project(spec, theta, 100_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            sy.project(sy.SystemSpec(kind="trigonometric", n=8),
                       Direction(coords=np.eye(4)[0]), 10, 0)

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            sy.project(sy.SystemSpec(kind="trigonometric", n=8),
                       sample_direction(8, 0), 0, 1)

    @settings(max_examples=30, deadline=None)
    @given(half_n=st.integers(1, 96), seed=st.integers(0, 2**32 - 1))
    def test_trigonometric_property(self, half_n, seed):
        spec = sy.SystemSpec(kind="trigonometric", n=2 * half_n)
        theta = sample_direction(spec.n, make_rng(seed, "theta"))
        a = sy.project(spec, theta, 400, make_rng(seed, "batch"))
        b = matrix_path(spec, theta, 400, make_rng(seed, "batch"))
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))


class TestDirectionCf:
    T = np.linspace(0.0, 10.0, 11)

    @pytest.mark.parametrize("spec", sy.default_catalog(64), ids=lambda s: s.spec_id)
    def test_agrees_with_monte_carlo(self, spec):
        # covers trig n=64, Walsh n=63 and uniform n=64, the charfn-suite systems
        theta = sample_direction(spec.n, make_rng(3, "theta", spec.spec_id))
        draws = 40_000
        phase = self.T[:, None] * sy.project(spec, theta, draws, 5)[None, :]
        c, s = np.cos(phase), np.sin(phase)
        se = np.sqrt((c.var(axis=1) + s.var(axis=1)) / draws)
        mc = c.mean(axis=1) + 1j * s.mean(axis=1)
        diff = np.abs(sy.direction_cf(spec, theta, self.T) - mc)
        assert np.all(diff <= 4.0 * se + 1e-12), (diff / np.maximum(se, 1e-300)).max()

    @pytest.mark.parametrize("spec", sy.default_catalog(16), ids=lambda s: s.spec_id)
    def test_one_at_zero(self, spec):
        theta = sample_direction(spec.n, 2)
        assert sy.direction_cf(spec, theta, [0.0])[0] == 1.0

    def test_trig_matches_fine_grid(self):
        # s(w) formed from the coordinates, not by FFT, on 2^17 equispaced w
        theta = sample_direction(64, 6)
        w = 2.0 * math.pi * np.arange(1 << 17) / (1 << 17)
        k = np.arange(1, 33)
        s = (SQRT2 * (np.cos(w[:, None] * k) @ theta.coords[0::2]
                      + np.sin(w[:, None] * k) @ theta.coords[1::2]))
        t = np.array([0.5, 10.0, 320.0])
        fine = np.exp(1j * t[:, None] * s[None, :]).mean(axis=1)
        got = sy.direction_cf(sy.SystemSpec(kind="trigonometric", n=64), theta, t)
        assert np.abs(got - fine).max() <= 1e-11

    def test_trig_ceiling_raises(self, monkeypatch):
        spec = sy.SystemSpec(kind="trigonometric", n=64)
        theta = sample_direction(64, 6)
        monkeypatch.setattr(sy, "TRIG_CF_MAX_POINTS", 512)
        assert sy.direction_cf(spec, theta, [0.0])[0] == 1.0
        with pytest.raises(NumericKernelError):
            sy.direction_cf(spec, theta, self.T)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            sy.direction_cf(spec_iid("uniform", 8), sample_direction(4, 0), self.T)


class TestWalshRows:
    @pytest.mark.parametrize("n", [3, 15, 63, 100])
    def test_lookup_equals_character_products(self, n):
        bits = make_rng(4, "bits").integers(0, 2, size=(1000, sy.walsh_bits(n)))
        eps = bits.astype(float) * 2.0 - 1.0
        old = np.empty((bits.shape[0], n))
        for j, char in enumerate(sy.default_walsh_characters(n)):
            old[:, j] = np.prod(eps[:, np.array(char) - 1], axis=1)
        assert np.array_equal(sy._walsh_rows(n, bits), old)


class TestCovarianceSummary:
    def test_trigonometric_isotropic(self):
        batch = sy.sample_vector(sy.SystemSpec(kind="trigonometric", n=8), 50_000, 11)
        eig = np.linalg.eigvalsh(batch.matrix.T @ batch.matrix / 50_000)
        tol = 5.0 * math.sqrt(8 / 50_000)
        assert abs(eig.max() - 1.0) <= tol
        assert abs(eig.sum() / 8.0 - 1.0) <= tol
        assert abs(np.square(eig).sum() / 8.0 - 1.0) <= tol

    def test_walsh_orthogonality(self):
        spec = sy.SystemSpec(kind="walsh", n=15)
        batch = sy.sample_vector(spec, 40_000, 3)
        cov = batch.matrix.T @ batch.matrix / 40_000
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 4.0 / math.sqrt(40_000)


class TestIsotropyProperty:
    @pytest.mark.parametrize("spec", [
        spec_iid("rademacher", 12), spec_iid("uniform", 12),
        sy.SystemSpec(kind="trigonometric", n=12),
        sy.SystemSpec(kind="walsh", n=12),
    ], ids=lambda s: s.spec_id)
    def test_quadratic_form_near_identity(self, spec):
        batch = sy.sample_vector(spec, 30_000, 17)
        rng = np.random.default_rng(99)
        for _ in range(20):
            a = rng.standard_normal(spec.n)
            a /= np.linalg.norm(a)
            proj_sq = np.square(batch.matrix @ a)
            se = proj_sq.std(ddof=1) / math.sqrt(proj_sq.size)
            assert abs(proj_sq.mean() - 1.0) <= 5.0 * se
