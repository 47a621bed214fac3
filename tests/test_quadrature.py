"""The one block rule: block shapes, numbers that ignore it, traced peaks."""

import tracemalloc

import numpy as np
import pytest

from typical_clt import charfn as cf
from typical_clt import distributions as di
from typical_clt import functionals as fn
from typical_clt import quadrature
from typical_clt import systems as sy
from typical_clt.quadrature import blocks
from typical_clt.rng import make_rng
from typical_clt.sphere_law import charfn_Jn_grid, sample_direction

UNIFORM16 = sy.SystemSpec(kind="uniform", n=16)
UNIFORM64 = sy.SystemSpec(kind="uniform", n=64)
# 8 rows of the widest temporary below, 3000 radial atoms, still fit
SMALL_BLOCK = 1 << 15


@pytest.mark.parametrize("rows, width, sizes", [
    (0, 4, []),
    (7, 1, [7]),
    (1001, 64, [1001]),
    (2 * 7808 + 1, 64, [7808, 7809]),       # 7812 rows fit; a lone last row joins
    (2 * 7808 + 2, 64, [7808, 7808, 2]),
    (10**6, 3, [166_664] * 6 + [16]),
    (17, 62_500, [8, 9]),
    (5, 70_000, [5]),                       # fewer than 8 rows fit: 7 per block
    (3, 499_999, [1, 1, 1]),
])
def test_blocks_cover_rows_in_order(monkeypatch, rows, width, sizes):
    # the cutting rule at a fixed size; the cases are not about the default
    monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", 500_000)
    cut = list(blocks(rows, width))
    assert [b.stop - b.start for b in cut] == sizes
    assert [b.start for b in cut] == [sum(sizes[:i]) for i in range(len(sizes))]


def _blocked_results() -> dict:
    """Every blocked loop of the package, on inputs that span many small blocks."""
    theta16 = sample_direction(16, 5)
    out = {}
    mix = di.typical_cdf(UNIFORM16, radial_budget=3000, rng=1)
    out["mixture_direct"] = mix.cdf(np.linspace(-5.0, 5.0, 2001))
    assert not mix.tabulates(2001) and mix.tabulates(8001)
    out["mixture_table"] = mix.cdf(np.linspace(-5.0, 5.0, 8001))
    out["jn_grid"] = charfn_Jn_grid(16, np.linspace(0.0, 50.0, 1000))
    typical = cf.charfn_typical(UNIFORM16, np.linspace(0.01, 10.0, 200),
                                radial_budget=3000, rng=2)
    out["charfn_typical"] = np.concatenate([typical.values, typical.se])
    out["project_uniform"] = sy.project(UNIFORM16, theta16, 5000, make_rng(3, "u"))
    out["project_trig"] = sy.project(sy.SystemSpec(kind="trigonometric", n=16),
                                     theta16, 40_000, make_rng(3, "t"))
    out["project_walsh"] = sy.project(sy.SystemSpec(kind="walsh", n=15),
                                      sample_direction(15, 5), 20_000, make_rng(3, "w"))
    out["squared_norms"] = sy.squared_norms(UNIFORM16, 5000, 4)
    out["pair_products"] = fn._pair_inner_products(UNIFORM16, 5000, np.random.default_rng(6))
    for name, rng in (("small_ball", 7), ("small_ball_twin", np.random.default_rng(7))):
        sb = fn.small_ball(UNIFORM16, budget=5000, rng=rng)
        out[name] = np.array([sb.empirical, sb.se, sb.bound, sb.bound_se])
    # 81 and 80 candidates: an odd last column, scored apart, and none
    for spec in (UNIFORM16, sy.SystemSpec(kind="walsh", n=15)):
        for p in (2.5, 3.0):
            mp = fn.moment_Mp(spec, p, budget=5000, rng=make_rng(8, spec.spec_id, int(2 * p)))
            out[f"Mp_{spec.spec_id}_{p}"] = np.concatenate([[mp.value, mp.se], mp.direction])
    return out


@pytest.fixture(scope="module")
def default_results():
    return _blocked_results()


@pytest.mark.parametrize("entries", [SMALL_BLOCK, quadrature.BLOCK_ENTRIES],
                         ids=["small", "default"])
def test_block_size_never_changes_a_number(monkeypatch, default_results, entries):
    # bit for bit, with the one BLAS thread that conftest.py pins
    monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", entries)
    got = _blocked_results()
    for name, ref in default_results.items():
        assert np.array_equal(got[name], ref), name


def _table_build():
    mix = di.typical_cdf(UNIFORM16, radial_budget=100_000, rng=1)
    di.cdf_table(16)
    return lambda: mix.cdf(np.linspace(-5.0, 5.0, 1000))  # builds the table


def _aniso_m2():
    spec = sy.SystemSpec(kind="gaussian_anisotropic", n=64)
    return lambda: fn.moment_mp(spec, 2.0, pairs=500_000, rng=make_rng(1, "m2"))


def _typical_cf():
    # the call reads J_64 up to t sqrt(n) = 80 times its largest deposited
    # node, 1.267 at this seed: below 144, the candidate cutoff the table
    # for 101.4 reaches, so the call reads the cached table
    cf.jn_table(64, 101.4)
    return lambda: cf.charfn_typical(UNIFORM64, cf.default_t_grid(10.0),
                                     radial_budget=100_000, rng=2)


def _small_ball():
    return lambda: fn.small_ball(UNIFORM64, budget=30_000, rng=3)


def _search_Mp():
    return lambda: fn.moment_Mp(UNIFORM64, 3.0, budget=20_000, rng=4)


def _sweep_targets():
    # one thread builds one target at a time; each of these holds 3.7 MB
    # (200000 radial atoms and weights, and its table), and is freed once
    # the last direction of its n, the last holder of its build's future,
    # has run: 14 MB traced, 25 MB with all five kept to the end
    ns = (8, 10, 12, 14, 16)
    for n in ns:
        di.cdf_table(n)
    cells = [(sy.SystemSpec(kind="uniform", n=n), make_rng(9, "sweep_n", n)) for n in ns]
    return lambda: di.mean_theta_distances(cells, "F", theta_budget=4, per_theta_budget=1000,
                                           radial_budget=200_000, threads=1)


# the peaks of 32 MB kernel blocks and 65536-row pair blocks were 174, 100,
# 82 and 59 MB; small_ball's two whole sample matrices took 38 MB, and the
# M_p search's whole-batch scores 69 MB.  The search still holds its batch
# (10 MB at 20000 x 64).
@pytest.mark.parametrize("layer, bound_mb", [
    (_table_build, 40), (_aniso_m2, 40), (_typical_cf, 40), (_small_ball, 8),
    (_search_Mp, 16), (_sweep_targets, 20),
], ids=["table_build", "aniso_m2", "charfn_typical", "small_ball", "moment_Mp",
        "sweep_targets"])
def test_traced_peak_per_layer(layer, bound_mb):
    run = layer()  # warm caches, such as the sphere CDF table, stay outside
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20
