"""Every entry point a rule governs raises that rule's typed error.

Each rule on arguments is written once: the dimension (`errors.
check_dimension`), the Monte Carlo budget floors (`errors.check_budget`),
the thread count (`errors.check_count`), the direction size of
`systems`, and the finite inputs of `Direction`, `StepCDF` and the cf
grid of `charfn_typical`.  Each table below lists the entry points of
one rule, and each case feeds one of them one bad input; an entry point
that skips its rule fails here.
"""

import numpy as np
import pytest

from typical_clt import charfn as cf
from typical_clt import distributions as di
from typical_clt import experiments as ex
from typical_clt import functionals as fn
from typical_clt import sphere_law as sl
from typical_clt import systems as sy
from typical_clt.errors import ConfigurationError, DomainError, InsufficientDataError

UNIFORM8 = sy.SystemSpec(kind="uniform", n=8)
RADEMACHER64 = sy.SystemSpec(kind="rademacher", n=64)
THETA4 = sl.sample_direction(4, 0)
T = np.array([0.5, 1.0])

# entry point -> call with a dimension n
DIMENSION = {
    "log_norm_const": sl.log_norm_const,
    "density": lambda n: sl.density(n, 0.5),
    "cdf": lambda n: sl.cdf(n, 0.5),
    "cdf_table": sl.cdf_table,
    "sample_direction": lambda n: sl.sample_direction(n, 0),
    "charfn_Jn_grid": lambda n: sl.charfn_Jn_grid(n, [1.0]),
    "JnTable": lambda n: sl.JnTable(n, 1),
    "jn_table": lambda n: sl.jn_table(n, 10.0),
    "gap_report": lambda n: sl.gap_report(n_grid=(n,)),
    "MixtureCDF": lambda n: di.MixtureCDF(radii=[1.0], weights=[1.0], kernel="sphere", n=n),
}

# entry point -> call with a draw, pair or radial-draw budget
BUDGET = {
    "moment_Mp": lambda b: fn.moment_Mp(UNIFORM8, 3.0, budget=b),
    "moment_mp": lambda b: fn.moment_mp(UNIFORM8, 2.0, pairs=b),
    "sigma_2p": lambda b: fn.sigma_2p(UNIFORM8, 2.0, budget=b),
    "norm_variance_check": lambda b: fn.norm_variance_check(UNIFORM8, budget=b),
    "small_ball": lambda b: fn.small_ball(UNIFORM8, budget=b),
    "charfn_typical": lambda b: cf.charfn_typical(UNIFORM8, T, radial_budget=b),
    "radial_atoms": lambda b: di.radial_atoms(UNIFORM8, b, 0),
    "typical_cdf": lambda b: di.typical_cdf(UNIFORM8, radial_budget=b),
    "build_target": lambda b: di.build_target(UNIFORM8, "G", b, 0),
    "mean_theta_distance": lambda b: di.mean_theta_distance(
        UNIFORM8, theta_budget=2, per_theta_budget=b),
    "mean_theta_distance-radial": lambda b: di.mean_theta_distance(
        UNIFORM8, "F", theta_budget=2, per_theta_budget=100, radial_budget=b),
    "decay_bound_check": lambda b: cf.decay_bound_check(
        UNIFORM8, T, theta_budget=2, sample_budget=b),
    "noise_floor": di.noise_floor,
}

# entry point -> call with a direction count
DIRECTIONS = {
    "mean_theta_distance": lambda k: di.mean_theta_distance(
        UNIFORM8, theta_budget=k, per_theta_budget=100),
    "poincare_gap_check": lambda k: cf.poincare_gap_check(UNIFORM8, T, theta_budget=k),
    "decay_bound_check": lambda k: cf.decay_bound_check(
        UNIFORM8, T, theta_budget=k, sample_budget=100),
    "smoothing_report": lambda k: cf.smoothing_report(
        UNIFORM8, theta_budget=k, radial_budget=100, grid_points=8,
        rho_theta_budget=2, rho_sample_budget=100),
}

# entry point -> call with a thread count
THREADS = {
    "mean_theta_distance": lambda t: di.mean_theta_distance(
        UNIFORM8, theta_budget=2, per_theta_budget=100, threads=t),
    "mean_theta_distances": lambda t: di.mean_theta_distances(
        [(UNIFORM8, 0), (UNIFORM8, 1)], theta_budget=2, per_theta_budget=100, threads=t),
    "run_verify": lambda t: ex.run_verify(suite="tail", budget_scale=0.01, threads=t),
    "run_sweep": lambda t: ex.run_sweep(ex.SweepConfig(
        system="uniform", n_list=(8, 16), theta_budget=2, per_theta_budget=100,
        radial_budget=100, output="sweep.csv"), threads=t),
}

# entry point -> call with a direction of another dimension than the system's
DIRECTION_SIZE = {
    "weighted_sum": lambda th: sy.weighted_sum(sy.sample_vector(UNIFORM8, 3, 0), th),
    "project": lambda th: sy.project(UNIFORM8, th, 100, 0),
    "direction_cf": lambda th: sy.direction_cf(UNIFORM8, th, T),
}

# entry point -> call with values holding a nan or an infinity
FINITE = {
    "Direction": lambda v: sl.Direction(coords=np.array(v)),
    "StepCDF.from_samples": di.StepCDF.from_samples,
    "charfn_typical": lambda v: cf.charfn_typical(UNIFORM8, v, radial_budget=100),
    # a fixed-norm n >= 13 system reads its J_n table once, with 0 past
    # the table's cutoff, where a nan or infinite t would land
    "charfn_typical-n64": lambda v: cf.charfn_typical(RADEMACHER64, v),
}

CASES = [
    *(pytest.param(call, n, DomainError, id=f"dimension-{name}-{n}")
      for name, call in DIMENSION.items() for n in (1, 2.5)),
    *(pytest.param(call, 99, InsufficientDataError, id=f"budget-{name}")
      for name, call in BUDGET.items()),
    *(pytest.param(call, 150.5, InsufficientDataError, id=f"budget-{name}-150.5")
      for name, call in BUDGET.items()),
    *(pytest.param(call, k, InsufficientDataError, id=f"directions-{name}{label}")
      for name, call in DIRECTIONS.items() for k, label in ((1, ""), (2.5, "-2.5"))),
    *(pytest.param(call, t, ConfigurationError, id=f"threads-{name}-{t}")
      for name, call in THREADS.items() for t in (0, 2.5)),
    *(pytest.param(call, THETA4, DomainError, id=f"direction_size-{name}")
      for name, call in DIRECTION_SIZE.items()),
    *(pytest.param(call, v, DomainError, id=f"finite-{name}-{label}")
      for name, call in FINITE.items()
      for label, v in (("nan", [np.nan, 0.0]), ("inf", [0.1, np.inf]))),
]


@pytest.mark.parametrize("call, bad, error", CASES)
def test_rule_raises_its_typed_error(call, bad, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a sweep that skips its rule writes
    with pytest.raises(error):
        call(bad)
