"""Typical distributions of random weighted sums.

Numerics for the law of <X, theta> over uniformly random directions
theta: sphere-marginal distributions, moment and variance functionals,
characteristic-function bounds, and rate experiments for the Gaussian
approximation of the typical distribution.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DomainError, FitUnavailableError,
                     InsufficientDataError, NumericKernelError)
from .sphere_law import Direction, cdf, density, gap_report, sample_direction
from .systems import (SampleBatch, SystemSpec, built_in_spec, default_catalog,
                      direction_cf, project, sample_vector, weighted_sum)
from .functionals import (Estimate, FunctionalsReport, LowerTailBound,
                          MomentEstimate, compute_functionals,
                          lower_tail_bound, moment_Mp, moment_mp,
                          norm_variance_check, sigma_2p, small_ball)
from .distributions import (DistanceReport, MeanThetaDistance, MixtureCDF,
                            StepCDF, gaussian_mixture_cdf, kolmogorov_distance,
                            mean_theta_distance, noise_floor, typical_cdf)
from .charfn import (CharFnEstimate, charfn_typical, decay_bound_check,
                     poincare_gap_check, smoothing_report, smoothing_rhs)
from .experiments import (RateFit, SweepConfig, SweepRow, fit_rate,
                          parse_config, run_sweep, run_verify)
from .reports import BoundCheck, BoundCheckReport
