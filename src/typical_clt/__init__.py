"""Typical distributions of random weighted sums.

Numerics for the law of <X, theta> over uniformly random directions
theta: sphere-marginal distributions, moment and variance functionals,
characteristic-function bounds, and rate experiments for the Gaussian
approximation of the typical distribution.

The public names are loaded on first access (PEP 562), so importing the
package, or `typical_clt.cli`, loads no numpy: the CLI sets the BLAS
thread variables first, and OpenBLAS reads them when numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigurationError", "DomainError", "FitUnavailableError",
               "InsufficientDataError", "NumericKernelError"),
    "sphere_law": ("Direction", "cdf", "density", "gap_report", "sample_direction"),
    "systems": ("SampleBatch", "SystemSpec", "built_in_spec", "default_catalog",
                "direction_cf", "project", "sample_vector", "weighted_sum"),
    "functionals": ("Estimate", "FunctionalsReport", "LowerTailBound", "MomentEstimate",
                    "compute_functionals", "lower_tail_bound", "moment_Mp", "moment_mp",
                    "norm_variance_check", "sigma_2p", "small_ball"),
    "distributions": ("DistanceReport", "MeanThetaDistance", "MixtureCDF", "StepCDF",
                      "gaussian_mixture_cdf", "kolmogorov_distance",
                      "mean_theta_distance", "noise_floor", "typical_cdf"),
    "charfn": ("CharFnEstimate", "charfn_typical", "decay_bound_check",
               "poincare_gap_check", "smoothing_report", "smoothing_rhs"),
    "experiments": ("RateFit", "SweepConfig", "SweepRow", "fit_rate", "parse_config",
                    "run_sweep", "run_verify"),
    "reports": ("BoundCheck", "BoundCheckReport"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
