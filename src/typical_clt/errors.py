"""Exception types shared across the package, and the checks that raise them.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numeric-kernel failures with 3, failed inequality checks with 1.
Each argument rule is written once here, checked where an object is built.
"""

import numbers

# Monte Carlo floors: draws, pairs or radial draws of an estimate, and
# directions of a standard error over directions.
BUDGET_FLOOR = 100
DIRECTION_FLOOR = 2


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A system spec or config file is malformed or inconsistent."""


class InsufficientDataError(ValueError):
    """A sample / pair budget is too small for a meaningful estimate."""


class NumericKernelError(RuntimeError):
    """A quadrature or other numeric kernel failed to reach its tolerance."""


class FitUnavailableError(RuntimeError):
    """Too few admissible rows to fit a convergence rate."""


def check_dimension(n) -> int:
    """The dimension of a sphere law or direction: an integer n >= 2, returned as int."""
    if not (isinstance(n, numbers.Real) and n >= 2 and float(n).is_integer()):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def check_budget(budget: int, floor: int = BUDGET_FLOOR, name: str = "budget") -> None:
    """A Monte Carlo budget: an integer >= floor, else InsufficientDataError."""
    if not (isinstance(budget, numbers.Integral) and budget >= floor):
        raise InsufficientDataError(f"{name} must be an integer >= {floor}, got {budget!r}")


def check_count(count: int, name: str) -> None:
    """A thread or sample count: an integer >= 1, else ConfigurationError."""
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ConfigurationError(f"{name} must be an integer >= 1, got {count!r}")
