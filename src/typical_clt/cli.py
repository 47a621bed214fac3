"""Command-line harness.

Subcommands: verify (inequality suites), sweep (rate experiments from a
config file), functionals, distance, charfn.  Exit codes: 0 pass,
1 check failure, 2 configuration error, 3 numeric-kernel failure.

This module loads no numpy: `main` pins BLAS to one thread before numpy
loads, so `--threads T` means T pool threads of one BLAS thread each.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (ConfigurationError, DomainError, FitUnavailableError,
                     InsufficientDataError, NumericKernelError)
from .reports import check_output, format_row, write_csv

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Default each BLAS thread variable to "1" (a set value wins) before numpy loads."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def _moment_orders(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    from . import charfn as cf, experiments as ex
    threads_help = ("pool threads, each with one BLAS thread unless the "
                    "environment sets the BLAS variables")
    parser = argparse.ArgumentParser(
        prog="typical-clt",
        description="Typical distributions of random weighted sums: "
                    "verification suites and rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run registered inequality suites")
    p.add_argument("--suite", default="all",
                   choices=["all", *ex.SUITES])
    p.add_argument("--seed", type=int, default=ex.DEFAULT_SEED)
    p.add_argument("--budget-scale", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.add_argument("--output", default="verify.csv")

    p = sub.add_parser("sweep", help="run a rate sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1, help=threads_help)

    p = sub.add_parser("functionals", help="estimate moment functionals")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_moment_orders, default="2,3",
                   help="comma-separated moment orders")
    p.add_argument("--budget", type=int, default=ex.DEFAULT_VERIFY_BUDGET)
    p.add_argument("--seed", type=int, default=ex.DEFAULT_SEED)
    p.add_argument("--output", default=None)

    p = sub.add_parser("distance", help="mean Kolmogorov distance over directions")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True, choices=ex.TARGETS)
    p.add_argument("--theta-budget", type=int, default=ex.DEFAULT_THETA_BUDGET)
    p.add_argument("--per-theta", type=int, default=ex.DEFAULT_PER_THETA)
    p.add_argument("--radial", type=int, default=ex.DEFAULT_RADIAL)
    p.add_argument("--seed", type=int, default=ex.DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.add_argument("--output", default=None)

    p = sub.add_parser("charfn", help="characteristic function of the typical law")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=cf.DEFAULT_GRID_POINTS)
    p.add_argument("--radial", type=int, default=ex.DEFAULT_RADIAL)
    p.add_argument("--seed", type=int, default=ex.DEFAULT_SEED)
    p.add_argument("--output", default=None)
    return parser


def _cmd_verify(args) -> int:
    from . import experiments as ex
    report = ex.run_verify(suite=args.suite, budget_scale=args.budget_scale,
                           seed=args.seed, threads=args.threads,
                           output=args.output)
    failures = report.failures()
    print(f"verify: {len(report.checks) - len(failures)}/{len(report.checks)} "
          f"checks passed (suite={args.suite}, seed={args.seed})")
    for c in failures:
        print(f"  FAIL {c.name} [{c.spec_id} n={c.n}] "
              f"lhs={c.lhs:.6g} rhs={c.rhs:.6g} slack={c.slack:.6g}")
    print(f"wrote {args.output}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def _cmd_sweep(args) -> int:
    from . import experiments as ex
    config = ex.parse_config(args.config)
    try:
        fit = ex.run_sweep(config, threads=args.threads)
    except FitUnavailableError as exc:
        print(f"sweep: wrote {config.output}; rate fit unavailable: {exc}")
        return EXIT_OK
    print(f"sweep: wrote {config.output}")
    print(f"rate fit: slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
          f"residual={fit.residual:.4f}")
    for row, used in zip(fit.rows, fit.used):
        tag = "fit" if used else "below-floor"
        print(f"  n={row.n:5d} mean_rho={row.mean_rho:.6f} se={row.se:.6f} "
              f"floor={row.noise_floor:.6f} [{tag}]")
    return EXIT_OK


def _cmd_functionals(args) -> int:
    from . import functionals as fn, systems as sy
    spec = sy.built_in_spec(args.spec, args.n)
    report = fn.compute_functionals(spec, p_values=args.p,
                                    budget=args.budget, seed=args.seed)
    header, rows = report.csv_rows()
    if args.output:
        write_csv(args.output, header, rows)
        print(f"wrote {args.output}")
    print(",".join(header))
    for row in rows:
        print(format_row(row))
    return EXIT_OK


def _cmd_distance(args) -> int:
    from . import distributions as di, experiments as ex, systems as sy
    spec = sy.built_in_spec(args.spec, args.n)
    res = di.mean_theta_distance(
        spec, args.target, theta_budget=args.theta_budget,
        per_theta_budget=args.per_theta, radial_budget=args.radial,
        rng=args.seed, threads=args.threads)
    print(f"mean rho = {res.mean:.6f} +- {res.se:.6f} "
          f"(noise floor {res.noise_floor:.6f}, target {args.target}, "
          f"spec {spec.spec_id})")
    if args.output:
        write_csv(args.output, ex.PER_THETA_HEADER, ex.per_theta_rows(res, res.seed))
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_charfn(args) -> int:
    from . import charfn as cf, systems as sy
    spec = sy.built_in_spec(args.spec, args.n)
    grid = cf.default_t_grid(args.tmax, args.points)
    est = cf.charfn_typical(spec, grid, radial_budget=args.radial, rng=args.seed)
    header, rows = est.csv_rows()
    if args.output:
        write_csv(args.output, header, rows)
        print(f"wrote {args.output}")
    else:
        print(",".join(header))
        for row in rows:
            print(format_row(row))
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "functionals": _cmd_functionals,
    "distance": _cmd_distance,
    "charfn": _cmd_charfn,
}


def main(argv=None) -> int:
    pin_blas_threads()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "output", None) is not None:  # sweep's is in its config
            check_output(args.output)
        return _COMMANDS[args.command](args)
    except (ConfigurationError, DomainError, InsufficientDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericKernelError as exc:
        print(f"numeric kernel failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
