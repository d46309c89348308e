"""Command-line front end.

Subcommands: ``run`` (one configured experiment), ``suite`` (acceptance or
figures), ``ode`` (integrate the high-resolution equation and certify the
continuous bound), ``scan`` (step-size monotonicity scan).  Relative
outputs land under $ACCELCERT_OUT (default: current directory), their
directories created (:func:`~accelcert.harness.output_file`).  Exit
codes: 0 pass, 1 certificate failure, 2 usage or config error or an
output path that cannot be made.  A flag value that its argparse type
accepts but the run cannot take is a config error naming the flag,
checked by :func:`~accelcert.harness.checked_fields`.  A step the run
diverges at is a config error too: ``--h`` for an ``ode`` solution that
turns non-finite, ``--s-grid`` for a ``scan`` run.  ``ode`` and ``scan``
make their output directories only once the run has succeeded, so a
config error leaves none behind.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis
from .harness import (ConfigError, OBJECTIVE_IDS, OBJECTIVE_PARAMS,
                      OUTPUT_ROOT_ENV, check_x0_length, checked_fields,
                      execute, fmt, load_config, objective_from_params,
                      output_file, suite, summary_path, write_ode_csv,
                      write_scan_csv, write_summary)
from .hires_ode import (EQUATIONS, NonFiniteSolutionError,
                        check_continuous_bound, integrate)
from .optimizers import NonFiniteIterateError


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelcert",
        description="Momentum-method convergence certificates at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config (JSON)")
    p_run.add_argument("--config", required=True, help="path to the config document")
    p_run.add_argument("--out", default=None,
                       help=f"output root (default: ${OUTPUT_ROOT_ENV} or .)")

    p_suite = sub.add_parser("suite", help="run a predefined experiment suite")
    p_suite.add_argument("name", choices=("acceptance", "figures"))
    p_suite.add_argument("--out", default=None)

    p_ode = sub.add_parser("ode", help="integrate the high-resolution equation")
    p_ode.add_argument("--objective", default="quad",
                       choices=OBJECTIVE_IDS)
    p_ode.add_argument("--spectrum", type=_floats, default=[1.0, 4.0],
                       help="comma-separated eigenvalues (quad objectives)")
    p_ode.add_argument("--rotation-seed", type=int, default=0)
    p_ode.add_argument("--data-seed", type=int, default=3)
    p_ode.add_argument("--n-samples", type=int, default=50)
    p_ode.add_argument("--dim", type=int, default=2)
    p_ode.add_argument("--reg", type=float, default=0.1)
    p_ode.add_argument("--s", type=float, required=True)
    p_ode.add_argument("--T", type=float, required=True)
    p_ode.add_argument("--h", type=float, required=True)
    p_ode.add_argument("--which", choices=EQUATIONS, default="simplified")
    p_ode.add_argument("--x0", type=_floats, default=None,
                       help="comma-separated start (default: ones)")
    p_ode.add_argument("--out", default=None)
    p_ode.add_argument("--output-path", default="ode.csv")

    p_scan = sub.add_parser("scan", help="monotonicity scan over step sizes")
    p_scan.add_argument("--mu", type=float, required=True)
    p_scan.add_argument("--spectrum", type=_floats, required=True)
    p_scan.add_argument("--s-grid", type=_floats, required=True)
    p_scan.add_argument("--K", type=int, default=500)
    p_scan.add_argument("--x0", type=_floats, default=None)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--output-path", default="scan.csv")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = execute(config, out_root=args.out)
    for key, value in result.summary.items():
        print(f"{key}: {value}")
    return 0 if result.ok else 1


def _cmd_ode(args) -> int:
    params = checked_fields(vars(args), OBJECTIVE_PARAMS[args.objective],
                            flags=True)
    checked_fields(vars(args), ("s", "h", "T", "x0"), flags=True)
    check_x0_length(args.x0, params, flags=True)
    f = objective_from_params(args.objective, params)
    x0 = np.ones(f.dim) if args.x0 is None else np.asarray(args.x0, float)
    try:
        # a diverging run is reported below as a config error, so the
        # overflow on its way there is not warned about as well
        with np.errstate(over="ignore", invalid="ignore"):
            solution = integrate(f, x0, args.s, args.T, args.h,
                                 which=args.which)
    except ValueError as exc:  # the arguments checked, T is not n * h
        raise ConfigError(f"--T: {exc}") from exc
    except NonFiniteSolutionError as exc:  # a step h that RK4 diverges at
        raise ConfigError(f"--h: {exc}") from exc
    csv_path = output_file(args.out, args.output_path)
    write_ode_csv(solution, f, args.s, f.mu, csv_path)
    summary = {
        "objective": f.name, "equation": args.which, "s": fmt(args.s),
        "T": fmt(args.T), "h": fmt(args.h), "samples": len(solution),
    }
    status = 0
    if args.which in analysis.CONTINUOUS.methods:
        report = check_continuous_bound(solution, f, args.s, f.mu)
        summary["bound_violations"] = report.n_failed
        summary["bound_worst_margin"] = fmt(report.worst_margin)
        summary["worst_energy_ratio"] = fmt(report.details["worst_energy_ratio"])
        status = 0 if report.passed else 1
        if report.details["bound_failures"] and report.first_failure == 0:
            print(f"note: the start breaks f(x0) - f* <= mu ||x0 - x*||^2 "
                  f"({fmt(report.details['start_gap'])} > "
                  f"{fmt(report.details['start_mu_dist_sq'])}), so the bound "
                  "fails at t = 0; choose another --x0", file=sys.stderr)
    write_summary(summary, summary_path(csv_path))
    for key, value in summary.items():
        print(f"{key}: {value}")
    return status


def _cmd_scan(args) -> int:
    checked_fields(vars(args), ("mu", "spectrum", "s_grid", "K", "x0", "seed"),
                   flags=True)
    check_x0_length(args.x0, vars(args), flags=True)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as in _cmd_ode
            report = analysis.monotonicity_scan(args.mu, args.spectrum,
                                                args.s_grid, K=args.K,
                                                x0=args.x0, x0_seed=args.seed)
    except ValueError as exc:  # flags checked: mu above the smallest eigenvalue
        raise ConfigError(f"--mu: {exc}") from exc
    except NonFiniteIterateError as exc:  # a step size the scheme diverges at
        raise ConfigError(f"--s-grid: {exc}") from exc
    csv_path = output_file(args.out, args.output_path)
    write_scan_csv(report, csv_path)
    for s, (pred, obs) in report.per_s.items():
        print(f"s={s:g}: predicted_monotone={fmt(pred)} "
              f"observed_monotone={fmt(obs)}")
    print(f"agreement: {fmt(report.agreement)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return suite(args.name, out_root=args.out)
        if args.command == "ode":
            return _cmd_ode(args)
        return _cmd_scan(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
