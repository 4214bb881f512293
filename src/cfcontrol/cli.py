"""Command-line driver.

Subcommands: ``evolve`` (homogeneous propagation), ``solve`` (semilinear
trajectory without control), ``control`` (exact null-control synthesis and
closed loop), ``verify`` (null-controllability inequality), ``specfun``
(deformed gamma/beta evaluation).

Outputs are ``trajectory.csv`` / ``control.csv`` (columns: tau, t, then
the components) and ``summary.txt`` with ``key=value`` lines.  Runs are
deterministic: the same config and seed produce byte-identical files.
Every failure path exits nonzero after printing a single machine-parseable
``ERROR <CODE>: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ScenarioConfig, parse_config
from .control import (build_gramian, exact_null_control_semilinear,
                      verify_null_inequality)
from .errors import (CfcontrolError, ConfigError, ControllabilityError,
                     ConvergenceError, DomainError, NullControlFailed,
                     NumericError)
from .evolution import build_propagator
from .mild import ControlProblem, contraction_report, picard_solve
from .special import SpecfunParams, conformable_beta, conformable_gamma

__all__ = ["main", "app", "run_scenario"]

_ERROR_TABLE = (
    (ConfigError, "CONFIG", 2),
    (DomainError, "DOMAIN", 3),
    (NumericError, "NUMERIC", 4),
    (ConvergenceError, "CONVERGENCE", 5),
    (ControllabilityError, "CONTROLLABILITY", 6),
    (NullControlFailed, "CONTROL_TOLERANCE", 7),
)
_VERIFY_STATUS = 8

_SUMMARY_KEYS = ("final_state_norm", "control_energy", "gamma_emp",
                 "contraction_lhs", "iterations")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_rows(*columns):
    """Each row of the stacked columns as the comma-joined value reprs."""
    return (",".join(map(repr, row))
            for row in np.column_stack(columns).tolist())


def _state_rows(times, values):
    """CSV rows of ``values`` led by ``times``, the formatted tau, t rows."""
    return (",".join([time, *map(repr, row)])
            for time, row in zip(times, values.tolist()))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row + "\n" for row in rows)


def _write_summary(path, entries):
    ordered = {key: entries.get(key, float("nan")) for key in _SUMMARY_KEYS}
    extras = {k: v for k, v in entries.items() if k not in _SUMMARY_KEYS}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in ordered.items():
            fh.write(f"{key}={_fmt(value)}\n")
        for key in sorted(extras):
            fh.write(f"{key}={_fmt(extras[key])}\n")


def _state_header(dim, prefix="x"):
    return ["tau", "t"] + [f"{prefix}{i}" for i in range(dim)]


def run_scenario(config: ScenarioConfig, pipeline: str, out_dir: str,
                 seed: int | None = None,
                 dump_pairs=None) -> int:
    """Run one pipeline, write its artifacts, and return the exit status.

    Library-level failures propagate as exceptions (mapped to exit codes
    by :func:`main`); an inequality-check miss returns the verify status
    after writing its summary.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory: {exc}") from exc
    if seed is None:
        seed = config.seed
    grid = config.grid()
    family = config.family()
    dim = family.dim
    summary: dict = {}

    if pipeline == "evolve":
        table = build_propagator(family, grid)
        x0 = config.initial_state(dim)
        values = table.homogeneous(x0)
        _write_csv(os.path.join(out_dir, "trajectory.csv"), _state_header(dim),
                   _csv_rows(grid.tau_nodes, grid.t_nodes, values))
        for i, j in (dump_pairs or []):
            if not 0 <= j <= i < grid.n_nodes:
                raise DomainError(
                    f"dump pair ({i}, {j}) outside the grid of "
                    f"{grid.n_nodes} nodes")
            mat = table.matrix(i, j)
            _write_csv(os.path.join(out_dir, f"psi_{i}_{j}.csv"),
                       [f"c{c}" for c in range(dim)], _csv_rows(mat))
        summary.update(final_state_norm=float(np.linalg.norm(values[-1])),
                       iterations=0, propagator_bound=table.norm_bound)
        _write_summary(os.path.join(out_dir, "summary.txt"), summary)
        return 0

    table = build_propagator(family, grid)
    b_matrix = config.control_matrix(dim)
    fun, gamma_growth = config.nonlinearity()
    problem = ControlProblem(family=family, grid=grid,
                             x0=config.initial_state(dim), b_matrix=b_matrix,
                             nonlinearity=fun, picard_tol=config.picard_tol,
                             max_iter=config.max_iter)

    if pipeline == "solve":
        result = picard_solve(problem, table)
        values = result.trajectory.values
        _write_csv(os.path.join(out_dir, "trajectory.csv"), _state_header(dim),
                   _csv_rows(grid.tau_nodes, grid.t_nodes, values))
        summary.update(final_state_norm=float(np.linalg.norm(values[-1])),
                       iterations=result.iterations,
                       picard_residual=result.residual)
        _write_summary(os.path.join(out_dir, "summary.txt"), summary)
        return 0

    if pipeline == "verify":
        gramian = build_gramian(b_matrix, table)
        horizon = config.tau_end - config.tau_start
        rng = np.random.default_rng(seed)
        outcome = verify_null_inequality(gramian, horizon, config.trials,
                                         rng=rng)
        summary.update(gamma_emp=outcome.gamma_emp,
                       gamma_threshold=horizon / (horizon + 1.0),
                       trials=config.trials, iterations=0)
        _write_summary(os.path.join(out_dir, "summary.txt"), summary)
        if not outcome.passes:
            print(f"ERROR VERIFY: empirical constant {outcome.gamma_emp!r} "
                  f"fell below the bound", file=sys.stderr)
            return _VERIFY_STATUS
        return 0

    if pipeline == "control":
        gramian = build_gramian(b_matrix, table)
        report = contraction_report(problem, gramian,
                                    gamma_growth=gamma_growth)
        summary.update(contraction_lhs=report.lhs,
                       contraction_satisfied=int(report.satisfied),
                       propagator_bound=report.propagator_bound,
                       gain_norm=report.gain_norm,
                       gramian_jitter=gramian.jitter)
        try:
            result = exact_null_control_semilinear(problem, gramian,
                                                   null_tol=config.null_tol)
        except NullControlFailed as exc:
            if exc.result is not None:
                summary.update(final_state_norm=exc.result.final_state_norm,
                               control_energy=exc.result.control_energy,
                               iterations=exc.result.iterations)
            _write_summary(os.path.join(out_dir, "summary.txt"), summary)
            raise
        except ConvergenceError as exc:
            summary.update(last_update_norm=exc.last_norm
                           if exc.last_norm is not None else float("nan"))
            _write_summary(os.path.join(out_dir, "summary.txt"), summary)
            raise
        # both files lead with the same tau, t columns: format them once
        times = list(_csv_rows(grid.tau_nodes, grid.t_nodes))
        _write_csv(os.path.join(out_dir, "trajectory.csv"), _state_header(dim),
                   _state_rows(times, result.closed_loop_trajectory.values))
        _write_csv(os.path.join(out_dir, "control.csv"),
                   _state_header(result.control.dim, prefix="u"),
                   _state_rows(times, result.control.values))
        summary.update(final_state_norm=result.final_state_norm,
                       control_energy=result.control_energy,
                       iterations=result.iterations)
        _write_summary(os.path.join(out_dir, "summary.txt"), summary)
        return 0

    raise ConfigError(f"unknown pipeline {pipeline!r}")


def _specfun(args) -> int:
    params = SpecfunParams(alpha=args.alpha, k=args.k)
    if args.function == "gamma":
        if args.p is None:
            raise DomainError("gamma needs --p")
        value = conformable_gamma(args.p, params, method=args.method)
    else:
        if args.x is None or args.y is None:
            raise DomainError("beta needs --x and --y")
        value = conformable_beta(args.x, args.y, params, method=args.method)
    print(f"{value:.12f}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cfcontrol",
        description="Conformable-order evolution, mild solutions, and "
                    "exact null-control synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("evolve", "propagate the homogeneous system"),
            ("solve", "solve the semilinear system without control"),
            ("control", "synthesize an exact null control and close the loop"),
            ("verify", "check the null-controllability inequality")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "evolve":
            p.add_argument("--dump-pair", nargs=2, type=int,
                           action="append", metavar=("I", "J"),
                           help="write the operator matrix for a node pair")

    p = sub.add_parser("specfun", help="evaluate the deformed gamma/beta")
    p.add_argument("function", choices=("gamma", "beta"))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--method", choices=("reduction", "quadrature"),
                   default="reduction")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "specfun":
            return _specfun(args)
        config = parse_config(args.config)
        out_dir = args.out if args.out != "out" or config.out_dir is None \
            else config.out_dir
        return run_scenario(config, args.command, out_dir, seed=args.seed,
                            dump_pairs=getattr(args, "dump_pair", None))
    except CfcontrolError as exc:
        for cls, code, status in _ERROR_TABLE:
            if isinstance(exc, cls):
                print(f"ERROR {code}: {exc}", file=sys.stderr)
                return status
        print(f"ERROR INTERNAL: {exc}", file=sys.stderr)
        return 1


def app():
    sys.exit(main())


if __name__ == "__main__":
    app()
