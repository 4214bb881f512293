"""Command-line driver.

Subcommands: ``evolve`` (homogeneous propagation), ``solve`` (semilinear
trajectory without control), ``control`` (exact null-control synthesis and
closed loop), ``verify`` (null-controllability inequality), ``specfun``
(deformed gamma/beta evaluation).

Outputs are ``trajectory.csv`` / ``control.csv`` (columns: tau, t, then
the components) and ``summary.txt`` with ``key=value`` lines.  Runs are
deterministic: the same config produces byte-identical files.
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
from .emit import write_csvs, write_text
from .errors import (CfcontrolError, ConfigError, ControllabilityError,
                     ConvergenceError, DomainError, InequalityFailed,
                     NullControlFailed, NumericError)
from .evolution import build_propagator
from .grids import safe_norm
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
    (InequalityFailed, "VERIFY", 8),
)
# the failures that judge a finished computation: they leave its summary
_VERDICTS = (ConvergenceError, NullControlFailed, InequalityFailed)
_PIPELINES = ("evolve", "solve", "verify", "control")

_SUMMARY_KEYS = ("final_state_norm", "control_energy", "gamma_emp",
                 "contraction_lhs", "iterations")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_summary(out_dir, entries):
    ordered = {key: entries.get(key, float("nan")) for key in _SUMMARY_KEYS}
    ordered.update((k, entries[k]) for k in sorted(entries)
                   if k not in _SUMMARY_KEYS)
    write_text(os.path.join(out_dir, "summary.txt"),
               "".join(f"{key}={_fmt(value)}\n"
                       for key, value in ordered.items()))


def _state_header(dim, prefix="x"):
    return ["tau", "t"] + [f"{prefix}{i}" for i in range(dim)]


def _loop_entries(result):
    return dict(final_state_norm=result.final_state_norm,
                control_energy=result.control_energy,
                iterations=result.iterations)


def run_scenario(config: ScenarioConfig, pipeline: str, out_dir: str,
                 dump_pairs=None) -> int:
    """Run one pipeline, write its files, and return 0.

    The pipeline fills one summary and returns its CSV tables; they are
    written here, each table by one :func:`write_csvs` call, and then
    ``summary.txt``.  Every failure propagates as an exception, mapped to
    an exit code by :func:`main`.  A verdict (``ConvergenceError``,
    ``NullControlFailed``, ``InequalityFailed``) first writes the summary
    computed so far and no CSV; any other failure writes nothing.
    """
    if pipeline not in _PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory: {exc}") from exc
    grid = config.grid()
    dump_pairs = dump_pairs or ()
    for i, j in dump_pairs:
        if not 0 <= j <= i < grid.n_nodes:
            raise DomainError(f"dump pair ({i}, {j}) outside the grid of "
                              f"{grid.n_nodes} nodes")
    summary: dict = {}
    try:
        tables = _run(config, pipeline, grid, dump_pairs, summary)
    except _VERDICTS as exc:
        if isinstance(exc, ConvergenceError):
            summary["last_update_norm"] = exc.last_norm
        elif isinstance(exc, NullControlFailed):
            summary.update(_loop_entries(exc.result))
        _write_summary(out_dir, summary)
        raise
    for columns, files in tables:
        write_csvs([(os.path.join(out_dir, name), header, picks)
                    for name, header, picks in files], *columns)
    _write_summary(out_dir, summary)
    return 0


def _run(config, pipeline, grid, dump_pairs, summary):
    """Fill ``summary`` and return the CSV tables of one pipeline, each
    ``(columns, files)`` with files ``(name, header, picks)`` as in
    :func:`write_csvs`."""
    family = config.family()
    dim = family.dim
    table = build_propagator(family, grid)
    trajectory = ("trajectory.csv", _state_header(dim), range(2 + dim))

    if pipeline == "evolve":
        with np.errstate(all="ignore"):
            values = table.homogeneous(config.initial_state(dim))
        if not np.isfinite(values).all():
            raise NumericError("the trajectory is not finite")
        summary.update(final_state_norm=safe_norm(values[-1]),
                       iterations=0, propagator_bound=table.norm_bound)
        pair = ([f"c{c}" for c in range(dim)], range(dim))
        return [((grid.tau_nodes, grid.t_nodes, values), [trajectory])] + [
            ((table.matrix(i, j),), [(f"psi_{i}_{j}.csv", *pair)])
            for i, j in dump_pairs]

    if pipeline == "verify":
        outcome = verify_null_inequality(
            build_gramian(config.control_matrix(dim), table))
        summary.update(gamma_emp=outcome.gamma_emp,
                       gamma_threshold=outcome.threshold, iterations=0)
        if not outcome.passes:
            raise InequalityFailed(f"inequality constant {outcome.gamma_emp!r}"
                                   " fell below the bound")
        return []

    fun, gamma_growth = config.nonlinearity()
    problem = ControlProblem(x0=config.initial_state(dim), nonlinearity=fun,
                             picard_tol=config.picard_tol,
                             max_iter=config.max_iter)

    if pipeline == "solve":
        result = picard_solve(problem, table)
        summary.update(final_state_norm=safe_norm(result.trajectory[-1]),
                       iterations=result.iterations,
                       picard_residual=result.residual)
        return [((grid.tau_nodes, grid.t_nodes, result.trajectory),
                 [trajectory])]

    gramian = build_gramian(config.control_matrix(dim), table)
    report = contraction_report(gramian, gamma_growth=gamma_growth)
    summary.update(contraction_lhs=report.lhs,
                   contraction_satisfied=int(report.satisfied),
                   propagator_bound=report.propagator_bound,
                   gain_norm=report.gain_norm,
                   gramian_jitter=gramian.jitter)
    result = exact_null_control_semilinear(problem, gramian,
                                           null_tol=config.null_tol)
    summary.update(_loop_entries(result))
    # one table (tau, t, x..., u...); each file prints tau, t and its own
    # components
    inputs = result.control.shape[1]
    return [((grid.tau_nodes, grid.t_nodes, result.closed_loop_trajectory,
              result.control),
             [trajectory, ("control.csv", _state_header(inputs, prefix="u"),
                           [0, 1, *range(2 + dim, 2 + dim + inputs)])])]


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
        p.add_argument("--out", help="output directory [out_dir, or out]")
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
        out_dir = config.out_dir or "out" if args.out is None else args.out
        return run_scenario(config, args.command, out_dir,
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
