"""Fixed-point solution of the semilinear integral equation.

A mild trajectory satisfies the variation-of-constants equation

    x(t_i) = op(i, 0) x0
             + int_{tau_0}^{tau_i} op(i, s) [B u(s) + F(s, x(s))] dtau_s

on the grid, with the integral discretized by trapezoid weights in tau.
The propagator table evaluates both terms itself (``homogeneous`` and
``accumulate``).  ``picard_solve`` iterates the right-hand side starting
from the homogeneous trajectory (fewer iterations than a cold start, same
fixed point whenever the iteration contracts) and reports the residual of
the discrete equation for the converged iterate.  Its loop,
``iterate_fixed_point``, also drives the closed-loop map of
:func:`cfcontrol.control.exact_null_control_semilinear`.

``contraction_report`` evaluates the small-gain quantity

    lhs = ||B|| * ||H|| * M * gamma * N  +  gamma * M * N

where M bounds the propagator, ||H|| is the norm of the
state-to-control gain, gamma is the (pointwise) growth constant of the
nonlinearity, and N is the horizon factor
``(t2**(2a-1) - t1**(2a-1)) / (2a-1)`` with the removable singularity at
a = 1/2 replaced by ``log(t2/t1)``.  The report is informational; it gates
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, NumericError
from .grids import GridFunction, TimeGrid, safe_norm
from .evolution import OperatorFamily, PropagatorTable

__all__ = [
    "ControlProblem",
    "ContractionReport",
    "PicardResult",
    "picard_solve",
    "iterate_fixed_point",
    "nonlinearity_values",
    "contraction_report",
    "horizon_factor",
]

_HALF_ORDER_TOL = 1e-8
_DIVERGENCE_FACTOR = 1e8

Nonlinearity = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ControlProblem:
    """Data of a semilinear control problem on a fixed grid.

    ``nonlinearity`` maps (t, X) to the state increments ``F(t, X)`` at all
    nodes at once: t is the ``(n_nodes, 1)`` column of node times and X
    the ``(n_nodes, dim)`` trajectory, and the result has the shape of X.
    An elementwise ``lambda t, x: c * x`` meets this contract.  It is
    called once per fixed-point sweep; ``None`` means zero.  ``control``
    is a grid function of input values or ``None``.
    """

    family: OperatorFamily
    grid: TimeGrid
    x0: np.ndarray
    b_matrix: np.ndarray
    nonlinearity: Optional[Nonlinearity] = None
    control: Optional[GridFunction] = None
    picard_tol: float = 1e-9
    max_iter: int = 50

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.b_matrix = np.atleast_2d(np.asarray(self.b_matrix, dtype=float))
        d = self.family.dim
        if self.x0.shape != (d,):
            raise DomainError(f"x0 has shape {self.x0.shape}, expected ({d},)")
        if self.b_matrix.shape[0] != d:
            raise DomainError(
                f"control matrix has {self.b_matrix.shape[0]} rows, expected {d}"
            )
        if self.control is not None and self.control.dim != self.b_matrix.shape[1]:
            raise DomainError("control width does not match the input matrix")
        if self.picard_tol <= 0.0:
            raise DomainError("picard_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


@dataclass
class ContractionReport:
    """Numbers entering the small-gain condition, plus the verdict."""

    propagator_bound: float
    horizon_factor: float
    gamma_growth: float
    input_norm: float
    gain_norm: float
    lhs: float
    satisfied: bool


class PicardResult(NamedTuple):
    trajectory: GridFunction
    iterations: int
    residual: float
    update_norms: tuple = ()


def nonlinearity_values(fun: Optional[Nonlinearity], grid: TimeGrid,
                        x: np.ndarray) -> np.ndarray:
    """``F(t_r, x[r])`` at every node r, shape (n_nodes, dim); zero for None.

    One call ``fun(grid.t_nodes[:, None], x)`` over all nodes.

    Raises
    ------
    DomainError
        If ``fun`` returns an array of another shape than ``x``.
    NumericError
        If ``fun`` returns a non-finite value.
    """
    if fun is None:
        return np.zeros_like(x)
    out = np.asarray(fun(grid.t_nodes[:, None], x), dtype=float)
    if out.shape != x.shape:
        raise DomainError(f"nonlinearity returned shape {out.shape}, "
                          f"expected {x.shape}")
    if not np.all(np.isfinite(out)):
        node = int(np.argmin(np.all(np.isfinite(out), axis=1)))
        raise NumericError(f"nonlinearity is not finite at node {node} "
                           f"(t = {float(grid.t_nodes[node])!r})")
    return out


def iterate_fixed_point(sweep: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, problem: ControlProblem) -> tuple:
    """Apply ``sweep`` from ``x`` until the sup-norm update reaches tolerance.

    The tolerance is ``picard_tol * max(1, ||x0||)``: relative to the
    initial state above unit norm, as the divergence guard and the null
    tolerance are, so a linear closed loop takes the same sweeps at every
    amplitude, and absolute below it.  Returns the last iterate, the number
    of sweeps and the update norms.  Raises :class:`ConvergenceError` on a
    non-finite update, one past ``1e8 * max(1, ||x0||)``, or ``max_iter``
    sweeps above the tolerance.
    """
    scale = max(1.0, safe_norm(problem.x0))
    guard, tol = _DIVERGENCE_FACTOR * scale, problem.picard_tol * scale
    update = math.inf
    updates = []
    for iteration in range(1, problem.max_iter + 1):
        # an overflow shows as a non-finite update, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            new = sweep(x)
            update = float(np.max(np.linalg.norm(new - x, axis=1)))
        updates.append(update)
        x = new
        if not np.isfinite(update) or update > guard:
            raise ConvergenceError(
                f"fixed-point sweep diverged (update norm {update:.3e})",
                last_norm=update,
            )
        if update <= tol:
            return x, iteration, tuple(updates)
    raise ConvergenceError(
        f"no convergence in {problem.max_iter} sweeps "
        f"(last update norm {update:.3e})",
        last_norm=update,
    )


def picard_solve(problem: ControlProblem,
                 propagator: PropagatorTable,
                 x_init: Optional[np.ndarray] = None) -> PicardResult:
    """Iterate the discrete integral equation to its fixed point.

    Parameters
    ----------
    problem : ControlProblem
        Must share its grid with ``propagator``.
    propagator : PropagatorTable
        Full-pair table on the problem grid.
    x_init : ndarray, optional
        Starting trajectory of shape (n_nodes, dim); defaults to the
        homogeneous trajectory.

    Returns
    -------
    PicardResult
        Converged trajectory, the number of sweeps used, and the sup-norm
        residual of the discrete equation.

    Raises
    ------
    ConvergenceError
        If the update norms fail to reach ``picard_tol * max(1, ||x0||)``
        within ``max_iter`` sweeps or grow past a divergence guard.
    NumericError, DomainError
        If the nonlinearity returns a non-finite value or an array of the
        wrong shape (see :func:`nonlinearity_values`).
    """
    if propagator.grid is not problem.grid:
        raise DomainError("propagator and problem must share the same grid")
    grid = problem.grid
    hom = propagator.homogeneous(problem.x0)

    drive = 0.0 if problem.control is None \
        else problem.control.values @ problem.b_matrix.T

    def sweep(x):
        forcing = nonlinearity_values(problem.nonlinearity, grid, x)
        return hom + propagator.accumulate(drive + forcing)

    x = hom.copy() if x_init is None else np.array(x_init, dtype=float)
    if x.shape != hom.shape:
        raise DomainError(f"x_init has shape {x.shape}, expected {hom.shape}")

    x, iterations, updates = iterate_fixed_point(sweep, x, problem)
    residual = float(np.max(np.linalg.norm(sweep(x) - x, axis=1)))
    return PicardResult(GridFunction(grid, x), iterations, residual, updates)


def horizon_factor(alpha: float, t1: float, t2: float) -> float:
    """Horizon-dependent constant of the small-gain condition.

    ``(t2**(2a-1) - t1**(2a-1)) / (2a-1)``, continuous in alpha; within
    1e-8 of alpha = 1/2 the log limit ``log(t2/t1)`` is used.  Diverges
    (returns inf) when t1 = 0 and the exponent is nonpositive.
    """
    if t2 <= t1 or t1 < 0.0:
        raise DomainError("need 0 <= t1 < t2")
    expo = 2.0 * alpha - 1.0
    if abs(expo) < _HALF_ORDER_TOL:
        return math.inf if t1 == 0.0 else math.log(t2 / t1)
    if t1 == 0.0 and expo < 0.0:
        return math.inf
    return (t2**expo - t1**expo) / expo


def contraction_report(problem: ControlProblem,
                       gramian,
                       gamma_growth: float) -> ContractionReport:
    """Assemble the small-gain report for a problem.

    M is the ``norm_bound`` of the Gramian's propagator table.
    ``gamma_growth`` is the (pointwise) growth constant of the
    nonlinearity, zero for none.
    """
    m_bound = gramian.propagator.norm_bound
    b_norm = float(np.linalg.norm(problem.b_matrix, 2))
    h_norm = gramian.gain_norm_est
    n_const = horizon_factor(problem.grid.order.alpha,
                             problem.grid.t_start, problem.grid.t_end)
    if gamma_growth == 0.0:
        lhs = 0.0
    else:
        lhs = gamma_growth * m_bound * n_const * (b_norm * h_norm + 1.0)
    return ContractionReport(
        propagator_bound=m_bound,
        horizon_factor=n_const,
        gamma_growth=gamma_growth,
        input_norm=b_norm,
        gain_norm=h_norm,
        lhs=lhs,
        satisfied=bool(lhs < 1.0),
    )
