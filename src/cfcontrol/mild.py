"""Fixed-point solution of the semilinear integral equation.

A mild trajectory satisfies the variation-of-constants equation

    x(t_i) = op(i, 0) x0
             + int_{tau_0}^{tau_i} op(i, s) [B u(s) + F(tau_s, x(s))] dtau_s

on the grid, with the integral discretized by trapezoid weights in tau.
The propagator table evaluates both terms itself (``homogeneous`` and
``accumulate``) on its own grid.  A :class:`ControlProblem` adds x0, F,
a tolerance and a sweep cap; an open-loop drive ``B u`` is part of F.
``picard_solve`` iterates the right-hand side starting from the
homogeneous trajectory (fewer iterations than a cold start, same fixed
point whenever the iteration contracts) and reports the residual of the
discrete equation for the converged iterate.  Its loop,
``iterate_fixed_point``, also drives the closed-loop map of
:func:`cfcontrol.control.exact_null_control_semilinear`.

``contraction_report`` evaluates the small-gain quantity of a Gramian

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
from .grids import TimeGrid, safe_norm, unscaled
from .evolution import PropagatorTable

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
    """What a semilinear problem adds to its table (grid, family) and
    Gramian (B): the initial state, F, and the loop's tolerance and cap.

    ``nonlinearity`` maps (tau, X) to the state increments ``F(tau, X)``
    at all nodes at once: tau is the ``(n_nodes, 1)`` column of the tau
    nodes and X the ``(n_nodes, dim)`` trajectory, and the result has the
    shape of X.  An elementwise ``lambda tau, x: c * x`` meets this
    contract, and an open-loop drive ``B u`` is part of F.  It is called
    once per fixed-point sweep; ``None`` means zero.
    """

    x0: np.ndarray
    nonlinearity: Optional[Nonlinearity] = None
    picard_tol: float = 1e-9
    max_iter: int = 50

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
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
    trajectory: np.ndarray
    iterations: int
    residual: float
    update_norms: tuple = ()


def nonlinearity_values(fun: Optional[Nonlinearity], grid: TimeGrid,
                        x: np.ndarray) -> np.ndarray:
    """``F(tau_r, x[r])`` at every node r, shape (n_nodes, dim); zero for None.

    One call ``fun(grid.tau_nodes[:, None], x)`` over all nodes.

    Raises
    ------
    DomainError
        If ``fun`` returns an array of another shape than ``x``.
    NumericError
        If ``fun`` returns a non-finite value.
    """
    if fun is None:
        return np.zeros_like(x)
    out = np.asarray(fun(grid.tau_nodes[:, None], x), dtype=float)
    if out.shape != x.shape:
        raise DomainError(f"nonlinearity returned shape {out.shape}, "
                          f"expected {x.shape}")
    if not np.all(np.isfinite(out)):
        node = int(np.argmin(np.all(np.isfinite(out), axis=1)))
        raise NumericError(f"nonlinearity is not finite at node {node} "
                           f"(t = {float(grid.t_nodes[node])!r})")
    return out


def _sup_row_norm(values: np.ndarray, squares=None) -> float:
    """``np.linalg.norm(values, axis=1).max()``, the same sums, with the
    squares written to ``squares`` when it is given."""
    squares = np.multiply(values, values, out=squares)
    return float(np.sqrt(np.add.reduce(squares, axis=1)).max())


def _update_norm(new: np.ndarray, x: np.ndarray, work: np.ndarray) -> float:
    """``safe_norm(new - x, _sup_row_norm)``, the difference and its squares
    taken in ``work``; a norm that safe_norm would rescale is taken again
    from a new difference.  Call it where overflow is ignored."""
    update = _sup_row_norm(np.subtract(new, x, out=work), work)
    return update if unscaled(update) else safe_norm(new - x, _sup_row_norm)


def iterate_fixed_point(sweep: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, problem: ControlProblem,
                        work: Optional[np.ndarray] = None) -> tuple:
    """Apply ``sweep`` from ``x`` until the sup-norm update reaches tolerance.

    The tolerance is ``picard_tol * max(1, ||x0||)``: relative to the
    initial state above unit norm, as the divergence guard and the null
    tolerance are, so a linear closed loop takes the same sweeps at every
    amplitude, and absolute below it.  Returns the last iterate, the number
    of sweeps and the update norms.  Raises :class:`NumericError` when a
    sweep's result is not finite, and :class:`ConvergenceError` on an
    update past ``1e8 * max(1, ||x0||)`` or ``max_iter`` sweeps above the
    tolerance.  The norm is scaled, so it cannot overflow.  The update is
    formed in ``work``, an array of x's shape and type, which a sweep may
    also use while it runs; one is made when none is given.
    """
    scale = max(1.0, safe_norm(problem.x0))
    guard, tol = _DIVERGENCE_FACTOR * scale, problem.picard_tol * scale
    update = math.inf
    updates = []
    work = np.empty_like(x) if work is None else work
    for iteration in range(1, problem.max_iter + 1):
        # an overflow shows as a non-finite result, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            new = sweep(x)
            update = _update_norm(new, x, work)
        updates.append(update)
        x = new
        if not np.isfinite(update) or update > guard:
            if not np.isfinite(new).all():
                raise NumericError(f"fixed-point sweep {iteration} is not "
                                   "finite")
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
        Initial state of shape (dim,), nonlinearity, tolerance, sweep cap.
    propagator : PropagatorTable
        Full-pair table; its grid is the problem's.
    x_init : ndarray, optional
        Starting trajectory of shape (n_nodes, dim); defaults to the
        homogeneous trajectory.

    Returns
    -------
    PicardResult
        Converged trajectory of shape (n_nodes, dim), the number of sweeps
        used, and the sup-norm residual of the discrete equation.

    Raises
    ------
    ConvergenceError
        If the update norms fail to reach ``picard_tol * max(1, ||x0||)``
        within ``max_iter`` sweeps or a finite one grows past a divergence
        guard.
    NumericError, DomainError
        If a sweep's result is not finite, or the nonlinearity returns a
        non-finite value or an array of the wrong shape (see
        :func:`nonlinearity_values`).
    """
    grid = propagator.grid
    hom = propagator.homogeneous(problem.x0)

    def sweep(x):
        state = propagator.accumulate(
            nonlinearity_values(problem.nonlinearity, grid, x))
        state += hom
        return state

    x = hom.copy() if x_init is None else np.array(x_init, dtype=float)
    if x.shape != hom.shape:
        raise DomainError(f"x_init has shape {x.shape}, expected {hom.shape}")

    x, iterations, updates = iterate_fixed_point(sweep, x, problem)
    residual = safe_norm(sweep(x) - x, _sup_row_norm)
    return PicardResult(x, iterations, residual, updates)


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


def contraction_report(gramian, gamma_growth: float) -> ContractionReport:
    """Assemble the small-gain report of the closed loop on a Gramian.

    ||B||, ||H|| and the grid are the Gramian's, and M is the
    ``norm_bound`` of its propagator table.  ``gamma_growth`` is the
    (pointwise) growth constant of the nonlinearity, zero for none.
    """
    m_bound = gramian.propagator.norm_bound
    b_norm = float(np.linalg.norm(gramian.b_matrix, 2))
    h_norm = gramian.gain_norm_est
    grid = gramian.grid
    n_const = horizon_factor(grid.order.alpha, float(grid.t_nodes[0]),
                             float(grid.t_nodes[-1]))
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
