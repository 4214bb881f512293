"""Gramian-based synthesis of exact null controls.

The reachability map sends a control trajectory to the state it induces at
the final time,

    L u = int_{tau_0}^{tau_f} op(end, s) B u(s) dtau_s,

and the free-response map collects the uncontrolled contribution,

    N(z0, f) = op(end, 0) z0 + int op(end, s) f(s) dtau_s.

Both are discretized with the same trapezoid weights used everywhere else,
so the synthesized minimum-norm control

    u(s) = -B^T op(end, s)^T W^{-1} N(z0, f),      W = L L^*

cancels the final state exactly at the discrete level (up to factorization
roundoff): W is the controllability Gramian and L^* W^{-1} is the concrete
minimum-norm representative of the inverse of L restricted to the
orthogonal complement of its kernel.

L and N are each one call of the table's ``final_row``, and the adjoint
``L^* y = B^T op(end, s)^T y`` of its ``final_row_adjoint``.  The Gramian
is the table's quadratic form ``final_gram(B B^T)`` of its final row, so
no per-node stack is formed, and the gain norm is the exact top
eigenvalue of a pencil.

The d x d Gramian is factorized by numpy's Cholesky with escalating jitter,
so no pipeline needs scipy; exceeding the jitter cap means the
truncated system is not exactly null controllable and raises
:class:`ControllabilityError`.

The semilinear closed loop is the fixed point of one map, x -> the mild
solution ``hom + V[B u(x) + F(x)]`` under the nonlinearity F and the
minimum-norm control u(x) for the forcing F(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ControllabilityError, DomainError, NullControlFailed,
                     NumericError)
from .grids import GridFunction, safe_norm
from .evolution import PropagatorTable
from .mild import ControlProblem, iterate_fixed_point, nonlinearity_values

__all__ = [
    "GramianSolve",
    "NullControlResult",
    "VerifyResult",
    "build_gramian",
    "synthesize_null_control",
    "verify_null_inequality",
    "exact_null_control_semilinear",
    "kernel_space_perturbation",
]

_JITTER_START = 1e-14
_JITTER_CAP = 1e-8
# slack of the inequality check's verdict gamma_emp >= T/(T+1)
_TOL_INEQ = 1e-6


@dataclass
class GramianSolve:
    """Reachability map of a propagator table and its factorized Gramian.

    The reachability map L and its adjoint ``L^* y = B^T op(end, s)^T y``
    (adjoint in the trapezoid-weighted inner product) are the table's
    ``final_row`` and ``final_row_adjoint``; nothing node-by-node is
    stored here.  ``gramian`` is ``W = L L^*``, and ``gain_norm_est`` is the
    exact norm of the state-to-control gain operator.
    """

    propagator: PropagatorTable
    b_matrix: np.ndarray
    gramian: np.ndarray
    jitter: float
    gain_norm_est: float
    _chol: np.ndarray = field(repr=False)

    @property
    def grid(self):
        return self.propagator.grid

    def apply_reachability(self, u_values: np.ndarray) -> np.ndarray:
        """Final state produced by a control trajectory (the map L)."""
        drive = self.grid.weights()[:, None] * (u_values @ self.b_matrix.T)
        return self.propagator.final_row(drive)

    def free_response(self, z0: np.ndarray,
                      forcing: Optional[np.ndarray] = None) -> np.ndarray:
        """Final state of the uncontrolled system (the map N)."""
        values = np.zeros((self.grid.n_nodes, np.size(z0)))
        if forcing is not None:
            values += self.grid.weights()[:, None] * forcing
        values[0] += z0
        return self.propagator.final_row(values)

    def solve_gramian(self, rhs: np.ndarray) -> np.ndarray:
        """``W^{-1} rhs`` through the lower Cholesky factor L, ``W = L L^T``."""
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, rhs))

    def control_from_target(self, target: np.ndarray) -> np.ndarray:
        """Minimum-norm control whose reachability image is -target."""
        y = self.solve_gramian(target)
        return -self.propagator.final_row_adjoint(y) @ self.b_matrix


def build_gramian(b_matrix: np.ndarray,
                  propagator: PropagatorTable) -> GramianSolve:
    """Assemble and factorize the controllability Gramian ``W = L L^*``.

    Parameters
    ----------
    b_matrix : ndarray
        Control-to-state matrix, shape (dim, n_inputs).
    propagator : PropagatorTable
        Full-pair table covering the horizon.

    Raises
    ------
    ControllabilityError
        When the Gramian stays numerically indefinite past the jitter cap
        (e.g. a zero input matrix): the truncated system is not exactly
        null controllable.
    NumericError
        When the Gramian or its trace is not finite.
    """
    b_matrix = np.atleast_2d(np.asarray(b_matrix, dtype=float))
    d = propagator.dim
    if b_matrix.shape[0] != d:
        raise DomainError(
            f"input matrix has {b_matrix.shape[0]} rows, expected {d}")
    # W = L L^* = sum_r w_r op(end, s_r) B B^T op(end, s_r)^T
    with np.errstate(all="ignore"):
        bbt = b_matrix @ b_matrix.T
        raw = propagator.final_gram(bbt)
        gram = 0.5 * (raw + raw.T)
        scale = float(np.trace(gram)) / d
    # numpy's Cholesky passes a NaN through instead of failing, and a
    # non-finite scale would keep the jitter loop below from ending
    if not (np.isfinite(gram).all() and np.isfinite(scale)):
        raise NumericError("the controllability Gramian is not finite")
    jitter = 0.0
    chol = None
    while True:
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(d))
            break
        except np.linalg.LinAlgError:
            if scale <= 0.0:
                break
            jitter = _JITTER_START * scale if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_CAP * scale:
                break
    if chol is None:
        raise ControllabilityError(
            "Gramian is numerically rank deficient beyond the regularization "
            f"cap (trace scale {scale:.3e}); the system is not exactly null "
            "controllable at this truncation"
        )

    # ||H||^2 is the top eigenvalue of the pencil (P P^T + W_I, W), with
    # P = op(end, 0) and W_I the Gramian taken with identity input; the
    # nonzero spectrum of the composed gain operator collapses onto it.
    # With L the Cholesky factor above, it is that of L^-1 (P P^T + W_I) L^-T.
    # When B B^T is the identity, W_I is W before symmetrisation.
    eye = np.eye(d)
    w_id = raw if np.array_equal(bbt, eye) else propagator.final_gram(eye)
    p = propagator.final_block(0)
    half = np.linalg.solve(chol, p @ p.T + w_id)
    top = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    return GramianSolve(propagator, b_matrix, gram, jitter,
                        float(np.sqrt(max(top[-1], 0.0))), chol)


@dataclass
class NullControlResult:
    """Synthesized control with its closed-loop diagnostics."""

    control: GridFunction
    final_state_norm: float
    control_energy: float
    closed_loop_trajectory: GridFunction
    iterations: int = 1


class VerifyResult(NamedTuple):
    gamma_emp: float
    passes: bool


def synthesize_null_control(gramian: GramianSolve,
                            z0: np.ndarray,
                            forcing: Optional[GridFunction] = None
                            ) -> NullControlResult:
    """Minimum-norm control steering ``z0`` (plus forcing) to zero.

    Simulates the closed linear loop with the synthesized control and
    records the final state norm and the control energy in the weighted
    L2 norm (flat tau quadrature).
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    f_values = None if forcing is None else forcing.values
    table = gramian.propagator
    # an overflow shows as a non-finite loop, which _closed_loop refuses
    with np.errstate(all="ignore"):
        target = gramian.free_response(z0, f_values)
        u_values = gramian.control_from_target(target)
        drive = u_values @ gramian.b_matrix.T
        if f_values is not None:
            drive = drive + f_values
        traj = table.homogeneous(z0) + table.accumulate(drive)
    return _closed_loop(gramian.grid, u_values, traj)


def _closed_loop(grid, u_values, traj, iterations=1):
    if not (np.isfinite(u_values).all() and np.isfinite(traj).all()):
        raise NumericError("the closed loop or its control is not finite")
    control = GridFunction(grid, u_values)
    return NullControlResult(
        control=control,
        final_state_norm=safe_norm(traj[-1]),
        control_energy=control.weighted_l2(),
        closed_loop_trajectory=GridFunction(grid, traj),
        iterations=iterations,
    )


def verify_null_inequality(gramian: GramianSolve,
                           horizon: float) -> VerifyResult:
    """Exact constant of the null-controllability inequality.

    The infimum over unit vectors z, in the adjoint form, of

        ratio(z) = int ||op(end, s)^T z||^2 dtau_s
                   / ( ||op(end, 0)^T z||^2 + int ||op(end, s)^T z||^2 dtau_s )

    with the verdict ``gamma_emp >= T/(T+1) - 1e-6``.  With an identity
    input matrix, which it requires, the integral is ``z^T W z``, so the
    infimum is ``1 / gain_norm_est**2`` from the pencil (P P^T + W, W).
    """
    propagator = gramian.propagator
    d = propagator.dim
    if gramian.b_matrix.shape != (d, d) or not np.allclose(
            gramian.b_matrix, np.eye(d)):
        raise DomainError("the inequality check assumes an identity input map")
    span = propagator.grid.tau_span
    if abs(span - horizon) > 1e-10 * max(1.0, horizon):
        raise DomainError(
            f"grid tau horizon {span} does not match requested horizon {horizon}")
    gamma_emp = 1.0 / gramian.gain_norm_est**2
    threshold = horizon / (horizon + 1.0)
    return VerifyResult(gamma_emp, bool(gamma_emp >= threshold - _TOL_INEQ))


def exact_null_control_semilinear(problem: ControlProblem,
                                  gramian: GramianSolve,
                                  null_tol: float = 1e-6) -> NullControlResult:
    """Close the loop on the semilinear system.

    Iterates, from the homogeneous trajectory ``hom``, the single map

        x  ->  hom + V[u(x) B^T + F(x)],
        u(x) = control_from_target(free_response(x0, F(x))),

    with ``V`` the table's trapezoid Volterra accumulation; the small-gain
    ``lhs`` of :func:`~cfcontrol.mild.contraction_report` bounds its
    contraction constant.  ``iterations`` counts sweeps, and the control
    returned is the one the last sweep applied.  With no nonlinearity this
    returns exactly :func:`synthesize_null_control`.

    Raises
    ------
    ConvergenceError
        If an update of the map is non-finite or passes the divergence
        guard, or ``max_iter`` sweeps end above
        ``picard_tol * max(1, ||x0||)``.
    NumericError, DomainError
        If the nonlinearity returns a non-finite value or an array of the
        wrong shape (see :func:`~cfcontrol.mild.nonlinearity_values`).
    NullControlFailed
        If the converged loop misses ``null_tol * max(1, ||x0||)``; the
        offending result rides along on the exception.
    """
    fun = problem.nonlinearity
    if fun is None:
        result = synthesize_null_control(gramian, problem.x0)
        _check_tolerance(result, problem.x0, null_tol)
        return result

    propagator = gramian.propagator
    if propagator.grid is not problem.grid:
        raise DomainError("propagator and problem must share the same grid")
    hom = propagator.homogeneous(problem.x0)
    u_values = None

    def sweep(x):
        nonlocal u_values
        forcing = nonlinearity_values(fun, problem.grid, x)
        u_values = gramian.control_from_target(
            gramian.free_response(problem.x0, forcing))
        return hom + propagator.accumulate(u_values @ problem.b_matrix.T
                                           + forcing)

    x, iterations, _ = iterate_fixed_point(sweep, hom, problem)
    result = _closed_loop(problem.grid, u_values, x, iterations)
    _check_tolerance(result, problem.x0, null_tol)
    return result


def _check_tolerance(result, x0, null_tol):
    bound = null_tol * max(1.0, safe_norm(x0))
    if result.final_state_norm > bound:
        raise NullControlFailed(
            f"final state norm {result.final_state_norm:.3e} exceeds the "
            f"tolerance {bound:.3e}",
            result=result,
        )


def kernel_space_perturbation(gramian: GramianSolve,
                              rng: np.random.Generator) -> np.ndarray:
    """Random control trajectory in the kernel of the reachability map.

    Projects white noise onto the kernel using the weighted inner product;
    adding the result to a synthesized control leaves the final state
    unchanged while strictly increasing the control energy.
    """
    n = gramian.grid.n_nodes
    m = gramian.b_matrix.shape[1]
    w = rng.standard_normal((n, m))
    return w + gramian.control_from_target(gramian.apply_reachability(w))
