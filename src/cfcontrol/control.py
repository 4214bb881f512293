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
minimum-norm control u(x) for the forcing F(x); the linear synthesis is
one sweep of the same body, with B and the grid the Gramian's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ControllabilityError, DomainError, NullControlFailed,
                     NumericError)
from .grids import safe_norm
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
                      forcing: Optional[np.ndarray] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Final state of the uncontrolled system (the map N).

        The weighted forcing is formed in ``out`` when it is given, an
        ``(n_nodes, dim)`` array.  ``final_row`` sums from +0.0, so a -0.0
        among its terms counts as the +0.0 a sum onto zeros makes of it.
        """
        if forcing is None:
            values = np.zeros((self.grid.n_nodes, np.size(z0)))
        else:
            values = np.multiply(self.grid.weights()[:, None], forcing,
                                 out=out)
        values[0] += z0
        return self.propagator.final_row(values)

    def solve_gramian(self, rhs: np.ndarray) -> np.ndarray:
        """``W^{-1} rhs`` through the lower Cholesky factor L, ``W = L L^T``."""
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, rhs))

    def control_from_target(self, target: np.ndarray,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
        """Minimum-norm control whose reachability image is -target.

        The adjoint's rows are formed in ``out`` when it is given, a
        C-contiguous ``(n_nodes, dim)`` array."""
        y = self.solve_gramian(target)
        rows = self.propagator.final_row_adjoint(y, out=out)
        return np.negative(rows, out=rows) @ self.b_matrix


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
    """Synthesized control with its closed-loop diagnostics: ``control``
    is ``(n_nodes, n_inputs)`` and ``closed_loop_trajectory``
    ``(n_nodes, dim)``."""

    control: np.ndarray
    final_state_norm: float
    control_energy: float
    closed_loop_trajectory: np.ndarray
    iterations: int = 1


class VerifyResult(NamedTuple):
    gamma_emp: float
    passes: bool
    threshold: float


def synthesize_null_control(gramian: GramianSolve,
                            z0: np.ndarray,
                            forcing: Optional[np.ndarray] = None
                            ) -> NullControlResult:
    """Minimum-norm control steering ``z0`` (plus forcing) to zero.

    Simulates the closed linear loop with the synthesized control and
    records the final state norm and the control energy in the weighted
    L2 norm (flat tau quadrature).  Raises :class:`DomainError` unless z0
    has shape ``(dim,)`` and the forcing ``(n_nodes, dim)``.
    """
    table = gramian.propagator
    shape = (table.grid.n_nodes, table.dim)
    if forcing is not None and np.shape(forcing) != shape:
        raise DomainError(f"forcing has shape {np.shape(forcing)}, "
                          f"expected {shape}")
    # an overflow shows as a non-finite loop, which _closed_loop refuses
    with np.errstate(all="ignore"):
        u_values, traj = _null_sweep(gramian, table.homogeneous(z0), z0,
                                     forcing)
    return _closed_loop(gramian.grid, u_values, traj)


def _null_sweep(gramian, hom, z0, forcing, work=None):
    """The minimum-norm control u steering ``z0`` under ``forcing`` to zero,
    and the mild solution ``hom + V[u B^T + forcing]``.  ``None`` forcing
    adds nothing, not a zero array, so a -0.0 of ``u B^T`` stays -0.0.
    The weighted forcing, the adjoint's rows and then the drive are formed
    in ``work`` when it is given, a C-contiguous ``(n_nodes, dim)`` array."""
    u_values = gramian.control_from_target(
        gramian.free_response(z0, forcing, out=work), out=work)
    drive = np.matmul(u_values, gramian.b_matrix.T, out=work)
    if forcing is not None:
        drive += forcing
        # the forcing's last reference: it is freed before the scan
        # allocates the new state
        forcing = None
    state = gramian.propagator.accumulate(drive)
    state += hom
    return u_values, state


def _closed_loop(grid, u_values, traj, iterations=1):
    if not (np.isfinite(u_values).all() and np.isfinite(traj).all()):
        raise NumericError("the closed loop or its control is not finite")
    w = grid.weights()
    return NullControlResult(
        control=u_values,
        final_state_norm=safe_norm(traj[-1]),
        control_energy=safe_norm(
            u_values, lambda v: np.sqrt(np.sum(w * np.sum(v**2, axis=1)))),
        closed_loop_trajectory=traj,
        iterations=iterations,
    )


def verify_null_inequality(gramian: GramianSolve) -> VerifyResult:
    """Exact constant of the null-controllability inequality.

    The infimum over unit vectors z, in the adjoint form, of

        ratio(z) = int ||op(end, s)^T z||^2 dtau_s
                   / ( ||op(end, 0)^T z||^2 + int ||op(end, s)^T z||^2 dtau_s )

    with the verdict ``gamma_emp >= threshold - 1e-6``, ``threshold`` =
    T/(T+1) for T the length ``tau_span`` of the Gramian's tau window.
    With an identity input matrix, which it requires, the integral is
    ``z^T W z``, so the infimum is ``1 / gain_norm_est**2`` from the pencil
    (P P^T + W, W).
    """
    d = gramian.propagator.dim
    if gramian.b_matrix.shape != (d, d) or not np.allclose(
            gramian.b_matrix, np.eye(d)):
        raise DomainError("the inequality check assumes an identity input map")
    span = gramian.grid.tau_span
    gamma_emp = 1.0 / gramian.gain_norm_est**2
    threshold = span / (span + 1.0)
    return VerifyResult(gamma_emp, bool(gamma_emp >= threshold - _TOL_INEQ),
                        threshold)


def exact_null_control_semilinear(problem: ControlProblem,
                                  gramian: GramianSolve,
                                  null_tol: float = 1e-6) -> NullControlResult:
    """Close the loop on the semilinear system.

    Iterates, from the homogeneous trajectory ``hom``, the single map

        x  ->  hom + V[u(x) B^T + F(x)],
        u(x) = control_from_target(free_response(x0, F(x))),

    with ``V`` the trapezoid Volterra accumulation, and the grid and B the
    Gramian's; the small-gain ``lhs`` of ``mild.contraction_report``
    bounds its contraction constant.  ``iterations`` counts sweeps, and the
    control returned is the one the last sweep applied.  With no
    nonlinearity this returns :func:`synthesize_null_control` exactly.

    Raises
    ------
    ConvergenceError
        If a finite update of the map passes the divergence guard, or
        ``max_iter`` sweeps end above ``picard_tol * max(1, ||x0||)``.
    NumericError, DomainError
        If a sweep's result is not finite, the nonlinearity returns a
        non-finite value or an array of the wrong shape (see
        :func:`~cfcontrol.mild.nonlinearity_values`), or x0 has the wrong
        shape.
    NullControlFailed
        If the converged loop misses ``null_tol * max(1, ||x0||)``; the
        offending result rides along on the exception.
    """
    fun = problem.nonlinearity
    if fun is None:
        result = synthesize_null_control(gramian, problem.x0)
        _check_tolerance(result, problem.x0, null_tol)
        return result

    grid = gramian.grid
    hom = gramian.propagator.homogeneous(problem.x0)
    work = np.empty_like(hom)
    u_values = None

    def sweep(x):
        nonlocal u_values
        # the last sweep's control is freed before this one is made
        u_values = None
        u_values, x = _null_sweep(gramian, hom, problem.x0,
                                  nonlinearity_values(fun, grid, x), work)
        return x

    x, iterations, _ = iterate_fixed_point(sweep, hom, problem, work)
    result = _closed_loop(grid, u_values, x, iterations)
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
