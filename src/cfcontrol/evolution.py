"""Two-parameter evolution operators for non-autonomous linear systems.

The homogeneous dynamics ``d_alpha x + A(t) x = 0`` become the classical
system ``dx/dtau = -A(t(tau)) x`` in transformed time, so the evolution
operator between grid nodes is built entirely on the flat tau grid.

Two backends:

* ``spectral_heat`` -- the Dirichlet sine-mode family with eigenvalues
  ``n**2 + p(t)`` per mode.  The operator is diagonal with per-mode factors
  ``exp(-n**2 * (tau_t - tau_s) - int_{tau_s}^{tau_t} p dtau)`` where the
  potential integral is accumulated by cumulative trapezoid.
* ``dense_matrix`` -- a general smooth matrix family.  The operator is
  assembled from frozen-coefficient exponentials
  ``S_s(t - s) = exp(-(tau_t - tau_s) A(s))`` corrected by the resolvent
  kernel of a Volterra equation of the second kind:

      resolvent(t, s) = kernel(t, s)
                        + int_{tau_s}^{tau_t} kernel(t, r) resolvent(r, s) dr,
      kernel(t, s)    = (A(s) - A(t)) S_s(t - s),

  discretized with trapezoid weights (Nystrom).  Every dense table is one
  ``(n*d, n*d)`` block matrix whose block (i, j) is the d x d operator
  from node j to node i; the tables expose it as an ``(n, n, d, d)``
  block view.  Because the kernel vanishes on the diagonal, the kernel
  matrix K is strictly block-lower-triangular and the discrete equation
  reads ``R = K + h K R``.  The direct route is one unit lower triangular
  solve of ``(I - h K) R = K``; the iterated-series route takes one matrix
  product per term and terminates after finitely many terms.  Both routes
  are provided and cross-checked.  Propagator assembly is one product,
  ``Psi = S + h S R - h/2 R``, with S the frozen-semigroup matrix.

An independent brute-force oracle integrates the substituted ODE with a
classical fourth-order one-step method; every propagator test is anchored
to it.

Table construction is single-threaded; finished tables are immutable and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import expm, solve_triangular

from .errors import ConvergenceError, DomainError
from .grids import TimeGrid

__all__ = [
    "SpectralHeatFamily",
    "DenseMatrixFamily",
    "OperatorFamily",
    "frozen_semigroup",
    "KernelTable",
    "build_kernel",
    "kernel_residual",
    "SpectralPropagatorTable",
    "DensePropagatorTable",
    "build_propagator",
    "propagate_oracle",
    "conformable_residual",
    "adjoint_residual",
    "regularized_residuals",
]

_EIG_COND_LIMIT = 1e7


@dataclass(frozen=True)
class SpectralHeatFamily:
    """Sine-mode heat family: mode n carries the rate n**2 + p(t).

    ``potential`` is evaluated at physical time t; a potential that is
    affine in tau is simply ``lambda t: c0 + c1 * t**alpha / alpha``.
    Nonnegative potentials give a contractive operator (all mode factors
    in (0, 1]).
    """

    potential: Callable[[float], float]
    n_modes: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise DomainError("need at least one mode")

    kind = "spectral_heat"

    @property
    def dim(self) -> int:
        return self.n_modes

    def mode_rates(self, t: float) -> np.ndarray:
        n = np.arange(1, self.n_modes + 1, dtype=float)
        return n**2 + float(self.potential(t))

    def a_matrix(self, t: float) -> np.ndarray:
        return np.diag(self.mode_rates(t))


@dataclass(frozen=True)
class DenseMatrixFamily:
    """General time-dependent d x d coefficient family, continuous in t."""

    matrix: Callable[[float], np.ndarray]
    dim: int

    kind = "dense_matrix"

    def a_matrix(self, t: float) -> np.ndarray:
        a = np.asarray(self.matrix(t), dtype=float)
        if a.shape != (self.dim, self.dim):
            raise DomainError(
                f"family matrix has shape {a.shape}, expected "
                f"({self.dim}, {self.dim})"
            )
        return a


OperatorFamily = Union[SpectralHeatFamily, DenseMatrixFamily]


def frozen_semigroup(family: OperatorFamily, s: float, dt_tau: float) -> np.ndarray:
    """Frozen-coefficient propagator exp(-dt_tau * A(s)).

    ``dt_tau`` is elapsed transformed time and must be nonnegative.  The
    dense backend uses a scaling-and-squaring matrix exponential; the
    spectral backend takes per-mode scalar exponentials.
    """
    if dt_tau < 0.0:
        raise DomainError(f"elapsed tau must be >= 0, got {dt_tau}")
    if family.kind == "spectral_heat":
        return np.diag(np.exp(-dt_tau * family.mode_rates(s)))
    return expm(-dt_tau * family.a_matrix(s))


def _expm_stack(a: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-dt * a) for every dt in ``dts``, shape (len(dts), d, d).

    Uses an eigendecomposition when it is well conditioned, otherwise
    falls back to one scaling-and-squaring exponential per step.
    """
    d = a.shape[0]
    if d == 1:
        return np.exp(-dts * a[0, 0]).reshape(-1, 1, 1)
    try:
        lam, vec = np.linalg.eig(a)
        cond = np.linalg.cond(vec)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < _EIG_COND_LIMIT:
        vinv = np.linalg.inv(vec)
        phases = np.exp(-np.outer(dts, lam))  # (m, d)
        out = np.einsum("ab,mb,bc->mac", vec, phases, vinv)
        if np.max(np.abs(out.imag)) < 1e-9 * max(1.0, np.max(np.abs(out.real))):
            return np.ascontiguousarray(out.real)
    return np.stack([expm(-dt * a) for dt in dts])


def _blocks(mat: np.ndarray, d: int) -> np.ndarray:
    """``(rows*d, cols*d)`` block matrix as its ``(rows, cols, d, d)`` block view."""
    return mat.reshape(mat.shape[0] // d, d, -1, d).transpose(0, 2, 1, 3)


def _flat(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_blocks`; a view when ``blocks`` came from it."""
    rows, cols, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * d, cols * d)


def _entries(columns, d: int):
    """Matrix columns spanned by the block columns ``columns`` (all if None)."""
    if columns is None:
        return slice(None)
    return (np.asarray(columns, dtype=int)[:, None] * d + np.arange(d)).ravel()


def _embed(part: np.ndarray, entries) -> np.ndarray:
    """Square matrix holding ``part`` in the columns ``entries``, zero elsewhere."""
    if isinstance(entries, slice):
        return part
    full = np.zeros((part.shape[0], part.shape[0]))
    full[:, entries] = part
    return full


def _frozen_tables(family: DenseMatrixFamily, grid: TimeGrid):
    """``A(t_j)`` at every node, and the semigroup table built from it."""
    a_stack = np.stack([family.a_matrix(t) for t in grid.t_nodes])
    return a_stack, _semigroup_table(a_stack, grid.tau_nodes)


def _semigroup_table(a_stack: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Block matrix with S[i, j] = exp(-(tau_i - tau_j) A_j) for i >= j."""
    n, d = a_stack.shape[:2]
    table = np.zeros((n * d, n * d))
    blocks = _blocks(table, d)
    for j in range(n):
        blocks[j:, j] = _expm_stack(a_stack[j], tau[j:] - tau[j])
        blocks[j, j] = np.eye(d)
    return table


@dataclass
class KernelTable:
    """Volterra kernel and its resolvent on the grid.

    ``kernel[i, j]`` holds ``(A(t_j) - A(t_i)) S_{t_j}(t_i - t_j)`` exactly
    as assembled; ``resolvent`` solves the discretized second-kind equation
    on the stored columns.  Entries with i <= j (and columns that were not
    requested) are zero.  Both are ``(n, n, d, d)`` block views of
    ``(n*d, n*d)`` block-lower-triangular matrices.
    """

    grid: TimeGrid
    kernel: np.ndarray
    resolvent: np.ndarray
    n_terms_used: int
    series_tail_norm: float
    columns: tuple | None = None

    def column_indices(self):
        return range(self.grid.n_nodes) if self.columns is None else self.columns


def _kernel_table_raw(a_stack: np.ndarray, semigroups: np.ndarray) -> np.ndarray:
    """Block matrix with K[i, j] = (A_j - A_i) S[i, j].

    ``A_j - A_i`` stays the left factor: it vanishes exactly on the block
    diagonal and for a constant family, so K is exactly zero there.
    """
    d = a_stack.shape[1]
    kern = np.empty_like(semigroups)
    np.matmul(a_stack[None, :] - a_stack[:, None], _blocks(semigroups, d),
              out=_blocks(kern, d))
    return kern


def _max_norm(table):
    return float(np.sqrt(np.max(np.sum(table**2, axis=(-2, -1)))))


def build_kernel(family: OperatorFamily,
                 grid: TimeGrid,
                 max_terms: int = 40,
                 kernel_tol: float = 1e-8,
                 method: str = "series",
                 columns: Sequence[int] | None = None,
                 _frozen: tuple | None = None) -> KernelTable:
    """Solve the discrete Volterra kernel equation ``R = K + h K R`` on the grid.

    ``method="series"`` sums iterated kernels ``K, hK K, (hK)^2 K, ...``, one
    matrix product per term, until the newest term's max block norm drops
    below ``kernel_tol`` (the truncated-series residual of the discrete
    equation equals the next term, so this bounds the residual).
    ``method="direct"`` solves ``(I - hK) R = K`` with one unit lower
    triangular solve, exact at machine precision; it serves as the discrete
    oracle for the series route.

    ``columns`` restricts the solve to selected source nodes j (the full
    table is the default): the same product or solve with fewer right-hand
    sides.  Raises :class:`ConvergenceError` if the series does not reach
    the tolerance within ``max_terms``.
    """
    if family.kind != "dense_matrix":
        raise DomainError("kernel construction applies to the dense backend")
    if grid.n_nodes < 3:
        raise DomainError("kernel construction needs at least three nodes")
    a_stack, semigroups = (_frozen_tables(family, grid)
                           if _frozen is None else _frozen)
    kern = _kernel_table_raw(a_stack, semigroups)
    d, h = family.dim, grid.h
    cols = None if columns is None else tuple(columns)
    entries = _entries(cols, d)
    rhs = kern[:, entries]

    if method == "direct":
        # K is strictly lower triangular, so with unit_diagonal the solve
        # reads only -hK: the strictly lower part of I - hK
        part = solve_triangular(-h * kern, rhs, lower=True,
                                unit_diagonal=True, check_finite=False)
        n_terms, tail = 0, 0.0
    elif method == "series":
        term, part = rhs, rhs.copy()
        tail = _max_norm(_blocks(term, d))
        n_terms = 1
        while tail > kernel_tol:
            if n_terms >= max_terms:
                raise ConvergenceError(
                    f"kernel series did not reach {kernel_tol} within "
                    f"{max_terms} terms (last term norm {tail:.3e})",
                    last_norm=tail,
                )
            term = kern @ term
            term *= h
            part += term
            tail = _max_norm(_blocks(term, d))
            n_terms += 1
    else:
        raise ValueError(f"unknown kernel method {method!r}")

    return KernelTable(grid, _blocks(kern, d),
                       _blocks(_embed(part, entries), d), n_terms, tail, cols)


def kernel_residual(table: KernelTable) -> float:
    """Max spectral norm of ``R - K - hKR`` over stored blocks below the diagonal."""
    n, d = table.grid.n_nodes, table.kernel.shape[-1]
    entries = _entries(table.columns, d)
    kern = _flat(table.kernel)
    res = _flat(table.resolvent)[:, entries]
    resid = res - kern[:, entries] - table.grid.h * (kern @ res)
    cols = np.asarray(table.column_indices())
    below = np.arange(n)[:, None] > cols[None, :]
    norms = np.linalg.norm(_blocks(resid, d)[below], 2, axis=(-2, -1))
    return float(np.max(norms, initial=0.0))


@dataclass
class SpectralPropagatorTable:
    """Diagonal propagator for the sine-mode heat family.

    Stores the cumulative tau-integral of the potential; the factor of mode
    n between nodes j <= i is
    ``exp(-n**2 (tau_i - tau_j) - (P_i - P_j))``, so the composition law
    holds exactly (the exponents telescope).
    """

    grid: TimeGrid
    family: SpectralHeatFamily
    potential_cumint: np.ndarray = field(init=False, repr=False)
    norm_bound: float = field(init=False)
    columns = None

    def __post_init__(self):
        p = np.array([self.family.potential(t) for t in self.grid.t_nodes])
        h = self.grid.h
        self.potential_cumint = np.concatenate(
            [[0.0], np.cumsum(0.5 * h * (p[1:] + p[:-1]))]
        )
        self._sq = np.arange(1, self.family.n_modes + 1, dtype=float) ** 2
        # per-mode exponent E_n(i) = n^2 tau_i + P_i; the largest factor over
        # pairs i >= j is exp(max_j (E_n(j) - min_{i>=j} E_n(i)))
        exponents = self._sq[None, :] * self.grid.tau_nodes[:, None] \
            + self.potential_cumint[:, None]
        suffix_min = np.minimum.accumulate(exponents[::-1], axis=0)[::-1]
        self.norm_bound = float(np.exp(np.max(exponents - suffix_min)))
        self._steps = self._between(np.s_[1:], np.s_[:-1])

    @property
    def dim(self) -> int:
        return self.family.n_modes

    def _between(self, i, j) -> np.ndarray:
        """Mode factors from node(s) ``j`` to node(s) ``i``, shape (..., modes)."""
        tau, pot = self.grid.tau_nodes, self.potential_cumint
        return np.exp(-np.multiply.outer(tau[i] - tau[j], self._sq)
                      - (pot[i] - pot[j])[..., None])

    def factors(self, i: int, j: int) -> np.ndarray:
        if j > i:
            raise IndexError("source node must not exceed target node")
        return self._between(i, j)

    def matrix(self, i: int, j: int) -> np.ndarray:
        return np.diag(self.factors(i, j))

    def apply(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        return self.factors(i, j) * np.asarray(x, dtype=float)

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, modes)."""
        return self._between(np.s_[:], 0) * np.asarray(x0, dtype=float)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid ``int_0^{tau_i} op(i, r) values[r] dtau_r`` at every node i.

        Marches ``acc[i] = op(i, i-1) (acc[i-1] + h/2 v[i-1]) + h/2 v[i]``,
        which is exact because the mode exponents telescope.
        """
        half = 0.5 * self.grid.h * np.asarray(values, dtype=float)
        acc = np.zeros_like(half)
        for i, step in enumerate(self._steps, start=1):
            acc[i] = step * (acc[i - 1] + half[i - 1]) + half[i]
        return acc

    def final_stack(self) -> np.ndarray:
        return self._between(-1, np.s_[:])[:, :, None] * np.eye(self.dim)


@dataclass
class DensePropagatorTable:
    """Tabulated evolution operators for a dense matrix family.

    ``matrices[i, j]`` is the operator from node j to node i (i >= j).
    When built with a column restriction only those source columns are
    populated; accessing anything else raises ``IndexError``.
    """

    grid: TimeGrid
    family: DenseMatrixFamily
    matrices: np.ndarray
    kernel_table: KernelTable
    columns: tuple | None = None
    norm_bound: float = field(init=False)

    def __post_init__(self):
        # Frobenius norms upper-bound the spectral norms, which keeps the
        # recorded envelope a valid bound at a fraction of the cost.
        if self.columns is None:
            sel = self.matrices
        else:
            sel = self.matrices[:, list(self.columns)]
        self.norm_bound = _max_norm(sel)

    @property
    def dim(self) -> int:
        return self.family.dim

    def _check(self, i, j):
        if j > i:
            raise IndexError("source node must not exceed target node")
        if self.columns is not None and j not in self.columns:
            raise IndexError(f"column {j} was not built (columns={self.columns})")

    def matrix(self, i: int, j: int) -> np.ndarray:
        self._check(i, j)
        return self.matrices[i, j]

    def apply(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        self._check(i, j)
        return self.matrices[i, j] @ np.asarray(x, dtype=float)

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, dim)."""
        self._check(0, 0)
        return self.matrices[:, 0] @ np.asarray(x0, dtype=float)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid ``int_0^{tau_i} op(i, r) values[r] dtau_r`` at every node i.

        One block matvec ``h Psi v`` over nodes 0..i, less half the two
        endpoint terms; ``Psi[i, i]`` is the identity, so row 0 is exactly 0.
        """
        if self.columns is not None:
            raise IndexError("accumulation needs a full propagator table")
        values = np.asarray(values, dtype=float)
        half = 0.5 * self.grid.h
        acc = (_flat(self.matrices) @ values.ravel()).reshape(values.shape)
        acc *= self.grid.h
        acc -= half * values
        acc -= half * self.homogeneous(values[0])
        return acc

    def final_stack(self) -> np.ndarray:
        if self.columns is not None:
            raise IndexError("final row needs a full propagator table")
        return self.matrices[-1]


PropagatorTable = Union[SpectralPropagatorTable, DensePropagatorTable]


def build_propagator(family: OperatorFamily,
                     grid: TimeGrid,
                     *,
                     kernel_tol: float = 1e-8,
                     max_terms: int = 40,
                     kernel_method: str = "series",
                     columns: Sequence[int] | None = None) -> PropagatorTable:
    """Construct the evolution-operator table on ``grid``.

    The spectral backend evaluates its closed per-mode form (the kernel
    options are ignored).  The dense backend solves the kernel equation and
    assembles, with trapezoid weights in tau,

        op(i, j) = S_j(tau_i - tau_j)
                   + int_{tau_j}^{tau_i} S_r(tau_i - tau_r) resolvent(r, j) dr.

    ``columns`` restricts the dense table to selected source nodes, which
    is much cheaper when only propagation from the window start is needed.
    """
    if family.kind == "spectral_heat":
        return SpectralPropagatorTable(grid, family)

    frozen = _frozen_tables(family, grid)
    ktab = build_kernel(family, grid, max_terms=max_terms,
                        kernel_tol=kernel_tol, method=kernel_method,
                        columns=columns, _frozen=frozen)
    semigroups = frozen[1]
    d, h = family.dim, grid.h
    entries = _entries(ktab.columns, d)
    res = _flat(ktab.resolvent)[:, entries]
    # the trapezoid sum over r = j..i is h (S R)[i, j] less half its r = i
    # term, R[i, j] (S[i, i] = I); its r = j term vanishes with R[j, j]
    part = semigroups @ res
    part *= h
    part -= (0.5 * h) * res
    part += semigroups[:, entries]
    matrices = _blocks(_embed(part, entries), d)
    diag = np.asarray(ktab.column_indices())
    matrices[diag, diag] = np.eye(d)
    return DensePropagatorTable(grid, family, matrices, ktab, ktab.columns)


def propagate_oracle(family: OperatorFamily,
                     order,
                     s: float,
                     t: float,
                     x: np.ndarray,
                     steps: int = 2048) -> np.ndarray:
    """Brute-force propagation of ``x`` from time s to time t.

    Integrates ``dx/dtau = -A(t(tau)) x`` with the classical fourth-order
    Runge-Kutta method on ``steps`` uniform tau substeps, where the time
    substitution is taken from ``order``.  Independent of the table
    construction; used as the reference for all propagator tests.
    """
    if t < s:
        raise DomainError("target time must not precede source time")
    x = np.asarray(x, dtype=float).copy()
    if t == s:
        return x
    inv_alpha = 1.0 / order.alpha

    def rhs(tau, u):
        phys_t = (order.alpha * tau) ** inv_alpha
        return -family.a_matrix(phys_t) @ u

    return _rk4(rhs, x, float(order.to_tau(s)), float(order.to_tau(t)), steps)


def _rk4(f, y0, x0, x1, steps):
    y = np.asarray(y0, dtype=float).copy()
    h = (x1 - x0) / steps
    x = x0
    for _ in range(steps):
        k1 = f(x, y)
        k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h
    return y


def conformable_residual(table: PropagatorTable,
                         family: OperatorFamily,
                         i: int,
                         j: int) -> float:
    """Residual of the fractional evolution equation at interior node i.

    The fractional time derivative equals d/dtau, evaluated by a central
    difference on the table; returns
    ``|| d_tau op(i, j) + A(t_i) op(i, j) ||_2``.
    """
    n = table.grid.n_nodes
    if not j < i:
        raise IndexError("need a source node strictly before the target")
    if i < 1 or i > n - 2:
        raise IndexError("target node must be interior for central differences")
    h = table.grid.h
    diff = (table.matrix(i + 1, j) - table.matrix(i - 1, j)) / (2.0 * h)
    resid = diff + family.a_matrix(table.grid.t_nodes[i]) @ table.matrix(i, j)
    return float(np.linalg.norm(resid, 2))


def adjoint_residual(table: PropagatorTable,
                     family: OperatorFamily,
                     i: int,
                     j: int,
                     v: np.ndarray) -> float:
    """Residual of the backward (source-side) derivative relation.

    Checks ``d_tau_s [op(i, j) v] = op(i, j) A(t_j) v`` by a central
    difference in the source index.
    """
    if not 1 <= j < i:
        raise IndexError("need an interior source node strictly before i")
    h = table.grid.h
    v = np.asarray(v, dtype=float)
    diff = (table.matrix(i, j + 1) @ v - table.matrix(i, j - 1) @ v) / (2.0 * h)
    target = table.matrix(i, j) @ (family.a_matrix(table.grid.t_nodes[j]) @ v)
    return float(np.linalg.norm(diff - target))


def regularized_residuals(family: DenseMatrixFamily,
                          kernel_table: KernelTable,
                          i: int,
                          j: int,
                          pullbacks: Sequence[int] = (8, 4, 2)) -> list[float]:
    """Evolution-equation residuals of the pulled-back operator.

    For each pullback m the correction integral is truncated m grid steps
    short of the target node; the residual of the fractional equation is
    then evaluated by central differences.  As the pullback shrinks the
    residual must decrease toward the untruncated value (a proof-device
    check, not a production path).
    """
    grid = kernel_table.grid
    tau, tn = grid.tau_nodes, grid.t_nodes
    h = grid.h
    res = kernel_table.resolvent

    def pulled_back_op(ii, m):
        upper = max(ii - m, j)
        acc = frozen_semigroup(family, tn[j], tau[ii] - tau[j])
        if upper > j:
            for r in range(j, upper + 1):
                w = 0.5 if r in (j, upper) else 1.0
                acc = acc + h * w * frozen_semigroup(
                    family, tn[r], tau[ii] - tau[r]) @ res[r, j]
        return acc

    out = []
    for m in pullbacks:
        diff = (pulled_back_op(i + 1, m) - pulled_back_op(i - 1, m)) / (2.0 * h)
        resid = diff + family.a_matrix(tn[i]) @ pulled_back_op(i, m)
        out.append(float(np.linalg.norm(resid, 2)))
    return out
