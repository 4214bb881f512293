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
  built from frozen-coefficient exponentials
  ``S_s(t - s) = exp(-(tau_t - tau_s) A(s))`` corrected by the resolvent
  kernel of a Volterra equation of the second kind:

      resolvent(t, s) = kernel(t, s)
                        + int_{tau_s}^{tau_t} kernel(t, r) resolvent(r, s) dr,
      kernel(t, s)    = (A(s) - A(t)) S_s(t - s),

  discretized with trapezoid weights (Nystrom).  The table keeps two
  ``(n*d, n*d)`` block-lower-triangular matrices, the frozen semigroups S
  and the kernel K, whose block (i, j) acts from node j to node i.  K
  vanishes on the block diagonal, so the discrete equation
  ``R = K + h K R`` gives ``I + h R = (I - h K)^{-1}``, and the propagator
  ``Psi = S (I + h R) - h/2 R`` is applied without forming R or Psi:

      Psi v = S (v + h w) - h/2 w,              w = R v,
      Psi[n-1, :] = S[n-1, :] + u R,            u = h S[n-1, :] - h/2 E[n-1],

  where ``E[n-1]`` picks the last node; the final block row is one
  transposed application.  ``R v`` takes either one unit lower triangular
  solve of ``(I - h K) w = K v`` (direct route) or the terminating series
  ``sum_m (h K)^m K v``, one matrix-vector product per term and a stopping
  test per application (series route); the tests cross-check the two.
  A block column of Psi, for node-pair queries, is one application to d
  unit vectors and is cached on the table.  The table's ``norm_bound`` is
  the logarithmic-norm bound ``exp(int max(0, mu_2(-A)) dtau)``, which
  needs no block of Psi.  A grid whose tables would not fit in physical
  memory is refused before anything large is allocated.

An independent brute-force oracle integrates the substituted ODE with a
classical fourth-order one-step method; every propagator test is anchored
to it.

Table construction is single-threaded.  Applying a dense table caches
block columns and records series term counts on it, so a dense table
shared between threads needs a lock; spectral tables are immutable.
"""

from __future__ import annotations

import os
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
_CHUNK_BYTES = 1 << 20
_TABLE_COPIES = 3


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


def _blocks(mat: np.ndarray, d: int) -> np.ndarray:
    """``(rows*d, cols*d)`` block matrix as its ``(rows, cols, d, d)`` block view."""
    return mat.reshape(mat.shape[0] // d, d, -1, d).transpose(0, 2, 1, 3)


def _flat(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_blocks`; a view when ``blocks`` came from it."""
    rows, cols, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * d, cols * d)


def _unit_block(n: int, d: int, j: int) -> np.ndarray:
    """``(n*d, d)`` stacked block column holding the identity at node j."""
    out = np.zeros((n * d, d))
    out[j * d:(j + 1) * d] = np.eye(d)
    return out


def _check_memory(n: int, d: int) -> None:
    """Refuse a dense table whose predicted footprint exceeds physical memory.

    A table keeps S and K, and the direct route a third matrix of the same
    size, ``-hK``: ``_TABLE_COPIES`` matrices of ``(n*d)**2`` doubles,
    counted for either route.  Nothing is allocated to find out.
    """
    need = _TABLE_COPIES * (n * d) ** 2 * 8
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise DomainError(
            f"a dense table of {n} nodes in dimension {d} needs about "
            f"{need / 1e9:.3g} GB, more than the {have / 1e9:.3g} GB of "
            "physical memory")


def _frozen_tables(family: DenseMatrixFamily, grid: TimeGrid):
    """``A(t_j)`` at every node, and the semigroup table built from it."""
    _check_memory(grid.n_nodes, family.dim)
    a_stack = np.stack([family.a_matrix(t) for t in grid.t_nodes])
    return a_stack, _semigroup_table(a_stack, grid.tau_nodes)


def _semigroup_table(a_stack: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Block matrix with S[i, j] = exp(-(tau_i - tau_j) A_j) for i >= j.

    One batched eigendecomposition serves every source node j whose
    eigenvector matrix is well conditioned and whose exponentials come out
    real; any other node takes one scaling-and-squaring exponential per
    step.  Source nodes are filled in chunks, so the complex temporary
    stays near ``_CHUNK_BYTES``.
    """
    n, d = a_stack.shape[:2]
    table = np.zeros((n * d, n * d))
    blocks = _blocks(table, d)
    try:
        lam, vec = np.linalg.eig(a_stack)
        cond = np.linalg.cond(vec)
    except np.linalg.LinAlgError:
        lam, vec = np.zeros((n, d)), np.broadcast_to(np.eye(d), (n, d, d))
        cond = np.full(n, np.inf)
    use_eig = np.isfinite(cond) & (cond < _EIG_COND_LIMIT)
    vinv = np.linalg.inv(np.where(use_eig[:, None, None], vec, np.eye(d)))
    # exp(-dt A_j) = sum_b exp(-dt lam_jb) P_jb with the eigenprojectors
    # P_jb = vec_j[:, b] vinv_j[b, :]
    proj = np.einsum("jab,jbc->jbac", vec, vinv).reshape(n, d, d * d)
    step = max(1, _CHUNK_BYTES // (16 * n * d * d))
    for j0 in range(0, n, step):
        cols = slice(j0, min(n, j0 + step))
        dt = tau[None, j0:] - tau[cols, None]    # negative above the diagonal
        above = dt < 0.0
        out = np.exp(-np.where(above, 0.0, dt)[..., None]
                     * lam[cols, None, :]) @ proj[cols]
        out[above] = 0.0
        imag = np.max(np.abs(out.imag), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(out.real), axis=(1, 2)))
        use_eig[cols] &= imag < 1e-9 * scale
        blocks[j0:, cols] = out.real.reshape(-1, n - j0, d, d).transpose(
            1, 0, 2, 3)
    for j in np.flatnonzero(~use_eig):
        blocks[j:, j] = np.stack([expm(-dt * a_stack[j])
                                  for dt in tau[j:] - tau[j]])
    nodes = np.arange(n)
    blocks[nodes, nodes] = np.eye(d)
    return table


def _kernel_table_raw(a_stack: np.ndarray, semigroups: np.ndarray) -> np.ndarray:
    """Block matrix with K[i, j] = (A_j - A_i) S[i, j].

    ``A_j - A_i`` stays the left factor: it vanishes exactly on the block
    diagonal and for a constant family, so K is exactly zero there.  Rows
    are filled in chunks, each only up to its last diagonal block, so the
    coefficient differences never take a third ``(n*d, n*d)`` array.
    """
    n, d = a_stack.shape[:2]
    kern = np.zeros_like(semigroups)
    sem, out = _blocks(semigroups, d), _blocks(kern, d)
    step = max(1, _CHUNK_BYTES // (8 * n * d * d))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        np.matmul(a_stack[None, :i1] - a_stack[i0:i1, None], sem[i0:i1, :i1],
                  out=out[i0:i1, :i1])
    return kern


def _log_norm_bound(a_stack: np.ndarray, grid: TimeGrid) -> float:
    """``exp(int max(0, mu_2(-A(tau))) dtau)`` over the grid, by trapezoid.

    ``mu_2(-A)``, the largest eigenvalue of ``-(A + A^T)/2``, is the
    logarithmic 2-norm; its integral bounds the growth of every evolution
    operator between two times of the window (Soderlind, BIT 46, 2006).
    """
    sym = -0.5 * (a_stack + a_stack.transpose(0, 2, 1))
    mu = np.linalg.eigvalsh(sym)[:, -1]
    return float(np.exp(grid.weights() @ np.maximum(mu, 0.0)))


@dataclass
class KernelTable:
    """Volterra kernel of the dense backend; applies its resolvent.

    ``kernel[i, j]`` holds ``(A(t_j) - A(t_i)) S_{t_j}(t_i - t_j)`` exactly
    as assembled.  It is the ``(n, n, d, d)`` block view of the strictly
    block-lower-triangular ``(n*d, n*d)`` matrix K, so entries with i <= j
    are zero.  The resolvent R of the discrete equation ``R = K + h K R``
    is never stored; :meth:`apply` returns ``R v``.  ``n_terms_used`` and
    ``series_tail_norm`` are the largest series term count and the largest
    final relative term norm over the applications so far (both stay zero
    on the direct route).
    """

    grid: TimeGrid
    kernel: np.ndarray
    method: str
    kernel_tol: float
    max_terms: int
    n_terms_used: int = 0
    series_tail_norm: float = 0.0
    _lower: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.method not in ("series", "direct"):
            raise ValueError(f"unknown kernel method {self.method!r}")
        if self.method == "direct":
            # K is strictly lower triangular, so with unit_diagonal the solve
            # reads only -hK: the strictly lower part of I - hK
            self._lower = -self.grid.h * _flat(self.kernel)

    def apply(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """R rhs, or R^T rhs with ``transpose``; rhs is (n*d,) or (n*d, k).

        The direct route solves ``(I - h K) w = K rhs`` with one unit lower
        triangular solve, exact at machine precision.  The series route
        sums ``(h K)^m K rhs``, one product per term, until the newest
        term's norm is at most ``kernel_tol`` times that of ``K rhs`` (the
        truncated sum's residual in the discrete equation is the next
        term).  Raises :class:`ConvergenceError` if that takes more than
        ``max_terms`` terms.
        """
        kern = _flat(self.kernel)
        if transpose:
            kern = kern.T
        first = kern @ np.asarray(rhs, dtype=float)
        if self.method == "direct":
            return solve_triangular(self._lower, first, lower=True,
                                    trans="T" if transpose else "N",
                                    unit_diagonal=True, check_finite=False)
        h = self.grid.h
        term, total = first, first.copy()
        scale = float(np.linalg.norm(first))
        tail, n_terms = (1.0 if scale > 0.0 else 0.0), 1
        while tail > self.kernel_tol:
            if n_terms >= self.max_terms:
                raise ConvergenceError(
                    f"kernel series did not reach {self.kernel_tol} within "
                    f"{self.max_terms} terms (last relative term norm "
                    f"{tail:.3e})",
                    last_norm=tail,
                )
            term = kern @ term
            term *= h
            total += term
            tail = float(np.linalg.norm(term)) / scale
            n_terms += 1
        self.n_terms_used = max(self.n_terms_used, n_terms)
        self.series_tail_norm = max(self.series_tail_norm, tail)
        return total


def build_kernel(family: OperatorFamily,
                 grid: TimeGrid,
                 max_terms: int = 40,
                 kernel_tol: float = 1e-8,
                 method: str = "series",
                 _frozen: tuple | None = None) -> KernelTable:
    """Assemble the Volterra kernel K on the grid; the table applies R.

    ``method`` selects how :meth:`KernelTable.apply` solves the discrete
    equation ``R = K + h K R`` for each right-hand side: ``"series"`` sums
    iterated kernels to ``kernel_tol`` within ``max_terms`` terms, and
    ``"direct"`` takes one unit lower triangular solve, the discrete oracle
    for the series route.  Raises :class:`DomainError` for a spectral
    family, fewer than three nodes, or a grid whose tables would not fit in
    physical memory.
    """
    if family.kind != "dense_matrix":
        raise DomainError("kernel construction applies to the dense backend")
    if grid.n_nodes < 3:
        raise DomainError("kernel construction needs at least three nodes")
    a_stack, semigroups = (_frozen_tables(family, grid)
                           if _frozen is None else _frozen)
    kern = _kernel_table_raw(a_stack, semigroups)
    return KernelTable(grid, _blocks(kern, family.dim), method, kernel_tol,
                       max_terms)


def kernel_residual(table: KernelTable, rhs: np.ndarray) -> float:
    """Certificate ``||w - hKw - Kv|| / ||Kv||`` of an application ``w = R v``.

    ``rhs`` is v, of shape (n*d,) or (n*d, k); norms are Euclidean
    (Frobenius for several right-hand sides).  When ``K v`` vanishes the
    absolute residual is returned.
    """
    kern = _flat(table.kernel)
    rhs = np.asarray(rhs, dtype=float)
    first = kern @ rhs
    w = table.apply(rhs)
    resid = w - table.grid.h * (kern @ w) - first
    return float(np.linalg.norm(resid)) / (float(np.linalg.norm(first)) or 1.0)


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
    """Evolution operators of a dense matrix family, kept as S and K.

    ``semigroups`` is the ``(n*d, n*d)`` frozen-semigroup matrix S, and
    ``kernel_table`` applies the resolvent; the propagator Psi is applied
    through them and never formed (see the module docstring).
    ``matrix(i, j)``, the operator from node j to node i, reads block
    column j of Psi, which is solved on first use and cached.
    ``norm_bound`` is the logarithmic-norm bound on every operator of the
    window.
    """

    grid: TimeGrid
    family: DenseMatrixFamily
    semigroups: np.ndarray
    kernel_table: KernelTable
    norm_bound: float
    _columns: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.family.dim

    def propagate(self, v: np.ndarray) -> np.ndarray:
        """``Psi v`` for stacked node values v of shape (n*d,) or (n*d, k)."""
        h = self.grid.h
        w = self.kernel_table.apply(v)
        out = self.semigroups @ (v + h * w)
        out -= (0.5 * h) * w
        return out

    def _column(self, j: int) -> np.ndarray:
        """Block column j of Psi, shape (n_nodes, d, d), solved once."""
        if j not in self._columns:
            n, d = self.grid.n_nodes, self.dim
            self._columns[j] = self.propagate(
                _unit_block(n, d, j)).reshape(n, d, d)
        return self._columns[j]

    def matrix(self, i: int, j: int) -> np.ndarray:
        if not 0 <= j <= i < self.grid.n_nodes:
            raise IndexError(f"node pair ({i}, {j}) needs 0 <= j <= i < "
                             f"{self.grid.n_nodes}")
        return self._column(j)[i]

    def apply(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        return self.matrix(i, j) @ np.asarray(x, dtype=float)

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, dim).

        Reads the cached block column 0, so it agrees exactly with
        ``apply(i, 0, x0)``.
        """
        return self._column(0) @ np.asarray(x0, dtype=float)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid ``int_0^{tau_i} op(i, r) values[r] dtau_r`` at every node i.

        One application of Psi to the weighted values (weight h, and h/2 at
        node 0), less the half weight of the r = i term; ``Psi[i, i]`` is
        the identity, so row 0 is exactly 0.
        """
        values = np.asarray(values, dtype=float)
        half = 0.5 * self.grid.h
        weighted = self.grid.h * values
        weighted[0] = half * values[0]
        acc = self.propagate(weighted.ravel()).reshape(values.shape)
        acc -= half * values
        return acc

    def final_stack(self) -> np.ndarray:
        """Final block row ``Psi[n-1, j]`` for every j, shape (n_nodes, d, d).

        ``Psi[n-1, :]^T = S[n-1, :]^T + R^T u^T`` with
        ``u = h S[n-1, :] - h/2 E[n-1]``: one transposed application.
        """
        n, d, h = self.grid.n_nodes, self.dim, self.grid.h
        row = self.semigroups[-d:].T
        seed = h * row
        seed[-d:] -= 0.5 * h * np.eye(d)
        out = row + self.kernel_table.apply(seed, transpose=True)
        return out.reshape(n, d, d).transpose(0, 2, 1)


PropagatorTable = Union[SpectralPropagatorTable, DensePropagatorTable]


def build_propagator(family: OperatorFamily,
                     grid: TimeGrid,
                     *,
                     kernel_tol: float = 1e-8,
                     max_terms: int = 40,
                     kernel_method: str = "series") -> PropagatorTable:
    """Construct the evolution-operator table on ``grid``.

    The spectral backend evaluates its closed per-mode form (the kernel
    options are ignored).  The dense backend builds S and K and applies,
    with trapezoid weights in tau,

        op(i, j) = S_j(tau_i - tau_j)
                   + int_{tau_j}^{tau_i} S_r(tau_i - tau_r) resolvent(r, j) dr

    through kernel solves; it raises :class:`DomainError` before allocating
    when the tables would not fit in physical memory.
    """
    if family.kind == "spectral_heat":
        return SpectralPropagatorTable(grid, family)

    frozen = _frozen_tables(family, grid)
    ktab = build_kernel(family, grid, max_terms=max_terms,
                        kernel_tol=kernel_tol, method=kernel_method,
                        _frozen=frozen)
    a_stack, semigroups = frozen
    return DensePropagatorTable(grid, family, semigroups, ktab,
                                _log_norm_bound(a_stack, grid))


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
    h, n, d = grid.h, grid.n_nodes, family.dim
    res = kernel_table.apply(_unit_block(n, d, j)).reshape(n, d, d)

    def pulled_back_op(ii, m):
        upper = max(ii - m, j)
        acc = frozen_semigroup(family, tn[j], tau[ii] - tau[j])
        if upper > j:
            for r in range(j, upper + 1):
                w = 0.5 if r in (j, upper) else 1.0
                acc = acc + h * w * frozen_semigroup(
                    family, tn[r], tau[ii] - tau[r]) @ res[r]
        return acc

    out = []
    for m in pullbacks:
        diff = (pulled_back_op(i + 1, m) - pulled_back_op(i - 1, m)) / (2.0 * h)
        resid = diff + family.a_matrix(tn[i]) @ pulled_back_op(i, m)
        out.append(float(np.linalg.norm(resid, 2)))
    return out
