"""Two-parameter evolution operators for non-autonomous linear systems.

The homogeneous dynamics ``d_alpha x + A(t) x = 0`` become the classical
system ``dx/dtau = -A(t(tau)) x`` in transformed time, so the evolution
operator between grid nodes is built entirely on the flat tau grid.

Two backends:

* ``spectral_heat`` -- the Dirichlet sine-mode family with eigenvalues
  ``n**2 + p(t)`` per mode.  The operator is diagonal with per-mode factors
  ``exp(-n**2 * (tau_t - tau_s) - int_{tau_s}^{tau_t} p dtau)`` where the
  potential integral is accumulated by cumulative trapezoid.  The
  trapezoid Volterra sum over these factors is one cumulative sum per chunk
  of nodes, with a carry between chunks.
* ``dense_matrix`` -- a general smooth matrix family.  The operator is
  built from frozen-coefficient exponentials
  ``S_s(t - s) = exp(-(tau_t - tau_s) A(s))`` corrected by the resolvent
  kernel of a Volterra equation of the second kind:

      resolvent(t, s) = kernel(t, s)
                        + int_{tau_s}^{tau_t} kernel(t, r) resolvent(r, s) dr,
      kernel(t, s)    = (A(s) - A(t)) S_s(t - s),

  discretized with trapezoid weights (Nystrom).  The tau grid is uniform,
  so ``S_{t_j}(t_i - t_j)`` is the power ``E_j**(i - j)`` of the one-step
  exponential ``E_j = exp(-h A(t_j))``, one scaling-and-squaring
  exponential per node; every family, defective or not, takes that one
  route.  The table keeps two
  block-lower-triangular ``(n*d, n*d)`` matrices, the frozen semigroups S
  and the kernel, stored scaled as ``-h K``; block (i, j) acts from node j
  to node i.  Each is stored as row panels: panel c holds the rows of the
  nodes ``[s0, s1)`` and the columns of the nodes ``[0, s1)``, so the zero
  upper half is never allocated.  K vanishes on the block diagonal, so
  the discrete equation ``R = K + h K R`` is the unit lower triangular
  system ``I + h R = (I - h K)^{-1}``, and the propagator
  ``Psi = S (I + h R) - h/2 R = (S - I/2) (I - h K)^{-1} + I/2`` is applied
  by one block substitution over the panels and one product with S,
  never formed:

      Psi v = S y - (y - v)/2,                      y = (I - h K)^{-1} v,
      Psi[n-1, :]^T = (I - h K)^{-T} (S[n-1, :]^T - E/2) + E/2,

  where ``E`` holds the identity at the last node; the final block row is
  one backward substitution.  The substitutions are matrix products with
  the panels and with the inverses of the panels' diagonal blocks of
  ``I - h K``, taken once when the table is built, so the solves need
  numpy only.  A block column of Psi, for node-pair queries, is one
  application to d unit vectors and is cached on the table.  The table's
  ``norm_bound`` is the logarithmic-norm bound
  ``exp(int max(0, mu_2(-A)) dtau)``, which needs no block of Psi.  A grid
  whose tables would not fit in memory (the smallest of physical memory,
  the soft ``RLIMIT_AS`` and the cgroup limit) is refused before anything
  large is allocated.  A family whose ``A(t)``, tables or bound come out
  non-finite raises :class:`NumericError` when the table is built, before
  any solve.  The dense backend needs numpy only.

An independent brute-force oracle integrates the substituted ODE with a
classical fourth-order one-step method; every propagator test is anchored
to it.

Both tables apply their final row, forwards (``final_row``) and
transposed (``final_row_adjoint``), return one of its blocks
(``final_block``), and take its weighted quadratic form
``final_gram(M) = sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T``, which is the
controllability Gramian for ``M = B B^T``.

Table construction is single-threaded.  A dense table caches the block
columns and the final row it solves, so a dense table shared between
threads needs a lock; spectral tables are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, NumericError
from .grids import TimeGrid, require_memory

__all__ = [
    "SpectralHeatFamily",
    "DenseMatrixFamily",
    "OperatorFamily",
    "KernelTable",
    "build_kernel",
    "kernel_residual",
    "SpectralPropagatorTable",
    "DensePropagatorTable",
    "build_propagator",
    "propagate_oracle",
    "conformable_residual",
    "adjoint_residual",
]

# largest exponent change |E(r) - E(anchor)| inside one chunk of the spectral
# scan; exp(64) ~ 6e27 leaves every scaled term far from overflow
_SCAN_SPAN = 64.0
# nodes per row panel of a dense table: the substitutions take one product
# per panel, and the panels' diagonal blocks, inverted at build time, are
# (16 d)**2 doubles each
_PANEL_NODES = 16
# degree of the Taylor polynomial of a one-step exponential whose scaled
# 1-norm is below one: the remainder is below 1/19! * 1.06 < 1e-17
_TAYLOR_DEGREE = 18


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


def _blocks(mat: np.ndarray, d: int) -> np.ndarray:
    """``(rows*d, cols*d)`` block matrix as its ``(rows, cols, d, d)`` block view."""
    return mat.reshape(mat.shape[0] // d, d, -1, d).transpose(0, 2, 1, 3)


def _unit_block(n: int, d: int, j: int) -> np.ndarray:
    """``(n*d, d)`` stacked block column holding the identity at node j."""
    out = np.zeros((n * d, d))
    out[j * d:(j + 1) * d] = np.eye(d)
    return out


def _panel_bounds(n: int) -> list[tuple[int, int]]:
    """Node ranges ``[s0, s1)`` of the row panels; only the last is partial."""
    return [(s0, min(n, s0 + _PANEL_NODES))
            for s0 in range(0, n, _PANEL_NODES)]


def _panel_product(panels: list[np.ndarray], x: np.ndarray,
                   transpose: bool = False) -> np.ndarray:
    """``M x``, or ``M^T x`` with ``transpose``, for M stored as row panels.

    A panel of shape ``(rows, cols)`` holds the rows ``[cols - rows, cols)``
    of the block-lower-triangular M and its columns ``[0, cols)``, where
    every later column of those rows is zero; x is (n*d,) or (n*d, k).
    """
    out = np.zeros((panels[-1].shape[1],) + x.shape[1:])
    for panel in panels:
        rows, cols = panel.shape
        if transpose:
            out[:cols] += panel.T @ x[cols - rows:cols]
        else:
            out[cols - rows:cols] = panel @ x[:cols]
    return out


def _table_bytes(n: int, d: int) -> int:
    """Bytes a dense table of n nodes in dimension d holds.

    That is the row panels of S and ``-hK``, and the inverses of the
    panels' diagonal blocks of ``I - hK``, padded to a common height.
    Panel c of a full height spans ``(c + 1) * _PANEL_NODES`` columns of
    nodes, so the sum has a closed form and the count takes no time.
    """
    full, last = divmod(n, _PANEL_NODES)
    panel_nodes = _PANEL_NODES**2 * full * (full + 1) // 2 + last * n
    height = min(n, _PANEL_NODES) * d
    return 8 * (2 * panel_nodes * d * d
                + (full + (last > 0)) * height * height)


def _require_finite(what: str, values: np.ndarray, grid: TimeGrid,
                    first: int = 0) -> None:
    """Raise :class:`NumericError` at the first node with a non-finite value.

    The leading axis of ``values`` runs over the nodes from ``first`` on.
    """
    finite = np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    if not finite.all():
        node = first + int(np.argmin(finite))
        raise NumericError(f"{what} is not finite at node {node} "
                           f"(t = {float(grid.t_nodes[node])!r})")


def _require_finite_panels(what: str, panels: list[np.ndarray],
                           grid: TimeGrid, d: int) -> None:
    """:func:`_require_finite` on the rows of each row panel, node by node."""
    for panel in panels:
        rows, cols = panel.shape
        _require_finite(what, panel.reshape(rows // d, -1), grid,
                        (cols - rows) // d)


def _one_step_exponentials(a_stack: np.ndarray, h: float) -> np.ndarray:
    """``exp(-h A_j)`` at every node j, by scaling and squaring.

    ``-h A_j`` is scaled by ``2**-s_j``, the least power that brings its
    1-norm below one, and the Taylor polynomial of its exponential, batched
    over the nodes in Horner form, is squared ``s_j`` times (Moler & Van
    Loan, SIAM Review 45, 2003, method 3); no eigenbasis is needed.  The
    squarings act on ``F = exp(.) - I`` as ``F <- F F + 2 F``: squaring
    ``I + F`` would round away the part of F far below one, and a slow mode
    of a stiff family would lose ``2**s_j`` ulps.  A 1-norm that overflows
    leaves ``s_j = 0``, so the exponential comes out non-finite.
    """
    x = -h * a_stack
    _, squarings = np.frexp(np.abs(x).sum(axis=1).max(axis=1))
    squarings = np.maximum(squarings, 0)
    x *= np.ldexp(1.0, -squarings)[:, None, None]
    eye = np.eye(a_stack.shape[1])
    poly = eye + x / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 1, -1):
        poly = eye + (x @ poly) / k
    diff = x @ poly
    for k in range(int(squarings.max())):
        more = squarings > k
        diff[more] = diff[more] @ diff[more] + 2.0 * diff[more]
    return diff + eye


def _dense_tables(family: DenseMatrixFamily, grid: TimeGrid):
    """``A(t_j)`` at every node, and the row panels of S and of ``-h K``.

    ``S[i, j] = E_j**(i - j)`` for i >= j, with ``E_j`` the one-step
    exponential.  The first ``_PANEL_NODES`` powers of every ``E_j`` are
    tabled, and each column left of a panel keeps a carry
    ``E_j**(s0 - j)``: the panel's blocks there are one batched product of
    the power table with the carries, and its diagonal square is read from
    the power table.  ``K[i, j] = (A_j - A_i) S[i, j]`` keeps ``A_j - A_i``
    as the left factor, so K is exactly zero on the block diagonal and for
    a constant family.  numpy's floating-point warnings are off; a value
    that is not finite raises :class:`NumericError` naming its node, and a
    grid whose tables would not fit in memory :class:`DomainError`.
    """
    n, d, h = grid.n_nodes, family.dim, grid.h
    if n < 3:
        raise DomainError("kernel construction needs at least three nodes")
    require_memory(_table_bytes(n, d),
                   f"a dense table of {n} nodes in dimension {d}")
    semigroups, lower = [], []
    with np.errstate(all="ignore"):
        a_stack = np.stack([family.a_matrix(t) for t in grid.t_nodes])
        _require_finite("A(t)", a_stack, grid)
        step = _one_step_exponentials(a_stack, h)
        powers = np.empty((n, _PANEL_NODES, d, d))
        powers[:, 0] = np.eye(d)
        for k in range(1, _PANEL_NODES):
            powers[:, k] = powers[:, k - 1] @ step
        carry = np.empty_like(step)
        for s0, s1 in _panel_bounds(n):
            rows = s1 - s0
            sem = np.empty((rows * d, s1 * d))
            np.matmul(powers[:s0, :rows].reshape(s0, rows * d, d), carry[:s0],
                      out=sem[:, :s0 * d].reshape(rows * d, s0, d)
                      .transpose(1, 0, 2))
            blocks = _blocks(sem, d)
            lag = np.subtract.outer(np.arange(rows), np.arange(rows))
            blocks[:, s0:] = powers[np.arange(s0, s1), np.maximum(lag, 0)]
            blocks[:, s0:][lag < 0] = 0.0
            carry[:s1] = step[:s1] @ blocks[-1]
            kern = np.empty_like(sem)
            np.matmul(a_stack[None, :s1] - a_stack[s0:s1, None], blocks,
                      out=_blocks(kern, d))
            kern *= -h
            semigroups.append(sem)
            lower.append(kern)
    _require_finite_panels("the frozen semigroup table", semigroups, grid, d)
    _require_finite_panels("the kernel", lower, grid, d)
    return a_stack, semigroups, lower


def _log_norm_bound(a_stack: np.ndarray, grid: TimeGrid) -> float:
    """``exp(int max(0, mu_2(-A(tau))) dtau)`` over the grid, by trapezoid.

    ``mu_2(-A)``, the largest eigenvalue of ``-(A + A^T)/2``, is the
    logarithmic 2-norm; its integral bounds the growth of every evolution
    operator between two times of the window (Soderlind, BIT 46, 2006).
    A bound that overflows raises :class:`NumericError`.
    """
    with np.errstate(all="ignore"):
        sym = -0.5 * (a_stack + a_stack.transpose(0, 2, 1))
        mu = np.linalg.eigvalsh(sym)[:, -1]
        bound = float(np.exp(grid.weights() @ np.maximum(mu, 0.0)))
    if not np.isfinite(bound):
        raise NumericError("the logarithmic-norm bound of the propagator "
                           "is not finite")
    return bound


@dataclass
class KernelTable:
    """Volterra kernel of the dense backend; solves its resolvent equation.

    ``lower`` holds the row panels (see :func:`_panel_product`) of the
    ``(n*d, n*d)`` matrix ``-h K``, the strictly lower part of ``I - h K``,
    where K is strictly block lower triangular with block
    ``K[i, j] = (A(t_j) - A(t_i)) S_{t_j}(t_i - t_j)``.  The discrete
    equation ``R = K + h K R`` has the one solution
    ``R = (I - h K)^{-1} K``; R is never stored.  The inverse of each
    panel's diagonal block of ``I - h K`` is taken when the table is
    built, batched over the panels, and the solves are block substitutions
    over the panels.  ``n_terms_used`` is 0: no series is summed (it stays
    for callers that read a term count).
    """

    grid: TimeGrid
    lower: list[np.ndarray]
    n_terms_used = 0

    def __post_init__(self):
        # a panel's diagonal block I + L of I - hK has identity d x d blocks
        # on its diagonal (K vanishes there), so row block k of its inverse
        # X is X_k = E_k - L_k,<k X_<k: one substitution over the nodes of a
        # panel, batched over the panels.  The partial last block is padded
        # with zero rows of L, which invert to the identity.
        d = self.lower[-1].shape[1] // self.grid.n_nodes
        height = self.lower[0].shape[0]
        blocks = np.zeros((len(self.lower), height, height))
        for block, panel in zip(blocks, self.lower):
            rows = panel.shape[0]
            block[:rows, :rows] = panel[:, -rows:]
        inv = np.zeros_like(blocks)
        eye = np.eye(height)
        for k in range(0, height, d):
            inv[:, k:k + d, :k + d] = eye[k:k + d, :k + d] \
                - blocks[:, k:k + d, :k] @ inv[:, :k, :k + d]
        self._diag_inv = inv

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``(I - h K)^{-1} rhs``, or ``(I - h K)^{-T} rhs`` (``transpose``).

        A block forward substitution over the panels, or with ``transpose``
        a backward one; rhs is (n*d,) or (n*d, k).
        """
        out = np.array(rhs, dtype=float)
        if transpose:
            for panel, inv in zip(self.lower[::-1], self._diag_inv[::-1]):
                rows, cols = panel.shape
                lo = cols - rows
                out[lo:cols] = inv[:rows, :rows].T @ out[lo:cols]
                out[:lo] -= panel[:, :lo].T @ out[lo:cols]
        else:
            for panel, inv in zip(self.lower, self._diag_inv):
                rows, cols = panel.shape
                lo = cols - rows
                out[lo:cols] = inv[:rows, :rows] @ (
                    out[lo:cols] - panel[:, :lo] @ out[:lo])
        return out

    def apply(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """R rhs, or R^T rhs with ``transpose``; rhs is (n*d,) or (n*d, k).

        Solves ``(I - h K) w = K rhs``; ``K rhs`` is read from ``-h K``.
        """
        first = _panel_product(self.lower, np.asarray(rhs, dtype=float),
                               transpose)
        first /= -self.grid.h
        return self.solve(first, transpose)


def build_kernel(family: OperatorFamily, grid: TimeGrid) -> KernelTable:
    """Assemble the Volterra kernel on the grid; the table solves for R.

    Raises :class:`DomainError` for a spectral family, fewer than three
    nodes, or a grid whose tables would not fit in memory, and
    :class:`NumericError` when ``A(t)`` or a table is not finite.
    """
    if family.kind != "dense_matrix":
        raise DomainError("kernel construction applies to the dense backend")
    return KernelTable(grid, _dense_tables(family, grid)[2])


def kernel_residual(table: KernelTable, rhs: np.ndarray) -> float:
    """Certificate ``||w - hKw - Kv|| / ||Kv||`` of an application ``w = R v``.

    ``rhs`` is v, of shape (n*d,) or (n*d, k); norms are Euclidean
    (Frobenius for several right-hand sides).  When ``K v`` vanishes the
    absolute residual is returned.
    """
    rhs = np.asarray(rhs, dtype=float)
    first = _panel_product(table.lower, rhs) / -table.grid.h
    w = table.apply(rhs)
    resid = w + _panel_product(table.lower, w) - first
    return float(np.linalg.norm(resid)) / (float(np.linalg.norm(first)) or 1.0)


def _scan_anchors(exponents: np.ndarray) -> list[int]:
    """Chunk anchors ``0 = a_0 < a_1 < ... = n-1`` of the spectral scan.

    Chunk k holds the nodes ``a_k < r <= a_{k+1}``.  Bounds
    ``|E(r) - E(a_k)|`` there by the running sum of the largest exponent
    step over the columns of ``exponents`` (n_nodes, modes) and keeps it
    within ``_SCAN_SPAN``; a single step above the span makes a chunk of
    one node.
    """
    n = exponents.shape[0]
    reach = np.concatenate(
        [[0.0], np.cumsum(np.max(np.abs(np.diff(exponents, axis=0)), axis=1))])
    anchors = [0]
    while anchors[-1] < n - 1:
        a = anchors[-1]
        b = int(np.searchsorted(reach, reach[a] + _SCAN_SPAN, side="right")) - 1
        anchors.append(max(b, a + 1))
    return anchors


@dataclass
class SpectralPropagatorTable:
    """Diagonal propagator for the sine-mode heat family.

    Stores the cumulative tau-integral of the potential; the factor of mode
    n between nodes j <= i is
    ``exp(-n**2 (tau_i - tau_j) - (P_i - P_j))``, so the composition law
    holds exactly (the exponents telescope).  ``accumulate`` is a chunked
    scan over the nodes; the table keeps one ``(n_nodes, modes)`` array of
    its scale factors.  A potential that is not finite at some node, or
    whose integral overflows, raises :class:`NumericError`.
    """

    grid: TimeGrid
    family: SpectralHeatFamily
    potential_cumint: np.ndarray = field(init=False, repr=False)
    norm_bound: float = field(init=False)

    def __post_init__(self):
        n, m = self.grid.n_nodes, self.family.n_modes
        # the (n_nodes, modes) scale factors and final row it keeps, and the
        # exponents and their suffix minima its build holds
        require_memory(32 * n * m,
                       f"a spectral table of {n} nodes and {m} modes")
        with np.errstate(all="ignore"):
            p = np.array([self.family.potential(t)
                          for t in self.grid.t_nodes], dtype=float)
        if not np.all(np.isfinite(p)):
            bad = int(np.argmin(np.isfinite(p)))
            raise NumericError(f"potential is {p[bad]} at node {bad} "
                               f"(t = {float(self.grid.t_nodes[bad])!r})")
        h = self.grid.h
        with np.errstate(over="ignore"):
            self.potential_cumint = np.concatenate(
                [[0.0], np.cumsum(0.5 * h * (p[1:] + p[:-1]))]
            )
        if not np.isfinite(self.potential_cumint[-1]):
            raise NumericError("the tau-integral of the potential overflows")
        self._sq = np.arange(1, self.family.n_modes + 1, dtype=float) ** 2
        # per-mode exponent E_n(i) = n^2 tau_i + P_i; the largest factor over
        # pairs i >= j is exp(max_j (E_n(j) - min_{i>=j} E_n(i)))
        exponents = self._sq[None, :] * self.grid.tau_nodes[:, None] \
            + self.potential_cumint[:, None]
        suffix_min = np.minimum.accumulate(exponents[::-1], axis=0)[::-1]
        self.norm_bound = float(np.exp(np.max(exponents - suffix_min)))
        # a step of E_n is affine in n^2, so the first and the last mode
        # carry the largest step of every node
        self._anchors = _scan_anchors(exponents[:, [0, -1]])
        owner = np.repeat(self._anchors[:-1], np.diff(self._anchors))
        self._decay = self._between(np.s_[:], np.concatenate([[0], owner]))
        self._final = self._between(-1, np.s_[:])

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

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, modes)."""
        return self._between(np.s_[:], 0) * np.asarray(x0, dtype=float)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid ``int_0^{tau_i} op(i, r) values[r] dtau_r`` at every node i.

        A chunked scan.  With ``G[i] = acc[i] + h/2 values[i]`` the full-
        weight sum up to node i, the exponents telescope, so for nodes
        ``a < i <= b`` of a chunk anchored at node a

            acc[i] = D[i] (G[a] + sum_{a<r<i} h values[r] / D[r])
                     + h/2 values[i],      D[r] = exp(-(E(r) - E(a))),

        one cumulative sum per chunk, and the carry ``G[b]`` anchors the
        next chunk.  ``D`` is stored on the table; the chunks keep
        ``|E(r) - E(a)|`` within ``_SCAN_SPAN``, so no scaled term
        overflows, and a step that alone exceeds it is a chunk of one node,
        which divides by nothing.
        """
        h = self.grid.h
        values = np.asarray(values, dtype=float)
        half = 0.5 * h * values
        acc = np.empty_like(half)
        acc[0] = 0.0
        for a, b in zip(self._anchors[:-1], self._anchors[1:]):
            run = np.empty((b - a,) + half.shape[1:])
            run[0] = acc[a] + half[a]
            np.divide(values[a + 1:b], self._decay[a + 1:b], out=run[1:])
            run[1:] *= h
            np.cumsum(run, axis=0, out=run)
            acc[a + 1:b + 1] = self._decay[a + 1:b + 1] * run \
                + half[a + 1:b + 1]
        return acc

    def final_row(self, values: np.ndarray) -> np.ndarray:
        """``sum_r op(n-1, r) values[r]``; values (..., n_nodes, modes)."""
        return np.einsum("rm,...rm->...m", self._final, values)

    def final_row_adjoint(self, y: np.ndarray) -> np.ndarray:
        """``op(n-1, r)^T y`` at every node r, shape (..., n_nodes, modes)."""
        return self._final * np.asarray(y, dtype=float)[..., None, :]

    def final_block(self, r: int) -> np.ndarray:
        """``op(n-1, r)``, shape (modes, modes)."""
        return np.diag(self._final[r])

    def final_gram(self, m: np.ndarray) -> np.ndarray:
        """``sum_r w_r op(n-1, r) M op(n-1, r)^T`` for a (modes, modes) M.

        w are the trapezoid weights.  The operators are diagonal with the
        final-row factors f, so this is M times, entrywise, ``(f w)^T f``:
        O(n_nodes * modes**2) time and O(n_nodes * modes) memory.
        """
        f = self._final
        return np.asarray(m, dtype=float) \
            * ((f * self.grid.weights()[:, None]).T @ f)


@dataclass
class DensePropagatorTable:
    """Evolution operators of a dense matrix family, kept as S and -hK.

    ``semigroups`` holds the row panels (see :func:`_panel_product`) of
    the ``(n*d, n*d)`` frozen-semigroup matrix S, and ``kernel_table``
    solves with ``I - h K``; the propagator Psi is applied through them
    and never formed (see the module docstring).
    ``matrix(i, j)``, the operator from node j to node i, reads block
    column j of Psi, which is solved on first use and cached.
    ``norm_bound`` is the logarithmic-norm bound on every operator of the
    window.
    """

    grid: TimeGrid
    family: DenseMatrixFamily
    semigroups: list[np.ndarray]
    kernel_table: KernelTable
    norm_bound: float
    _columns: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.family.dim

    def propagate(self, v: np.ndarray) -> np.ndarray:
        """``Psi v`` for stacked node values v of shape (n*d,) or (n*d, k).

        ``Psi v = S y - (y - v)/2`` with ``y = (I - h K)^{-1} v``.
        """
        v = np.asarray(v, dtype=float)
        y = self.kernel_table.solve(v)
        return _panel_product(self.semigroups, y) - 0.5 * (y - v)

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

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, dim).

        Reads the cached block column 0, so it agrees exactly with
        ``matrix(i, 0) @ x0``.
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

    @cached_property
    def _final_t(self) -> np.ndarray:
        """``Psi[n-1, :]^T``, shape (n_nodes*d, d), solved on first use.

        ``(I - h K)^{-T} (S[n-1, :]^T - E/2) + E/2``, with E the identity
        at the last node: one transposed solve.  ``S[n-1, :]`` is the last
        d rows of the last panel.
        """
        d = self.dim
        seed = self.semigroups[-1][-d:].T.copy()
        seed[-d:] -= 0.5 * np.eye(d)
        out = self.kernel_table.solve(seed, transpose=True)
        out[-d:] += 0.5 * np.eye(d)
        return out

    def final_row(self, values: np.ndarray) -> np.ndarray:
        """``sum_r Psi[n-1, r] values[r]``; values (..., n_nodes, d)."""
        values = np.asarray(values, dtype=float)
        return values.reshape(*values.shape[:-2], -1) @ self._final_t

    def final_row_adjoint(self, y: np.ndarray) -> np.ndarray:
        """``Psi[n-1, r]^T y`` at every node r, shape (..., n_nodes, d)."""
        out = np.asarray(y, dtype=float) @ self._final_t.T
        return out.reshape(*out.shape[:-1], self.grid.n_nodes, self.dim)

    def final_block(self, r: int) -> np.ndarray:
        """``Psi[n-1, r]``, shape (d, d), read from the cached final row."""
        d = self.dim
        return self._final_t[r * d:(r + 1) * d].T.copy()

    def final_gram(self, m: np.ndarray) -> np.ndarray:
        """``sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T`` for a (d, d) M.

        w are the trapezoid weights.  Read as an ``(n*d, d)`` matrix, the
        transpose of the cached ``Psi[n-1, :]^T`` has row c of each
        ``Psi[n-1, r]`` in its rows ``(c, r)``, so one product with M gives
        every ``Psi[n-1, r] M``; weighted and read back as a ``(d, n*d)``
        row, one product with ``Psi[n-1, :]^T`` sums them.  An overflow
        gives a non-finite Gramian, which its caller reports.
        """
        n, d = self.grid.n_nodes, self.dim
        final_t = self._final_t
        with np.errstate(all="ignore"):
            left = np.ascontiguousarray(final_t.T).reshape(d * n, d) \
                @ np.asarray(m, dtype=float)
            left = left.reshape(d, n * d)
            left *= np.repeat(self.grid.weights(), d)
            return left @ final_t


PropagatorTable = Union[SpectralPropagatorTable, DensePropagatorTable]


def build_propagator(family: OperatorFamily,
                     grid: TimeGrid) -> PropagatorTable:
    """Construct the evolution-operator table on ``grid``.

    The spectral backend evaluates its closed per-mode form.  The dense
    backend builds S and K and applies, with trapezoid weights in tau,

        op(i, j) = S_j(tau_i - tau_j)
                   + int_{tau_j}^{tau_i} S_r(tau_i - tau_r) resolvent(r, j) dr

    through block substitutions; it raises :class:`DomainError` before
    allocating when the tables would not fit in memory, and
    :class:`NumericError` when ``A(t)``, a table or the norm bound is not
    finite.
    """
    if family.kind == "spectral_heat":
        return SpectralPropagatorTable(grid, family)

    a_stack, semigroups, lower = _dense_tables(family, grid)
    return DensePropagatorTable(grid, family, semigroups,
                                KernelTable(grid, lower),
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
