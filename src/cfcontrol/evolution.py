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
* ``dense_matrix`` -- a general smooth matrix family.  The operator is a
  product of one-step exponentials ``E_r = exp(Omega_r)``, with the
  fourth-order Magnus exponent of the step ``[tau_r, tau_{r+1}]``

      Omega_r = -(h/2) (A_1 + A_2) + (sqrt(3) h**2 / 12) [A_2, A_1],

  where ``A_1`` and ``A_2`` are the family at the two Gauss points of the
  step, mapped to t by the order's ``from_tau`` (Blanes, Casas, Oteo &
  Ros, Phys. Rep. 470, 2009; Iserles & Norsett, Phil. Trans. R. Soc. A
  357, 1999).  The products compose exactly, ``Psi(i, j) = E_{i-1} ...
  E_j``.  The error in h is fourth order on windows away from tau = 0 and
  about 2.25 on a window that starts there, where ``t(tau)`` is not smooth
  (``t ~ tau**(1/alpha)``).  The table caches the Hillis-Steele doubling
  levels of the step maps, ``levels[k][i] = Psi(i, max(0, i - 2**k))``:
  about ``log2 n`` arrays of shape (n, d, d), every block a true
  propagator, nothing inverted.  ``homogeneous`` reads the last level,
  ``accumulate`` is the trapezoid recurrence evaluated as one batched
  mat-vec per level, and the final row ``Psi(n-1, r)`` is the same scan
  run on the reversed transposes of the steps.  The table's
  ``norm_bound`` is ``exp(sum_r max(0, mu_2(Omega_r)))``, which bounds
  every block because ``||exp Omega||_2 <= exp mu_2(Omega)``.  A grid
  whose table would not fit in memory (the smallest of physical memory,
  the soft ``RLIMIT_AS`` and the cgroup limit) is refused before anything
  large is allocated.  A family whose ``A(t)``, exponents, products or
  bound come out non-finite raises :class:`NumericError` when the table
  is built.

The paper's own construction of the dense operator, the parametrix, is
kept as a certificate: frozen-coefficient exponentials
``S_s(t - s) = exp(-(tau_t - tau_s) A(s))`` corrected by the resolvent
kernel of a Volterra equation of the second kind,

    resolvent(t, s) = kernel(t, s)
                      + int_{tau_s}^{tau_t} kernel(t, r) resolvent(r, s) dr,
    kernel(t, s)    = (A(s) - A(t)) S_s(t - s),

discretized with trapezoid weights (Nystrom).  ``build_kernel`` tables
``-h K`` as row panels (panel c holds the rows of the nodes ``[s0, s1)``
and the columns of the nodes ``[0, s1)``), and ``KernelTable`` solves the
unit lower triangular system ``I - h K`` by block substitutions over the
panels; ``kernel_residual`` certifies a solve.  The parametrix propagator
``Psi = S (I + h R) - h/2 R`` is second order in h.

An independent brute-force oracle integrates the substituted ODE with a
classical fourth-order one-step method; every propagator test is anchored
to it.

Both tables apply their final row, forwards (``final_row``) and
transposed (``final_row_adjoint``), return one of its blocks
(``final_block``), and take its weighted quadratic form
``final_gram(M) = sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T``, which is the
controllability Gramian for ``M = B B^T``.  Their Volterra sums
(``accumulate`` and ``final_gram``) use trapezoid weights, second order
in h on both backends.

Table construction is single-threaded; both tables are immutable once
built.  The dense backend needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# nodes per row panel of the parametrix's tables: the substitutions take one
# product per panel, and the panels' diagonal blocks, inverted at build time,
# are (16 d)**2 doubles each
_PANEL_NODES = 16
# Gauss-Legendre points of a step [tau_r, tau_r + h], as fractions of h
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
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
    """Bytes the parametrix's tables of n nodes in dimension d hold.

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


def _propagator_bytes(n: int, d: int) -> int:
    """Bytes a dense table of n >= 2 nodes in dimension d holds.

    That is its doubling levels, the step level and one per doubling until
    a span covers the ``n - 1`` steps, and its final row: each n blocks of
    d x d doubles.
    """
    return 8 * n * d * d * (2 + (n - 2).bit_length())


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


def _one_step_exponentials(exponents: np.ndarray) -> np.ndarray:
    """``exp(X_j)`` of every matrix of the stack X, by scaling and squaring.

    ``X_j`` is scaled by ``2**-s_j``, the least power that brings its
    1-norm below one, and the Taylor polynomial of its exponential, batched
    over the stack in Horner form, is squared ``s_j`` times (Moler & Van
    Loan, SIAM Review 45, 2003, method 3); no eigenbasis is needed.  The
    squarings act on ``F = exp(.) - I`` as ``F <- F F + 2 F``: squaring
    ``I + F`` would round away the part of F far below one, and a slow mode
    of a stiff family would lose ``2**s_j`` ulps.  A 1-norm that overflows
    leaves ``s_j = 0``, so the exponential comes out non-finite.
    """
    _, squarings = np.frexp(np.abs(exponents).sum(axis=1).max(axis=1))
    squarings = np.maximum(squarings, 0)
    x = exponents * np.ldexp(1.0, -squarings)[:, None, None]
    eye = np.eye(exponents.shape[1])
    poly = eye + x / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 1, -1):
        poly = eye + (x @ poly) / k
    diff = x @ poly
    for k in range(int(squarings.max())):
        more = squarings > k
        diff[more] = diff[more] @ diff[more] + 2.0 * diff[more]
    return diff + eye


def _dense_tables(family: DenseMatrixFamily, grid: TimeGrid):
    """The row panels of the parametrix's S and of ``-h K``.

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
                   f"a parametrix table of {n} nodes in dimension {d}")
    semigroups, lower = [], []
    with np.errstate(all="ignore"):
        a_stack = np.stack([family.a_matrix(t) for t in grid.t_nodes])
        _require_finite("A(t)", a_stack, grid)
        step = _one_step_exponentials(-h * a_stack)
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
    return semigroups, lower


@dataclass
class KernelTable:
    """Volterra kernel of the parametrix; solves its resolvent equation.

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
    """Assemble the parametrix's Volterra kernel on the grid; the table
    solves for R.  It certifies the paper's construction of the dense
    operator (acceptance criterion 5) and is not on any pipeline's path.

    Raises :class:`DomainError` for a spectral family, fewer than three
    nodes, or a grid whose tables would not fit in memory, and
    :class:`NumericError` when ``A(t)`` or a table is not finite.
    """
    if family.kind != "dense_matrix":
        raise DomainError("kernel construction applies to the dense backend")
    return KernelTable(grid, _dense_tables(family, grid)[1])


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
    whose integral or norm bound overflows, raises :class:`NumericError`.
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
        with np.errstate(all="ignore"):
            exponents = self._sq[None, :] * self.grid.tau_nodes[:, None] \
                + self.potential_cumint[:, None]
            suffix_min = np.minimum.accumulate(exponents[::-1], axis=0)[::-1]
            self.norm_bound = float(np.exp(np.max(exponents - suffix_min)))
        if not np.isfinite(self.norm_bound):
            raise NumericError("the norm bound of the spectral propagator "
                               "is not finite")
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


def _doubling_levels(steps: np.ndarray):
    """Yield the Hillis-Steele levels of the products of ``steps``.

    ``steps[r]`` maps node r to node r + 1.  Level k holds, at row i, the
    map from node ``max(0, i - 2**k)`` to node i: level 0 is the identity
    followed by the steps, and row i of level k + 1 is row i of level k
    times row ``i - 2**k`` of level k where that row exists, else row i of
    level k.  The last level holds the maps from node 0.  Only the level
    yielded last is kept alive here.
    """
    n, d = steps.shape[0] + 1, steps.shape[1]
    level = np.empty((n, d, d))
    level[0] = np.eye(d)
    level[1:] = steps
    yield level
    span = 1
    while span < n - 1:
        prev, level = level, np.empty_like(level)
        level[:span] = prev[:span]
        np.matmul(prev[span:], prev[:-span], out=level[span:])
        yield level
        span *= 2


@dataclass
class DensePropagatorTable:
    """Evolution operators of a dense matrix family, kept as doubling levels.

    ``levels[k][i]`` is ``Psi(i, max(0, i - 2**k))``, a product of the
    one-step Magnus exponentials ``E_r`` (``levels[0][r + 1]``); the last
    level holds ``Psi(i, 0)``.  ``_final_t`` is the final row transposed,
    ``Psi(n-1, r)^T`` in rows ``r*d:(r+1)*d``.  Everything is built and
    checked finite when the table is built (see :func:`build_propagator`);
    no call solves anything.  ``matrix(i, j)``, the operator from node j
    to node i, is the product of the ``i - j`` steps between them.
    ``norm_bound`` bounds the 2-norm of every block of the table.
    """

    grid: TimeGrid
    family: DenseMatrixFamily
    levels: list[np.ndarray] = field(repr=False)
    _final_t: np.ndarray = field(repr=False)
    norm_bound: float

    @property
    def dim(self) -> int:
        return self.family.dim

    def matrix(self, i: int, j: int) -> np.ndarray:
        if not 0 <= j <= i < self.grid.n_nodes:
            raise IndexError(f"node pair ({i}, {j}) needs 0 <= j <= i < "
                             f"{self.grid.n_nodes}")
        out = np.eye(self.dim)
        for step in self.levels[0][j + 1:i + 1]:
            out = step @ out
        return out

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, dim)."""
        return self.levels[-1] @ np.asarray(x0, dtype=float)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid ``int_0^{tau_i} op(i, r) values[r] dtau_r`` at every node i.

        The sum obeys ``acc[r+1] = E_r (acc[r] + h/2 v_r) + h/2 v_{r+1}``
        from ``acc[0] = 0``, an affine recurrence ``acc[i] = E_{i-1}
        acc[i-1] + c_i``.  It is the doubling scan of the levels: after the
        pass of level k, row i holds ``sum_{i - 2**(k+1) < m <= i} Psi(i, m)
        c_m``, so one batched mat-vec per level gives every node.
        """
        half = 0.5 * self.grid.h * np.asarray(values, dtype=float)
        acc = half.copy()
        acc[0] = 0.0
        acc[1:] += np.einsum("rab,rb->ra", self.levels[0][1:], half[:-1])
        span = 1
        for level in self.levels[:-1]:
            acc[span:] += np.einsum("rab,rb->ra", level[span:], acc[:-span])
            span *= 2
        return acc

    def final_row(self, values: np.ndarray) -> np.ndarray:
        """``sum_r Psi[n-1, r] values[r]``; values (..., n_nodes, d)."""
        values = np.asarray(values, dtype=float)
        return values.reshape(*values.shape[:-2], -1) @ self._final_t

    def final_row_adjoint(self, y: np.ndarray) -> np.ndarray:
        """``Psi[n-1, r]^T y`` at every node r, shape (..., n_nodes, d)."""
        out = np.asarray(y, dtype=float) @ self._final_t.T
        return out.reshape(*out.shape[:-1], self.grid.n_nodes, self.dim)

    def final_block(self, r: int) -> np.ndarray:
        """``Psi[n-1, r]``, shape (d, d), read from the final row."""
        d = self.dim
        return self._final_t[r * d:(r + 1) * d].T.copy()

    def final_gram(self, m: np.ndarray) -> np.ndarray:
        """``sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T`` for a (d, d) M.

        w are the trapezoid weights.  Read as an ``(n*d, d)`` matrix, the
        transpose of ``Psi[n-1, :]^T`` has row c of each ``Psi[n-1, r]`` in
        its rows ``(c, r)``, so one product with M gives every
        ``Psi[n-1, r] M``; weighted and read back as a ``(d, n*d)`` row,
        one product with ``Psi[n-1, :]^T`` sums them.  An overflow gives a
        non-finite Gramian, which its caller reports.
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


def _magnus_exponents(family: DenseMatrixFamily, grid: TimeGrid) -> np.ndarray:
    """The fourth-order Magnus exponent ``Omega_r`` of every step, (n-1, d, d).

    ``A(t)`` is evaluated at the two Gauss points of each step, mapped
    from tau to t by the grid's order.  A value of ``A(t)`` or of Omega
    that is not finite raises :class:`NumericError` naming the node the
    step ends at.
    """
    h = grid.h
    gauss_t = grid.order.from_tau(grid.tau_nodes[:-1, None]
                                  + h * np.array(_GAUSS_NODES))
    with np.errstate(all="ignore"):
        a = np.stack([family.a_matrix(t) for t in gauss_t.ravel()])
        a = a.reshape(grid.n_nodes - 1, 2, family.dim, family.dim)
        _require_finite("A(t)", a, grid, first=1)
        a1, a2 = a[:, 0], a[:, 1]
        omega = -0.5 * h * (a1 + a2) \
            + (np.sqrt(3.0) / 12.0 * h * h) * (a2 @ a1 - a1 @ a2)
    _require_finite("the Magnus exponent", omega, grid, first=1)
    return omega


def _magnus_norm_bound(omega: np.ndarray) -> float:
    """``exp(sum_r max(0, mu_2(Omega_r)))``, a bound on every product.

    ``mu_2(Omega)``, the largest eigenvalue of ``(Omega + Omega^T)/2``, is
    the logarithmic 2-norm, and ``||exp Omega||_2 <= exp mu_2(Omega)``
    (Soderlind, BIT 46, 2006), so the bound covers every block of the
    discrete table by construction.  A bound that overflows raises
    :class:`NumericError`.
    """
    with np.errstate(all="ignore"):
        mu = np.linalg.eigvalsh(0.5 * (omega + omega.transpose(0, 2, 1)))
        bound = float(np.exp(np.maximum(mu[:, -1], 0.0).sum()))
    if not np.isfinite(bound):
        raise NumericError("the logarithmic-norm bound of the propagator "
                           "is not finite")
    return bound


def build_propagator(family: OperatorFamily,
                     grid: TimeGrid) -> PropagatorTable:
    """Construct the evolution-operator table on ``grid``.

    The spectral backend evaluates its closed per-mode form.  The dense
    backend takes the one-step exponentials ``E_r = exp(Omega_r)`` of the
    fourth-order Magnus exponents (see the module docstring) by one batched
    scaling and squaring, and caches the doubling levels of their products
    and the final row, the same scan run on the reversed transposes of the
    steps.  A non-finite value at any level reaches the same row of the
    last one, so the last level of each scan is checked.  It raises
    :class:`DomainError` before allocating when the table would not fit in
    memory, and :class:`NumericError` when ``A(t)``, an exponent, a product
    or the norm bound is not finite.
    """
    if family.kind == "spectral_heat":
        return SpectralPropagatorTable(grid, family)

    n, d = grid.n_nodes, family.dim
    require_memory(_propagator_bytes(n, d),
                   f"a dense table of {n} nodes in dimension {d}")
    omega = _magnus_exponents(family, grid)
    with np.errstate(all="ignore"):
        steps = _one_step_exponentials(omega)
        levels = list(_doubling_levels(steps))
        for backward in _doubling_levels(steps[::-1].transpose(0, 2, 1)):
            pass
    _require_finite("the propagator", levels[-1], grid)
    final = backward[::-1]
    _require_finite("the final row of the propagator", final, grid)
    return DensePropagatorTable(grid, family, levels,
                                final.reshape(n * d, d),
                                _magnus_norm_bound(omega))


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
