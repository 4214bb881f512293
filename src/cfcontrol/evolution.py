"""Two-parameter evolution operators for non-autonomous linear systems.

The homogeneous dynamics ``d_alpha x + A x = 0`` become the classical
system ``dx/dtau = -A(tau) x`` in transformed time, so the evolution
operator between grid nodes is built entirely on the flat tau grid.  A
family is a function of tau, called once per table with the array of
the points it samples (a scalar tau works too); a family of physical
time maps tau to t itself.

Two backends:

* ``spectral_heat`` -- the Dirichlet sine-mode family with eigenvalues
  ``n**2 + p(tau)`` per mode.  The operator is diagonal with per-mode
  factors ``exp(-n**2 * (tau_t - tau_s) - int_{tau_s}^{tau_t} p dtau)``
  where the potential integral is accumulated by cumulative trapezoid.
  The trapezoid Volterra sum over these factors is one cumulative sum per
  chunk of nodes, with a carry between chunks.
* ``dense_matrix`` -- a general smooth matrix family.  The operator is a
  product of one-step exponentials ``E_r = exp(Omega_r)``, with the
  fourth-order Magnus exponent of the step ``[tau_r, tau_{r+1}]``

      Omega_r = -(h/2) (A_1 + A_2) + (sqrt(3) h**2 / 12) [A_2, A_1],

  where ``A_1`` and ``A_2`` are the family at the two Gauss points of the
  step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009; Iserles &
  Norsett, Phil. Trans. R. Soc. A 357, 1999).  The products compose
  exactly, ``Psi(i, j) = E_{i-1} ... E_j``.  The error in h is fourth
  order on windows away from tau = 0; a family of physical time loses
  order on a window that starts there, about 2.25, because ``t(tau)`` is
  not smooth (``t ~ tau**(1/alpha)``).  The table caches the Hillis-Steele
  doubling levels of the step maps, ``levels[k][i] = Psi(i, max(0, i -
  2**k))``: about ``log2 n`` arrays of shape (n, d, d), every block a true
  propagator, nothing inverted.  ``homogeneous`` reads the last level,
  ``accumulate`` is the trapezoid recurrence evaluated as one batched
  mat-vec per level, and the final row ``Psi(n-1, r)`` is the same scan
  run on the reversed transposes of the steps.  The table's
  ``norm_bound`` is ``exp(sum_r max(0, mu_2(Omega_r)))``, which bounds
  every block because ``||exp Omega||_2 <= exp mu_2(Omega)``.  A grid
  whose table would not fit in memory (the smallest of physical memory,
  the soft ``RLIMIT_AS`` and the cgroup limit) is refused before anything
  large is allocated.  A family whose values, exponents, products or
  bound come out non-finite raises :class:`NumericError` naming the node.

The paper's own construction of the dense operator, the parametrix, is
kept as a certificate: frozen-coefficient exponentials
``S_s(t - s) = exp(-(tau_t - tau_s) A(s))`` corrected by the resolvent
kernel of a Volterra equation of the second kind,

    resolvent(t, s) = kernel(t, s)
                      + int_{tau_s}^{tau_t} kernel(t, r) resolvent(r, s) dr,
    kernel(t, s)    = (A(s) - A(t)) S_s(t - s),

discretized with trapezoid weights (Nystrom).  ``build_kernel`` tables
S and ``-h K`` as two dense ``(n*d, n*d)`` block-lower-triangular
matrices, behind the memory guard, and ``KernelTable`` solves the unit
lower triangular system ``I - h K`` by one LU solve; ``kernel_residual``
certifies a solve.  The parametrix propagator ``Psi = S (I + h R) - h/2 R``
is second order in h.  Its O((n d)**2) memory and O((n d)**3) solve are
sized for test grids: no pipeline calls it.

An independent brute-force oracle integrates the substituted ODE with a
classical fourth-order one-step method; every propagator test is anchored
to it.

Both tables give the final state
``final_state(z0, f) = Psi[n-1, 0] z0 + sum_r w_r Psi[n-1, r] f[r]``,
apply their final row transposed (``final_row_adjoint``), return one of
its blocks (``final_block``), and take its weighted quadratic form
``final_gram(M) = sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T``, the
controllability Gramian for ``M = B B^T``.  Their Volterra sums use the
trapezoid weights w, second order in h on both backends.

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
# values per row block of the scan's half-weight terms: 64 kB, a size the
# heap serves from its free lists
_SCAN_BLOCK_CELLS = 1 << 13
# Gauss-Legendre points of a step [tau_r, tau_r + h], as fractions of h
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
# largest degree of the Taylor polynomial of a one-step exponential whose
# scaled 1-norm is below one: the remainder is below 1/19! * 1.06 < 1e-17
_TAYLOR_DEGREE = 18


def _broadcast(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` broadcast to ``shape``, else :class:`DomainError`."""
    value = np.asarray(value, dtype=float)
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise DomainError(f"{what} has shape {value.shape}, expected "
                          f"{shape}") from None


def _state(x0, dim: int) -> np.ndarray:
    """``x0`` as a float array of shape ``(dim,)``, else :class:`DomainError`."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise DomainError(f"x0 has shape {x0.shape}, expected ({dim},)")
    return x0


@dataclass(frozen=True)
class SpectralHeatFamily:
    """Sine-mode heat family: mode n carries the rate n**2 + p(tau).

    ``potential`` maps an array of tau to an array that broadcasts to its
    shape, e.g. ``lambda tau: c0 + c1 * tau``.  Nonnegative potentials
    give a contractive operator (all mode factors in (0, 1]).
    """

    potential: Callable[[np.ndarray], np.ndarray]
    n_modes: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise DomainError("need at least one mode")

    kind = "spectral_heat"

    @property
    def dim(self) -> int:
        return self.n_modes

    def mode_rates(self, tau) -> np.ndarray:
        """The rates at tau, shape ``tau.shape + (modes,)``."""
        p = _broadcast(self.potential(tau), np.shape(tau), "potential")
        return np.arange(1, self.n_modes + 1, dtype=float)**2 + p[..., None]

    def a_matrix(self, tau) -> np.ndarray:
        return self.mode_rates(tau)[..., None] * np.eye(self.n_modes)


@dataclass(frozen=True)
class DenseMatrixFamily:
    """General d x d coefficient family, continuous in tau.

    ``matrix`` maps an array of tau to an array that broadcasts to
    ``tau.shape + (d, d)``; a constant (d, d) matrix qualifies.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    dim: int

    kind = "dense_matrix"

    def a_matrix(self, tau) -> np.ndarray:
        """``A(tau)``, shape ``tau.shape + (d, d)``."""
        return _broadcast(self.matrix(tau), np.shape(tau) + (self.dim,) * 2,
                          "family matrix")


OperatorFamily = Union[SpectralHeatFamily, DenseMatrixFamily]


def _table_bytes(n: int, d: int) -> int:
    """Bytes a parametrix build and one solve allocate for n nodes in
    dimension d: S, ``-hK``, the system ``I - hK`` and the LU solver's
    working copy of it, four ``(n*d, n*d)`` matrices of doubles."""
    return 32 * (n * d) ** 2


def _propagator_bytes(n: int, d: int) -> int:
    """Bytes a dense table of n >= 2 nodes in dimension d holds.

    That is its doubling levels, the step level and one per doubling until
    a span covers the ``n - 1`` steps, and its final row: each n blocks of
    d x d doubles.
    """
    return 8 * n * d * d * (2 + (n - 2).bit_length())


def _check_nodes(grid: TimeGrid, i: int, j: int) -> None:
    """Raise :class:`IndexError` unless ``0 <= j <= i < n_nodes``."""
    if not 0 <= j <= i < grid.n_nodes:
        raise IndexError(f"node pair ({i}, {j}) needs 0 <= j <= i < "
                         f"{grid.n_nodes}")


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


def _one_step_exponentials(exponents: np.ndarray) -> np.ndarray:
    """``exp(X_j)`` of every matrix of the stack X, by scaling and squaring.

    ``X_j`` is scaled by ``2**-s_j``, the least power that brings its
    1-norm below one, and the Taylor polynomial of its exponential, batched
    over the stack in Horner form, is squared ``s_j`` times (Moler & Van
    Loan, SIAM Review 45, 2003, method 3); no eigenbasis is needed.  Its
    degree m is the least, up to ``_TAYLOR_DEGREE``, whose remainder
    ``theta**(m+1) / (m+1)!`` falls below ``2**-60`` at the largest scaled
    1-norm theta of the stack.  The
    squarings act on ``F = exp(.) - I`` as ``F <- F F + 2 F``: squaring
    ``I + F`` would round away the part of F far below one, and a slow mode
    of a stiff family would lose ``2**s_j`` ulps.  A 1-norm that overflows
    leaves ``s_j = 0``, so the exponential comes out non-finite.
    """
    norms = np.abs(exponents).sum(axis=1).max(axis=1)
    _, squarings = np.frexp(norms)
    squarings = np.maximum(squarings, 0)
    x = exponents * np.ldexp(1.0, -squarings)[:, None, None]
    theta = float(np.max(np.ldexp(norms, -squarings), initial=0.0))
    degree, remainder = 1, theta * theta / 2.0
    while degree < _TAYLOR_DEGREE and not remainder < 2.0**-60:
        degree += 1
        remainder *= theta / (degree + 1)
    eye = np.eye(exponents.shape[1])
    poly = eye + x / degree if degree > 1 else eye
    for k in range(degree - 1, 1, -1):
        poly = eye + (x @ poly) / k
    diff = x @ poly
    for k in range(int(squarings.max())):
        more = squarings > k
        diff[more] = diff[more] @ diff[more] + 2.0 * diff[more]
    return diff + eye


def _dense_tables(family: DenseMatrixFamily, grid: TimeGrid):
    """The parametrix's S and ``-h K``, each one ``(n*d, n*d)`` matrix.

    ``S[i, j] = E_j**(i - j)`` for i >= j, with ``E_j`` the one-step
    exponential, is filled one lag at a time: the powers of lag L are those
    of lag L - 1 times one more step.  ``K[i, j] = (A_j - A_i) S[i, j]``
    keeps ``A_j - A_i`` as the left factor, so K is exactly zero on the
    block diagonal and for a constant family.  numpy's floating-point
    warnings are off; a value that is not finite raises
    :class:`NumericError` naming its node, and a grid whose matrices would
    not fit in memory :class:`DomainError`.
    """
    n, d, h = grid.n_nodes, family.dim, grid.h
    if n < 3:
        raise DomainError("kernel construction needs at least three nodes")
    require_memory(_table_bytes(n, d),
                   f"a parametrix table of {n} nodes in dimension {d}")
    semigroups, lower = np.zeros((n * d, n * d)), np.zeros((n * d, n * d))
    sem_blocks = semigroups.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    low_blocks = lower.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    nodes = np.arange(n)
    with np.errstate(all="ignore"):
        a_stack = family.a_matrix(grid.tau_nodes)
        _require_finite("A(t)", a_stack, grid)
        step = _one_step_exponentials(-h * a_stack)
        power = np.broadcast_to(np.eye(d), (n, d, d))
        sem_blocks[nodes, nodes] = power
        for lag in range(1, n):
            power = power[:-1] @ step[:-lag]
            sem_blocks[nodes[lag:], nodes[:-lag]] = power
            low_blocks[nodes[lag:], nodes[:-lag]] = \
                ((a_stack[:-lag] - a_stack[lag:]) @ power) * -h
    _require_finite("the frozen semigroup table", semigroups.reshape(n, -1),
                    grid)
    _require_finite("the kernel", lower.reshape(n, -1), grid)
    return semigroups, lower


@dataclass
class KernelTable:
    """Volterra kernel of the parametrix; solves its resolvent equation.

    ``lower`` is the ``(n*d, n*d)`` matrix ``-h K``, the strictly lower
    part of ``I - h K``, where K is strictly block lower triangular with
    block ``K[i, j] = (A(t_j) - A(t_i)) S_{t_j}(t_i - t_j)``.  The discrete
    equation ``R = K + h K R`` has the one solution
    ``R = (I - h K)^{-1} K``; R is never stored.  ``n_terms_used`` is 0:
    no series is summed (it stays for callers that read a term count).
    """

    grid: TimeGrid
    lower: np.ndarray
    n_terms_used = 0

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``(I - h K)^{-1} rhs``, or ``(I - h K)^{-T} rhs`` (``transpose``);
        rhs is (n*d,) or (n*d, k)."""
        system = np.eye(self.lower.shape[0])
        system += self.lower
        return np.linalg.solve(system.T if transpose else system, rhs)

    def apply(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """R rhs, or R^T rhs with ``transpose``; rhs is (n*d,) or (n*d, k).

        Solves ``(I - h K) w = K rhs``; ``K rhs`` is read from ``-h K``.
        """
        lower = self.lower.T if transpose else self.lower
        return self.solve(lower @ np.asarray(rhs, dtype=float)
                          / -self.grid.h, transpose)


def build_kernel(family: OperatorFamily, grid: TimeGrid) -> KernelTable:
    """Assemble the parametrix's Volterra kernel on the grid; the table
    solves for R.  It certifies the paper's construction of the dense
    operator (acceptance criterion 5) and is not on any pipeline's path.

    Raises :class:`DomainError` for a spectral family, fewer than three
    nodes, or a grid whose matrices would not fit in memory, and
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
    first = table.lower @ np.asarray(rhs, dtype=float) / -table.grid.h
    w = table.apply(rhs)
    resid = w + table.lower @ w - first
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


class _Table:
    """What both tables share: their dimension and the final-state map."""

    @property
    def dim(self) -> int:
        return self.family.dim

    def final_state(self, z0=None, forcing=None, out=None) -> np.ndarray:
        """``Psi[n-1, 0] z0 + sum_r w_r Psi[n-1, r] forcing[r]``, w the
        trapezoid weights, with a ``None`` term left out.  The weighted
        forcing, ``(n_nodes, dim)``, is formed in ``out`` when it is given;
        the row product sums from +0.0, so a -0.0 among its terms counts as
        the +0.0 a sum onto zeros makes of it."""
        if forcing is None:
            values = np.zeros((self.grid.n_nodes, self.dim))
        else:
            values = np.multiply(self.grid.weights()[:, None], forcing, out=out)
        if z0 is not None:
            values[0] += _state(z0, self.dim)
        return self._final_row(values)


@dataclass
class SpectralPropagatorTable(_Table):
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
        # the (n_nodes, modes) scale factors and final row it keeps, the
        # first of which its build computes in the buffer of the exponents,
        # and as much again for the run's arrays of that shape
        require_memory(32 * n * m,
                       f"a spectral table of {n} nodes and {m} modes")
        with np.errstate(all="ignore"):
            tau = self.grid.tau_nodes
            p = _broadcast(self.family.potential(tau), tau.shape, "potential")
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
        # pairs i >= j is exp(max_j (E_n(j) - min_{i>=j} E_n(i))), and mode 1
        # has the largest: E_n - E_1 = (n^2 - 1) tau is nondecreasing
        with np.errstate(all="ignore"):
            exponents = np.multiply.outer(self.grid.tau_nodes, self._sq)
            exponents += self.potential_cumint[:, None]
            first = exponents[::-1, 0]  # in reversed node order
            spread = first - np.minimum.accumulate(first)
            self.norm_bound = float(np.exp(np.max(spread)))
        if not np.isfinite(self.norm_bound):
            raise NumericError("the norm bound of the spectral propagator "
                               "is not finite")
        # a step of E_n is affine in n^2, so the first and the last mode
        # carry the largest step of every node
        self._anchors = _scan_anchors(exponents[:, [0, -1]])
        owner = np.repeat(self._anchors[:-1], np.diff(self._anchors))
        self._decay = self._between(np.s_[:], np.concatenate([[0], owner]),
                                    out=exponents)
        self._final = self._between(-1, np.s_[:])

    def _between(self, i, j, out=None) -> np.ndarray:
        """Mode factors from node(s) ``j`` to node(s) ``i``, shape (..., modes),
        in ``out`` when given: ``exp(-(tau_i - tau_j) n**2 - (P_i - P_j))``,
        with the negation taken on the time step, which is exact."""
        tau, pot = self.grid.tau_nodes, self.potential_cumint
        out = np.multiply.outer(tau[j] - tau[i], self._sq, out=out)
        out -= (pot[i] - pot[j])[..., None]
        return np.exp(out, out=out)

    def factors(self, i: int, j: int) -> np.ndarray:
        _check_nodes(self.grid, i, j)
        return self._between(i, j)

    def matrix(self, i: int, j: int) -> np.ndarray:
        return np.diag(self.factors(i, j))

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, modes)."""
        x0 = _state(x0, self.dim)
        out = self._between(np.s_[:], 0)
        out *= x0
        return out

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

        The cumulative sums run in the output array, and only the last
        node of a chunk is finished inside the loop, to carry; every node
        is then scaled by ``D`` and given its half-weight term in one pass,
        the terms formed in row blocks of ``_SCAN_BLOCK_CELLS`` values.  So
        the scan allocates its output and one row block, and ``values`` is
        left as it is.
        """
        half = 0.5 * self.grid.h
        values = np.asarray(values, dtype=float)
        acc = np.empty_like(values)
        acc[0] = 0.0
        carry = acc[0]
        for a, b in zip(self._anchors[:-1], self._anchors[1:]):
            run = acc[a + 1:b + 1]
            run[0] = carry + half * values[a]
            np.divide(values[a + 1:b], self._decay[a + 1:b], out=run[1:])
            run[1:] *= self.grid.h
            np.cumsum(run, axis=0, out=run)
            carry = self._decay[b] * run[-1] + half * values[b]
        acc[1:] *= self._decay[1:]
        rows = max(1, _SCAN_BLOCK_CELLS // max(1, values[0].size))
        terms = np.empty_like(values[:rows])
        for start in range(1, len(acc), rows):
            part = terms[:len(acc) - start]
            np.multiply(values[start:start + rows], half, out=part)
            acc[start:start + rows] += part
        return acc

    def _final_row(self, values: np.ndarray) -> np.ndarray:
        """``sum_r op(n-1, r) values[r]``; values (..., n_nodes, modes)."""
        return np.einsum("rm,...rm->...m", self._final, values)

    def final_row_adjoint(self, y: np.ndarray, out=None) -> np.ndarray:
        """``op(n-1, r)^T y`` at every node r, shape (..., n_nodes, modes),
        in ``out`` when given."""
        return np.multiply(self._final, np.asarray(y, dtype=float)[..., None, :],
                           out=out)

    def final_block(self, r: int) -> np.ndarray:
        """``op(n-1, r)``, shape (modes, modes)."""
        _check_nodes(self.grid, self.grid.n_nodes - 1, r)
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
class DensePropagatorTable(_Table):
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

    def matrix(self, i: int, j: int) -> np.ndarray:
        _check_nodes(self.grid, i, j)
        out = np.eye(self.dim)
        for step in self.levels[0][j + 1:i + 1]:
            out = step @ out
        return out

    def homogeneous(self, x0: np.ndarray) -> np.ndarray:
        """``op(i, 0) x0`` at every node i, shape (n_nodes, dim)."""
        return self.levels[-1] @ _state(x0, self.dim)

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

    def _final_row(self, values: np.ndarray) -> np.ndarray:
        """``sum_r Psi[n-1, r] values[r]``; values (..., n_nodes, d)."""
        values = np.asarray(values, dtype=float)
        return values.reshape(*values.shape[:-2], -1) @ self._final_t

    def final_row_adjoint(self, y: np.ndarray, out=None) -> np.ndarray:
        """``Psi[n-1, r]^T y`` at every node r, shape (..., n_nodes, d), in
        ``out`` when given, a C-contiguous array of that shape."""
        y = np.asarray(y, dtype=float)
        flat = None if out is None else out.reshape(*out.shape[:-2], -1)
        flat = np.matmul(y, self._final_t.T, out=flat)
        return flat.reshape(*flat.shape[:-1], self.grid.n_nodes, self.dim)

    def final_block(self, r: int) -> np.ndarray:
        """``Psi[n-1, r]``, shape (d, d), read from the final row."""
        _check_nodes(self.grid, self.grid.n_nodes - 1, r)
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

    The family is evaluated once, at the (n-1, 2) Gauss points of the
    steps.  A value of ``A`` or of Omega that is not finite raises
    :class:`NumericError` naming the node the step ends at.
    """
    h = grid.h
    with np.errstate(all="ignore"):
        a = family.a_matrix(grid.tau_nodes[:-1, None] + h * _GAUSS_NODES)
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

    Integrates ``dx/dtau = -A(tau) x`` with the classical fourth-order
    Runge-Kutta method on ``steps`` uniform tau substeps between the images
    of s and t under ``order``; the family is called with scalar tau, once
    per substep end and midpoint.  Independent of the table construction;
    used as the reference for all propagator tests.
    """
    if t < s:
        raise DomainError("target time must not precede source time")
    x = np.asarray(x, dtype=float).copy()
    if t == s:
        return x
    tau = float(order.to_tau(s))
    h = (float(order.to_tau(t)) - tau) / steps
    start = -family.a_matrix(tau)
    for _ in range(steps):
        mid, end = -family.a_matrix(tau + 0.5 * h), -family.a_matrix(tau + h)
        k1 = start @ x
        k2 = mid @ (x + 0.5 * h * k1)
        k3 = mid @ (x + 0.5 * h * k2)
        k4 = end @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau, start = tau + h, end
    return x


def conformable_residual(table: PropagatorTable,
                         family: OperatorFamily,
                         i: int,
                         j: int) -> float:
    """Residual of the fractional evolution equation at interior node i.

    The fractional time derivative equals d/dtau, evaluated by a central
    difference on the table; returns
    ``|| d_tau op(i, j) + A(tau_i) op(i, j) ||_2``.  The table's node
    check refuses i outside ``1 <= i <= n-2`` or j outside ``0 <= j < i``.
    """
    h = table.grid.h
    diff = (table.matrix(i + 1, j) - table.matrix(i - 1, j)) / (2.0 * h)
    resid = diff + family.a_matrix(table.grid.tau_nodes[i]) @ table.matrix(i, j)
    return float(np.linalg.norm(resid, 2))


def adjoint_residual(table: PropagatorTable,
                     family: OperatorFamily,
                     i: int,
                     j: int,
                     v: np.ndarray) -> float:
    """Residual of the backward (source-side) derivative relation.

    Checks ``d_tau_s [op(i, j) v] = op(i, j) A(tau_j) v`` by a central
    difference in the source index; the table's node check refuses j
    outside ``1 <= j < i`` and i outside the grid.
    """
    h = table.grid.h
    v = np.asarray(v, dtype=float)
    diff = (table.matrix(i, j + 1) @ v - table.matrix(i, j - 1) @ v) / (2.0 * h)
    target = table.matrix(i, j) @ (family.a_matrix(table.grid.tau_nodes[j]) @ v)
    return float(np.linalg.norm(diff - target))
