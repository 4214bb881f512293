"""Shared generators for randomized smooth inputs."""

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from cfcontrol import DenseMatrixFamily, DomainError, KernelTable
from cfcontrol.evolution import _dense_tables


def make_smooth_fn(rng, scale=1.0):
    """Random smooth scalar function: polynomial plus trig plus soft exp."""
    c = rng.uniform(-scale, scale, 6)
    w = rng.uniform(0.5, 2.0)

    def fn(t):
        return (c[0] + c[1] * t + c[2] * t * t
                + c[3] * np.sin(w * t) + c[4] * np.cos(t)
                + c[5] * np.exp(0.3 * t))
    return fn


def make_positive_fn(rng, low=1.5):
    """Random smooth function bounded away from zero."""
    c = rng.uniform(-0.3, 0.3, 3)
    w = rng.uniform(0.5, 1.5)

    def fn(t):
        return low + c[0] * np.sin(w * t) + c[1] * np.cos(t) + c[2] * t * 0.1
    return fn


def make_dense_family(rng, dim, drift=0.4, base=0.5):
    """Random smooth matrix family ``A0 + sin(w tau) A1`` with spectral
    norm around one, evaluated on arrays of tau."""
    a0 = rng.standard_normal((dim, dim)) * base / np.sqrt(dim)
    a1 = rng.standard_normal((dim, dim)) * drift / np.sqrt(dim)
    w = rng.uniform(0.8, 1.6)

    def mat(tau):
        return a0 + np.sin(w * tau)[..., None, None] * a1
    return DenseMatrixFamily(mat, dim)


def block_view(mat, d):
    """``(n*d, n*d)`` matrix as its ``(n, n, d, d)`` block view."""
    n = mat.shape[0] // d
    return mat.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def frozen_semigroup(family, tau_s, dt_tau):
    """Frozen-coefficient propagator exp(-dt_tau * A(tau_s)).

    ``dt_tau`` is elapsed transformed time and must be nonnegative.  A
    dense family takes scipy's scaling-and-squaring exponential, a spectral
    one per-mode scalar exponentials; it shares no code with the package's
    semigroup tables.  ``regularized_residuals`` builds on it.
    """
    if dt_tau < 0.0:
        raise DomainError(f"elapsed tau must be >= 0, got {dt_tau}")
    if family.kind == "spectral_heat":
        return np.diag(np.exp(-dt_tau * family.mode_rates(tau_s)))
    from scipy.linalg import expm
    return expm(-dt_tau * family.a_matrix(tau_s))


def kernel_series(kernel_table, rhs, transpose=False, tol=1e-8, max_terms=40):
    """``R v`` (or ``R^T v``) as the Neumann series ``sum_m (hK)^m K v``.

    K is read from the table's ``-hK``.  Terms are added until the
    newest one's norm is at most ``tol`` times that of ``K v``, or until
    ``max_terms`` terms are summed; returns the sum and the relative norms
    of its terms.  The reference for the table's triangular solve.
    """
    kern = kernel_table.lower / -kernel_table.grid.h
    if transpose:
        kern = kern.T
    h = kernel_table.grid.h
    term = kern @ np.asarray(rhs, dtype=float)
    total, scale = term.copy(), float(np.linalg.norm(term))
    norms = [1.0 if scale > 0.0 else 0.0]
    while norms[-1] > tol and len(norms) < max_terms:
        term = h * (kern @ term)
        total += term
        norms.append(float(np.linalg.norm(term)) / scale)
    return total, norms


def kernel_equation_residual(kernel_table, rhs, w):
    """``||w - hKw - Kv|| / ||Kv||`` for a candidate ``w = R v``."""
    kern = kernel_table.lower / -kernel_table.grid.h
    first = kern @ np.asarray(rhs, dtype=float)
    resid = w - kernel_table.grid.h * (kern @ w) - first
    return float(np.linalg.norm(resid)) / float(np.linalg.norm(first))


def materialise_resolvent(kernel_table):
    """The resolvent R of a kernel table as ``(n, n, d, d)`` blocks.

    Applies the table to the ``n*d`` identity columns; the oracle for single
    applications.
    """
    nd = kernel_table.lower.shape[0]
    return block_view(kernel_table.apply(np.eye(nd)),
                      nd // kernel_table.grid.n_nodes)


class Parametrix(NamedTuple):
    """The paper's dense propagator, from the tables ``build_kernel`` builds.

    ``semigroups`` is the ``(n*d, n*d)`` matrix of frozen semigroups S and
    ``kernel_table`` solves with ``I - h K``; ``propagate`` applies
    ``Psi = S (I + h R) - h/2 R`` to stacked node values.  The reference
    the tests hold the production dense table against.
    """

    semigroups: np.ndarray
    kernel_table: KernelTable
    dim: int

    @classmethod
    def build(cls, family, grid):
        semigroups, lower = _dense_tables(family, grid)
        return cls(semigroups, KernelTable(grid, lower), family.dim)

    @property
    def grid(self):
        return self.kernel_table.grid

    def propagate(self, v):
        """``Psi v = S y - (y - v)/2`` with ``y = (I - h K)^{-1} v``; v is
        (n*d,) or (n*d, k)."""
        v = np.asarray(v, dtype=float)
        y = self.kernel_table.solve(v)
        return self.semigroups @ y - 0.5 * (y - v)


def materialise(table):
    """Psi of a :class:`Parametrix` as ``(n, n, d, d)`` blocks."""
    nd = table.grid.n_nodes * table.dim
    return block_view(table.propagate(np.eye(nd)), table.dim)


def magnus_exponents(family, grid):
    """``Omega_r = -(h/2)(A_1 + A_2) + (sqrt(3) h**2/12) [A_2, A_1]`` per step.

    ``A_1`` and ``A_2`` are the family at the Gauss points
    ``tau_r + (1/2 -+ sqrt(3)/6) h`` of each step, each called with one
    scalar tau; one step at a time, shape (n-1, d, d).
    """
    h, shift = grid.h, np.sqrt(3.0) / 6.0
    out = []
    for tau in grid.tau_nodes[:-1]:
        a1, a2 = (family.a_matrix(float(tau + c * h))
                  for c in (0.5 - shift, 0.5 + shift))
        out.append(-0.5 * h * (a1 + a2)
                   + np.sqrt(3.0) / 12.0 * h * h * (a2 @ a1 - a1 @ a2))
    return np.array(out)


def step_products(steps):
    """Every product ``Psi(i, j) = steps[i-1] ... steps[j]``, by the march.

    ``(n, n, d, d)`` blocks, zero above the block diagonal; lag by lag,
    ``Psi(j + L, j) = steps[j + L - 1] Psi(j + L - 1, j)``.
    """
    n, d = len(steps) + 1, steps.shape[1]
    blocks = np.zeros((n, n, d, d))
    rows = np.arange(n)
    blocks[rows, rows] = np.eye(d)
    current = np.broadcast_to(np.eye(d), (n, d, d))
    for lag in range(1, n):
        current = steps[lag - 1:] @ current[:-1]
        blocks[rows[lag:], rows[:-lag]] = current
    return blocks


def trapezoid_march(steps, h, values):
    """``acc[r+1] = E_r (acc[r] + h/2 v_r) + h/2 v_{r+1}``, one step per node.

    The per-step loop the dense table's doubling scan must reproduce.
    """
    half = 0.5 * h * np.asarray(values, dtype=float)
    acc = np.zeros_like(half)
    for r, step in enumerate(steps):
        acc[r + 1] = step @ (acc[r] + half[r]) + half[r + 1]
    return acc


def materialise_series(table):
    """Psi and R of a :class:`Parametrix` as (n, n, d, d) blocks, by series.

    R is the Neumann series of ``kernel_series`` on the identity columns,
    summed until its terms vanish (hK is strictly block-lower-triangular,
    so at most ``n`` terms), and Psi = S (I + hR) - h/2 R.  An oracle for
    the table's triangular solve that shares no code with it; returns
    ``(psi, res)``.
    """
    kt, h = table.kernel_table, table.grid.h
    eye = np.eye(table.grid.n_nodes * table.dim)
    res, _ = kernel_series(kt, eye, tol=0.0,
                           max_terms=table.grid.n_nodes + 1)
    psi = table.semigroups @ (eye + h * res) - 0.5 * h * res
    return block_view(psi, table.dim), block_view(res, table.dim)


def spectral_march(table, values):
    """Trapezoid accumulation of a spectral table by the per-node march.

    ``acc[i] = op(i, i-1) (acc[i-1] + h/2 v[i-1]) + h/2 v[i]``, exact
    because the mode exponents telescope; one step per node.  The reference
    for the table's chunked scan.
    """
    half = 0.5 * table.grid.h * np.asarray(values, dtype=float)
    acc = np.zeros_like(half)
    for i in range(1, table.grid.n_nodes):
        acc[i] = table.factors(i, i - 1) * (acc[i - 1] + half[i - 1]) + half[i]
    return acc


def final_gram_reference(table, m):
    """``sum_r w_r Psi[n-1, r] M Psi[n-1, r]^T``, summed over the blocks.

    ``final_row_adjoint(I)`` holds row k of every final block ``Psi[n-1, r]``,
    so swapping its first two axes stacks the blocks; the trapezoid
    weights w are written out.  The generic route, with ``(n, d, d)``
    temporaries; the reference for the tables' ``final_gram``.
    """
    blocks = table.final_row_adjoint(np.eye(table.dim)).transpose(1, 0, 2)
    return np.einsum("r,rab,rcb->ac", table.grid.weights(), blocks @ m,
                     blocks)


def regularized_residuals(family, kernel_table, i, j, pullbacks=(8, 4, 2)):
    """Evolution-equation residuals of the pulled-back operator.

    For each pullback m the correction integral is truncated m grid steps
    short of the target node; the residual of the fractional equation is
    then evaluated by central differences.  As the pullback shrinks the
    residual must decrease toward the untruncated value (a proof-device
    check on a dense kernel table).
    """
    grid = kernel_table.grid
    tau = grid.tau_nodes
    h, n, d = grid.h, grid.n_nodes, family.dim
    unit = np.zeros((n * d, d))
    unit[j * d:(j + 1) * d] = np.eye(d)
    res = kernel_table.apply(unit).reshape(n, d, d)

    def pulled_back_op(ii, m):
        upper = max(ii - m, j)
        acc = frozen_semigroup(family, tau[j], tau[ii] - tau[j])
        if upper > j:
            for r in range(j, upper + 1):
                w = 0.5 if r in (j, upper) else 1.0
                acc = acc + h * w * frozen_semigroup(
                    family, tau[r], tau[ii] - tau[r]) @ res[r]
        return acc

    out = []
    for m in pullbacks:
        diff = (pulled_back_op(i + 1, m) - pulled_back_op(i - 1, m)) / (2.0 * h)
        resid = diff + family.a_matrix(tau[i]) @ pulled_back_op(i, m)
        out.append(float(np.linalg.norm(resid, 2)))
    return out


def cholesky_reference(gram):
    """scipy's Cholesky of a Gramian, with the jitter schedule of ``build_gramian``.

    Jitter 0, then ``1e-14`` times the mean diagonal, growing tenfold up to
    ``1e-8`` times it.  Returns ``(cho_factor output, jitter)``; raises
    scipy's ``LinAlgError`` past the cap.  The reference for the package's
    numpy factorisation.
    """
    from scipy.linalg import LinAlgError, cho_factor

    d = gram.shape[0]
    scale = float(np.trace(gram)) / d
    jitter = 0.0
    while True:
        try:
            return cho_factor(gram + jitter * np.eye(d), lower=True), jitter
        except LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 10.0
            if scale <= 0.0 or jitter > 1e-8 * scale:
                raise


def limit_sources(monkeypatch, tmp_path, cgroup_v2=None, cgroup_v1=None,
                  soft_as=None, physical=None):
    """Point the memory guard at files and an ``RLIMIT_AS`` made up here.

    A cgroup value of None leaves its file absent; ``soft_as`` None reads
    as unlimited.  ``physical``, when given, is the physical memory in
    bytes, a whole number of 4096-byte pages; None reads the machine's.
    """
    from cfcontrol import grids
    root = tmp_path / "limits"
    root.mkdir(exist_ok=True)
    files = []
    for name, text in (("memory.max", cgroup_v2),
                       ("memory.limit_in_bytes", cgroup_v1)):
        path = root / name
        if text is not None:
            path.write_text(text + "\n")
        files.append(str(path))
    monkeypatch.setattr(grids, "_CGROUP_MEMORY_FILES", tuple(files))
    unlimited = grids.resource.RLIM_INFINITY
    soft = unlimited if soft_as is None else soft_as
    monkeypatch.setattr(grids.resource, "getrlimit",
                        lambda which: (soft, unlimited))
    if physical is not None:
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": physical // 4096}
        monkeypatch.setattr(grids, "os", SimpleNamespace(sysconf=pages.get))
    return grids


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
