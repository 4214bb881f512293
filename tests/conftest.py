"""Shared generators for randomized smooth inputs."""

import numpy as np
import pytest

from cfcontrol import DenseMatrixFamily


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
    """Random smooth matrix family with spectral norm around one."""
    a0 = rng.standard_normal((dim, dim)) * base / np.sqrt(dim)
    a1 = rng.standard_normal((dim, dim)) * drift / np.sqrt(dim)
    w = rng.uniform(0.8, 1.6)

    def mat(t, a0=a0, a1=a1, w=w):
        return a0 + np.sin(w * t) * a1
    return DenseMatrixFamily(mat, dim)


def block_view(mat, d):
    """``(n*d, n*d)`` matrix as its ``(n, n, d, d)`` block view."""
    n = mat.shape[0] // d
    return mat.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def materialise_resolvent(kernel_table):
    """The resolvent R of a kernel table as ``(n, n, d, d)`` blocks.

    Applies the table to the ``n*d`` identity columns; the oracle for single
    applications.
    """
    n, _, d, _ = kernel_table.kernel.shape
    return block_view(kernel_table.apply(np.eye(n * d)), d)


def materialise(table):
    """The propagator Psi of a dense table as ``(n, n, d, d)`` blocks."""
    nd = table.grid.n_nodes * table.dim
    return block_view(table.propagate(np.eye(nd)), table.dim)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
