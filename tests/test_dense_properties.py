"""Invariants of the dense chain on random small families, drawn by Hypothesis.

Each example is a family ``A0 + sin(w tau) A1`` of dimension d <= 3,
evaluated on tau arrays as every family is, on a grid of n <= 81 nodes.
The bounds come from 4500 numpy draws of the same cases, 1500 of them with
every entry +-1 and the longest span: the worst composition defect was
2.3e-15 and the worst final state 8.3e-13, at a Gramian condition number
of 3e4.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cfcontrol import (DenseMatrixFamily, FractionalOrder, TimeGrid,
                       build_gramian, build_propagator,
                       synthesize_null_control)

ENTRIES = st.floats(-1.0, 1.0)


@st.composite
def dense_cases(draw):
    """A family, its grid, three nodes i >= j >= k and a unit state."""
    d = draw(st.integers(1, 3))
    a0 = draw(arrays(np.float64, (d, d), elements=ENTRIES))
    a1 = draw(arrays(np.float64, (d, d), elements=ENTRIES))
    w = draw(st.floats(0.0, 4.0))
    family = DenseMatrixFamily(
        lambda tau: a0 + np.sin(w * tau)[..., None, None] * a1, d)
    n = draw(st.integers(2, 81))
    lo = draw(st.floats(0.0, 1.0))
    grid = TimeGrid(FractionalOrder(0.75), lo,
                    lo + draw(st.floats(0.2, 1.5)), n)
    nodes = sorted(draw(st.lists(st.integers(0, n - 1), min_size=3,
                                 max_size=3)), reverse=True)
    x0 = draw(arrays(np.float64, d, elements=ENTRIES).filter(
        lambda v: np.linalg.norm(v) > 0.1))
    return family, grid, nodes, x0 / np.linalg.norm(x0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=dense_cases())
def test_random_dense_families_compose_and_null_control(case):
    family, grid, (i, j, k), x0 = case
    table = build_propagator(family, grid)

    # the composition law, to 4x the worst defect measured
    whole = table.matrix(i, k)
    defect = np.max(np.abs(whole - table.matrix(i, j) @ table.matrix(j, k)))
    assert defect <= 1e-14 * max(1.0, np.max(np.abs(whole)))

    # W = sum_r w_r Psi(n-1, r) Psi(n-1, r)^T holds the term of the last
    # node, (h/2) I, and every other term is positive semidefinite
    gram = build_gramian(np.eye(family.dim), table)
    assert np.array_equal(gram.gramian, gram.gramian.T)
    assert gram.jitter == 0.0
    assert np.linalg.eigvalsh(gram.gramian)[0] >= 0.5 * grid.h

    # the synthesized control steers the unit state to zero, to 12x the
    # worst final state measured
    assert synthesize_null_control(gram, x0).final_state_norm <= 1e-11
