"""Evolution-operator tables, kernels, and the brute-force oracle."""

import os
import re

import numpy as np
import pytest

from cfcontrol import (DenseMatrixFamily, DomainError,
                       FractionalOrder, NumericError, SpectralHeatFamily,
                       TimeGrid,
                       adjoint_residual, build_kernel, build_propagator,
                       conformable_residual, kernel_residual, parse_config,
                       propagate_oracle)

from conftest import (Parametrix, assemble, block_view,
                      final_gram_reference, frozen_semigroup,
                      kernel_equation_residual, kernel_series, limit_sources,
                      magnus_exponents, make_dense_family, materialise,
                      materialise_resolvent, materialise_series,
                      regularized_residuals, spectral_march, step_products,
                      trapezoid_march)

ORDER = FractionalOrder(0.75)


def window(n, order=ORDER, lo=0.4, hi=1.4):
    return TimeGrid.from_tau_horizon(order, lo, hi, n)


def commuting_family(alpha=0.75):
    def mat(t):
        tau = t**alpha / alpha
        return np.diag([1.0 + 0.5 * tau, 2.0 + 0.25 * tau])
    return DenseMatrixFamily(mat, 2)


# --- frozen semigroup (the test-side reference in conftest) ----------------

def test_frozen_semigroup_zero_elapsed_is_identity():
    fam = DenseMatrixFamily(lambda t: np.diag([1.0, 2.0]), 2)
    assert np.array_equal(frozen_semigroup(fam, 0.7, 0.0), np.eye(2))


def test_frozen_semigroup_single_mode_value():
    fam = SpectralHeatFamily(lambda t: 1.0, 1)
    val = frozen_semigroup(fam, 0.3, 0.5)[0, 0]
    assert val == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_frozen_semigroup_diagonal_value():
    fam = DenseMatrixFamily(lambda t: np.diag([1.0, 2.0]), 2)
    out = frozen_semigroup(fam, 0.0, 1.0)
    assert np.allclose(np.diag(out), [np.exp(-1.0), np.exp(-2.0)], rtol=1e-12)
    assert frozen_semigroup(fam, 0.0, 1.0)[0, 1] == pytest.approx(0.0,
                                                                  abs=1e-15)


def test_frozen_semigroup_negative_elapsed_rejected():
    fam = SpectralHeatFamily(lambda t: 0.0, 2)
    with pytest.raises(DomainError):
        frozen_semigroup(fam, 0.5, -0.1)


# --- kernel equation --------------------------------------------------------

def test_constant_family_has_zero_kernel():
    fam = DenseMatrixFamily(lambda t: np.diag([1.0, 2.0]), 2)
    table = build_kernel(fam, window(41))
    assert max(np.max(np.abs(panel)) for panel in table.lower) == 0.0
    assert np.max(np.abs(materialise_resolvent(table))) == 0.0


def test_kernel_series_matches_direct_solve():
    # the Neumann series of the kernel equation against the table's solve
    fam = commuting_family()
    grid = window(81)
    table = build_kernel(fam, grid)
    every_column = np.eye(grid.n_nodes * fam.dim)
    series, norms = kernel_series(table, every_column)
    assert norms[-1] <= 1e-8
    assert np.max(np.abs(series - table.apply(every_column))) < 1e-7
    assert kernel_equation_residual(table, every_column, series) < 1e-8
    assert kernel_residual(table, every_column) < 1e-12


def test_kernel_residual_random_family(rng):
    fam = make_dense_family(rng, 3)
    table = build_kernel(fam, window(81))
    assert kernel_residual(table, rng.standard_normal(81 * 3)) <= 1e-12


def test_kernel_column_restriction_consistent(rng):
    # one block column of R, solved alone, against the materialised table
    fam = make_dense_family(rng, 3)
    grid = window(61)
    table = build_kernel(fam, grid)
    col = table.apply(np.eye(61 * 3)[:, :3]).reshape(61, 3, 3)
    assert np.allclose(materialise_resolvent(table)[:, 0], col, atol=1e-13)


def test_kernel_series_terms_eventually_decreasing():
    # norms of the first six Neumann-series terms, relative to K v
    fam = commuting_family()
    table = build_kernel(fam, window(81))
    _, norms = kernel_series(table, np.eye(81 * 2), tol=0.0, max_terms=6)
    assert len(norms) == 6
    assert all(norms[i + 1] < norms[i] for i in range(1, len(norms) - 1))


@pytest.mark.parametrize("oracle", ["series", "direct"])
def test_column_restriction_matches_full_table(rng, oracle):
    # block columns of the parametrix solved one at a time against the full
    # table, materialised by the table's own solve or by the Neumann series
    fam = make_dense_family(rng, 3)
    n = 41
    grid = window(n)
    cols = (0, 17, n - 2)
    table = Parametrix.build(fam, grid)
    if oracle == "series":
        psi, res = materialise_series(table)
    else:
        psi = materialise(table)
        res = materialise_resolvent(table.kernel_table)
    units = [np.eye(n * 3)[:, 3 * j:3 * j + 3] for j in cols]
    got_res = np.stack([table.kernel_table.apply(u).reshape(n, 3, 3)
                        for u in units], axis=1)
    got_psi = np.stack([table.propagate(u).reshape(n, 3, 3)
                        for u in units], axis=1)
    for got, want in ((got_res, res), (got_psi, psi)):
        assert np.max(np.abs(got - want[:, cols])) < 1e-13
    assert kernel_residual(table.kernel_table, np.hstack(units)) <= 1e-12


def panel_node_counts():
    """Three nodes, fewer than one panel, a partial last panel, whole ones."""
    from cfcontrol import evolution
    height = evolution._PANEL_NODES
    return [3, height - 5, 2 * height + 5, 2 * height]


@pytest.mark.parametrize("n", panel_node_counts())
def test_panel_solve_matches_dense_solve(rng, n):
    # the block substitutions, forward and transposed, against a dense
    # solve with the assembled I - hK
    fam = make_dense_family(rng, 3)
    table = build_kernel(fam, window(n))
    system = np.eye(n * 3) + assemble(table.lower)
    for rhs in (rng.standard_normal(n * 3), rng.standard_normal((n * 3, 4))):
        for transpose in (False, True):
            want = np.linalg.solve(system.T if transpose else system, rhs)
            got = table.solve(rhs, transpose=transpose)
            assert got.shape == rhs.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", panel_node_counts())
def test_memory_guard_counts_the_stored_arrays(rng, n):
    # the dense table's doubling levels and final row, and the parametrix's
    # panels of S and -hK with their diagonal-block inverses
    from cfcontrol import evolution
    fam, grid = make_dense_family(rng, 3), window(n)
    table = build_propagator(fam, grid)
    stored = table.levels + [table._final_t]
    assert evolution._propagator_bytes(n, 3) \
        == sum(a.nbytes for a in stored)
    assert 2 ** (len(table.levels) - 2) < n - 1 <= 2 ** (len(table.levels) - 1)
    par = Parametrix.build(fam, grid)
    stored = par.semigroups + par.kernel_table.lower \
        + [par.kernel_table._diag_inv]
    assert evolution._table_bytes(n, 3) == sum(a.nbytes for a in stored)


def test_kernel_requires_dense_backend():
    fam = SpectralHeatFamily(lambda t: 1.0, 3)
    with pytest.raises(DomainError):
        build_kernel(fam, window(21))


# --- propagator table -------------------------------------------------------

def test_propagator_diagonal_is_exact_identity(rng):
    fam = make_dense_family(rng, 3)
    table = build_propagator(fam, window(41))
    for i in range(41):
        assert np.array_equal(table.matrix(i, i), np.eye(3))


def test_spectral_constant_potential_closed_form():
    fam = SpectralHeatFamily(lambda t: 1.0, 8)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(0.8), 0.0, 1.0, 201)
    table = build_propagator(fam, grid)
    rates = np.arange(1, 9) ** 2 + 1.0
    for i, j in ((200, 0), (150, 30), (80, 80)):
        dtau = grid.tau_nodes[i] - grid.tau_nodes[j]
        assert np.allclose(table.factors(i, j), np.exp(-rates * dtau),
                           rtol=1e-12, atol=1e-300)


def test_spectral_matches_oracle_per_mode():
    order = FractionalOrder(0.8)
    fam = SpectralHeatFamily(lambda t: 1.0 + (t**0.8 / 0.8) / 2.0, 8)
    grid = TimeGrid.from_tau_horizon(order, 0.0, 1.0, 201)
    table = build_propagator(fam, grid)
    x = np.ones(8)
    got = table.matrix(200, 0) @ x
    want = propagate_oracle(fam, order, grid.t_start, grid.t_end, x,
                            steps=4000)
    assert np.max(np.abs(got - want)) < 1e-7


def test_dense_matches_oracle_with_second_order_convergence(rng):
    fam = make_dense_family(rng, 4)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ref = propagate_oracle(fam, ORDER, window(3).t_start, window(3).t_end, x,
                           steps=3000)
    errs = []
    for n in (101, 201):
        table = build_propagator(fam, window(n))
        got = table.matrix(n - 1, 0) @ x
        errs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 3.5


def config_family(name, tmp_path, alpha=0.75):
    """The named dense family of a scenario file, at scale 0.5."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(f"schema_version = 1\nalpha = {alpha}\ntau_start = 0\n"
                    "tau_end = 1\nn_nodes = 41\nbackend = dense_matrix\n"
                    f"dense_family = {name} 0.5\nx0 = ones 1.0\n")
    return parse_config(path).family()


def oracle_errors(fam, lo, sizes):
    """Relative error of ``Psi(n-1, 0) x`` against the RK4 oracle on the
    unit tau window from ``lo``, for each node count."""
    grid = window(3, lo=lo, hi=lo + 1.0)
    x = np.ones(fam.dim)
    ref = propagate_oracle(fam, ORDER, grid.t_start, grid.t_end, x,
                           steps=4000)
    return [np.linalg.norm(build_propagator(fam, window(n, lo=lo,
                                                       hi=lo + 1.0))
                           .homogeneous(x)[-1] - ref) / np.linalg.norm(ref)
            for n in sizes]


@pytest.mark.parametrize("name", ["coupled_3x3", "rotation_drift",
                                  "commuting_diagonal", "jordan"])
def test_dense_table_is_fourth_order_away_from_tau_zero(tmp_path, name):
    # the error ratio per halving of h is 16 on the window from tau = 0.4,
    # and about 5 on one from tau = 0, where t ~ tau**(4/3) is not smooth.
    # commuting_diagonal is linear in tau and its steps commute, so the two
    # Gauss points integrate it exactly: its error is the oracle's, 5e-15
    fam = jordan_family() if name == "jordan" \
        else config_family(name, tmp_path)
    for lo, ratio in ((0.4, 12.0), (0.0, 4.0)):
        coarse, fine = oracle_errors(fam, lo, (41, 81))
        if name == "commuting_diagonal":
            assert max(coarse, fine) < 1e-13
        else:
            assert coarse / fine >= ratio


def test_dense_composition_law_holds_to_rounding(rng):
    # the table is a product of one-step maps, so the law holds exactly but
    # for the rounding of the products
    fam = make_dense_family(rng, 3)
    table = build_propagator(fam, window(81))
    worst = 0.0
    for i in range(0, 81, 8):
        for r in range(0, i + 1, 8):
            for j in range(0, r + 1, 4):
                dev = np.max(np.abs(table.matrix(i, j) - table.matrix(i, r)
                                    @ table.matrix(r, j)))
                worst = max(worst, dev / max(1.0, np.max(np.abs(
                    table.matrix(i, j)))))
    assert worst < 1e-14


@pytest.mark.parametrize("lo", [0.4, 0.0])
def test_dense_table_agrees_with_the_parametrix(tmp_path, lo):
    # the Magnus table and the paper's parametrix differ by no more than
    # the parametrix's own error against the oracle, which dominates
    fam = config_family("coupled_3x3", tmp_path)
    grid = window(81, lo=lo, hi=lo + 1.0)
    x = np.ones(3)
    ref = propagate_oracle(fam, ORDER, grid.t_start, grid.t_end, x,
                           steps=4000)
    unit = np.zeros(81 * 3)
    unit[:3] = x
    parametrix = Parametrix.build(fam, grid).propagate(unit)[-3:]
    magnus = build_propagator(fam, grid).homogeneous(x)[-1]
    par_err = np.linalg.norm(parametrix - ref)
    assert np.linalg.norm(magnus - parametrix) <= 1.1 * par_err
    assert np.linalg.norm(magnus - ref) <= 0.01 * par_err


@pytest.mark.parametrize("n", [2, 3, 100, 161])
def test_dense_accumulate_matches_the_per_step_loop(rng, n):
    # the doubling scan against acc[r+1] = E_r (acc[r] + h/2 v_r) + h/2 v_r+1
    fam = make_dense_family(rng, 3)
    grid = window(n)
    table = build_propagator(fam, grid)
    values = rng.standard_normal((n, 3))
    want = trapezoid_march(table.levels[0][1:], grid.h, values)
    got = table.accumulate(values)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got[0], np.zeros(3))


def test_oracle_trivial_cases():
    fam = DenseMatrixFamily(lambda t: np.zeros((2, 2)), 2)
    x = np.array([1.0, -2.0])
    out = propagate_oracle(fam, ORDER, 0.5, 1.5, x, steps=64)
    assert np.allclose(out, x, atol=1e-14)

    lam = 0.8
    fam = DenseMatrixFamily(lambda t: np.array([[lam]]), 1)
    out = propagate_oracle(fam, ORDER, 0.5, 1.5, np.array([2.0]), steps=512)
    dtau = float(ORDER.to_tau(1.5) - ORDER.to_tau(0.5))
    assert out[0] == pytest.approx(2.0 * np.exp(-lam * dtau), rel=1e-10)


def test_composition_law_within_quadrature_error(rng):
    fam = make_dense_family(rng, 3)
    grid = window(81)
    table = build_propagator(fam, grid)
    fine = build_propagator(fam, window(161))
    # two-grid estimate of the quadrature error on the propagator
    quad_est = 0.0
    for i in range(0, 81, 16):
        for j in range(0, i + 1, 16):
            diff = np.linalg.norm(table.matrix(i, j)
                                  - fine.matrix(2 * i, 2 * j), 2)
            quad_est = max(quad_est, diff * 4.0 / 3.0)
    worst = 0.0
    for i in range(0, 81, 8):
        for r in range(0, i + 1, 8):
            for j in range(0, r + 1, 8):
                dev = np.linalg.norm(
                    table.matrix(i, j)
                    - table.matrix(i, r) @ table.matrix(r, j), 2)
                worst = max(worst, dev)
    assert worst <= 5.0 * quad_est


def test_spectral_composition_exact():
    fam = SpectralHeatFamily(lambda t: 1.0, 6)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(0.8), 0.0, 1.0, 201)
    table = build_propagator(fam, grid)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        j, r, i = np.sort(rng.integers(0, 201, 3))
        dev = np.abs(table.factors(i, j)
                     - table.factors(i, r) * table.factors(r, j))
        worst = max(worst, float(np.max(dev)))
    assert worst < 1e-14


def test_norm_bound_envelope_and_stability(rng):
    fam = make_dense_family(rng, 3)
    coarse = build_propagator(fam, window(81))
    fine = build_propagator(fam, window(161))
    assert np.isfinite(coarse.norm_bound)
    # envelope really bounds the spectral norms
    worst = max(np.linalg.norm(coarse.matrix(i, j), 2)
                for i in range(0, 81, 5) for j in range(0, i + 1, 5))
    assert worst <= coarse.norm_bound + 1e-12
    assert abs(coarse.norm_bound - fine.norm_bound) < 0.05 * coarse.norm_bound


def test_spectral_factors_contractive_for_nonnegative_potential():
    fam = SpectralHeatFamily(lambda t: 0.5 + 0.5 * np.sin(t) ** 2, 6)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(0.6), 0.0, 1.0, 101)
    table = build_propagator(fam, grid)
    for i in range(0, 101, 10):
        for j in range(0, i + 1, 10):
            f = table.factors(i, j)
            assert np.all(f > 0.0)
            assert np.all(f <= 1.0 + 1e-15)
    assert table.norm_bound == pytest.approx(1.0, abs=1e-12)


def test_continuity_step_scales_linearly(rng):
    fam = make_dense_family(rng, 2)
    coarse = build_propagator(fam, window(81))
    fine = build_propagator(fam, window(161))

    def max_step(table):
        n = table.grid.n_nodes
        return max(np.linalg.norm(table.matrix(i + 1, j)
                                  - table.matrix(i, j), 2)
                   for j in range(0, n - 1, 8) for i in range(j, n - 1))

    ratio = max_step(coarse) / max_step(fine)
    assert 1.6 < ratio < 2.4


# --- evolution-equation residuals -------------------------------------------

def test_residual_constant_diagonal_family():
    fam = DenseMatrixFamily(lambda t: np.diag([0.5, 1.0]), 2)
    grid = window(401)
    table = build_propagator(fam, grid)
    assert conformable_residual(table, fam, 200, 0) < 1e-6


def test_residual_second_order_in_grid(rng):
    fam = make_dense_family(rng, 3)
    r_coarse = conformable_residual(build_propagator(fam, window(101)),
                                    fam, 50, 0)
    r_fine = conformable_residual(build_propagator(fam, window(201)),
                                  fam, 100, 0)
    assert 2.5 < r_coarse / r_fine < 6.0


def test_residual_boundary_checks(rng):
    fam = make_dense_family(rng, 2)
    table = build_propagator(fam, window(41))
    with pytest.raises(IndexError):
        conformable_residual(table, fam, 40, 0)   # no forward neighbor
    with pytest.raises(IndexError):
        conformable_residual(table, fam, 10, 10)  # needs j < i


def test_adjoint_residual_small(rng):
    fam = make_dense_family(rng, 3)
    table = build_propagator(fam, window(201))
    for v in np.eye(3):
        assert adjoint_residual(table, fam, 200, 100, v) < 1e-5


def test_residual_envelope_near_diagonal(rng):
    # residuals may grow toward the diagonal no faster than 1/elapsed-tau:
    # the scaled residual stays comparable to its far-field size
    fam = make_dense_family(rng, 2)
    grid = window(161)
    table = build_propagator(fam, grid)
    scaled_near, scaled_far = 0.0, 0.0
    for i in range(2, 160, 6):
        for j in range(0, i, 5):
            dtau = grid.tau_nodes[i] - grid.tau_nodes[j]
            val = conformable_residual(table, fam, i, j) * dtau
            if dtau < 0.1:
                scaled_near = max(scaled_near, val)
            elif dtau > 0.5:
                scaled_far = max(scaled_far, val)
    assert scaled_near <= 5.0 * scaled_far


def test_regularized_residual_decreases_with_pullback():
    fam = commuting_family()
    grid = window(161)
    kt = build_kernel(fam, grid)
    vals = regularized_residuals(fam, kt, 100, 20, pullbacks=(16, 8, 4, 2))
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_column_table_guards(rng):
    # node pairs outside 0 <= j <= i < n are refused
    fam = make_dense_family(rng, 2)
    table = build_propagator(fam, window(41))
    table.matrix(10, 0)
    for i, j in ((3, 10), (41, 0), (10, -1)):
        with pytest.raises(IndexError):
            table.matrix(i, j)


def test_column_table_homogeneous_matches_apply(rng):
    fam = make_dense_family(rng, 3)
    table = build_propagator(fam, window(41))
    x0 = rng.standard_normal(3)
    expect = np.stack([table.matrix(i, 0) @ x0 for i in range(41)])
    assert np.allclose(table.homogeneous(x0), expect, rtol=1e-14, atol=1e-15)


# spectral scans: nodes, modes, potential; the window spans one unit of tau,
# so the top mode's exponent rises by about modes**2 over it
SPECTRAL_SCANS = {
    "spectral": (31, 5, lambda t: 1.0 + 0.5 * np.sin(3.0 * t)),
    "unit_chunks": (41, 64, lambda t: 1.0),
    "many_chunks": (4001, 64, lambda t: 1.0),
    "sign_changing": (201, 16, lambda t: 40.0 * np.sin(8.0 * t)),
}


@pytest.mark.parametrize("backend", ["dense", *SPECTRAL_SCANS])
def test_accumulate_matches_trapezoid_sum(rng, backend):
    if backend == "dense":
        grid, fam = window(31), make_dense_family(rng, 3)
    else:
        n_nodes, n_modes, potential = SPECTRAL_SCANS[backend]
        grid, fam = window(n_nodes), SpectralHeatFamily(potential, n_modes)
    values = rng.standard_normal((grid.n_nodes, fam.dim))
    with np.errstate(over="raise", invalid="raise"):
        table = build_propagator(fam, grid)
        got = table.accumulate(values)
        if backend != "dense":
            march = spectral_march(table, values)
            assert np.max(np.abs(got - march)) \
                <= 1e-13 * np.max(np.abs(march))
    if grid.n_nodes > 201:
        return  # the brute-force sum below takes O(n**2) node-pair products
    expect = np.zeros_like(values)
    for i in range(1, grid.n_nodes):
        terms = [table.matrix(i, r) @ values[r] for r in range(i + 1)]
        expect[i] = grid.h * (0.5 * terms[0] + sum(terms[1:i])
                              + 0.5 * terms[i])
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_spectral_scan_chunks():
    # the cases above reach one chunk, chunks of one node (every step of
    # mode 64 is about 100, above the span), many chunks, and a chunked
    # exponent that falls and rises again
    lengths = {}
    for name, (n_nodes, n_modes, potential) in SPECTRAL_SCANS.items():
        table = build_propagator(SpectralHeatFamily(potential, n_modes),
                                 window(n_nodes))
        lengths[name] = np.diff(table._anchors)
    assert list(lengths["spectral"]) == [30]
    assert set(lengths["unit_chunks"]) == {1}
    assert len(lengths["many_chunks"]) > 10
    assert min(lengths["many_chunks"]) > 1
    assert len(lengths["sign_changing"]) > 1
    first_mode = table.potential_cumint + table.grid.tau_nodes
    chunk_steps = [np.diff(first_mode[a:b + 1]) for a, b
                   in zip(table._anchors[:-1], table._anchors[1:])]
    assert any(st.min() < 0.0 < st.max() for st in chunk_steps)


def jordan_family():
    return DenseMatrixFamily(
        lambda t: np.array([[1.0, 1.0 + 0.2 * np.sin(t)], [0.0, 1.0]]), 2)


def test_defective_family_matches_oracle():
    # a Jordan-block family has no eigenbasis; its frozen exponentials take
    # the same scaling-and-squaring route as every other family
    fam = jordan_family()
    grid = window(201)
    table = build_propagator(fam, grid)
    x = np.array([0.7, -0.4])
    ref = propagate_oracle(fam, ORDER, grid.t_start, grid.t_end, x,
                           steps=2000)
    assert np.linalg.norm(table.matrix(200, 0) @ x - ref) \
        / np.linalg.norm(ref) < 1e-5


def reference_family(name, tmp_path):
    if name == "coupled_3x3":
        path = tmp_path / "coupled.cfg"
        path.write_text("schema_version = 1\nalpha = 0.75\ntau_start = 0\n"
                        "tau_end = 1\nn_nodes = 41\nbackend = dense_matrix\n"
                        "dense_family = coupled_3x3 0.5\nx0 = ones 1.0\n")
        return parse_config(path).family()
    if name == "rotation":
        # eigenvalues 0.65 +- 3.2i to 0.65 +- 3.9i
        return DenseMatrixFamily(
            lambda t: np.array([[0.5, 3.0 + np.sin(t)], [-3.0, 0.8]]), 2)
    if name == "jordan":
        return jordan_family()
    if name == "random":
        return make_dense_family(np.random.default_rng(20240903), 4)
    # h * 500 is about 8, so each one-step exponential is squared 4 times;
    # h * 1e6 is about 1.7e4, 15 times, which would cost the slow mode about
    # 2**15 ulps if the squarings rounded I + F
    return DenseMatrixFamily(
        lambda t: np.diag([1.0, (500.0 if name == "stiff" else 1e6) + t]), 2)


@pytest.mark.parametrize("name", ["coupled_3x3", "rotation", "jordan",
                                  "random", "stiff", "very_stiff"])
def test_semigroup_blocks_match_reference_exponential(tmp_path, name):
    # every block S[i, j] = E_j**(i - j) of the parametrix against scipy's
    # expm of -(tau_i - tau_j) A(t_j); 61 nodes cross three panel
    # boundaries, so the carries are checked too.  The worst case measured
    # is 9.1e-15 relative to max(1, |block|), on the random family; the
    # bound leaves about 5x.  Then every one-step exponential E_r of the
    # dense table against scipy's expm of the Magnus exponent Omega_r, to
    # the same bound
    fam = reference_family(name, tmp_path)
    grid = window(61)
    tau, t = grid.tau_nodes, grid.t_nodes
    blocks = block_view(assemble(Parametrix.build(fam, grid).semigroups),
                        fam.dim)
    worst = 0.0
    for j in range(61):
        for i in range(j, 61):
            ref = frozen_semigroup(fam, t[j], tau[i] - tau[j])
            worst = max(worst, np.max(np.abs(blocks[i, j] - ref))
                        / max(1.0, np.max(np.abs(ref))))
    assert worst < 5e-14
    from scipy.linalg import expm
    steps = build_propagator(fam, grid).levels[0][1:]
    worst = 0.0
    for step, omega in zip(steps, magnus_exponents(fam, grid)):
        ref = expm(omega)
        worst = max(worst, np.max(np.abs(step - ref))
                    / max(1.0, np.max(np.abs(ref))))
    assert worst < 5e-14


def test_grid_function_helpers():
    from cfcontrol import GridFunction
    grid = window(5)
    gf = GridFunction(grid, np.column_stack([grid.t_nodes, 2.0 * grid.t_nodes]))
    assert gf.values.shape == (5, 2)
    assert gf.values[3, 1] == pytest.approx(2.0 * grid.t_nodes[3])
    w = grid.weights()
    expect = np.sqrt(np.sum(w * np.sum(gf.values**2, axis=1)))
    assert gf.weighted_l2() == pytest.approx(expect, rel=1e-14)


def test_tau_horizon_validation():
    from cfcontrol import TimeGrid
    with pytest.raises(DomainError):
        TimeGrid.from_tau_horizon(ORDER, -0.5, 1.0, 11)
    with pytest.raises(DomainError):
        TimeGrid.from_tau_horizon(ORDER, 1.0, 1.0, 11)


def test_spectral_family_validation():
    with pytest.raises(DomainError):
        SpectralHeatFamily(lambda t: 1.0, 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
def test_non_finite_potential_is_numeric_error(bad):
    # the scan's chunk sizing reads the exponent steps, so the table refuses
    # a potential that is not finite at some node, or whose integral
    # overflows (1e308), without a RuntimeWarning
    fam = SpectralHeatFamily(lambda t: bad if t > 1.0 else 1.0, 4)
    with pytest.raises(NumericError, match="potential"):
        build_propagator(fam, window(41))


NON_FINITE_DENSE = {
    # A(t) itself, at a Gauss point of the step to node 38, the first node
    # past t = 1
    "a_matrix": (lambda t: np.diag([1.0, np.nan if t > 1.0 else 2.0]),
                 r"A\(t\) is not finite at node 38 "),
    # each step exp(25) is finite, but exp(1000 dtau) overflows past
    # dtau = 0.71, at node 29 of the window
    "semigroups": (lambda t: np.diag([1.0, -1000.0]),
                   "the propagator is not finite at node 29 "),
    # finite products of a constant non-normal family, but mu_2(-A) is
    # about 1000, so the bound exp(sum mu_2(Omega_r)) overflows
    "norm_bound": (lambda t: np.array([[1.0, 2000.0], [0.0, 2.0]]),
                   "logarithmic-norm bound"),
    # finite entries whose Gauss-point sum A_1 + A_2 overflows
    "symmetric_part": (lambda t: np.full((2, 2), 1.7e308),
                       "the Magnus exponent is not finite at node 1 "),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(NON_FINITE_DENSE))
def test_non_finite_dense_table_is_numeric_error(name):
    # raised while the table is built, and without a RuntimeWarning
    matrix, message = NON_FINITE_DENSE[name]
    with pytest.raises(NumericError, match=message):
        build_propagator(DenseMatrixFamily(matrix, 2), window(41))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, message", [
    ("a_matrix", r"A\(t\) is not finite at node 38 "),
    ("semigroups", "frozen semigroup table is not finite at node 29 "),
])
def test_non_finite_parametrix_is_numeric_error(name, message):
    # the parametrix checks its own tables, at the nodes themselves
    with pytest.raises(NumericError, match=message):
        build_kernel(DenseMatrixFamily(NON_FINITE_DENSE[name][0], 2),
                     window(41))


def test_dense_operator_matrix_matches_oracle_columns():
    rng = np.random.default_rng(314)
    a0 = rng.standard_normal((4, 4)) * 0.25
    a1 = rng.standard_normal((4, 4)) * 0.2
    fam = DenseMatrixFamily(lambda t: a0 + np.sin(1.1 * t) * a1, 4)
    grid = window(201)
    table = build_propagator(fam, grid)
    columns = [propagate_oracle(fam, ORDER, grid.t_start, grid.t_end, e,
                                steps=2000) for e in np.eye(4)]
    oracle = np.stack(columns, axis=1)
    got = table.matrix(200, 0)
    assert np.linalg.norm(got - oracle, 2) / np.linalg.norm(oracle, 2) < 1e-5


# --- operator applications against the materialised oracle ------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_series_route_matches_direct_per_application(dim):
    # the Neumann series, plain and transposed, against the table's solve,
    # and Psi v = S (v + h R v) - h/2 R v with the series R against propagate
    rng = np.random.default_rng(40 + dim)
    fam = make_dense_family(rng, dim)
    grid = window(81)
    table = Parametrix.build(fam, grid)
    kt, h = table.kernel_table, grid.h
    for rhs in (rng.standard_normal(81 * dim),
                rng.standard_normal((81 * dim, 3))):
        for transpose in (False, True):
            want = kt.apply(rhs, transpose=transpose)
            got, _ = kernel_series(kt, rhs, transpose=transpose)
            assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))
        w, norms = kernel_series(kt, rhs)
        assert len(norms) > 1
        assert kernel_equation_residual(kt, rhs, w) <= 1e-8
        assert kernel_residual(kt, rhs) <= 1e-12
        want = table.propagate(rhs)
        got = assemble(table.semigroups) @ (rhs + h * w) - 0.5 * h * w
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))
    assert kt.n_terms_used == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_propagate_independent_of_column_grouping(dim):
    # a block of right-hand sides, one of them a million times smaller,
    # gives each column what that column gives alone
    rng = np.random.default_rng(60 + dim)
    fam = make_dense_family(rng, dim)
    table = Parametrix.build(fam, window(81))
    block = rng.standard_normal((81 * dim, 4))
    block[:, 2] *= 1e-6
    together = table.propagate(block)
    for k in range(4):
        alone = table.propagate(block[:, k])
        assert np.max(np.abs(together[:, k] - alone)) \
            <= 1e-14 * np.max(np.abs(alone))


@pytest.mark.parametrize("oracle", ["series", "direct"])
@pytest.mark.parametrize("dim", [2, 3])
def test_applications_match_materialised_oracle(dim, oracle):
    # each application of the dense table against every block Psi(i, j),
    # marched step by step from scipy's expm of the Magnus exponents
    # ("series") or from the table's own steps ("direct")
    from scipy.linalg import expm
    rng = np.random.default_rng(50 + dim)
    fam = make_dense_family(rng, dim)
    grid = window(61)
    h = grid.h
    table = build_propagator(fam, grid)
    steps = (np.array([expm(om) for om in magnus_exponents(fam, grid)])
             if oracle == "series" else table.levels[0][1:])
    psi = step_products(steps)
    x0 = rng.standard_normal(dim)
    values = rng.standard_normal((61, dim))
    assert np.max(np.abs(table.homogeneous(x0) - psi[:, 0] @ x0)) <= 1e-12
    flat = psi.transpose(0, 2, 1, 3).reshape(61 * dim, 61 * dim)
    expect = h * (flat @ values.ravel()).reshape(61, dim) - 0.5 * h * (
        values + psi[:, 0] @ values[0])
    got = table.accumulate(values)
    assert np.max(np.abs(got - expect)) <= 1e-12
    assert np.array_equal(got[0], np.zeros(dim))
    check_final_row(table, psi[-1], values, rng.standard_normal(dim))


def check_final_row(table, final, values, y):
    """Both final-row applications against the blocks ``final[r]``."""
    got = table.final_row(values)
    assert np.max(np.abs(got - np.einsum("rab,rb->a", final, values))) <= 1e-12
    got = table.final_row_adjoint(y)
    assert np.max(np.abs(got - np.einsum("rab,a->rb", final, y))) <= 1e-12
    # leading axes batch: row k of every final block at once
    rows = table.final_row_adjoint(np.eye(table.dim))
    assert np.max(np.abs(rows - final.transpose(1, 0, 2))) <= 1e-12


def test_spectral_final_row_matches_node_pair_matrices():
    fam = SpectralHeatFamily(lambda t: 1.0 + 0.3 * np.sin(t), 5)
    grid = window(61)
    table = build_propagator(fam, grid)
    final = np.stack([table.matrix(60, r) for r in range(61)])
    rng = np.random.default_rng(55)
    check_final_row(table, final, rng.standard_normal((61, 5)),
                    rng.standard_normal(5))


@pytest.mark.parametrize("backend", ["spectral", "dense"])
def test_final_gram_matches_generic_sum(backend):
    # a random symmetric M and B B^T for a non-square B, against the sum
    # assembled from final_row_adjoint and final_row; the dense family is
    # non-normal, so its blocks do not commute with M
    rng = np.random.default_rng(71)
    if backend == "spectral":
        fam = SpectralHeatFamily(lambda t: 1.0 + 0.3 * np.sin(t), 5)
    else:
        fam = make_dense_family(rng, 3)
    table = build_propagator(fam, window(61))
    d = table.dim
    sym = rng.standard_normal((d, d))
    b_matrix = rng.standard_normal((d, d - 1))
    for m in (sym + sym.T, b_matrix @ b_matrix.T):
        want = final_gram_reference(table, m)
        got = table.final_gram(m)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    final = table.final_row_adjoint(np.eye(d))[:, 0]
    assert np.array_equal(table.final_block(0), final)
    assert np.allclose(table.final_block(0), table.matrix(60, 0),
                       rtol=0.0, atol=1e-12)


def test_log_norm_bound_dominates_discrete_blocks():
    # exp(int max(0, mu_2(-A))) bounds the continuous evolution operator;
    # it must also cover every block of the discrete one
    for seed in range(9):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        fam = make_dense_family(rng, dim)
        for n in (81, 161):
            table = build_propagator(fam, window(n))
            psi = step_products(table.levels[0][1:])
            worst = float(np.max(np.linalg.norm(psi, 2, axis=(-2, -1))))
            assert worst <= table.norm_bound


def test_log_norm_bound_is_one_for_shipped_families(tmp_path):
    # A(t) + A(t)^T is positive definite on every named dense family
    for name in ("commuting_diagonal", "rotation_drift", "coupled_3x3"):
        path = tmp_path / f"{name}.cfg"
        path.write_text("schema_version = 1\nalpha = 0.8\ntau_start = 0\n"
                        "tau_end = 1\nn_nodes = 41\nbackend = dense_matrix\n"
                        f"dense_family = {name} 0.5\nx0 = ones 1.0\n")
        cfg = parse_config(path)
        assert build_propagator(cfg.family(), cfg.grid()).norm_bound == 1.0


# --- memory guard -------------------------------------------------------------

@pytest.mark.parametrize("v2, v1, soft_as, expect", [
    (None, None, None, None),
    ("max", None, None, None),
    ("max", "9223372036854771712", None, None),
    ("1000000", None, None, (1_000_000, "cgroup memory limit")),
    (None, "1200000", None, (1_200_000, "cgroup memory limit")),
    ("3000000", None, 500_000,
     (500_000, "address-space limit (RLIMIT_AS)")),
], ids=["physical_only", "v2_max", "v1_unlimited", "v2", "v1", "rlimit_as"])
def test_memory_guard_takes_smallest_readable_limit(monkeypatch, tmp_path,
                                                    v2, v1, soft_as, expect):
    from cfcontrol.evolution import _table_bytes
    grids = limit_sources(monkeypatch, tmp_path, v2, v1, soft_as)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    have, label = min(grids._memory_limits(), key=lambda lim: lim[0])
    assert (have, label) == (expect or (physical, "of physical memory"))
    # the row panels of S and -hK with their diagonal-block inverses, in
    # dimension 1: 0.11 MB at n = 100, 1.38 MB at 400
    grids.require_memory(_table_bytes(100, 1), "a table")
    if expect is None:
        grids.require_memory(_table_bytes(400, 1), "a table")
        return
    with pytest.raises(DomainError, match=re.escape(label)):
        grids.require_memory(_table_bytes(400, 1), "a table")
