"""Gramian assembly, null-control synthesis, and the inequality check."""

from pathlib import Path

import numpy as np
import pytest

from cfcontrol import (ControllabilityError, ControlProblem, ConvergenceError,
                       DenseMatrixFamily, DomainError, FractionalOrder,
                       GridFunction, NullControlFailed, NumericError,
                       SpectralHeatFamily, TimeGrid, build_gramian,
                       build_propagator, exact_null_control_semilinear,
                       kernel_space_perturbation, synthesize_null_control,
                       parse_config, verify_null_inequality)

ORDER = FractionalOrder(0.8)
DEMO = Path(__file__).resolve().parents[1] / "configs" / "heat_null_control.cfg"
DENSE = DEMO.with_name("dense_evolve.cfg")


def scalar_setup(lam=1.0, n=801, alpha=1.0):
    order = FractionalOrder(alpha)
    fam = DenseMatrixFamily(lambda t: np.array([[lam]]), 1)
    grid = TimeGrid.from_tau_horizon(order, 0.0, 1.0, n)
    table = build_propagator(fam, grid)
    return fam, grid, table


def heat_setup(n_modes=6, n=401, potential=1.0):
    fam = SpectralHeatFamily(lambda t: potential, n_modes)
    grid = TimeGrid.from_tau_horizon(ORDER, 0.0, 1.0, n)
    table = build_propagator(fam, grid)
    return fam, grid, table


# --- gramian -----------------------------------------------------------------

def test_scalar_gramian_matches_closed_form():
    lam = 1.0
    fam, grid, table = scalar_setup(lam)
    gram = build_gramian(np.eye(1), table)
    exact = (1.0 - np.exp(-2.0 * lam)) / (2.0 * lam)
    # trapezoid approximation of the closed-form integral, second order
    assert gram.gramian[0, 0] == pytest.approx(exact, abs=5e-7)
    assert gram.jitter == 0.0


def test_zero_input_matrix_not_controllable():
    from scipy.linalg import LinAlgError

    from conftest import cholesky_reference
    fam, grid, table = scalar_setup()
    with pytest.raises(ControllabilityError):
        build_gramian(np.zeros((1, 1)), table)
    # the scipy reference fails on the same (zero) Gramian
    with pytest.raises(LinAlgError):
        cholesky_reference(np.zeros((1, 1)))


def test_heat_gramian_diagonal_positive_definite():
    fam, grid, table = heat_setup(n=1601)
    gram = build_gramian(np.eye(6), table)
    off = gram.gramian - np.diag(np.diag(gram.gramian))
    assert np.max(np.abs(off)) == 0.0
    rates = np.arange(1, 7) ** 2 + 1.0
    expect = (1.0 - np.exp(-2.0 * rates)) / (2.0 * rates)
    assert np.max(np.abs(np.diag(gram.gramian) - expect)) < 1e-5
    assert np.all(np.linalg.eigvalsh(gram.gramian) > 0.0)


def test_gramian_symmetry(rng):
    from conftest import make_dense_family
    fam = make_dense_family(rng, 3)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(0.75), 0.4, 1.4, 201)
    table = build_propagator(fam, grid)
    gram = build_gramian(rng.standard_normal((3, 2)), table)
    w = gram.gramian
    assert np.linalg.norm(w - w.T) <= 1e-12 * np.linalg.norm(w)


def test_gain_norm_estimate_close_to_spectral_value():
    fam, grid, table = heat_setup(n=401)
    gram = build_gramian(np.eye(6), table)
    # exact value from the diagonal structure of the composed gain matrix
    rates = np.arange(1, 7) ** 2 + 1.0
    w = np.diag(gram.gramian)
    psi0 = np.exp(-rates)
    exact = np.sqrt(np.max((psi0**2 + w) / w))
    assert gram.gain_norm_est == pytest.approx(exact, rel=1e-12)


def gramian_oracle_cases():
    """A spectral and a dense table, each with a regular and a singular input."""
    _, _, heat = heat_setup(n=201)
    grid = TimeGrid.from_tau_horizon(ORDER, 0.0, 1.0, 41)
    # A = I/2, so every operator is a scalar multiple of I and W is a
    # multiple of B B^T: rank 2 up to 1e-20 for this B
    flat = build_propagator(
        DenseMatrixFamily(lambda t: 0.5 * np.eye(3), 3), grid)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    return {
        "spectral": (heat, np.eye(6)),
        "spectral_zero_row": (heat, np.diag([1.0] * 5 + [0.0])),
        "dense": (build_propagator(parse_config(DENSE).family(), grid),
                  np.array([[1.0, 0.3], [-0.2, 0.7]])),
        "dense_nearly_singular": (flat, q * [1.0, 1.0, 1e-10]),
    }


@pytest.mark.parametrize("case", ["spectral", "spectral_zero_row", "dense",
                                  "dense_nearly_singular"])
def test_gramian_factor_matches_scipy_reference(case):
    from scipy.linalg import cho_solve, eigh

    from conftest import cholesky_reference
    table, b_matrix = gramian_oracle_cases()[case]
    gram = build_gramian(b_matrix, table)
    cho, jitter = cholesky_reference(gram.gramian)
    assert gram.jitter == jitter
    assert (jitter > 0.0) == case.endswith(("zero_row", "singular"))

    rhs = np.random.default_rng(1).standard_normal((table.dim, 3))
    expect = cho_solve(cho, rhs)
    assert np.linalg.norm(gram.solve_gramian(rhs) - expect) \
        <= 1e-12 * np.linalg.norm(expect)
    assert np.allclose(gram.solve_gramian(rhs[:, 0]), expect[:, 0],
                       rtol=1e-12, atol=0.0)

    # the gain norm as the generalised eigenvalue of (P P^T + W_I, W)
    p = table.matrix(table.grid.n_nodes - 1, 0)
    w_ident = build_gramian(np.eye(table.dim), table).gramian
    top = eigh(p @ p.T + w_ident, gram.gramian + jitter * np.eye(table.dim),
               eigvals_only=True)[-1]
    assert gram.gain_norm_est == pytest.approx(np.sqrt(top), rel=1e-12)


def test_non_finite_gramian_is_numeric_error():
    _, _, table = heat_setup(n=101)
    b_matrix = np.eye(6)
    b_matrix[2, 2] = float("nan")
    with pytest.raises(NumericError, match="Gramian"):
        build_gramian(b_matrix, table)
    # a non-finite potential is refused earlier, by the table build
    with pytest.raises(NumericError, match="potential"):
        heat_setup(n=101, potential=float("nan"))


# --- null-control synthesis ----------------------------------------------------

def test_trivial_null_control_is_zero():
    fam, grid, table = scalar_setup()
    gram = build_gramian(np.eye(1), table)
    result = synthesize_null_control(gram, np.zeros(1))
    assert np.max(np.abs(result.control.values)) == 0.0
    assert result.final_state_norm == 0.0
    assert result.control_energy == 0.0


def test_scalar_null_control_closed_form():
    lam = 1.0
    fam, grid, table = scalar_setup(lam)
    gram = build_gramian(np.eye(1), table)
    result = synthesize_null_control(gram, np.array([1.0]))
    assert result.final_state_norm <= 1e-8
    expect = -np.exp(-lam * (1.0 - grid.tau_nodes)) \
        / gram.gramian[0, 0] * np.exp(-lam)
    assert np.max(np.abs(result.control.values[:, 0] - expect)) < 1e-12


def test_heat_first_mode_bump_steered_to_zero():
    fam, grid, table = heat_setup()
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    result = synthesize_null_control(gram, x0)
    assert result.final_state_norm <= 1e-6
    assert result.control_energy > 0.0


def test_null_transfer_with_forcing(rng):
    fam, grid, table = heat_setup(n=201)
    gram = build_gramian(np.eye(6), table)
    forcing = GridFunction(grid, 0.3 * rng.standard_normal((grid.n_nodes, 6)))
    z0 = rng.standard_normal(6)
    result = synthesize_null_control(gram, z0, forcing)
    assert result.final_state_norm <= 1e-10 * max(1.0, np.linalg.norm(z0))


def test_minimum_norm_among_kernel_perturbations(rng):
    fam, grid, table = heat_setup(n=201)
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    result = synthesize_null_control(gram, x0)
    u = result.control.values
    w = grid.weights()
    base = np.sum(w * np.sum(u**2, axis=1))
    for _ in range(10):
        v = kernel_space_perturbation(gram, rng)
        assert np.linalg.norm(gram.apply_reachability(v)) < 1e-12
        pert = np.sum(w * np.sum((u + v) ** 2, axis=1))
        assert pert > base


def test_mode_truncation_stability():
    finals = []
    for n_modes in (6, 12):
        fam, grid, table = heat_setup(n_modes=n_modes)
        gram = build_gramian(np.eye(n_modes), table)
        x0 = np.zeros(n_modes)
        x0[0] = 1.0
        finals.append(synthesize_null_control(gram, x0).final_state_norm)
    # both sit at the factorization floor; doubling the truncation must not
    # degrade the transfer (floor guards the ratio of two roundoff numbers)
    assert finals[1] <= 10.0 * max(finals[0], 1e-12)


# --- inequality check -----------------------------------------------------------

def test_inequality_single_mode_closed_form():
    # rate one, unit horizon: energy ratio tanh(1) = 0.761594...
    fam = SpectralHeatFamily(lambda t: 0.0, 1)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(1.0), 0.0, 1.0, 1601)
    table = build_propagator(fam, grid)
    gram = build_gramian(np.eye(1), table)
    outcome = verify_null_inequality(gram, 1.0, 5,
                                     rng=np.random.default_rng(0))
    assert outcome.gamma_emp == pytest.approx(0.7615941559557649, abs=1e-7)
    assert outcome.passes


def test_inequality_heat_demo_clears_threshold():
    fam, grid, table = heat_setup()
    gram = build_gramian(np.eye(6), table)
    outcome = verify_null_inequality(gram, 1.0, 200,
                                     rng=np.random.default_rng(11))
    assert outcome.gamma_emp >= 0.5 - 1e-6
    assert outcome.passes


def test_dense_inequality_reads_its_own_gramian(rng):
    # on a non-normal family only the adjoint form int ||op(end, s)^T z||^2
    # equals z^T W z; the triangular solve makes every block exact to
    # roundoff
    from conftest import make_dense_family
    fam = make_dense_family(rng, 3)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(0.75), 0.0, 1.0, 121)
    table = build_propagator(fam, grid)
    gram = build_gramian(np.eye(3), table)
    outcome = verify_null_inequality(gram, 1.0, 40,
                                     rng=np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal((40, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    energy = np.einsum("ta,ab,tb->t", z, gram.gramian, z)
    free = np.sum((z @ table.matrix(120, 0)) ** 2, axis=1)
    expect = np.min(energy / (free + energy))
    assert outcome.gamma_emp == pytest.approx(expect, rel=1e-12)


def test_gramian_and_inequality_memory_stays_per_mode():
    # n = 4001, m = 64: the Gramian, the gain norm and 500 trials of the
    # inequality hold O(n*m + trials*m) numbers; a (d, n, d) stack of the
    # final row alone would be 131 MB
    import tracemalloc
    _, _, table = heat_setup(n_modes=64, n=4001)
    tracemalloc.start()
    try:
        gram = build_gramian(np.eye(64), table)
        outcome = verify_null_inequality(gram, 1.0, 500,
                                         rng=np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.passes
    assert peak < 10e6


def test_inequality_requires_identity_input():
    fam, grid, table = heat_setup(n=101)
    gram = build_gramian(0.5 * np.eye(6), table)
    with pytest.raises(DomainError):
        verify_null_inequality(gram, 1.0, 10)


def test_inequality_checks_horizon_consistency():
    fam, grid, table = heat_setup(n=101)
    gram = build_gramian(np.eye(6), table)
    with pytest.raises(DomainError):
        verify_null_inequality(gram, 2.0, 10)


def test_inequality_pass_implies_gramian_built_and_zero_input_fails_both():
    # positive empirical constant goes with a regular gramian; a zero input
    # map fails the gramian build outright
    fam, grid, table = heat_setup(n=201)
    gram = build_gramian(np.eye(6), table)
    outcome = verify_null_inequality(gram, 1.0, 50,
                                     rng=np.random.default_rng(2))
    assert outcome.gamma_emp > 0.0
    assert gram.jitter == 0.0
    with pytest.raises(ControllabilityError):
        build_gramian(np.zeros((6, 6)), table)


# --- semilinear closed loop -------------------------------------------------------

def test_semilinear_zero_gain_reduces_to_linear_synthesis():
    fam, grid, table = heat_setup()
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(family=fam, grid=grid, x0=x0,
                             b_matrix=np.eye(6))
    looped = exact_null_control_semilinear(problem, gram)
    direct = synthesize_null_control(gram, x0)
    assert np.array_equal(looped.control.values, direct.control.values)


def test_semilinear_small_gain_converges():
    fam, grid, table = heat_setup()
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(family=fam, grid=grid, x0=x0,
                             b_matrix=np.eye(6),
                             nonlinearity=lambda t, x: 0.05 * x,
                             picard_tol=1e-9)
    result = exact_null_control_semilinear(problem, gram, null_tol=1e-5)
    assert result.final_state_norm <= 1e-5
    assert result.iterations <= 20


def test_semilinear_demo_is_a_fixed_point_of_the_closed_loop_map():
    cfg = parse_config(DEMO)
    grid, fam = cfg.grid(), cfg.family()
    table = build_propagator(fam, grid)
    b_matrix = cfg.control_matrix(fam.dim)
    fun, _ = cfg.nonlinearity()
    problem = ControlProblem(family=fam, grid=grid,
                             x0=cfg.initial_state(fam.dim), b_matrix=b_matrix,
                             nonlinearity=fun, picard_tol=cfg.picard_tol,
                             max_iter=cfg.max_iter)
    result = exact_null_control_semilinear(
        problem, build_gramian(b_matrix, table), null_tol=cfg.null_tol)
    x = result.closed_loop_trajectory.values
    forcing = np.stack([fun(t, x[r]) for r, t in enumerate(grid.t_nodes)])
    image = table.homogeneous(problem.x0) + table.accumulate(
        result.control.values @ b_matrix.T + forcing)
    assert np.max(np.linalg.norm(image - x, axis=1)) <= 10.0 * cfg.picard_tol
    assert result.final_state_norm <= cfg.null_tol


def test_semilinear_rejects_a_table_on_another_grid():
    fam, _, table = heat_setup(n=101)
    gram = build_gramian(np.eye(6), table)
    other = TimeGrid.from_tau_horizon(ORDER, 0.0, 1.0, 101)
    problem = ControlProblem(family=fam, grid=other, x0=np.ones(6),
                             b_matrix=np.eye(6),
                             nonlinearity=lambda t, x: 0.05 * x)
    with pytest.raises(DomainError):
        exact_null_control_semilinear(problem, gram)


def test_semilinear_over_gain_reports_failure():
    fam, grid, table = heat_setup()
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(family=fam, grid=grid, x0=x0,
                             b_matrix=np.eye(6),
                             nonlinearity=lambda t, x: 5.0 * x,
                             picard_tol=1e-9, max_iter=40)
    with pytest.raises((ConvergenceError, NullControlFailed)):
        exact_null_control_semilinear(problem, gram)


def test_inequality_fails_for_destabilizing_potential():
    # one growing mode (rate -1): the response energy ratio drops to
    # (e^2-1)/2 / (e^2 + (e^2-1)/2) = 0.30184 < 0.5 and the check reports it
    fam = SpectralHeatFamily(lambda t: -2.0, 1)
    grid = TimeGrid.from_tau_horizon(FractionalOrder(1.0), 0.0, 1.0, 801)
    table = build_propagator(fam, grid)
    gram = build_gramian(np.eye(1), table)
    outcome = verify_null_inequality(gram, 1.0, 10,
                                     rng=np.random.default_rng(0))
    lhs = (np.exp(2.0) - 1.0) / 2.0
    assert outcome.gamma_emp == pytest.approx(lhs / (np.exp(2.0) + lhs),
                                              abs=1e-5)
    assert not outcome.passes


def test_tolerance_miss_raises_with_result_attached():
    fam, grid, table = heat_setup(n=201)
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(family=fam, grid=grid, x0=x0,
                             b_matrix=np.eye(6),
                             nonlinearity=lambda t, x: 0.05 * x)
    with pytest.raises(NullControlFailed) as info:
        exact_null_control_semilinear(problem, gram, null_tol=1e-20)
    assert info.value.result is not None
    assert info.value.result.final_state_norm > 0.0
