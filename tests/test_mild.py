"""Fixed-point solver for the semilinear integral equation."""

import numpy as np
import pytest

from cfcontrol import (ControlProblem, ConvergenceError, DenseMatrixFamily,
                       DomainError, FractionalOrder, NumericError,
                       SpectralHeatFamily, TimeGrid, build_gramian,
                       build_propagator, contraction_report,
                       exact_null_control_semilinear, horizon_factor,
                       picard_solve)

ORDER = FractionalOrder(0.8)


def heat_setup(n_nodes=401, n_modes=6, potential=1.0):
    fam = SpectralHeatFamily(lambda tau: potential, n_modes)
    grid = TimeGrid(ORDER, 0.0, 1.0, n_nodes)
    return fam, grid, build_propagator(fam, grid)


def test_homogeneous_case_converges_in_one_sweep():
    fam, grid, table = heat_setup()
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(x0=x0)
    result = picard_solve(problem, table)
    assert result.iterations == 1
    assert result.residual == 0.0
    hom = np.stack([table.matrix(i, 0) @ x0 for i in range(grid.n_nodes)])
    assert np.array_equal(result.trajectory, hom)


def test_scalar_linear_gain_absorbed_into_rate():
    lam, gain = 1.0, 0.4
    fam = DenseMatrixFamily(lambda tau: np.array([[lam]]), 1)
    grid = TimeGrid(ORDER, 0.0, 1.0, 801)
    table = build_propagator(fam, grid)
    problem = ControlProblem(x0=np.array([2.0]),
                             nonlinearity=lambda tau, x: gain * x,
                             picard_tol=1e-12)
    result = picard_solve(problem, table)
    exact = 2.0 * np.exp((gain - lam) * (grid.tau_nodes - grid.tau_nodes[0]))
    assert np.max(np.abs(result.trajectory[:, 0] - exact)) < 1e-6


def test_heat_linear_gain_matches_shifted_potential():
    gain = 0.1
    fam, grid, table = heat_setup(n_nodes=801, n_modes=8)
    x0 = np.ones(8) / np.sqrt(8.0)
    problem = ControlProblem(x0=x0, nonlinearity=lambda tau, x: gain * x,
                             picard_tol=1e-12)
    result = picard_solve(problem, table)
    shifted = SpectralHeatFamily(lambda tau: 1.0 - gain, 8)
    reference = build_propagator(shifted, grid)
    ref = np.stack([reference.matrix(i, 0) @ x0
                    for i in range(grid.n_nodes)])
    assert np.max(np.abs(result.trajectory - ref)) < 1e-6


def test_updates_decrease_geometrically_under_small_gain(rng):
    fam, grid, table = heat_setup(n_nodes=201)
    gram = build_gramian(np.eye(6), table)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(x0=x0, nonlinearity=lambda tau, x: 0.2 * x,
                             picard_tol=1e-11)
    report = contraction_report(gram, gamma_growth=0.2)
    assert report.satisfied
    for _ in range(3):
        start = rng.standard_normal((grid.n_nodes, 6)) * 0.5
        result = picard_solve(problem, table, x_init=start)
        updates = result.update_norms
        # ratios settle strictly below one
        tail = [updates[i + 1] / updates[i]
                for i in range(1, len(updates) - 1) if updates[i] > 0]
        assert tail and all(r < 1.0 for r in tail)


def test_residual_tracks_tolerance():
    fam, grid, table = heat_setup(n_nodes=201)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(x0=x0, nonlinearity=lambda tau, x: 0.3 * x,
                             picard_tol=1e-8)
    result = picard_solve(problem, table)
    assert result.residual <= 10.0 * problem.picard_tol


def test_trajectory_error_second_order_in_grid():
    lam, gain = 1.0, 0.3
    fam = DenseMatrixFamily(lambda tau: np.array([[lam]]), 1)

    def solve(n):
        grid = TimeGrid(ORDER, 0.0, 1.0, n)
        table = build_propagator(fam, grid)
        problem = ControlProblem(x0=np.array([1.0]),
                                 nonlinearity=lambda tau, x: gain * x,
                                 picard_tol=1e-13)
        return picard_solve(problem, table).trajectory[:, 0]

    coarse, mid, ref = solve(101), solve(201), solve(801)
    e_coarse = np.max(np.abs(coarse - ref[::8]))
    e_mid = np.max(np.abs(mid - ref[::4]))
    assert 3.0 < e_coarse / e_mid < 5.5


def test_iteration_cap_raises_with_last_norm():
    # gain 5 still converges eventually (the discrete integral operator is
    # quasi-nilpotent), but not within a tight sweep budget
    fam, grid, table = heat_setup(n_nodes=201)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(x0=x0, nonlinearity=lambda tau, x: 5.0 * x,
                             max_iter=8)
    with pytest.raises(ConvergenceError) as info:
        picard_solve(problem, table)
    assert info.value.last_norm is not None
    assert info.value.last_norm > problem.picard_tol


def test_transient_blowup_trips_divergence_guard():
    fam, grid, table = heat_setup(n_nodes=201)
    x0 = np.zeros(6)
    x0[0] = 1.0
    problem = ControlProblem(x0=x0, nonlinearity=lambda tau, x: 40.0 * x)
    with pytest.raises(ConvergenceError) as info:
        picard_solve(problem, table)
    assert "diverged" in str(info.value)


def test_nonlinearity_called_once_per_sweep():
    fam, grid, table = heat_setup(n_nodes=201)
    calls = []

    def fun(tau, x):
        assert np.array_equal(tau, grid.tau_nodes[:, None])
        calls.append((tau.shape, x.shape))
        return 0.05 * x

    problem = ControlProblem(x0=np.ones(6) / 6.0, nonlinearity=fun)
    result = picard_solve(problem, table)
    # every sweep, and the one that measures the residual
    assert calls == [((201, 1), (201, 6))] * (result.iterations + 1)
    calls.clear()
    closed = exact_null_control_semilinear(problem, build_gramian(np.eye(6),
                                                                  table))
    assert calls == [((201, 1), (201, 6))] * closed.iterations


@pytest.mark.parametrize("fun, error", [
    # inf past t = 0.5
    (lambda tau, x: np.where(tau > ORDER.to_tau(0.5), np.inf, x),
     NumericError),
    (lambda tau, x: np.where(x > 0.0, np.nan, x), NumericError),
    (lambda tau, x: x[:, :1], DomainError),
    (lambda tau, x: 0.1, DomainError),
], ids=["inf", "nan", "one_column", "scalar"])
def test_bad_nonlinearity_values_are_refused(fun, error):
    fam, grid, table = heat_setup(n_nodes=41)
    problem = ControlProblem(x0=np.ones(6) / 6.0, nonlinearity=fun)
    with pytest.raises(error, match="nonlinearity"):
        picard_solve(problem, table)
    with pytest.raises(error, match="nonlinearity"):
        exact_null_control_semilinear(problem, build_gramian(np.eye(6), table))


def test_problem_validation():
    # the table checks the state it is handed, the problem its own numbers
    _, _, table = heat_setup(n_nodes=11)
    gram = build_gramian(np.eye(6), table)
    for x0 in (np.zeros(5), np.zeros((2, 3)), np.zeros((1, 6))):
        for fun in (None, lambda tau, x: 0.05 * x):
            problem = ControlProblem(x0=x0, nonlinearity=fun)
            with pytest.raises(DomainError, match="x0"):
                picard_solve(problem, table)
            with pytest.raises(DomainError, match="x0"):
                exact_null_control_semilinear(problem, gram)
    with pytest.raises(DomainError, match="x_init"):
        picard_solve(ControlProblem(x0=np.zeros(6)), table,
                     x_init=np.zeros((11, 5)))
    with pytest.raises(DomainError):
        ControlProblem(x0=np.zeros(6), picard_tol=0.0)
    with pytest.raises(DomainError):
        ControlProblem(x0=np.zeros(6), max_iter=0)


# --- horizon factor ----------------------------------------------------------

def test_horizon_factor_classical():
    assert horizon_factor(1.0, 0.0, 2.5) == 2.5


def test_horizon_factor_direct_value():
    val = horizon_factor(0.75, 0.5, 1.0)
    assert val == pytest.approx((1.0 - 0.5**0.5) / 0.5, abs=1e-15)
    assert val == pytest.approx(0.5857864376269049, abs=1e-12)


def test_horizon_factor_log_limit_at_half():
    assert horizon_factor(0.5, 0.5, 1.0) == pytest.approx(np.log(2.0),
                                                          abs=1e-15)
    # within the switchover band the log form is used
    assert horizon_factor(0.5 + 1e-9, 0.5, 1.0) == pytest.approx(
        np.log(2.0), abs=1e-12)


def test_horizon_factor_divergence_and_validation():
    assert horizon_factor(0.4, 0.0, 1.0) == np.inf
    assert horizon_factor(0.5, 0.0, 1.0) == np.inf
    with pytest.raises(DomainError):
        horizon_factor(0.8, 1.0, 0.5)


# --- contraction report -------------------------------------------------------

def test_contraction_report_zero_gain_always_satisfied():
    _, _, table = heat_setup(n_nodes=201)
    gram = build_gramian(np.eye(6), table)
    report = contraction_report(gram, gamma_growth=0.0)
    assert report.lhs == 0.0
    assert report.satisfied
    assert report.gamma_growth == 0.0


def test_contraction_report_formula():
    _, grid, table = heat_setup(n_nodes=201)
    gram = build_gramian(np.eye(6), table)
    report = contraction_report(gram, gamma_growth=0.05)
    n_const = horizon_factor(0.8, float(grid.t_nodes[0]),
                             float(grid.t_nodes[-1]))
    expect = 0.05 * report.propagator_bound * n_const \
        * (report.input_norm * report.gain_norm + 1.0)
    assert report.lhs == pytest.approx(expect, rel=1e-12)
    assert report.horizon_factor == pytest.approx(n_const, rel=1e-14)
    assert report.satisfied


def test_constant_control_drive_closed_form():
    # an open-loop drive B u is passed as part of F:
    # x(tau) = e^{-lam tau} x0 + (b u / lam)(1 - e^{-lam tau})
    lam, b, u = 1.3, 0.7, 0.5
    fam = DenseMatrixFamily(lambda tau: np.array([[lam]]), 1)
    grid = TimeGrid(ORDER, 0.0, 1.0, 801)
    table = build_propagator(fam, grid)
    problem = ControlProblem(x0=np.array([1.0]),
                             nonlinearity=lambda tau, x: np.full_like(x, b * u),
                             picard_tol=1e-13)
    result = picard_solve(problem, table)
    tau = grid.tau_nodes
    exact = np.exp(-lam * tau) + (b * u / lam) * (1.0 - np.exp(-lam * tau))
    assert np.max(np.abs(result.trajectory[:, 0] - exact)) < 1e-6
