"""Derivative/integral operators, their algebraic rules, and the grids."""

import numpy as np
import pytest

from cfcontrol import (DomainError, FractionalOrder, TimeGrid,
                       chain_rule_residual, conformable_derivative,
                       conformable_integral, inverse_matrix_derivative_check,
                       leibniz_check)

from conftest import make_positive_fn, make_smooth_fn


# --- grids ---------------------------------------------------------------

def test_grid_tau_spacing_uniform_and_roundtrip():
    order = FractionalOrder(0.6)
    grid = TimeGrid(order, 0.2, 2.0, 33)
    dtau = np.diff(grid.tau_nodes)
    assert np.allclose(dtau, dtau[0], rtol=1e-13)
    assert np.allclose(grid.t_nodes, order.from_tau(grid.tau_nodes),
                       rtol=1e-13, atol=1e-15)
    # strictly increasing in both coordinates
    assert np.all(np.diff(grid.t_nodes) > 0)
    back = order.to_tau(order.from_tau(grid.tau_nodes))
    assert np.allclose(back, grid.tau_nodes, rtol=1e-13)


def test_grid_nodes_end_on_its_tau_window():
    order = FractionalOrder(0.8)
    grid = TimeGrid(order, 0.0, 1.0, 11)
    assert grid.tau_nodes[0] == 0.0
    assert grid.tau_nodes[-1] == 1.0
    assert grid.t_nodes[0] == 0.0


def test_grid_is_its_tau_window_exactly_at_every_order():
    # the tau nodes are never taken through t, so no window comes back an
    # ulp off: [0, 1] at alpha = 0.1, 0.2 and 0.45 did through t**alpha/alpha
    missed = []
    for alpha in np.round(np.arange(0.10, 1.0001, 0.05), 2):
        order = FractionalOrder(float(alpha))
        for start in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
            for end in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
                if end <= start:
                    continue
                grid = TimeGrid(order, start, end, 101)
                if not (grid.tau_nodes[0] == start
                        and grid.tau_nodes[-1] == end
                        and grid.h == (end - start) / 100):
                    missed.append((float(alpha), start, end))
    assert missed == []


def test_grid_validation():
    order = FractionalOrder(0.5)
    with pytest.raises(DomainError):
        TimeGrid(order, -0.1, 1.0, 5)
    with pytest.raises(DomainError):
        TimeGrid(order, 1.0, 0.5, 5)
    with pytest.raises(DomainError):
        TimeGrid(order, 0.5, 1.0, 1)
    with pytest.raises(DomainError):
        FractionalOrder(1.2)
    with pytest.raises(DomainError):
        FractionalOrder(0.5, base_point=-1.0)


# --- derivative ----------------------------------------------------------

@pytest.mark.parametrize("method", ["factor_rule", "limit_def"])
def test_derivative_of_constant_is_zero(method):
    order = FractionalOrder(0.5)
    assert conformable_derivative(lambda t: 7.5, order, 2.0, method) == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("method", ["factor_rule", "limit_def"])
def test_derivative_of_power_profile_is_one(alpha, method):
    # the function t -> (t - a)**alpha / alpha has derivative one everywhere
    for base in (0.0, 0.4):
        order = FractionalOrder(alpha, base_point=base)
        fn = lambda t: (t - base) ** alpha / alpha
        val = conformable_derivative(fn, order, 1.0 + base, method)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_derivative_square_at_half_order():
    # frozen from the limit-quotient oracle with Richardson extrapolation:
    # for f(t) = t^2 both routes give 2 * t^1.5, i.e. 2 at t = 1
    order = FractionalOrder(0.5)
    fr = conformable_derivative(lambda t: t * t, order, 1.0, "factor_rule")
    ld = conformable_derivative(lambda t: t * t, order, 1.0, "limit_def")
    assert fr == pytest.approx(2.0, abs=1e-9)
    assert ld == pytest.approx(2.0, abs=1e-9)
    assert fr == pytest.approx(ld, abs=1e-8)


def test_derivative_domain_and_numeric_errors():
    order = FractionalOrder(0.5, base_point=1.0)
    with pytest.raises(DomainError):
        conformable_derivative(lambda t: t, order, 0.5)
    with pytest.raises(ValueError):
        conformable_derivative(lambda t: t, order, 2.0, method="bogus")


def test_linearity(rng):
    for _ in range(20):
        f1, f2 = make_smooth_fn(rng), make_smooth_fn(rng)
        c, d = rng.uniform(-2, 2, 2)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        lhs = conformable_derivative(lambda u: c * f1(u) + d * f2(u), order, t)
        rhs = (c * conformable_derivative(f1, order, t)
               + d * conformable_derivative(f2, order, t))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_product_and_quotient_rules(rng):
    for _ in range(20):
        f1 = make_smooth_fn(rng)
        f2 = make_positive_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        d1 = conformable_derivative(f1, order, t)
        d2 = conformable_derivative(f2, order, t)
        prod = conformable_derivative(lambda u: f1(u) * f2(u), order, t)
        assert abs(prod - (f1(t) * d2 + f2(t) * d1)) < 1e-6
        quot = conformable_derivative(lambda u: f1(u) / f2(u), order, t)
        expect = (f2(t) * d1 - f1(t) * d2) / f2(t) ** 2
        assert abs(quot - expect) < 1e-6


def test_classical_limit_matches_central_difference(rng):
    # at order one both routes must agree with a plain central difference
    for _ in range(10):
        fn = make_smooth_fn(rng)
        t = rng.uniform(0.5, 3.0)
        h = 1e-6 * t
        classical = (fn(t + h) - fn(t - h)) / (2 * h)
        order = FractionalOrder(1.0)
        assert conformable_derivative(fn, order, t) == pytest.approx(
            classical, abs=1e-8)
        assert conformable_derivative(fn, order, t, "limit_def") == \
            pytest.approx(classical, abs=1e-8)


def test_chain_rule(rng):
    for _ in range(15):
        f = make_smooth_fn(rng)
        g = make_positive_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        assert chain_rule_residual(f, g, order, t) < 1e-6


# --- integral ------------------------------------------------------------

def test_integral_of_one_is_power_profile():
    order = FractionalOrder(0.5)
    val = conformable_integral(lambda x: 1.0, order, 0.0, 1.0, 200)
    assert val == pytest.approx(2.0, abs=1e-12)  # 1/alpha


def test_integral_classical_limit():
    order = FractionalOrder(1.0)
    val = conformable_integral(lambda x: 1.0, order, 0.0, 3.0, 64)
    assert val == pytest.approx(3.0, abs=1e-12)


def test_integral_weight_cancellation():
    # f(x) = x^(1-alpha) cancels the weight; the exact value is b - a = 2.
    # In tau coordinates the integrand has a fractional-power corner at
    # zero, so convergence is subquadratic; budget panels accordingly.
    order = FractionalOrder(0.7)
    val = conformable_integral(lambda x: x**0.3, order, 0.0, 2.0, 5000)
    assert val == pytest.approx(2.0, abs=1e-5)


def test_integral_validation():
    order = FractionalOrder(0.5)
    with pytest.raises(DomainError):
        conformable_integral(lambda x: 1.0, order, -0.1, 1.0)
    with pytest.raises(DomainError):
        conformable_integral(lambda x: 1.0, order, 1.0, 0.5)
    with pytest.raises(DomainError):
        conformable_integral(lambda x: 1.0, order, 0.0, 1.0, n_panels=0)
    with pytest.raises(DomainError):
        conformable_integral(lambda x: 1.0, order, 0.0, 1.0, 3, "simpson")


def test_integral_second_order_convergence():
    order = FractionalOrder(0.7)
    fn = lambda x: np.exp(x) * np.sin(x)
    ref = conformable_integral(fn, order, 0.5, 2.0, 4096, "simpson")
    e1 = abs(conformable_integral(fn, order, 0.5, 2.0, 64) - ref)
    e2 = abs(conformable_integral(fn, order, 0.5, 2.0, 128) - ref)
    assert 3.0 < e1 / e2 < 5.0


def test_simpson_beats_trapezoid():
    order = FractionalOrder(0.8)
    fn = lambda x: np.cos(2 * x)
    ref = conformable_integral(fn, order, 0.3, 1.7, 8192, "simpson")
    et = abs(conformable_integral(fn, order, 0.3, 1.7, 128) - ref)
    es = abs(conformable_integral(fn, order, 0.3, 1.7, 128, "simpson") - ref)
    assert es < et / 50


def test_derivative_recovers_integrand(rng):
    # differentiating the running integral returns the integrand
    for alpha in (0.4, 0.7, 1.0):
        order = FractionalOrder(alpha)
        fn = make_smooth_fn(rng)
        t = rng.uniform(1.0, 2.5)
        running = lambda u: conformable_integral(fn, order, 0.3, u, 512,
                                                 "simpson")
        val = conformable_derivative(running, order, t)
        assert abs(val - fn(t)) < 1e-6


# --- differentiation under the integral sign ------------------------------

def test_leibniz_fundamental_theorem_case():
    order = FractionalOrder(1.0)
    resid = leibniz_check(lambda t, s: 1.0, lambda t: 0.0, lambda t: t,
                          order, 1.3)
    assert resid < 1e-8


def test_leibniz_fixed_limits_half_order():
    order = FractionalOrder(0.5)
    resid = leibniz_check(lambda t, s: t * s, lambda t: 1.0, lambda t: 2.0,
                          order, 1.7)
    assert resid < 1e-6


def test_leibniz_moving_limit():
    order = FractionalOrder(0.7)
    resid = leibniz_check(lambda t, s: np.exp(-s), lambda t: 0.0,
                          lambda t: t, order, 1.0)
    assert resid < 1e-6


def test_leibniz_randomized(rng):
    for _ in range(12):
        c = rng.uniform(-1, 1, 3)
        h2 = lambda t, s: c[0] + c[1] * t * s + c[2] * np.exp(-0.5 * s)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        lo, hi = sorted(rng.uniform(0.2, 2.5, 2))
        if hi - lo < 0.3:
            hi = lo + 0.3
        t = rng.uniform(0.6, 2.5)
        resid = leibniz_check(h2, lambda u, lo=lo: lo, lambda u, hi=hi: hi,
                              order, t)
        assert resid < 1e-6


def test_leibniz_moving_limits_classical_order(rng):
    for _ in range(6):
        c = rng.uniform(-1, 1, 2)
        h2 = lambda t, s: c[0] * np.cos(s) + c[1] * t
        t = rng.uniform(0.8, 2.0)
        resid = leibniz_check(h2, lambda u: 0.2 * u, lambda u: 1.0 + u,
                              FractionalOrder(1.0), t)
        assert resid < 1e-6


# --- inverse-matrix rule ---------------------------------------------------

def test_inverse_rule_constant_matrix():
    order = FractionalOrder(0.5)
    assert inverse_matrix_derivative_check(lambda t: np.eye(2), order,
                                           1.0) == 0.0


def test_inverse_rule_diagonal_closed_form():
    order = FractionalOrder(0.5)
    resid = inverse_matrix_derivative_check(lambda t: np.diag([t, 1.0]),
                                            order, 1.0)
    assert resid < 1e-6


def test_inverse_rule_random_polynomial_family(rng):
    base = np.eye(3) * 2.0
    bump = rng.standard_normal((3, 3)) * 0.2
    fn = lambda t: base + t * bump + 0.1 * t * t * np.eye(3)
    resid = inverse_matrix_derivative_check(fn, FractionalOrder(0.8), 2.0)
    assert resid < 1e-5


def test_inverse_rule_singular_matrix_raises():
    from cfcontrol import NumericError
    fn = lambda t: np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericError):
        inverse_matrix_derivative_check(fn, FractionalOrder(0.5), 1.0)
