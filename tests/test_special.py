"""Deformed gamma/beta functions and their identity suite."""

import math

import pytest

from cfcontrol import (DomainError, SpecfunParams, beta_via_k_reduction,
                       conformable_beta, conformable_gamma,
                       gamma_limit_estimate, pochhammer)

ALPHAS = [0.3, 0.6, 0.9, 1.0]
KS = [0.5, 1.0, 2.0]


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def valid_gamma(p, params):
    return p + params.alpha - 1.0 > 0.0


# --- rising product ---------------------------------------------------------

def test_pochhammer_classical_case():
    assert pochhammer(3.0, 2, SpecfunParams(1.0, 1.0)) == 12.0


def test_pochhammer_empty_product():
    assert pochhammer(-4.7, 0, SpecfunParams(0.4, 2.0)) == 1.0


def test_pochhammer_direct_product_value():
    # (p + a - 1)(p + a - 1 + ak)(p + a - 1 + 2ak) at p=1, a=0.5, k=2
    assert pochhammer(1.0, 3, SpecfunParams(0.5, 2.0)) == \
        pytest.approx(0.5 * 1.5 * 2.5, rel=1e-14)


def test_pochhammer_negative_n_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1, SpecfunParams(0.5, 1.0))


# --- gamma ------------------------------------------------------------------

def test_gamma_normalization_point():
    # gamma(alpha*k + 1 - alpha) = 1 for every parameter pair
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            p = alpha * k + 1.0 - alpha
            assert conformable_gamma(p, params) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_gamma_classical_limit():
    assert conformable_gamma(5.0, SpecfunParams(1.0, 1.0)) == \
        pytest.approx(24.0, rel=1e-14)


def test_gamma_hand_value_cross_checked_by_quadrature():
    # (alpha k)^{X-1} Gamma(X) with X = (2 - 0.5)/0.5 = 3: 0.25 * 2 = 0.5
    params = SpecfunParams(0.5, 1.0)
    red = conformable_gamma(2.0, params, "reduction")
    qua = conformable_gamma(2.0, params, "quadrature")
    assert red == pytest.approx(0.5, rel=1e-14)
    assert rel_err(red, qua) < 1e-12


def test_gamma_methods_agree_on_grid():
    for alpha, k in [(0.5, 1.0), (0.8, 1.5), (1.0, 1.0), (0.35, 2.0)]:
        params = SpecfunParams(alpha, k)
        for p in (1.0 - alpha + 0.2, 1.5, 3.0):
            if not valid_gamma(p, params):
                continue
            red = conformable_gamma(p, params)
            qua = conformable_gamma(p, params, "quadrature")
            assert rel_err(red, qua) < 1e-12


def test_gamma_pole_raises():
    with pytest.raises(DomainError):
        conformable_gamma(0.2, SpecfunParams(0.5, 1.0))


def test_gamma_shift_recurrence():
    # gamma(p + n*alpha*k) = rising_product(p, n) * gamma(p)
    worst = 0.0
    for alpha in (0.3, 0.6, 0.9):
        for k in KS:
            params = SpecfunParams(alpha, k)
            for p in (0.5, 1.5, 2.5, 4.0):
                if not valid_gamma(p, params):
                    continue
                for n in (1, 2, 3):
                    lhs = conformable_gamma(p + n * params.scale, params)
                    rhs = pochhammer(p, n, params) * conformable_gamma(p,
                                                                       params)
                    worst = max(worst, rel_err(lhs, rhs))
    assert worst < 1e-9


def test_gamma_scaled_integral_representation():
    # prefactor a^{(p+alpha-1)/(ak)} times the integral with the stretched
    # exponential weight reproduces the function, for a in {0.5, 2}
    from scipy.integrate import quad
    for a_scale in (0.5, 2.0):
        for alpha, k in [(0.6, 1.0), (0.9, 0.5)]:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for p in (1.5, 2.5):
                X = (p + alpha - 1.0) / s

                def integrand(tau):
                    t = (alpha * tau) ** (1.0 / alpha)
                    return t ** (p - 1.0) * math.exp(-a_scale * t**s / s)

                top = 2.0
                while math.exp(-a_scale * top**s / s) * top ** max(p - 1, 0) \
                        > 1e-15:
                    top *= 1.5
                val, _ = quad(integrand, 0.0, top**alpha / alpha,
                              epsabs=1e-14, epsrel=1e-12, limit=400)
                lhs = a_scale**X * val
                assert rel_err(lhs, conformable_gamma(p, params)) < 1e-7


def test_gamma_limit_formula_oracle():
    # O(1/n) product formula: 4-5 digits at n = 1e5
    params = SpecfunParams(0.5, 1.0)
    est = gamma_limit_estimate(2.0, params, n=100_000)
    assert rel_err(est, 0.5) < 5e-4


def test_gamma_limit_consistency_sequence():
    # deviation from the classical gamma decreases monotonically along
    # (alpha, k) = (1 - 10^-j, 1 + 10^-j) and ends below 1e-6
    for p in (0.8, 1.6, 2.7):
        devs = []
        for j in range(1, 8):
            eps = 10.0 ** (-j)
            params = SpecfunParams(1.0 - eps, 1.0 + eps)
            devs.append(abs(conformable_gamma(p, params) - math.gamma(p)))
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        assert devs[-1] < 1e-6


# --- beta -------------------------------------------------------------------

def test_beta_symmetric_point_value():
    # beta(alpha*k, alpha*k) = 1 / (k * alpha^2)
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            assert conformable_beta(s, s, params) == \
                pytest.approx(1.0 / (k * alpha * alpha), rel=1e-12)


def test_beta_right_argument_value():
    # beta(p, alpha*k) = 1 / (p + alpha*k*(alpha - 1))
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for dp in (0.4, 1.3, 2.6):
                p = s * (1.0 - alpha) + dp
                assert conformable_beta(p, s, params) == pytest.approx(
                    1.0 / (p + s * (alpha - 1.0)), rel=1e-12)


def test_beta_classical_limit():
    assert conformable_beta(2.0, 3.0, SpecfunParams(1.0, 1.0)) == \
        pytest.approx(1.0 / 12.0, rel=1e-13)


def test_beta_left_normalization():
    # beta(alpha*k*(2 - alpha), q) = 1/q
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            for q in (0.5, 1.0, 2.5):
                val = conformable_beta(params.scale * (2.0 - alpha), q, params)
                assert rel_err(val, 1.0 / q) < 1e-9


def test_beta_argument_recursion():
    # beta(p, q) = (p + ak(a-2)) / (p + q + ak(a-2)) * beta(p - ak, q)
    worst = 0.0
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for dp in (0.7, 1.5, 3.0):
                p = s * (2.0 - alpha) + dp
                for q in (0.5, 1.2, 2.8):
                    lhs = conformable_beta(p, q, params)
                    rhs = (p + s * (alpha - 2.0)) \
                        / (p + q + s * (alpha - 2.0)) \
                        * conformable_beta(p - s, q, params)
                    worst = max(worst, rel_err(lhs, rhs))
    assert worst < 1e-8


def test_beta_methods_agree_on_grid():
    for alpha, k in [(0.5, 1.0), (0.8, 1.5), (1.0, 1.0), (0.35, 2.0)]:
        params = SpecfunParams(alpha, k)
        s = params.scale
        for x in (s * (1 - alpha) + 0.5, s * (1 - alpha) + 1.7):
            for y in (0.6, 1.9):
                red = conformable_beta(x, y, params)
                qua = conformable_beta(x, y, params, "quadrature")
                assert rel_err(red, qua) < 1e-12


# reduced arguments X (gamma) and x/(ak) + a - 1, y/(ak) (beta) that span
# the double-exponential rule's stated accuracy domain
WIDE_ALPHAS = [0.1, 0.3, 0.5, 0.8, 1.0]
WIDE_KS = [0.25, 0.5, 1.0, 2.0, 4.0]
WIDE_ARGS = [0.05, 0.3, 1.0, 3.0, 8.0, 20.0, 60.0]


def test_quadrature_matches_reduction_on_wide_grids():
    # 175 gamma and 1 225 beta cases; the gamma tails at small alpha*k are
    # far past t = 1e4, so this also covers tails no cut range could hold
    worst_gamma = worst_beta = 0.0
    for alpha in WIDE_ALPHAS:
        for k in WIDE_KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for a1 in WIDE_ARGS:
                p = a1 * s + 1.0 - alpha
                worst_gamma = max(worst_gamma, rel_err(
                    conformable_gamma(p, params),
                    conformable_gamma(p, params, "quadrature")))
                x = (a1 + 1.0 - alpha) * s
                for b1 in WIDE_ARGS:
                    worst_beta = max(worst_beta, rel_err(
                        conformable_beta(x, b1 * s, params),
                        conformable_beta(x, b1 * s, params, "quadrature")))
    assert worst_gamma < 1e-12
    assert worst_beta < 1e-12


def test_gamma_quadrature_holds_past_the_classical_gamma_overflow():
    # X = 100 ... 1000 at alpha*k = 0.003: Gamma(X) overflows beyond 171,
    # the deformed value stays finite and the rule stays centred on its peak
    params = SpecfunParams(1.0, 0.003)
    for X in (100.0, 300.0, 1000.0):
        p = X * params.scale
        assert rel_err(conformable_gamma(p, params),
                       conformable_gamma(p, params, "quadrature")) < 1e-12


def test_beta_reduction_routes_agree():
    # the direct classical reduction and the k-beta detour coincide
    # wherever both converge
    for alpha, k in [(0.5, 1.0), (0.8, 1.5), (0.3, 2.0), (1.0, 1.0)]:
        params = SpecfunParams(alpha, k)
        s = params.scale
        for x in (s * (1 - alpha) + 0.5, s * (1 - alpha) + 2.1):
            for y in (0.7, 2.2):
                assert rel_err(conformable_beta(x, y, params),
                               beta_via_k_reduction(x, y, params)) < 1e-12


@pytest.mark.parametrize("exponent", range(3, 18))
def test_beta_with_one_argument_dwarfing_the_other(exponent):
    # B(a, 1) = 1/a; lgamma(a) - lgamma(a + 1) cancels in every digit at
    # a = 1e17, where the reduction used to print 1 for 1e-17
    a = 10.0**exponent
    params = SpecfunParams(1.0, 1.0)
    for value in (conformable_beta(a, 1.0, params),
                  conformable_beta(1.0, a, params),
                  beta_via_k_reduction(a, 1.0, params)):
        assert rel_err(value, 1.0 / a) < 1e-13


@pytest.mark.parametrize("x, y", [(1e308, 1e308), (1e308, 1e307),
                                  (3e305, 3e305), (1e308, 2.0)])
def test_beta_of_huge_arguments_underflows_to_zero(x, y):
    # B is far below the smallest double in all four; in the first two,
    # lgamma of the smaller argument overflows (it does past about 2.5e305)
    params = SpecfunParams(1.0, 1.0)
    assert conformable_beta(x, y, params) == 0.0
    assert conformable_beta(y, x, params) == 0.0
    assert beta_via_k_reduction(x, y, params) == 0.0


def test_beta_divergent_region_raises():
    params = SpecfunParams(0.5, 1.0)
    with pytest.raises(DomainError):
        conformable_beta(0.1, 1.0, params)   # x/(ak) + a - 1 <= 0
    with pytest.raises(DomainError):
        conformable_beta(1.0, -0.2, params)  # y/(ak) <= 0


def test_beta_gamma_quotient_consistent_shift():
    # The quotient relation holds with the argument shift that matches the
    # integral definitions:
    #   beta(x + ak(1-a) + a - 1, y + a - 1)
    #     = gamma(x) gamma(y) / gamma(x + y + a - 1).
    # The commonly quoted variant without the extra (a - 1) shifts fails
    # for alpha != 1 (see the repository notes); the acceptance suite keeps
    # the quoted form visible as an expected failure.
    worst = 0.0
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for x in (1.2, 2.0, 3.5):
                for y in (1.1, 2.3):
                    u = x + s * (1.0 - alpha) + alpha - 1.0
                    v = y + alpha - 1.0
                    if u / s + alpha - 1.0 <= 0 or v <= 0:
                        continue
                    if not (valid_gamma(x, params) and valid_gamma(y, params)
                            and valid_gamma(x + y + alpha - 1.0, params)):
                        continue
                    lhs = conformable_beta(u, v, params)
                    rhs = (conformable_gamma(x, params)
                           * conformable_gamma(y, params)
                           / conformable_gamma(x + y + alpha - 1.0, params))
                    worst = max(worst, rel_err(lhs, rhs))
    assert worst < 1e-12


def test_beta_limit_consistency_sequence():
    classical = 1.0 / 12.0  # B(2, 3)
    devs = []
    for j in range(1, 8):
        eps = 10.0 ** (-j)
        params = SpecfunParams(1.0 - eps, 1.0 + eps)
        devs.append(abs(conformable_beta(2.0, 3.0, params) - classical))
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < 1e-6


def test_params_validation():
    with pytest.raises(DomainError):
        SpecfunParams(0.0, 1.0)
    with pytest.raises(DomainError):
        SpecfunParams(0.5, 0.0)
    for k in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            SpecfunParams(0.5, k)


def test_k_route_divergent_region_raises():
    with pytest.raises(DomainError):
        beta_via_k_reduction(0.05, -1.0, SpecfunParams(0.5, 1.0))


def test_limit_estimate_needs_valid_argument():
    with pytest.raises(DomainError):
        gamma_limit_estimate(0.1, SpecfunParams(0.5, 1.0), n=100)
