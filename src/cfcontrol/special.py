"""Two-parameter deformations of the gamma and beta functions.

For order alpha in (0, 1] and scale k > 0 the deformed gamma is

    gamma_ak(p) = int_0^inf t**(p-1) * exp(-t**(a*k)/(a*k)) * t**(a-1) dt

which reduces by substitution to the classical gamma:

    gamma_ak(p) = (a*k)**(X - 1) * Gamma(X),     X = (p + a - 1) / (a*k).

The matching beta is

    beta_ak(x, y) = 1/(a*k) * int_0^1 t**(x/(a*k)-1) (1-t)**(y/(a*k)-1)
                    * t**(a-1) dt
                  = 1/(a*k) * B(x/(a*k) + a - 1, y/(a*k)).

The reduction forms are the production path (the classical gamma is the
precision anchor); the defining integrals are kept as quadrature
cross-checks, evaluated after the flattening substitution tau = t**a / a
with the upper limit truncated once the tail weight drops below 1e-14.
The ``quadrature`` route imports ``scipy.integrate`` on first use; the
reduction route needs only the standard library and numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SpecfunParams",
    "pochhammer",
    "conformable_gamma",
    "conformable_beta",
    "beta_via_k_reduction",
    "gamma_limit_estimate",
]

_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class SpecfunParams:
    """Order alpha in (0, 1] and scale k > 0 shared by the deformed functions."""

    alpha: float
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.k <= 0.0:
            raise DomainError(f"k must be positive, got {self.k}")

    @property
    def scale(self) -> float:
        return self.alpha * self.k


def pochhammer(p: float, n: int, params: SpecfunParams) -> float:
    """Shifted rising product prod_{j<n} (p + alpha - 1 + j*alpha*k).

    The empty product (n = 0) is 1.  At alpha = k = 1 this is the classical
    rising factorial (p)_n.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    terms = p + params.alpha - 1.0 + params.scale * np.arange(n)
    return float(np.prod(terms))


def _gamma_arg(p: float, params: SpecfunParams) -> float:
    return (p + params.alpha - 1.0) / params.scale


def _classical_beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _gamma_truncation(p: float, params: SpecfunParams) -> float:
    """Upper limit T with t**(p-1) * exp(-T**(ak)/(ak)) below the tail tolerance."""
    s = params.scale
    T = 2.0
    while T < 1e4:
        weight = math.exp(-(T**s) / s) * T ** max(p - 1.0, 0.0)
        if weight < _TAIL_TOL:
            return T
        T *= 1.5
    return T


def conformable_gamma(p: float, params: SpecfunParams,
                      method: str = "reduction") -> float:
    """Deformed gamma function of ``p``.

    ``reduction`` goes through the classical gamma; ``quadrature``
    integrates the definition in tau coordinates on a truncated range.
    Both agree to better than 1e-8 relative on the valid domain.
    """
    X = _gamma_arg(p, params)
    if X <= 0.0:
        raise DomainError(
            f"(p + alpha - 1)/(alpha*k) = {X} must be positive (gamma pole)"
        )
    if method == "reduction":
        return params.scale ** (X - 1.0) * math.gamma(X)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    from scipy.integrate import IntegrationWarning, quad

    alpha, s = params.alpha, params.scale
    T = _gamma_truncation(p, params)
    tau_top = T**alpha / alpha

    def integrand(tau):
        t = (alpha * tau) ** (1.0 / alpha)
        return t ** (p - 1.0) * math.exp(-(t**s) / s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, tau_top, epsabs=1e-14, epsrel=1e-12,
                      limit=400)
    return float(val)


def conformable_beta(x: float, y: float, params: SpecfunParams,
                     method: str = "reduction") -> float:
    """Deformed beta function of ``(x, y)``.

    Convergence needs ``x/(alpha*k) + alpha - 1 > 0`` and
    ``y/(alpha*k) > 0``; outside that region a :class:`DomainError` is
    raised.  ``quadrature`` integrates the definition in tau coordinates.
    """
    s = params.scale
    a1 = x / s + params.alpha - 1.0
    b1 = y / s
    if a1 <= 0.0 or b1 <= 0.0:
        raise DomainError(
            f"beta arguments outside the convergent region: "
            f"x/(alpha*k)+alpha-1 = {a1}, y/(alpha*k) = {b1}"
        )
    if method == "reduction":
        return _classical_beta(a1, b1) / s
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    from scipy.integrate import IntegrationWarning, quad

    alpha = params.alpha

    def integrand(tau):
        t = (alpha * tau) ** (1.0 / alpha)
        return t ** (x / s - 1.0) * (1.0 - t) ** (y / s - 1.0)

    with warnings.catch_warnings():
        # endpoint singularities push the extrapolation to its roundoff
        # floor, which is still orders beyond the documented tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, 1.0 / alpha, epsabs=1e-13,
                      epsrel=1e-12, limit=400)
    return float(val) / s


def beta_via_k_reduction(x: float, y: float, params: SpecfunParams) -> float:
    """Alternate reduction of the deformed beta through the k-beta function.

    Maps first to the one-parameter k-beta ``B_k(u, v) = B(u/k, v/k)/k`` and
    only then to the classical beta.  Algebraically identical to the direct
    reduction wherever both converge; kept as an independent code path for
    cross-checking.
    """
    alpha, k = params.alpha, params.k
    u = (x + params.scale * (alpha - 1.0)) / alpha
    v = y / alpha
    if u / k <= 0.0 or v / k <= 0.0:
        raise DomainError(
            f"k-beta arguments must be positive, got ({u / k}, {v / k})"
        )
    return _classical_beta(u / k, v / k) / (k * alpha)


def gamma_limit_estimate(p: float, params: SpecfunParams,
                         n: int = 100_000) -> float:
    """Slow product-limit estimate of the deformed gamma.

    Evaluates ``n! (alpha k)^n (n alpha k)^(X-1) / prod`` in log space,
    where ``prod`` is the shifted rising product of length ``n``.  The
    error decays like O(1/n), so this is only a test oracle; with the
    default ``n = 1e5`` expect 4-5 correct digits.
    """
    X = _gamma_arg(p, params)
    if X <= 0.0:
        raise DomainError("limit formula needs a positive gamma argument")
    s = params.scale
    terms = p + params.alpha - 1.0 + s * np.arange(n, dtype=float)
    log_val = (math.lgamma(n + 1.0) + n * math.log(s)
               + (X - 1.0) * math.log(n * s) - float(np.log(terms).sum()))
    return math.exp(log_val)
