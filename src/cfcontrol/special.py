"""Two-parameter deformations of the gamma and beta functions.

For order alpha in (0, 1] and scale k > 0 the deformed gamma and beta are

    gamma_ak(p) = int_0^inf t**(p-1) * exp(-t**(a*k)/(a*k)) * t**(a-1) dt
                = (a*k)**(X - 1) * Gamma(X),      X = (p + a - 1) / (a*k),

    beta_ak(x, y) = 1/(a*k) * int_0^1 t**(x/(a*k)-1) (1-t)**(y/(a*k)-1)
                    * t**(a-1) dt
                  = 1/(a*k) * B(x/(a*k) + a - 1, y/(a*k)).

The reductions are the production path.  The ``quadrature`` route sums
the defining integrands literally, in log space and never through X, by
one double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974; Mori &
Sugihara, J. Comput. Appl. Math. 127, 2001): the trapezoid rule with step
1/64 on the 897 nodes |v| <= 7.  Gamma is exp-sinh in u = t**(a*k)/(a*k)
= c exp(pi/2 sinh v), whose tail is exp(-u) for every alpha and k; a
first pass at c = 1 sets c to the u of its largest term (the peak).
Beta is tanh-sinh in t = (1 + tanh w)/2, w = pi/2 sinh v, with log t and
log(1 - t) from ``logaddexp``: neither 1 - t nor cosh(w)**2 underflows.
The routes agree to 1e-12 relative for 0.05 <= X <= 1000 and for beta
arguments x/(a*k) + a - 1 and y/(a*k) in [0.05, 600]; below 0.05 the
rule's cut ends cost digits (3e-5 at X = 0.01).  The module needs numpy
only.  A non-finite argument is a DomainError, a value outside the
double range a NumericError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "SpecfunParams",
    "pochhammer",
    "conformable_gamma",
    "conformable_beta",
    "beta_via_k_reduction",
    "gamma_limit_estimate",
]

_STEP = 1.0 / 64.0     # the rule's step; its nodes are v = j/64, |j| <= 448


@functools.cache
def _rule():
    """w, log dw/dv, log t, log(1 - t) and log dt/dv, built on first use."""
    v = _STEP * np.arange(-448, 449)
    w = 0.5 * np.pi * np.sinh(v)
    log_dw = np.log(0.5 * np.pi * np.cosh(v))
    log_t, log_1mt = -np.logaddexp(0.0, -2.0 * w), -np.logaddexp(0.0, 2.0 * w)
    return w, log_dw, log_t, log_1mt, math.log(2.0) + log_t + log_1mt + log_dw


@dataclass(frozen=True)
class SpecfunParams:
    """Order alpha in (0, 1] and scale k > 0 shared by the deformed functions."""

    alpha: float
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.k < math.inf or self.scale == 0.0:
            raise DomainError(f"k must be positive and finite, with alpha*k "
                              f"> 0, got k = {self.k}")

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


def _finite(value: float, what: str, error=NumericError) -> float:
    if not math.isfinite(value):
        raise error(f"{what} is {value}, not a finite double")
    return value


def _classical_beta(a: float, b: float) -> float:
    """B(a, b); past 20, lgamma(a) - lgamma(a + b) of the larger argument
    a is Stirling's series, which does not cancel as the difference does."""
    a, b = max(a, b), min(a, b)
    try:
        if a < 20.0:
            return math.exp(math.lgamma(a) + math.lgamma(b)
                            - math.lgamma(a + b))
        c = a + b
        return math.exp(math.lgamma(b) + b - (a - 0.5) * math.log1p(b / a)
                        - b * math.log(c) + _stirling_tail(a)
                        - _stirling_tail(c))
    except OverflowError:
        return math.inf


def _stirling_tail(z: float) -> float:
    """``lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2`` to 2e-15, z >= 20."""
    w2 = 1.0 / (z * z)
    return (1 / 12 - w2 * (1 / 360 - w2 * (1 / 1260 - w2 / 1680))) / z


def _reduced_gamma(X: float, s: float) -> float:
    """s**(X - 1) * Gamma(X); through lgamma where that leaves (0, inf)."""
    try:
        value = s ** (X - 1.0) * math.gamma(X)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        try:
            value = math.exp((X - 1.0) * math.log(s) + math.lgamma(X))
        except OverflowError:
            value = math.inf
    return value


def conformable_gamma(p: float, params: SpecfunParams,
                      method: str = "reduction") -> float:
    """Deformed gamma function of ``p``.

    ``reduction`` is ``(a*k)**(X - 1) * Gamma(X)``, through ``lgamma`` where
    that leaves (0, inf); ``quadrature`` is the module's exp-sinh rule.
    """
    _finite(p, "p", DomainError)
    X = _gamma_arg(p, params)
    if X <= 0.0:
        raise DomainError(f"(p + alpha - 1)/(alpha*k) = {X} must be "
                          "positive (gamma pole)")
    if method == "reduction":
        return _finite(_reduced_gamma(X, params.scale), f"gamma_ak({p})")
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    alpha, s = params.alpha, params.scale
    w, log_dw = _rule()[:2]

    def log_terms(log_u):  # the integrand times du/dv, with dt/du = t/(s u)
        log_su = math.log(s) + log_u
        log_t = log_su / s
        return ((p - 1.0) * log_t - np.exp(log_u) + (alpha - 1.0) * log_t
                + (log_t - log_su) + (log_u + log_dw))

    with np.errstate(all="ignore"):
        log_c = w[np.argmax(log_terms(w))]
        total = np.exp(log_terms(log_c + w)).sum()
    return _finite(_STEP * float(total), f"quadrature gamma_ak({p})")


def conformable_beta(x: float, y: float, params: SpecfunParams,
                     method: str = "reduction") -> float:
    """Deformed beta function of ``(x, y)``.

    Convergence needs ``x/(alpha*k) + alpha - 1 > 0`` and
    ``y/(alpha*k) > 0``; outside that region a :class:`DomainError` is
    raised.  ``quadrature`` is the module's tanh-sinh rule.
    """
    _finite(x, "x", DomainError)
    _finite(y, "y", DomainError)
    s = params.scale
    a1 = x / s + params.alpha - 1.0
    b1 = y / s
    if a1 <= 0.0 or b1 <= 0.0:
        raise DomainError(f"beta arguments outside the convergent region: "
                          f"x/(alpha*k)+alpha-1 = {a1}, y/(alpha*k) = {b1}")
    if method == "reduction":
        return _finite(_classical_beta(a1, b1) / s, f"beta_ak({x}, {y})")
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    log_t, log_1mt, log_dt = _rule()[2:]
    with np.errstate(all="ignore"):
        total = np.exp((x / s - 1.0) * log_t + (y / s - 1.0) * log_1mt
                       + (params.alpha - 1.0) * log_t + log_dt).sum()
    return _finite(_STEP * float(total) / s, f"quadrature beta_ak({x}, {y})")


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
    return _finite(_classical_beta(u / k, v / k) / (k * alpha),
                   f"beta_ak({x}, {y})")


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
