"""Fractional orders, transformed time grids, and grid functions.

Everything downstream works in the transformed time ``tau = t**alpha / alpha``.
Under that substitution the weighted measure ``s**(alpha-1) ds`` becomes the
flat Lebesgue measure, so uniform grids in tau are the natural discretization
and ordinary trapezoid weights integrate the weighted integrals exactly to
second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["FractionalOrder", "TimeGrid", "GridFunction"]


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha in (0, 1] plus the base point of left derivatives.

    ``base_point`` is the single source of truth for the shift in the
    derivative factor ``(t - base_point)**(1 - alpha)``; the time
    substitution ``tau = t**alpha / alpha`` is always taken from zero.
    """

    alpha: float
    base_point: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.base_point < 0.0:
            raise DomainError(f"base_point must be >= 0, got {self.base_point}")

    def to_tau(self, t):
        """Map physical time to transformed time tau = t**alpha / alpha."""
        return np.asarray(t, dtype=float) ** self.alpha / self.alpha

    def from_tau(self, tau):
        """Inverse map, t = (alpha * tau)**(1/alpha)."""
        return (self.alpha * np.asarray(tau, dtype=float)) ** (1.0 / self.alpha)

    def derivative_factor(self, t):
        """The factor (t - base_point)**(1 - alpha) of the fractional derivative."""
        if t <= self.base_point:
            raise DomainError(
                f"t must exceed the base point {self.base_point}, got {t}"
            )
        return (t - self.base_point) ** (1.0 - self.alpha)


@dataclass
class TimeGrid:
    """Uniform-in-tau discretization of a time window.

    Nodes are stored both in tau (uniformly spaced) and in t.  ``t_start``
    may be zero: the tau-form of every integral is regular there, and
    derivative-type operations are only ever evaluated at interior nodes.
    """

    order: FractionalOrder
    t_start: float
    t_end: float
    n_nodes: int
    tau_nodes: np.ndarray = field(init=False, repr=False)
    t_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.t_start < 0.0:
            raise DomainError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise DomainError("t_end must exceed t_start")
        if self.n_nodes < 2:
            raise DomainError("need at least two grid nodes")
        tau0 = float(self.order.to_tau(self.t_start))
        tauf = float(self.order.to_tau(self.t_end))
        self.tau_nodes = np.linspace(tau0, tauf, self.n_nodes)
        self.t_nodes = self.order.from_tau(self.tau_nodes)
        # pin the endpoints so round-trips are exact
        self.t_nodes[0] = self.t_start
        self.t_nodes[-1] = self.t_end

    @classmethod
    def from_tau_horizon(cls, order, tau_start, tau_end, n_nodes):
        """Build a grid from a horizon given in transformed time."""
        if tau_start < 0.0:
            raise DomainError("tau_start must be >= 0")
        if tau_end <= tau_start:
            raise DomainError("tau_end must exceed tau_start")
        t0 = float(order.from_tau(tau_start))
        tf = float(order.from_tau(tau_end))
        return cls(order, t0, tf, n_nodes)

    @property
    def h(self):
        """Uniform spacing in tau."""
        return (self.tau_nodes[-1] - self.tau_nodes[0]) / (self.n_nodes - 1)

    @property
    def tau_span(self):
        return self.tau_nodes[-1] - self.tau_nodes[0]

    def weights(self):
        """Trapezoid quadrature weights over the full tau horizon."""
        w = np.full(self.n_nodes, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass
class GridFunction:
    """Vector-valued samples on a :class:`TimeGrid`, shape (n_nodes, dim)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_nodes:
            raise DomainError(
                f"values have shape {self.values.shape}, expected "
                f"({self.grid.n_nodes}, dim)"
            )

    @property
    def dim(self):
        return self.values.shape[1]

    def weighted_l2(self):
        """L2 norm in the weighted measure, i.e. flat tau quadrature."""
        w = self.grid.weights()
        return float(np.sqrt(np.sum(w * np.sum(self.values**2, axis=1))))
