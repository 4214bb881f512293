"""Fractional orders and transformed time grids.

Everything downstream works in the transformed time ``tau = t**alpha / alpha``.
Under that substitution the weighted measure ``s**(alpha-1) ds`` becomes the
flat Lebesgue measure, so uniform grids in tau are the natural discretization
and ordinary trapezoid weights integrate the weighted integrals exactly to
second order.  A grid is given by its tau window; physical time is only the
image of its nodes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

try:
    import resource
except ImportError:  # not on every platform
    resource = None

__all__ = ["FractionalOrder", "TimeGrid", "require_memory", "safe_norm",
           "unscaled"]

_CGROUP_MEMORY_FILES = ("/sys/fs/cgroup/memory.max",
                        "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _memory_limits() -> list[tuple[int, str]]:
    """The memory limits this process can read, as ``(bytes, label)``.

    Physical memory, the soft address-space limit (``RLIMIT_AS``) and the
    cgroup limit (v2 ``memory.max``, v1 ``memory.limit_in_bytes``), each
    read only; an unlimited, ``max`` or absent value is left out.
    """
    limits = []
    try:
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "of physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append((soft, "address-space limit (RLIMIT_AS)"))
    for path in _CGROUP_MEMORY_FILES:
        try:
            with open(path, encoding="ascii") as fh:
                limits.append((int(fh.read()), "cgroup memory limit"))
        except (OSError, ValueError):  # absent, or "max"
            pass
    return limits


def require_memory(need: int, what: str) -> None:
    """Refuse ``what``, which needs ``need`` bytes, above the memory limit.

    The limit is the smallest of :func:`_memory_limits`; the caller counts
    ``need`` from its sizes before it allocates anything, so an oversized
    grid or table exits ``DOMAIN`` instead of failing in numpy.
    """
    limits = _memory_limits()
    if not limits:
        return
    have, label = min(limits, key=lambda limit: limit[0])
    if need > have:
        from decimal import Decimal  # need may lie past the float range
        raise DomainError(
            f"{what} needs about {Decimal(need) / 10**9:.3g} GB, more than "
            f"the {have / 1e9:.3g} GB {label}")


def unscaled(value: float) -> bool:
    """Whether ``value``, a norm taken as it is, is one that
    :func:`safe_norm` returns unchanged: its squares cannot have overflowed
    or underflowed."""
    return 1e-150 < value < math.inf


def safe_norm(values: np.ndarray, norm=np.linalg.norm) -> float:
    """``norm(values)``, taken over the largest magnitude and scaled back
    where the squares of finite values may overflow or underflow."""
    with np.errstate(over="ignore"):
        value = float(norm(values))
    if not unscaled(value) and np.isfinite(values).all():
        scale = float(np.max(np.abs(values))) or 1.0
        value = scale * float(norm(values / scale))
    return value


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
    """Uniform discretization of the window ``[tau_start, tau_end]`` in tau.

    The grid is its tau window: ``tau_nodes`` is ``np.linspace`` over it, so
    both ends are exactly the values given, and ``t_nodes`` is their image
    ``(alpha * tau)**(1/alpha)`` under the order.  ``tau_start`` may be
    zero: the tau-form of every integral is regular there, and
    derivative-type operations are only ever evaluated at interior nodes.
    """

    order: FractionalOrder
    tau_start: float
    tau_end: float
    n_nodes: int
    tau_nodes: np.ndarray = field(init=False, repr=False)
    t_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.tau_start < 0.0:
            raise DomainError(f"tau_start must be >= 0, got {self.tau_start}")
        if not self.tau_end > self.tau_start:
            raise DomainError("tau_end must exceed tau_start")
        if self.n_nodes < 2:
            raise DomainError("need at least two grid nodes")
        require_memory(16 * self.n_nodes, f"a grid of {self.n_nodes} nodes")
        self.tau_nodes = np.linspace(self.tau_start, self.tau_end,
                                     self.n_nodes)
        with np.errstate(over="ignore"):
            self.t_nodes = self.order.from_tau(self.tau_nodes)
        first, last = float(self.t_nodes[0]), float(self.t_nodes[-1])
        if math.isinf(last) or not last > first:
            fault = ("overflows" if math.isinf(last)
                     else f"collapses to the one point {first}")
            raise DomainError(
                f"t = (alpha*tau)**(1/alpha) {fault} on the window tau in "
                f"[{self.tau_start}, {self.tau_end}] at alpha = "
                f"{self.order.alpha}")

    @property
    def h(self):
        """Uniform spacing in tau."""
        return self.tau_span / (self.n_nodes - 1)

    @property
    def tau_span(self):
        """Length T of the tau window."""
        return self.tau_nodes[-1] - self.tau_nodes[0]

    def weights(self):
        """Trapezoid quadrature weights over the tau window."""
        w = np.full(self.n_nodes, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w
