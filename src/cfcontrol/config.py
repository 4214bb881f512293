"""Scenario configuration: a small line-oriented key-value format.

A config file holds ``key = value`` lines, ``#`` comments, and blank
lines.  Values for structured keys are space-separated words, e.g.
``potential = affine 1.0 0.5``.  The schema is versioned; parse errors
carry the offending line number.

Recognized keys (see README for the full schema):

    schema_version   integer, must be 1
    alpha            fractional order in (0, 1]
    k                specfun scale (optional, default 1.0)
    tau_start        horizon start in transformed time (>= 0)
    tau_end          horizon end in transformed time
    n_nodes          grid nodes (>= 2)
    backend          spectral_heat | dense_matrix
    n_modes          spectral mode count
    dense_family     named dense family + scale, e.g. "rotation_drift 0.5"
    potential        constant C | affine C0 C1 | tabulated PATH
    control          identity | scalar C | diag V1 V2 ...
    nonlinearity     zero | linear C
    x0               first_mode AMP | ones AMP | values V1 V2 ...
    kernel_tol, picard_tol, null_tol    positive tolerances
    max_iter         iteration cap (>= 1)
    seed             RNG seed for randomized checks
    trials           sample count for the inequality check
    out_dir          default output directory (optional)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grids import FractionalOrder, TimeGrid
from .evolution import DenseMatrixFamily, SpectralHeatFamily

__all__ = ["ScenarioConfig", "parse_config"]

_KNOWN_KEYS = {
    "schema_version", "alpha", "k", "tau_start", "tau_end", "n_nodes",
    "backend", "n_modes", "dense_family", "potential", "control",
    "nonlinearity", "x0", "kernel_tol", "picard_tol", "null_tol",
    "max_iter", "seed", "trials", "out_dir",
}

_DEFAULTS = {
    "k": "1.0",
    "n_modes": "6",
    "dense_family": "rotation_drift 0.5",
    "potential": "constant 1.0",
    "control": "identity",
    "nonlinearity": "zero",
    "x0": "first_mode 1.0",
    "kernel_tol": "1e-8",
    "picard_tol": "1e-9",
    "null_tol": "1e-6",
    "max_iter": "50",
    "seed": "0",
    "trials": "500",
}

_REQUIRED = ("schema_version", "alpha", "tau_start", "tau_end",
             "n_nodes", "backend")


@dataclass
class ScenarioConfig:
    """Parsed scenario parameters plus the source line of every key."""

    alpha: float
    k: float
    tau_start: float
    tau_end: float
    n_nodes: int
    backend: str
    n_modes: int
    dense_family_spec: str
    potential_spec: str
    control_spec: str
    nonlinearity_spec: str
    x0_spec: str
    kernel_tol: float
    picard_tol: float
    null_tol: float
    max_iter: int
    seed: int
    trials: int
    out_dir: Optional[str] = None
    lines: dict = field(default_factory=dict, repr=False)

    # -- builders ---------------------------------------------------------

    def order(self) -> FractionalOrder:
        return FractionalOrder(self.alpha)

    def grid(self) -> TimeGrid:
        return TimeGrid.from_tau_horizon(self.order(), self.tau_start,
                                         self.tau_end, self.n_nodes)

    def family(self):
        if self.backend == "spectral_heat":
            return SpectralHeatFamily(self._potential(), self.n_modes)
        return self._dense_family()

    def _potential(self):
        words = self.potential_spec.split()
        kind = words[0]
        if kind == "constant":
            c = self._floats(words[1:], 1, "potential")[0]
            return lambda t: c
        if kind == "affine":
            c0, c1 = self._floats(words[1:], 2, "potential")
            alpha = self.alpha
            return lambda t: c0 + c1 * (t**alpha / alpha)
        if kind == "tabulated":
            if len(words) != 2:
                raise ConfigError("tabulated potential needs a file path",
                                  self.lines.get("potential"))
            try:
                data = np.loadtxt(words[1], delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"potential: cannot read {words[1]}: {exc}",
                                  self.lines.get("potential")) from exc
            if data.shape[1] != 2:
                raise ConfigError(
                    f"potential: {words[1]} needs two columns tau,value, "
                    f"found {data.shape[1]}", self.lines.get("potential"))
            if not np.all(np.isfinite(data)):
                raise ConfigError(
                    f"potential: {words[1]} holds a non-finite value",
                    self.lines.get("potential"))
            taus, vals = data[:, 0], data[:, 1]
            if np.any(np.diff(taus) <= 0.0):
                raise ConfigError(
                    f"potential: the tau column of {words[1]} must be "
                    "strictly increasing", self.lines.get("potential"))
            alpha = self.alpha
            return lambda t: float(np.interp(t**alpha / alpha, taus, vals))
        raise ConfigError(f"unknown potential kind {kind!r}",
                          self.lines.get("potential"))

    def _dense_family(self):
        words = self.dense_family_spec.split()
        name = words[0]
        scale = self._floats(words[1:], 1, "dense_family")[0] if len(words) > 1 \
            else 0.5
        alpha = self.alpha
        if name == "commuting_diagonal":
            def mat(t):
                tau = t**alpha / alpha
                return np.diag([1.0 + 0.5 * scale * tau,
                                2.0 + 0.25 * scale * tau])
            return DenseMatrixFamily(mat, 2)
        if name == "rotation_drift":
            def mat(t):
                c = scale * np.sin(t)
                return np.array([[1.0, c], [-c, 1.4]])
            return DenseMatrixFamily(mat, 2)
        if name == "coupled_3x3":
            base = np.array([[1.0, 0.2, 0.0],
                             [0.1, 1.5, 0.2],
                             [0.0, 0.1, 2.0]])
            bump = np.array([[0.0, 0.3, 0.1],
                             [-0.2, 0.0, 0.2],
                             [0.1, -0.1, 0.0]])

            def mat(t):
                return base + scale * np.sin(t) * bump
            return DenseMatrixFamily(mat, 3)
        raise ConfigError(f"unknown dense family {name!r}",
                          self.lines.get("dense_family"))

    def control_matrix(self, dim: int) -> np.ndarray:
        words = self.control_spec.split()
        kind = words[0]
        if kind == "identity":
            return np.eye(dim)
        if kind == "scalar":
            c = self._floats(words[1:], 1, "control")[0]
            return c * np.eye(dim)
        if kind == "diag":
            vals = self._floats(words[1:], dim, "control")
            return np.diag(vals)
        raise ConfigError(f"unknown control kind {kind!r}",
                          self.lines.get("control"))

    def nonlinearity(self):
        """Returns (callable or None, growth constant)."""
        words = self.nonlinearity_spec.split()
        kind = words[0]
        if kind == "zero":
            return None, 0.0
        if kind == "linear":
            c = self._floats(words[1:], 1, "nonlinearity")[0]
            return (lambda t, x: c * x), abs(c)
        raise ConfigError(f"unknown nonlinearity kind {kind!r}",
                          self.lines.get("nonlinearity"))

    def initial_state(self, dim: int) -> np.ndarray:
        words = self.x0_spec.split()
        kind = words[0]
        if kind == "first_mode":
            amp = self._floats(words[1:], 1, "x0")[0]
            x = np.zeros(dim)
            x[0] = amp
            return x
        if kind == "ones":
            amp = self._floats(words[1:], 1, "x0")[0]
            return amp * np.ones(dim)
        if kind == "values":
            return np.array(self._floats(words[1:], dim, "x0"))
        raise ConfigError(f"unknown x0 kind {kind!r}", self.lines.get("x0"))

    def _floats(self, words, count, key):
        if len(words) != count:
            raise ConfigError(
                f"{key} expects {count} numeric value(s), got {len(words)}",
                self.lines.get(key))
        return [_parse_scalar(w, self.lines.get(key), key, float)
                for w in words]


def _parse_scalar(raw, line, key, conv, check=None, what=""):
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}", line) from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw}", line)
    if check is not None and not check(value):
        raise ConfigError(f"{key} {what}, got {raw}", line)
    return value


def parse_config(path) -> ScenarioConfig:
    """Parse a scenario file, reporting errors with their line numbers."""
    raw = {}
    lines = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, text in enumerate(fh, start=1):
            stripped = text.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError("expected 'key = value'", lineno)
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}", lineno)
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            if not value:
                raise ConfigError(f"{key} has no value", lineno)
            raw[key] = value
            lines[key] = lineno

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    for key, default in _DEFAULTS.items():
        raw.setdefault(key, default)

    version = _parse_scalar(raw["schema_version"], lines.get("schema_version"),
                            "schema_version", int)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}",
                          lines.get("schema_version"))

    backend = raw["backend"]
    if backend not in ("spectral_heat", "dense_matrix"):
        raise ConfigError(f"unknown backend {backend!r}", lines.get("backend"))

    cfg = ScenarioConfig(
        alpha=_parse_scalar(raw["alpha"], lines.get("alpha"), "alpha", float,
                            lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
        k=_parse_scalar(raw["k"], lines.get("k"), "k", float,
                        lambda v: v > 0.0, "must be positive"),
        tau_start=_parse_scalar(raw["tau_start"], lines.get("tau_start"),
                                "tau_start", float, lambda v: v >= 0.0,
                                "must be >= 0"),
        tau_end=_parse_scalar(raw["tau_end"], lines.get("tau_end"),
                              "tau_end", float),
        n_nodes=_parse_scalar(raw["n_nodes"], lines.get("n_nodes"),
                              "n_nodes", int, lambda v: v >= 2,
                              "must be >= 2"),
        backend=backend,
        n_modes=_parse_scalar(raw["n_modes"], lines.get("n_modes"),
                              "n_modes", int, lambda v: v >= 1,
                              "must be >= 1"),
        dense_family_spec=raw["dense_family"],
        potential_spec=raw["potential"],
        control_spec=raw["control"],
        nonlinearity_spec=raw["nonlinearity"],
        x0_spec=raw["x0"],
        kernel_tol=_parse_scalar(raw["kernel_tol"], lines.get("kernel_tol"),
                                 "kernel_tol", float, lambda v: v > 0.0,
                                 "must be positive"),
        picard_tol=_parse_scalar(raw["picard_tol"], lines.get("picard_tol"),
                                 "picard_tol", float, lambda v: v > 0.0,
                                 "must be positive"),
        null_tol=_parse_scalar(raw["null_tol"], lines.get("null_tol"),
                               "null_tol", float, lambda v: v > 0.0,
                               "must be positive"),
        max_iter=_parse_scalar(raw["max_iter"], lines.get("max_iter"),
                               "max_iter", int, lambda v: v >= 1,
                               "must be >= 1"),
        seed=_parse_scalar(raw["seed"], lines.get("seed"), "seed", int),
        trials=_parse_scalar(raw["trials"], lines.get("trials"), "trials",
                             int, lambda v: v >= 1, "must be >= 1"),
        out_dir=raw.get("out_dir"),
        lines=lines,
    )
    if cfg.tau_end <= cfg.tau_start:
        raise ConfigError("tau_end must exceed tau_start",
                          lines.get("tau_end"))
    # fail fast on malformed structured values
    cfg.family()
    cfg.nonlinearity()
    return cfg
