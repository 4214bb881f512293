"""Scenario configuration: a small line-oriented key-value format.

A config file holds ``key = value`` lines, ``#`` comments, and blank
lines.  Values for structured keys are space-separated words, e.g.
``potential = affine 1.0 0.5``.  The schema is versioned; parse errors
carry the offending line number.  A key outside the list below, such as
the removed ``kernel_tol``, ``k``, ``seed`` or ``trials``, is an error.
The families take tau arrays.  The potentials and ``commuting_diagonal``
are defined in tau; ``rotation_drift`` and ``coupled_3x3`` vary with
``sin(t)``, t taken from tau by the order.

Recognized keys (see README for the full schema):

    schema_version   integer, must be 1
    alpha            fractional order in (0, 1]
    tau_start        window start in transformed time (>= 0)
    tau_end          window end in transformed time
    n_nodes          grid nodes (>= 2)
    backend          spectral_heat | dense_matrix
    n_modes          spectral mode count
    dense_family     named dense family + scale, e.g. "rotation_drift 0.5"
    potential        constant C | affine C0 C1 | tabulated PATH
    control          identity | scalar C | diag V1 V2 ...
    nonlinearity     zero | linear C
    x0               first_mode AMP | ones AMP | values V1 V2 ...
    picard_tol, null_tol    positive tolerances
    max_iter         iteration cap (>= 1)
    out_dir          default output directory (optional)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grids import FractionalOrder, TimeGrid
from .evolution import DenseMatrixFamily, SpectralHeatFamily

__all__ = ["ScenarioConfig", "parse_config"]

_KNOWN_KEYS = {
    "schema_version", "alpha", "tau_start", "tau_end", "n_nodes",
    "backend", "n_modes", "dense_family", "potential", "control",
    "nonlinearity", "x0", "picard_tol", "null_tol", "max_iter", "out_dir",
}

_DEFAULTS = {
    "n_modes": "6",
    "dense_family": "rotation_drift 0.5",
    "potential": "constant 1.0",
    "control": "identity",
    "nonlinearity": "zero",
    "x0": "first_mode 1.0",
    "picard_tol": "1e-9",
    "null_tol": "1e-6",
    "max_iter": "50",
}

# the numbers each kind of structured value takes; None is one per
# component (state or input)
_KINDS = {"control": {"identity": 0, "scalar": 1, "diag": None},
          "x0": {"first_mode": 1, "ones": 1, "values": None}}

_REQUIRED = ("schema_version", "alpha", "tau_start", "tau_end",
             "n_nodes", "backend")


@dataclass
class ScenarioConfig:
    """Parsed scenario parameters plus the source line of every key.

    The operator family is built once, on the first :meth:`family` call,
    which :func:`parse_config` makes when it checks the config, and kept:
    a ``tabulated`` potential file is read once per parse, and a run uses
    the rows that were checked.
    """

    alpha: float
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
    picard_tol: float
    null_tol: float
    max_iter: int
    out_dir: Optional[str] = None
    lines: dict = field(default_factory=dict, repr=False)
    _family: object = field(default=None, init=False, repr=False,
                            compare=False)

    # -- builders ---------------------------------------------------------

    def order(self) -> FractionalOrder:
        return FractionalOrder(self.alpha)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.order(), self.tau_start, self.tau_end,
                        self.n_nodes)

    def family(self):
        if self._family is None:
            self._family = SpectralHeatFamily(self._potential(), self.n_modes) \
                if self.backend == "spectral_heat" else self._dense_family()
        return self._family

    def _potential(self):
        words = self.potential_spec.split()
        kind = words[0]
        if kind == "constant":
            c = self._floats(words[1:], 1, "potential")[0]
            return lambda tau: c
        if kind == "affine":
            c0, c1 = self._floats(words[1:], 2, "potential")
            return lambda tau: c0 + c1 * tau
        if kind == "tabulated":
            if len(words) != 2:
                raise ConfigError("tabulated potential needs a file path",
                                  self.lines.get("potential"))
            try:
                # loadtxt takes a line of spaces, or of spaces and a
                # comment, for a row
                with open(words[1], encoding="utf-8") as fh:
                    rows = [line for line in fh
                            if line.split("#", 1)[0].strip()]
                with warnings.catch_warnings():
                    # a file without rows is reported below, on one line
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(rows, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"potential: cannot read {words[1]}: {exc}",
                                  self.lines.get("potential")) from exc
            if data.size == 0:
                raise ConfigError(f"potential: {words[1]} holds no rows",
                                  self.lines.get("potential"))
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
            if taus[0] > self.tau_start or taus[-1] < self.tau_end:
                # np.interp would hold the end values past the table
                raise ConfigError(
                    f"potential: the tau column of {words[1]} spans "
                    f"[{float(taus[0])!r}, {float(taus[-1])!r}], which does "
                    f"not cover the tau window [{self.tau_start!r}, "
                    f"{self.tau_end!r}]", self.lines.get("potential"))
            return lambda tau: np.interp(tau, taus, vals)
        raise ConfigError(f"unknown potential kind {kind!r}",
                          self.lines.get("potential"))

    def _dense_family(self):
        words = self.dense_family_spec.split()
        name = words[0]
        scale = self._floats(words[1:], 1, "dense_family")[0] if len(words) > 1 \
            else 0.5
        if name == "commuting_diagonal":
            base, bump = np.diag([1.0, 2.0]), np.diag([0.5, 0.25])
        elif name == "rotation_drift":
            base = np.diag([1.0, 1.4])
            bump = np.array([[0.0, 1.0], [-1.0, 0.0]])
        elif name == "coupled_3x3":
            base = np.array([[1.0, 0.2, 0.0],
                             [0.1, 1.5, 0.2],
                             [0.0, 0.1, 2.0]])
            bump = np.array([[0.0, 0.3, 0.1],
                             [-0.2, 0.0, 0.2],
                             [0.1, -0.1, 0.0]])
        else:
            raise ConfigError(f"unknown dense family {name!r}",
                              self.lines.get("dense_family"))
        order = self.order()

        def mat(tau):
            bend = tau if name == "commuting_diagonal" \
                else np.sin(order.from_tau(tau))
            return base + (scale * np.asarray(bend))[..., None, None] * bump
        return DenseMatrixFamily(mat, len(base))

    def control_matrix(self, dim: int) -> np.ndarray:
        kind, values = self._structured("control", dim)
        if kind == "diag":
            return np.diag(values)
        if kind == "scalar":
            return values[0] * np.eye(dim)
        return np.eye(dim)

    def nonlinearity(self):
        """Returns (callable or None, growth constant)."""
        words = self.nonlinearity_spec.split()
        kind = words[0]
        if kind == "zero":
            return None, 0.0
        if kind == "linear":
            c = self._floats(words[1:], 1, "nonlinearity")[0]
            return (lambda tau, x: c * x), abs(c)
        raise ConfigError(f"unknown nonlinearity kind {kind!r}",
                          self.lines.get("nonlinearity"))

    def initial_state(self, dim: int) -> np.ndarray:
        kind, values = self._structured("x0", dim)
        if kind == "values":
            return np.array(values)
        if kind == "ones":
            return values[0] * np.ones(dim)
        x = np.zeros(dim)
        x[0] = values[0]
        return x

    def _structured(self, key, dim):
        """The kind of the ``control`` or ``x0`` value and its numbers,
        checked against ``dim`` without building anything of that size."""
        kind, *words = getattr(self, f"{key}_spec").split()
        if kind not in _KINDS[key]:
            raise ConfigError(f"unknown {key} kind {kind!r}",
                              self.lines.get(key))
        count = _KINDS[key][kind]
        return kind, self._floats(words, dim if count is None else count, key)

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
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    # text mode has already turned "\r\n" and "\r" into "\n"
    for lineno, text in enumerate(content.split("\n"), start=1):
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

    def scalar(key, conv, check=None, what=""):
        return _parse_scalar(raw[key], lines.get(key), key, conv, check, what)

    version = scalar("schema_version", int)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}",
                          lines.get("schema_version"))

    backend = raw["backend"]
    if backend not in ("spectral_heat", "dense_matrix"):
        raise ConfigError(f"unknown backend {backend!r}", lines.get("backend"))

    positive = (lambda v: v > 0.0, "must be positive")
    cfg = ScenarioConfig(
        alpha=scalar("alpha", float, lambda v: 0.0 < v <= 1.0,
                     "must lie in (0, 1]"),
        tau_start=scalar("tau_start", float, lambda v: v >= 0.0,
                         "must be >= 0"),
        tau_end=scalar("tau_end", float),
        n_nodes=scalar("n_nodes", int, lambda v: v >= 2, "must be >= 2"),
        backend=backend,
        n_modes=scalar("n_modes", int, lambda v: v >= 1, "must be >= 1"),
        dense_family_spec=raw["dense_family"],
        potential_spec=raw["potential"],
        control_spec=raw["control"],
        nonlinearity_spec=raw["nonlinearity"],
        x0_spec=raw["x0"],
        picard_tol=scalar("picard_tol", float, *positive),
        null_tol=scalar("null_tol", float, *positive),
        max_iter=scalar("max_iter", int, lambda v: v >= 1, "must be >= 1"),
        out_dir=raw.get("out_dir"),
        lines=lines,
    )
    if cfg.tau_end <= cfg.tau_start:
        raise ConfigError("tau_end must exceed tau_start",
                          lines.get("tau_end"))
    # fail fast on malformed structured values
    dim = cfg.family().dim
    cfg.nonlinearity()
    cfg._structured("control", dim)
    cfg._structured("x0", dim)
    return cfg
