"""Benchmark workloads: scenario files generated from a seed.

Every workload shares the horizon, order and tolerances below.  The seed
draws only the signs of the initial state, a unit-norm ``x0 = values ...``
vector, so the work done per call does not depend on it.  ``toy`` sizes
serve the harness self-check and are never used for measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMMON = (
    "schema_version = 1",
    "alpha = 0.8",
    "tau_start = 0",
    "tau_end = 1",
    "picard_tol = 1e-9",
    "null_tol = 1e-6",
    "max_iter = 50",
)


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    dim: int
    n_nodes: int
    toy_nodes: int
    lines: tuple

    def config_text(self, seed: int, toy: bool = False) -> str:
        n_nodes = self.toy_nodes if toy else self.n_nodes
        x0 = " ".join(repr(v) for v in initial_state(self.dim, seed))
        body = COMMON + (f"n_nodes = {n_nodes}",) + self.lines \
            + (f"x0 = values {x0}",)
        return "\n".join(body) + "\n"


def initial_state(dim: int, seed: int) -> list:
    """Unit-norm vector of equal magnitudes whose signs are drawn from ``seed``.

    Only the signs vary.  On ``heat_semilinear`` every layer is diagonal in
    the modes, so a sign flip changes no magnitude and the iteration
    counts are the same for every seed.  A Gaussian direction moved the
    outer rounds from 5 to 6 on 2 of 13 seeds, 27% more work per call.
    """
    rng = random.Random(seed)
    scale = dim ** -0.5
    return [scale if rng.random() < 0.5 else -scale for _ in range(dim)]


_DENSE = ("backend = dense_matrix", "dense_family = coupled_3x3 0.5")

WORKLOADS = {w.name: w for w in (
    # Nearly all time in mild.picard_solve and the semilinear outer loop;
    # the spectral table costs about a millisecond.
    Workload("heat_semilinear", "control", 16, 1201, 41, (
        "backend = spectral_heat", "n_modes = 16", "potential = constant 1.0",
        "control = identity", "nonlinearity = linear 0.05")),
    # Nearly all time in the full (n, n, d, d) dense table build.
    Workload("dense_control", "control", 3, 161, 21,
             _DENSE + ("nonlinearity = linear 0.05",)),
    # Column-restricted dense solve over many nodes plus an n-row CSV.
    Workload("dense_window", "evolve", 3, 1001, 41, _DENSE),
)}
