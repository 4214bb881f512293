"""Output checks for every benchmark call; none needs a stored reference."""

from __future__ import annotations

import os

import numpy as np

from cfcontrol.evolution import propagate_oracle

# The trapezoid discretisation is second order: at seed the relative
# distance of the final state to the RK4 oracle is 0.005-0.010 * h**2 on
# every grid from 21 to 1001 nodes.  0.1 * h**2 leaves a tenfold margin
# for reordered arithmetic and still catches a wrong or missing resolvent
# correction, which moves the final state by about 1e-2.
ORACLE_RTOL_H2 = 0.1


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh)


def last_csv_row(path):
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        tail = fh.read().decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    return np.array([float(v) for v in tail.split(",")])


class OutputCheck:
    """Validates the artifacts of one pipeline call for one scenario."""

    def __init__(self, pipeline, config):
        self.pipeline = pipeline
        grid = config.grid()
        family = config.family()
        x0 = config.initial_state(family.dim)
        self.bound = config.null_tol * max(1.0, float(np.linalg.norm(x0)))
        self.h = grid.h
        self.oracle = None
        if pipeline == "evolve":
            self.oracle = propagate_oracle(family, config.order(),
                                           grid.t_nodes[0], grid.t_nodes[-1],
                                           x0)

    def __call__(self, status, out_dir):
        """Return ``None`` when the outputs pass, else the reason they fail."""
        if status != 0:
            return f"exit status {status}"
        if self.pipeline == "control":
            summary = read_summary(out_dir)
            final = float(summary["final_state_norm"])
            if not final <= self.bound:
                return (f"final_state_norm {final:.3e} exceeds "
                        f"{self.bound:.3e}")
            if summary.get("contraction_satisfied") != "1":
                return "contraction_satisfied is not 1"
            return None
        last = last_csv_row(os.path.join(out_dir, "trajectory.csv"))[2:]
        rel = float(np.linalg.norm(last - self.oracle)
                    / np.linalg.norm(self.oracle))
        tol = ORACLE_RTOL_H2 * self.h ** 2
        if not rel <= tol:
            return (f"final state is {rel:.3e} from the RK4 oracle "
                    f"(tolerance {tol:.3e})")
        return None
