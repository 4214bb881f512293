"""α relabels time on families defined in τ: a metamorphic test of the chain.

Under ``tau = t**alpha / alpha`` the system is ``dx/dtau = -A x + B u + F``.
Every spectral potential and the dense ``commuting_diagonal`` family are
functions of τ, and so is every argument the chain passes them, so on one
τ grid α changes only the ``t`` column of the outputs and the paper's
small-gain constant, whose horizon factor is written in t, byte for byte.
Families of t (``coupled_3x3``) are where α acts.
"""

import numpy as np
import pytest

from cfcontrol.cli import main

ALPHAS = ("0.3", "0.5", "0.8", "1")
# tau windows: from zero, and one whose ends came back an ulp off through t
WINDOWS = (("0", "1"), ("0.5", "1.5"))
# the summary keys that carry the paper's constant, written in t
T_KEYS = {"contraction_lhs", "contraction_satisfied"}

SPECTRAL = {"backend": "spectral_heat", "n_nodes": "401", "n_modes": "6",
            "x0": "first_mode 1.0"}
DENSE = {"backend": "dense_matrix", "n_nodes": "101", "x0": "ones 1.0"}


def run(tmp_path, pipeline, alpha, keys):
    """Outputs of one run on tau in [0, 1], or the window ``keys`` gives:
    CSV cells without the t column, by file, and the summary entries
    without ``T_KEYS``."""
    lines = {"schema_version": "1", "alpha": alpha, "tau_start": "0",
             "tau_end": "1", "control": "identity",
             "nonlinearity": "linear 0.05", **keys}
    name = f"{pipeline}_{alpha}_{lines['tau_start']}"
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    out = tmp_path / name
    assert main([pipeline, "--config", str(cfg), "--out", str(out)]) == 0
    tables = {}
    for path in sorted(out.glob("*.csv")):
        rows = [row.split(",") for row in path.read_text().splitlines()]
        assert rows[0][1] == "t"
        tables[path.name] = [row[:1] + row[2:] for row in rows]
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    return tables, {k: v for k, v in summary.items() if k not in T_KEYS}


def small_gain(tmp_path, pipeline, alpha, tau_start):
    """``contraction_lhs`` as a float and ``contraction_satisfied`` as
    written by the run of ``run`` at this alpha and window start."""
    text = (tmp_path / f"{pipeline}_{alpha}_{tau_start}"
            / "summary.txt").read_text()
    summary = dict(line.split("=", 1) for line in text.splitlines())
    return float(summary["contraction_lhs"]), summary["contraction_satisfied"]


def as_floats(outputs):
    tables, summary = outputs
    return ({name: np.array(rows[1:], dtype=float)
             for name, rows in tables.items()},
            {k: float(v) for k, v in summary.items()})


@pytest.mark.parametrize("pipeline", ["control", "evolve"])
@pytest.mark.parametrize("potential", ["constant 1.0", "affine 1.0 0.7"])
def test_alpha_only_relabels_spectral_time(tmp_path, pipeline, potential):
    # every output but the t column and the paper's constant, byte for byte,
    # on every window, so the fixed point takes the same sweeps at every
    # alpha.  At t0 = 0 the constant's horizon factor int t**(2 alpha - 2) dt
    # diverges for alpha <= 1/2: its lhs reads inf there, and finite above
    # and off zero
    for start, end in WINDOWS:
        keys = {**SPECTRAL, "potential": potential, "tau_start": start,
                "tau_end": end}
        first = run(tmp_path, pipeline, ALPHAS[0], keys)
        assert first[0]
        if pipeline == "control":
            assert int(first[1]["iterations"]) > 0
        for alpha in ALPHAS:
            if alpha != ALPHAS[0]:
                assert run(tmp_path, pipeline, alpha, keys) == first
            if pipeline == "control":
                lhs, satisfied = small_gain(tmp_path, pipeline, alpha, start)
                if start != "0":
                    assert np.isfinite(lhs)
                elif float(alpha) > 0.5:
                    assert np.isfinite(lhs) and satisfied == "1"
                else:
                    assert lhs == np.inf and satisfied == "0"


@pytest.mark.parametrize("pipeline", ["control", "evolve"])
def test_alpha_only_relabels_dense_time_on_a_tau_family(tmp_path, pipeline):
    # commuting_diagonal is called with the tau of the Gauss points, so the
    # outputs agree byte for byte, as the spectral ones do.  Its slopes in
    # tau at scale 4, 2 and 1, carry the rounding of a t-to-tau round trip
    # into the rates, where a test at scale 0.5 would round it away
    for start, end in WINDOWS:
        keys = {**DENSE, "dense_family": "commuting_diagonal 4.0",
                "tau_start": start, "tau_end": end}
        first = run(tmp_path, pipeline, ALPHAS[0], keys)
        assert first[0]
        for alpha in ALPHAS[1:]:
            assert run(tmp_path, pipeline, alpha, keys) == first


@pytest.mark.parametrize("pipeline", ["control", "evolve"])
def test_alpha_acts_on_a_family_of_t(tmp_path, pipeline):
    # coupled_3x3 varies with sin(t): the same tau grid at another alpha is
    # another system, so the relabelling test above cannot pass vacuously
    keys = {**DENSE, "dense_family": "coupled_3x3 0.5"}
    tables, _ = as_floats(run(tmp_path, pipeline, "0.5", keys))
    other, _ = as_floats(run(tmp_path, pipeline, "1", keys))
    for name, want in tables.items():
        assert np.max(np.abs(other[name] - want)) \
            > 1e-6 * np.max(np.abs(want))
