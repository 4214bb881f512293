"""α relabels time on families defined in τ: a metamorphic test of the chain.

Under ``tau = t**alpha / alpha`` the system is ``dx/dtau = -A x + B u + F``.
Every spectral potential and the dense ``commuting_diagonal`` family are
functions of τ, so on one τ grid α changes only the ``t`` column of the
outputs and the paper's small-gain constant, whose horizon factor is
written in t.  Families of t (``coupled_3x3``) are where α acts.
"""

import numpy as np
import pytest

from cfcontrol.cli import main

ALPHAS = ("0.3", "0.5", "0.8", "1")
# the summary keys that carry the paper's constant, written in t
T_KEYS = {"contraction_lhs", "contraction_satisfied"}

SPECTRAL = {"backend": "spectral_heat", "n_nodes": "401", "n_modes": "6",
            "x0": "first_mode 1.0"}
DENSE = {"backend": "dense_matrix", "n_nodes": "101", "x0": "ones 1.0"}


def run(tmp_path, pipeline, alpha, keys):
    """Outputs of one run on tau in [0, 1]: CSV cells without the t column,
    by file, and the summary entries without ``T_KEYS``."""
    lines = {"schema_version": "1", "alpha": alpha, "tau_start": "0",
             "tau_end": "1", "control": "identity",
             "nonlinearity": "linear 0.05", **keys}
    name = f"{pipeline}_{alpha}"
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


def as_floats(outputs):
    tables, summary = outputs
    return ({name: np.array(rows[1:], dtype=float)
             for name, rows in tables.items()},
            {k: float(v) for k, v in summary.items()})


@pytest.mark.parametrize("pipeline", ["control", "evolve"])
@pytest.mark.parametrize("potential", ["constant 1.0", "affine 1.0 0.7"])
def test_alpha_only_relabels_spectral_time(tmp_path, pipeline, potential):
    # every output but the t column and the paper's constant, byte for byte
    keys = {**SPECTRAL, "potential": potential}
    first = run(tmp_path, pipeline, ALPHAS[0], keys)
    assert first[0]
    for alpha in ALPHAS[1:]:
        assert run(tmp_path, pipeline, alpha, keys) == first


@pytest.mark.parametrize("pipeline", ["control", "evolve"])
def test_alpha_only_relabels_dense_time_on_a_tau_family(tmp_path, pipeline):
    # commuting_diagonal rebuilds tau from t, so the outputs agree to
    # rounding, not byte for byte
    keys = {**DENSE, "dense_family": "commuting_diagonal 0.5"}
    tables, summary = as_floats(run(tmp_path, pipeline, ALPHAS[0], keys))
    for alpha in ALPHAS[1:]:
        got_tables, got_summary = as_floats(run(tmp_path, pipeline, alpha,
                                                keys))
        assert got_tables.keys() == tables.keys()
        for name, want in tables.items():
            assert np.max(np.abs(got_tables[name] - want)) \
                <= 1e-14 * np.max(np.abs(want))
        assert got_summary.keys() == summary.keys()
        for key, want in summary.items():
            # the keys a pipeline does not fill read nan
            assert np.isclose(got_summary[key], want, rtol=1e-14, atol=0.0,
                              equal_nan=True), key


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
