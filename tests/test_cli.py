"""Scenario files, pipelines, output formats, and exit codes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcontrol import ConfigError, parse_config
from cfcontrol.cli import main

from conftest import limit_sources

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
DEMO = CONFIG_DIR / "heat_null_control.cfg"


def read_summary(out_dir):
    entries = {}
    for line in (Path(out_dir) / "summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def write_cfg(tmp_path, name="scenario.cfg", **overrides):
    base = {
        "schema_version": "1", "alpha": "0.8", "tau_start": "0",
        "tau_end": "1", "n_nodes": "101", "backend": "spectral_heat",
        "n_modes": "4", "potential": "constant 1.0",
        "control": "identity", "nonlinearity": "zero",
        "x0": "first_mode 1.0",
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()
                            if v is not None))
    return str(path)


# --- config parsing -------------------------------------------------------

def test_parse_demo_config():
    cfg = parse_config(DEMO)
    assert cfg.alpha == 0.8
    assert cfg.n_modes == 6
    assert cfg.nonlinearity()[1] == 0.05
    family = cfg.family()
    assert family.dim == 6
    assert family.potential(0.3) == 1.0


def test_unknown_key_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schema_version = 1\nalpha = 0.8\nwhatever = 3\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_duplicate_and_malformed_lines(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("alpha = 0.5\nalpha = 0.6\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.line == 2
    path.write_text("alpha 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_required_key(tmp_path):
    path = tmp_path / "missing.cfg"
    path.write_text("schema_version = 1\nalpha = 0.8\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_schema_version_checked(tmp_path):
    cfg = write_cfg(tmp_path, schema_version="2")
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2


def test_affine_and_tabulated_potentials(tmp_path):
    cfg = parse_config(Path(write_cfg(tmp_path, potential="affine 1.0 0.5")))
    p = cfg.family().potential
    t = 0.7
    assert p(t) == pytest.approx(1.0 + 0.5 * t**0.8 / 0.8, rel=1e-12)

    table = tmp_path / "pot.csv"
    table.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    cfg = parse_config(Path(write_cfg(tmp_path, name="tab.cfg",
                                      potential=f"tabulated {table}")))
    p = cfg.family().potential
    tau_half = 0.5
    t_half = (0.8 * tau_half) ** (1.0 / 0.8)
    assert p(t_half) == pytest.approx(2.0, rel=1e-12)


# --- pipelines --------------------------------------------------------------

def test_control_pipeline_demo(tmp_path):
    out = str(tmp_path / "out")
    assert main(["control", "--config", str(DEMO), "--out", out]) == 0
    summary = read_summary(out)
    assert float(summary["final_state_norm"]) <= 1e-5
    assert float(summary["contraction_lhs"]) < 1.0
    assert int(summary["iterations"]) <= 20
    header = (Path(out) / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["tau", "t"]
    control_header = (Path(out) / "control.csv").read_text().splitlines()[0]
    assert control_header.split(",")[2] == "u0"


def test_control_pipeline_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["control", "--config", str(DEMO), "--out", out1]) == 0
    assert main(["control", "--config", str(DEMO), "--out", out2]) == 0
    for name in ("trajectory.csv", "control.csv", "summary.txt"):
        a = (Path(out1) / name).read_bytes()
        b = (Path(out2) / name).read_bytes()
        assert a == b


def test_control_csv_rows_are_plain_repr_joins(tmp_path):
    # every CSV line is the per-value repr join of its row, for the writer
    # itself and for each pipeline that writes tables
    from cfcontrol.emit import write_csv
    rng = np.random.default_rng(9)
    tau = np.array([0.0, 0.1, 1e-300, 5e-324, 1.0 / 3.0])
    t = np.array([-0.0, 2.5, 1e300, np.inf, np.nan])
    values = rng.standard_normal((5, 3)) * [1.0, 1e-17, 1e17]
    values[1, 0] = -0.0
    for part in (values, values[:, :1]):
        path = tmp_path / "table.csv"
        write_csv(path, ["tau", "t", "x"], tau, t, part)
        plain = [",".join(map(repr, row))
                 for row in np.column_stack((tau, t, part)).tolist()]
        assert path.read_text().splitlines() == ["tau,t,x"] + plain

    runs = {"control": ["control", "--config", str(DEMO)],
            "solve": ["solve", "--config", str(DEMO)],
            "evolve": ["evolve", "--config",
                       str(CONFIG_DIR / "dense_evolve.cfg"),
                       "--dump-pair", "100", "0"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == {"control": 2, "solve": 1, "evolve": 2}[name]
        for table in tables:
            lines = table.read_text().splitlines()[1:]
            assert lines
            for line in lines:
                row = [float(v) for v in line.split(",")]
                assert line == ",".join(map(repr, row))
    grid = parse_config(DEMO).grid()
    for name in ("trajectory.csv", "control.csv"):
        lines = (tmp_path / "control" / name).read_text().splitlines()[1:]
        assert len(lines) == grid.n_nodes
        for line, tau_i, t_i in zip(lines, grid.tau_nodes, grid.t_nodes):
            assert [float(v) for v in line.split(",")[:2]] == [tau_i, t_i]


def test_verify_pipeline(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["verify", "--config",
               str(CONFIG_DIR / "verify_gamma.cfg"), "--out", out])
    assert rc == 0
    summary = read_summary(out)
    assert float(summary["gamma_emp"]) >= 0.5 - 1e-6
    assert float(summary["gamma_threshold"]) == 0.5


def test_verify_refuses_the_constant_a_sample_overestimated(tmp_path, capsys):
    # 64 modes under a destabilising potential: the exact constant is
    # 0.4950168 < 0.5, where the minimum over 500 random unit vectors of
    # the former sampled check read 0.50004 and passed
    text = (CONFIG_DIR / "verify_gamma.cfg").read_text()
    cfg = tmp_path / "verify_64.cfg"
    cfg.write_text(text.replace("n_modes = 6\n", "n_modes = 64\n").replace(
        "potential = constant 1.0\n", "potential = constant -1.02\n"))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", str(cfg), "--out", out]) == 8
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR VERIFY: ")
    assert float(read_summary(out)["gamma_emp"]) == pytest.approx(0.4950168,
                                                                  abs=1e-7)


def test_over_gain_config_fails_loudly(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["control", "--config",
               str(CONFIG_DIR / "heat_over_gain.cfg"), "--out", out])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("ERROR CONVERGENCE: ")
    assert len(err.strip().splitlines()) == 1


def test_over_gain_config_converges_with_a_larger_budget(tmp_path):
    # the small-gain condition is only sufficient: the map of the shipped
    # over-gained scenario converges once it may take more than 50 sweeps
    text = (CONFIG_DIR / "heat_over_gain.cfg").read_text()
    assert "max_iter = 50\n" in text
    cfg = tmp_path / "over_gain_200.cfg"
    cfg.write_text(text.replace("max_iter = 50\n", "max_iter = 200\n"))
    out = str(tmp_path / "out")
    assert main(["control", "--config", str(cfg), "--out", out]) == 0
    summary = read_summary(out)
    assert summary["contraction_satisfied"] == "0"
    assert float(summary["contraction_lhs"]) > 1.0
    assert 50 < int(summary["iterations"]) <= 200
    assert float(summary["final_state_norm"]) <= parse_config(cfg).null_tol


def test_zero_input_map_exits_with_controllability_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, control="scalar 0")
    rc = main(["control", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 6
    assert "ERROR CONTROLLABILITY" in capsys.readouterr().err


def test_overflowing_potential_is_one_numeric_error(tmp_path, capsys):
    # finite at every node, but its tau-integral overflows
    cfg = write_cfg(tmp_path, potential="constant 1e308")
    rc = main(["control", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR NUMERIC: the tau-integral of the potential "
                   "overflows"]


def run_fresh(argv):
    """The CLI in a new interpreter, with Python's default warning filters.

    pytest captures warnings itself, so only a fresh process shows what a
    numpy ``RuntimeWarning`` adds to stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "cfcontrol.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


DENSE_41 = {"backend": "dense_matrix", "n_nodes": "41", "n_modes": None,
            "potential": None, "nonlinearity": "linear 0.05",
            "x0": "ones 1.0"}
# the demo, heat_null_control.cfg, as overrides of write_cfg
DEMO_KEYS = {"n_nodes": "401", "n_modes": "6", "nonlinearity": "linear 0.05"}


@pytest.mark.parametrize("pipeline, overrides, code", [
    # a dense family whose semigroups overflow, a diagonal one whose
    # Gramian overflows, and the demo with a potential that overflows at
    # late nodes
    ("control", {**DENSE_41, "dense_family": "coupled_3x3 1e200"}, 4),
    ("control", {**DENSE_41, "dense_family": "commuting_diagonal 1.7e308"},
     4),
    ("control", {**DEMO_KEYS, "potential": "affine 1e308 1e308"}, 4),
    # the control overflows in the scan; states of 1e200 and 1e-200 have
    # norms whose squares overflow or underflow, and the summary reads them
    # rescaled
    ("control", {"x0": "first_mode 1e308"}, 4),
    ("control", {"x0": "first_mode 1e200"}, 0),
    ("control", {"x0": "first_mode 1e-200"}, 0),
    # the spectral norm bound is exp(999)
    ("evolve", {"potential": "constant -1e3"}, 4),
    # t = (alpha tau)**(1/alpha) overflows at one or both ends
    ("evolve", {"alpha": "0.5", "tau_end": "1e308"}, 3),
    ("evolve", {"tau_start": "1e308", "tau_end": "1.5e308"}, 3),
    ("control", {"control": "scalar 1e308"}, 4),
    ("solve", {"nonlinearity": "linear 1e308"}, 5),
    ("control", {"nonlinearity": "linear 1e308"}, 5),
], ids=["dense_family_1e200", "diagonal_gramian_1.7e308",
        "affine_potential_1e308", "x0_1e308", "x0_1e200", "x0_1e-200",
        "potential_minus_1e3", "tau_end_past_t_range",
        "tau_start_past_t_range", "control_1e308", "solve_linear_1e308",
        "control_linear_1e308"])
def test_overflow_in_a_table_build_is_one_numeric_line(tmp_path, pipeline,
                                                        overrides, code):
    out = tmp_path / "out"
    proc = run_fresh([pipeline, "--config", write_cfg(tmp_path, **overrides),
                      "--out", str(out)])
    assert proc.returncode == code
    err = proc.stderr.splitlines()
    if code == 0:
        # the closed loop is linear in x0: the numbers of x0 = 1, scaled
        assert err == []
        summary = read_summary(out)
        unit = tmp_path / "unit"
        assert main([pipeline, "--out", str(unit), "--config",
                     write_cfg(tmp_path, name="unit.cfg")]) == 0
        energy = float(read_summary(unit)["control_energy"])
        scale = float(overrides["x0"].split()[1])
        assert float(summary["control_energy"]) == pytest.approx(
            scale * energy, rel=1e-12)
        assert float(summary["final_state_norm"]) <= 1e-6 * max(1.0, scale)
        return
    label = {3: "DOMAIN", 4: "NUMERIC", 5: "CONVERGENCE"}[code]
    assert len(err) == 1 and err[0].startswith(f"ERROR {label}: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if code == 4:
        assert list(out.glob("*")) == []
    if code == 3:
        assert "alpha" in err[0] and "tau" in err[0]


def test_solve_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, nonlinearity="linear 0.1")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    summary = read_summary(out)
    assert int(summary["iterations"]) >= 1
    assert float(summary["picard_residual"]) < 1e-7
    rows = (Path(out) / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 102  # header + one row per node


def test_evolve_pipeline_with_pair_dump(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["evolve", "--config",
               str(CONFIG_DIR / "dense_evolve.cfg"), "--out", out,
               "--dump-pair", "100", "0"])
    assert rc == 0
    dumped = (Path(out) / "psi_100_0.csv").read_text().splitlines()
    assert len(dumped) == 3  # header + two rows
    values = [float(v) for v in dumped[1].split(",")]
    assert all(math.isfinite(v) for v in values)


def test_evolve_final_state_decays(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", cfg, "--out", out]) == 0
    summary = read_summary(out)
    # first mode decays by e^{-(1+1)*1}
    assert float(summary["final_state_norm"]) == pytest.approx(
        np.exp(-2.0), rel=1e-9)


@pytest.mark.parametrize("overrides", [
    {"tau_end": "inf"},
    {"n_modes": "2", "x0": "values 1 nan"},
    {"potential": "tabulated absent.csv"},
    {"kernel_tol": "1e-8"},
    {"k": "2.0"},
    {"seed": "7"},
    {"trials": "50"},
], ids=["tau_end_inf", "x0_nan", "tabulated_missing", "kernel_tol_removed",
        "k_removed", "seed_removed", "trials_removed"])
def test_bad_input_is_one_config_error(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR CONFIG: line ")


@pytest.mark.parametrize("table", ["0\n1\n", "0,1\n1,nan\n",
                                   "1,3\n0.5,2\n0,1\n"],
                         ids=["one_column", "nan_value", "tau_not_increasing"])
def test_malformed_tabulated_potential_is_one_config_error(tmp_path, capsys,
                                                           table):
    path = tmp_path / "pot.csv"
    path.write_text(table)
    cfg = write_cfg(tmp_path, potential=f"tabulated {path}")
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR CONFIG: line ")


def test_dense_table_over_memory_is_one_domain_error(tmp_path, capsys,
                                                     monkeypatch):
    # the 20 doubling levels and the final row of 300000 nodes in dimension
    # 3: 0.45 GB, against 0.1 GB of physical memory made up here.  The
    # table grows as n log n, so no grid small enough for the bound on
    # the peak below has a table past a real machine's memory.  No cgroup
    # or address-space limit, so physical memory is the one named
    limit_sources(monkeypatch, tmp_path, physical=100_000_768)
    cfg = write_cfg(tmp_path, backend="dense_matrix", n_nodes="300000",
                    dense_family="coupled_3x3 0.5", x0="ones 1.0")
    tracemalloc.start()
    try:
        rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR DOMAIN: ")
    assert "physical memory" in err[0]
    assert peak < 32e6


def test_dense_table_over_cgroup_limit_is_one_domain_error(tmp_path, capsys,
                                                           monkeypatch):
    # the 14 doubling levels and the final row of 8001 nodes in dimension 3:
    # 8.6 MB against a 4 MB cgroup limit
    limit_sources(monkeypatch, tmp_path, cgroup_v2="4000000")
    cfg = write_cfg(tmp_path, backend="dense_matrix", n_nodes="8001",
                    dense_family="coupled_3x3 0.5", x0="ones 1.0")
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR DOMAIN: ")
    assert err[0].endswith("more than the 0.004 GB cgroup memory limit")


DENSE = {"backend": "dense_matrix", "dense_family": "coupled_3x3 0.5",
         "x0": "ones 1.0"}


@pytest.mark.parametrize("pipeline, overrides", [
    ("evolve", {"n_nodes": str(10**30)}),
    ("evolve", {"n_nodes": str(10**30), **DENSE}),
    ("evolve", {"n_modes": str(10**30)}),
], ids=["n_nodes", "n_nodes_dense", "n_modes"])
def test_oversized_config_value_is_one_domain_error(tmp_path, capsys,
                                                    pipeline, overrides):
    # the grid and the spectral table each check their footprint before
    # they allocate, where numpy used to raise ValueError
    cfg = write_cfg(tmp_path, **overrides)
    rc = main([pipeline, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR DOMAIN: ")
    assert "GB, more than the " in err[0]


# the CLI commands of the README, and the over-gained demo, which exits 5
SHIPPED_RUNS = {
    "control": (["control", "--config", str(DEMO)], 0),
    "verify": (["verify", "--config",
                str(CONFIG_DIR / "verify_gamma.cfg")], 0),
    "solve": (["solve", "--config", str(DEMO)], 0),
    "evolve": (["evolve", "--config", str(CONFIG_DIR / "dense_evolve.cfg"),
                "--dump-pair", "100", "0"], 0),
    "over_gain": (["control", "--config",
                   str(CONFIG_DIR / "heat_over_gain.cfg")], 5),
}


@pytest.mark.parametrize("name", list(SHIPPED_RUNS))
def test_shipped_config_reruns_byte_identical(tmp_path, name):
    argv, status = SHIPPED_RUNS[name]
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(argv + ["--out", str(out)]) == status
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "summary.txt" in outputs[0]
    assert outputs[0] == outputs[1]


def test_out_path_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["evolve", "--config", write_cfg(tmp_path), "--out", str(taken)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR CONFIG: ")


def test_failed_artifact_write_is_one_config_error(tmp_path):
    # a directory where trajectory.csv should go: the write fails
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    proc = run_fresh(["control", "--config", str(DEMO), "--out", str(out)])
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ERROR CONFIG: cannot write ")
    assert "trajectory.csv" in err[0] and "Traceback" not in proc.stderr


def test_explicit_out_overrides_the_config_out_dir(tmp_path, monkeypatch):
    # --out wins over out_dir even when it names the default "out"
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, out_dir=str(tmp_path / "from_config"))
    assert main(["evolve", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "summary.txt").exists()
    assert main(["evolve", "--config", cfg, "--out", "out"]) == 0
    assert (tmp_path / "out" / "summary.txt").exists()
    bare = write_cfg(tmp_path, name="bare.cfg")
    (tmp_path / "out" / "summary.txt").unlink()
    assert main(["evolve", "--config", bare]) == 0
    assert (tmp_path / "out" / "summary.txt").exists()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["control", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc != 0


# --- specfun ----------------------------------------------------------------

def test_specfun_gamma_normalization(capsys):
    rc = main(["specfun", "gamma", "--alpha", "0.5", "--k", "1.0",
               "--p", "1.0"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-12)


def test_specfun_beta_symmetric_point(capsys):
    rc = main(["specfun", "beta", "--alpha", "0.5", "--k", "1.0",
               "--x", "0.5", "--y", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(4.0, abs=1e-11)


def test_specfun_classical_half_integer(capsys):
    rc = main(["specfun", "gamma", "--alpha", "1.0", "--k", "1.0",
               "--p", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        math.sqrt(math.pi), abs=1e-11)


def test_specfun_domain_error_names_precondition(capsys):
    rc = main(["specfun", "gamma", "--alpha", "0.5", "--k", "1.0",
               "--p", "0.2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ERROR DOMAIN" in err
    assert "positive" in err


def test_specfun_gamma_quadrature_with_a_heavy_tail(capsys):
    # at alpha*k = 0.15 the integrand still weighs about 2 at t = 1e4; the
    # exp-sinh rule needs no cut, so it prints the reduction's value to
    # within its rounding (the 12th decimal is at 4e-15 relative here)
    argv = ["specfun", "gamma", "--alpha", "0.3", "--k", "0.5", "--p", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "254.835748953880\n"
    assert main([*argv, "--method", "quadrature"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(254.835748953880,
                                                           rel=1e-12)


def run_specfun(argv):
    """Exit status, stdout and stderr lines of one ``specfun`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["specfun", *argv])
    return rc, out.getvalue(), err.getvalue().splitlines()


def test_specfun_gamma_past_the_gamma_overflow_prints_its_value():
    # Gamma(200) overflows, (0.1)**199 * Gamma(200) = 3.94e173 does not
    argv = ["gamma", "--alpha", "1", "--k", "0.1", "--p", "20"]
    rc, out, err = run_specfun(argv)
    assert (rc, err) == (0, [])
    quad_rc, quad_out, _ = run_specfun([*argv, "--method", "quadrature"])
    assert quad_rc == 0
    assert float(out) == pytest.approx(float(quad_out), rel=1e-12)
    assert float(out) == pytest.approx(3.94328933682416e173, rel=1e-14)


def test_specfun_underflow_prints_zero():
    # X = 3e300 and the value (1.5/e)**X underflows: s**(X-1) * Gamma(X)
    # is 0 * inf, and the log form exp(-1.8e300) reads 0, as does the rule
    argv = ["gamma", "--alpha", "0.5", "--k", "1e-300", "--p", "2"]
    for method in ("reduction", "quadrature"):
        rc, out, err = run_specfun([*argv, "--method", method])
        assert (rc, out, err) == (0, "0.000000000000\n", [])


@pytest.mark.parametrize("argv, status, word", [
    (["gamma", "--alpha", "1", "--k", "1", "--p", "400"], 4, "gamma"),
    (["gamma", "--alpha", "1", "--k", "1", "--p", "400",
      "--method", "quadrature"], 4, "gamma"),
    # B(1, 1e-320) = 1e320 is past the doubles
    (["beta", "--alpha", "1", "--k", "1", "--x", "1", "--y", "1e-320"], 4,
     "beta"),
    (["gamma", "--alpha", "0.5", "--k", "nan", "--p", "2"], 3, "k "),
    (["gamma", "--alpha", "0.5", "--k", "1", "--p", "nan"], 3, "p "),
    (["beta", "--alpha", "0.5", "--k", "1", "--x", "1", "--y", "inf",
      "--method", "quadrature"], 3, "y "),
    (["gamma", "--alpha", "0.5", "--k", "1", "--p", "1e308"], 4, "gamma"),
    (["gamma", "--alpha", "0.5", "--k", "1", "--p", "1e308",
      "--method", "quadrature"], 4, "gamma"),
    (["beta", "--alpha", "0.5", "--k", "1", "--x", "1", "--y", "nan"], 3,
     "y "),
    (["beta", "--alpha", "0.5", "--k", "1", "--x", "inf", "--y", "1"], 3,
     "x "),
    (["gamma", "--alpha", "1e-200", "--k", "1e-200", "--p", "1"], 3,
     "alpha*k"),
])
def test_specfun_non_finite_input_or_value_is_one_error_line(argv, status,
                                                              word):
    # an overflowing value is NUMERIC, a non-finite argument DOMAIN
    rc, out, err = run_specfun(argv)
    assert (rc, out) == (status, "")
    code = {3: "DOMAIN", 4: "NUMERIC"}[status]
    assert len(err) == 1 and err[0].startswith(f"ERROR {code}: ")
    assert word in err[0]


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1e-300, 0.0, -0.0, 0.05,
               0.5, 1.0, 2.0, 20.0]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(function=st.sampled_from(["gamma", "beta"]),
       method=st.sampled_from(["reduction", "quadrature"]),
       values=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(allow_subnormal=True),
                                 st.floats(-5.0, 5.0)),
                       min_size=5, max_size=5))
def test_specfun_any_floats_give_a_value_or_one_error_line(function, method,
                                                           values):
    names = ("alpha", "k", "p", "x", "y")
    argv = [function, "--method", method] + [
        f"--{name}={value!r}" for name, value in zip(names, values)]
    rc, out, err = run_specfun(argv)
    assert rc in (0, 3, 4), (argv, rc, err)
    if rc == 0:
        assert err == [] and math.isfinite(float(out)), (argv, out, err)
    else:
        assert out == "" and len(err) == 1, (argv, out, err)
        assert err[0].startswith("ERROR "), (argv, err)


@pytest.mark.parametrize("method", ["reduction", "quadrature"])
def test_specfun_beta_of_two_huge_arguments_prints_zero(method):
    # B(1e308, 1e308) underflows to 0, though lgamma(1e308) overflows
    argv = ["beta", "--alpha", "1", "--k", "1", "--x", "1e308", "--y", "1e308",
            "--method", method]
    assert run_specfun(argv) == (0, "0.000000000000\n", [])


def test_fixed_point_tolerance_scales_with_the_initial_state(tmp_path):
    # the demo at x0 = first_mode 1e8 takes the sweeps of first_mode 1.0,
    # and its control energy is 1e8 times the unit run's
    summaries = {}
    for amplitude in ("1.0", "1e8"):
        path = tmp_path / f"demo_{amplitude}.cfg"
        path.write_text(DEMO.read_text().replace(
            "x0 = first_mode 1.0", f"x0 = first_mode {amplitude}"))
        out = tmp_path / amplitude
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        summaries[amplitude] = read_summary(out)
    assert summaries["1.0"]["iterations"] == "5"
    assert summaries["1e8"]["iterations"] == "5"
    assert float(summaries["1e8"]["control_energy"]) == pytest.approx(
        1e8 * float(summaries["1.0"]["control_energy"]), rel=1e-12)


def test_verify_failure_exits_with_verify_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, potential="constant -2.0", n_modes="1",
                    n_nodes="401")
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg, "--out", out])
    assert rc == 8
    assert "ERROR VERIFY" in capsys.readouterr().err
    summary = read_summary(out)
    assert float(summary["gamma_emp"]) < 0.5


def test_structured_value_errors_carry_line_numbers(tmp_path):
    cfg = write_cfg(tmp_path, potential="constant")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert info.value.line is not None


def test_diag_control_and_explicit_state(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, control="diag 1 2 0.5 1",
                                 x0="values 0.3 0 0 0.1"))
    b = cfg.control_matrix(4)
    assert np.array_equal(b, np.diag([1.0, 2.0, 0.5, 1.0]))
    assert np.array_equal(cfg.initial_state(4), [0.3, 0.0, 0.0, 0.1])


def test_named_dense_families_build(tmp_path):
    for name, dim in (("commuting_diagonal 0.4", 2),
                      ("rotation_drift 0.3", 2), ("coupled_3x3 0.2", 3)):
        cfg = parse_config(write_cfg(tmp_path, name=f"{dim}.cfg",
                                     backend="dense_matrix",
                                     dense_family=name,
                                     x0=f"ones 1.0"))
        fam = cfg.family()
        assert fam.dim == dim
        assert fam.a_matrix(0.8).shape == (dim, dim)


def test_evolve_dump_pair_out_of_range(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "out"),
               "--dump-pair", "500", "0"])
    assert rc == 3
    assert "ERROR DOMAIN" in capsys.readouterr().err


def test_dump_pairs_are_checked_before_any_work(tmp_path, capsys):
    # the first pair is valid, the second has j > i: nothing is written
    out = tmp_path / "out"
    rc = main(["evolve", "--config", write_cfg(tmp_path), "--out", str(out),
               "--dump-pair", "5", "0", "--dump-pair", "0", "5"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR DOMAIN: dump pair (0, 5) outside the grid of "
                   "101 nodes"]
    assert list(out.glob("*.csv")) == []
