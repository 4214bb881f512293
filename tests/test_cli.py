"""Scenario files, pipelines, output formats, and exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
        "x0": "first_mode 1.0", "seed": "7", "trials": "50",
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
    assert main(["control", "--config", str(DEMO), "--out", out1,
                 "--seed", "3"]) == 0
    assert main(["control", "--config", str(DEMO), "--out", out2,
                 "--seed", "3"]) == 0
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


def overflowing_configs(tmp_path):
    """A dense family whose semigroups overflow, a diagonal one whose
    Gramian overflows, and the demo with an affine potential that
    overflows at late nodes."""
    dense = {}
    for name, family in (("dense_family_1e200", "coupled_3x3 1e200"),
                         ("diagonal_gramian_1.7e308",
                          "commuting_diagonal 1.7e308")):
        dense[name] = write_cfg(tmp_path, name=f"{name}.cfg",
                                backend="dense_matrix", n_nodes="41",
                                n_modes=None, potential=None,
                                dense_family=family,
                                nonlinearity="linear 0.05", x0="ones 1.0")
    demo = tmp_path / "demo.cfg"
    demo.write_text(DEMO.read_text().replace(
        "potential = constant 1.0", "potential = affine 1e308 1e308"))
    return {**dense, "affine_potential_1e308": str(demo)}


@pytest.mark.parametrize("name", ["dense_family_1e200",
                                  "diagonal_gramian_1.7e308",
                                  "affine_potential_1e308"])
def test_overflow_in_a_table_build_is_one_numeric_line(tmp_path, name):
    cfg = overflowing_configs(tmp_path)[name]
    proc = run_fresh(["control", "--config", cfg,
                      "--out", str(tmp_path / "out")])
    assert proc.returncode == 4
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR NUMERIC: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


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
], ids=["tau_end_inf", "x0_nan", "tabulated_missing", "kernel_tol_removed",
        "k_removed"])
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
    # the row panels of S and -hK, about half of two (3 * 300000)**2
    # matrices of doubles: 6.5 TB; no cgroup or address-space limit, so
    # physical memory is the one named
    limit_sources(monkeypatch, tmp_path)
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
    # the row panels of S and -hK at 251 nodes in dimension 3, with their
    # diagonal-block inverses: 5.1 MB against a 4 MB cgroup limit
    limit_sources(monkeypatch, tmp_path, cgroup_v2="4000000")
    cfg = write_cfg(tmp_path, backend="dense_matrix", n_nodes="251",
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
    ("verify", {"trials": str(10**30)}),
], ids=["n_nodes", "n_nodes_dense", "n_modes", "trials"])
def test_oversized_config_value_is_one_domain_error(tmp_path, capsys,
                                                    pipeline, overrides):
    # the grid, the spectral table and the verify sample each check their
    # footprint before they allocate, where numpy used to raise ValueError
    cfg = write_cfg(tmp_path, **overrides)
    rc = main([pipeline, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR DOMAIN: ")
    assert "GB, more than the " in err[0]


def test_verify_sample_over_cgroup_limit_is_one_domain_error(tmp_path, capsys,
                                                             monkeypatch):
    # z and two (trials, 4) products: 19.2 MB against a 4 MB cgroup limit
    limit_sources(monkeypatch, tmp_path, cgroup_v2="4000000")
    cfg = write_cfg(tmp_path, trials="200000")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR DOMAIN: a sample of 200000 trials in dimension 4 "
                   "needs about 0.0192 GB, more than the 0.004 GB cgroup "
                   "memory limit"]


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


def test_specfun_gamma_quadrature_with_a_heavy_tail_is_one_domain_line(
        capsys):
    # at alpha*k = 0.15 the tail weight is still about 2 at the cap
    # t = 1e4, so the cut integral would read 229.43 for 254.84
    rc = main(["specfun", "gamma", "--alpha", "0.3", "--k", "0.5",
               "--p", "4", "--method", "quadrature"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR DOMAIN: ")
    assert "tail weight" in err[0] and "--method reduction" in err[0]


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
