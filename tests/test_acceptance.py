"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output).  Criterion 1 is split: the bulk
of the special-function identity suite passes, while the beta-gamma
quotient relation in its commonly quoted form is inconsistent with the
integral definitions for alpha != 1 and is kept as a deliberate, documented
failure (the corrected shift is verified in tests/test_special.py).
"""

import math
import time
from pathlib import Path

import numpy as np

from cfcontrol import (ControlProblem, DenseMatrixFamily, FractionalOrder,
                       SpecfunParams, SpectralHeatFamily, TimeGrid,
                       adjoint_residual, build_gramian, build_kernel,
                       build_propagator, chain_rule_residual,
                       conformable_beta, conformable_derivative,
                       conformable_gamma, conformable_residual,
                       contraction_report, horizon_factor,
                       inverse_matrix_derivative_check, kernel_residual,
                       kernel_space_perturbation, leibniz_check,
                       picard_solve, pochhammer, propagate_oracle,
                       synthesize_null_control, verify_null_inequality)
from cfcontrol.cli import main

from conftest import (kernel_equation_residual, kernel_series,
                      make_dense_family, make_positive_fn, make_smooth_fn,
                      materialise_resolvent)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {tag}{suffix}")
    return ok


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# 1. special-function identity suite
# --------------------------------------------------------------------------

ALPHAS = [0.3, 0.45, 0.6, 0.75, 0.9, 1.0]
KS = [0.5, 1.0, 1.6, 2.2]


def test_criterion_01_specfun_identity_suite():
    t0 = time.perf_counter()
    checks = []  # (identity, rel_error)

    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale

            # shift recurrence via the rising product
            for p in (0.5, 1.5, 2.5, 4.0):
                if p + alpha - 1.0 <= 0.0:
                    continue
                gp = conformable_gamma(p, params)
                for n in (1, 2, 3):
                    lhs = conformable_gamma(p + n * s, params)
                    checks.append(("shift-recurrence",
                                   rel_err(lhs, pochhammer(p, n, params) * gp)))

            # normalization point
            checks.append(("normalization",
                           abs(conformable_gamma(s + 1.0 - alpha, params)
                               - 1.0)))

            # right-argument beta value
            for dp in (0.4, 1.6):
                p = s * (1.0 - alpha) + dp
                checks.append(("beta-right-arg",
                               rel_err(conformable_beta(p, s, params),
                                       1.0 / (p + s * (alpha - 1.0)))))

            # left normalization
            for q in (0.5, 1.7):
                checks.append(("beta-left-norm",
                               rel_err(conformable_beta(s * (2.0 - alpha), q,
                                                        params), 1.0 / q)))

            # symmetric point
            checks.append(("beta-symmetric",
                           rel_err(conformable_beta(s, s, params),
                                   1.0 / (k * alpha * alpha))))

            # argument recursion
            for dp in (0.8, 2.2):
                p = s * (2.0 - alpha) + dp
                for q in (0.6, 1.9):
                    lhs = conformable_beta(p, q, params)
                    rhs = (p + s * (alpha - 2.0)) \
                        / (p + q + s * (alpha - 2.0)) \
                        * conformable_beta(p - s, q, params)
                    checks.append(("beta-recursion", rel_err(lhs, rhs)))

    # scaled-integral representation (quadrature-backed, smaller grid)
    from scipy.integrate import quad
    for a_scale in (0.5, 2.0):
        for alpha, k in [(0.6, 1.0), (0.9, 2.2)]:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for p in (1.5, 2.5):
                X = (p + alpha - 1.0) / s

                def integrand(tau):
                    t = (alpha * tau) ** (1.0 / alpha)
                    return t ** (p - 1.0) * math.exp(-a_scale * t**s / s)

                top = 2.0
                while math.exp(-a_scale * top**s / s) \
                        * top ** max(p - 1.0, 0.0) > 1e-15:
                    top *= 1.5
                val, _ = quad(integrand, 0.0, top**alpha / alpha,
                              epsabs=1e-14, epsrel=1e-12, limit=400)
                checks.append(("scaled-integral",
                               rel_err(a_scale**X * val,
                                       conformable_gamma(p, params))))

    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in checks)
    n_tuples = len(checks)
    ok = worst <= 1e-8 and n_tuples >= 200 and elapsed < 5.0
    report(1, "specfun-identity-suite", ok,
           f"{n_tuples} tuples, worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert n_tuples >= 200
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_01_beta_gamma_quotient_as_documented():
    """Deliberate failure: the quoted quotient relation is inconsistent.

    In the form ``beta(x + ak(1-a), y) = gamma(x) gamma(y) /
    gamma(x + y + 1 - a)`` the relation contradicts the integral
    definitions whenever alpha != 1 (both sides reduce to classical
    expressions whose arguments differ by (alpha - 1)/(alpha k) shifts).
    The corrected shift passes at machine precision, see
    tests/test_special.py::test_beta_gamma_quotient_consistent_shift and
    the repository notes.  This check is kept as stated and is expected
    to fail; do not "fix" it by loosening the tolerance.
    """
    worst = 0.0
    worst_at = None
    for alpha in ALPHAS:
        for k in KS:
            params = SpecfunParams(alpha, k)
            s = params.scale
            for x in (1.2, 2.4):
                for y in (1.3, 2.1):
                    args_ok = (x + alpha - 1.0 > 0 and y + alpha - 1.0 > 0
                               and x + y > 0)
                    u = x + s * (1.0 - alpha)
                    if not args_ok or u / s + alpha - 1.0 <= 0:
                        continue
                    lhs = conformable_beta(u, y, params)
                    rhs = (conformable_gamma(x, params)
                           * conformable_gamma(y, params)
                           / conformable_gamma(x + y + 1.0 - alpha, params))
                    err = rel_err(lhs, rhs)
                    if err > worst:
                        worst, worst_at = err, (alpha, k, x, y)
    ok = worst <= 1e-8
    report(1, "beta-gamma-quotient-as-documented", ok,
           f"worst rel err {worst:.2e} at (alpha,k,x,y)={worst_at}; "
           "inconsistent form, expected to fail")
    assert worst <= 1e-8, (
        "the quoted quotient relation fails for alpha != 1 "
        f"(worst rel err {worst:.3e} at {worst_at}); the corrected "
        "argument shift is verified in tests/test_special.py")


# --------------------------------------------------------------------------
# 2. calculus rules on randomized smooth inputs
# --------------------------------------------------------------------------

def test_criterion_02_calculus_rules():
    t0 = time.perf_counter()
    rng = np.random.default_rng(902)
    cases = 0
    worst = 0.0

    def push(resid):
        nonlocal cases, worst
        cases += 1
        worst = max(worst, resid)

    for _ in range(15):  # linearity
        f1, f2 = make_smooth_fn(rng), make_smooth_fn(rng)
        c, d = rng.uniform(-2, 2, 2)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        lhs = conformable_derivative(lambda u: c * f1(u) + d * f2(u),
                                     order, t)
        rhs = c * conformable_derivative(f1, order, t) \
            + d * conformable_derivative(f2, order, t)
        push(abs(lhs - rhs))

    for _ in range(10):  # constants
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        push(abs(conformable_derivative(lambda u: 4.2, order,
                                        rng.uniform(0.5, 3.0))))

    for _ in range(15):  # product rule
        f1, f2 = make_smooth_fn(rng), make_positive_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        lhs = conformable_derivative(lambda u: f1(u) * f2(u), order, t)
        rhs = f1(t) * conformable_derivative(f2, order, t) \
            + f2(t) * conformable_derivative(f1, order, t)
        push(abs(lhs - rhs))

    for _ in range(15):  # quotient rule
        f1, f2 = make_smooth_fn(rng), make_positive_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        lhs = conformable_derivative(lambda u: f1(u) / f2(u), order, t)
        rhs = (f2(t) * conformable_derivative(f1, order, t)
               - f1(t) * conformable_derivative(f2, order, t)) / f2(t) ** 2
        push(abs(lhs - rhs))

    for _ in range(15):  # factor rule vs limit definition
        fn = make_smooth_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        t = rng.uniform(0.5, 3.0)
        push(abs(conformable_derivative(fn, order, t, "factor_rule")
                 - conformable_derivative(fn, order, t, "limit_def")))

    for _ in range(10):  # derivative of the power profile is one
        alpha = rng.uniform(0.3, 1.0)
        base = rng.uniform(0.0, 0.5)
        order = FractionalOrder(alpha, base_point=base)
        t = rng.uniform(0.8, 3.0) + base
        push(abs(conformable_derivative(
            lambda u: (u - base) ** alpha / alpha, order, t) - 1.0))

    for _ in range(15):  # chain rule
        f, g = make_smooth_fn(rng), make_positive_fn(rng)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        push(chain_rule_residual(f, g, order, rng.uniform(0.5, 3.0)))

    for _ in range(15):  # differentiation under the integral sign
        c = rng.uniform(-1, 1, 3)
        h2 = lambda t, s: c[0] + c[1] * t * s + c[2] * np.exp(-0.5 * s)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        lo, hi = sorted(rng.uniform(0.2, 2.5, 2))
        if hi - lo < 0.3:
            hi = lo + 0.3
        push(leibniz_check(h2, lambda u, lo=lo: lo, lambda u, hi=hi: hi,
                           order, rng.uniform(0.6, 2.5)))

    for _ in range(10):  # inverse-matrix rule, well-conditioned families
        bump = rng.standard_normal((3, 3)) * 0.15
        fn = lambda t, bump=bump: np.eye(3) * 2.0 + t * bump \
            + 0.05 * t * t * np.eye(3)
        order = FractionalOrder(rng.uniform(0.3, 1.0))
        push(inverse_matrix_derivative_check(fn, order,
                                             rng.uniform(0.7, 2.5)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and cases >= 100 and elapsed < 10.0
    report(2, "calculus-rules", ok,
           f"{cases} cases, worst residual {worst:.2e}, {elapsed:.2f}s")
    assert cases >= 100
    assert worst <= 1e-6
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 3. dense backend vs substituted-ODE oracle
# --------------------------------------------------------------------------

def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    coarse_errs, ratios = [], []
    for idx in range(25):
        dim = 2 + idx % 5
        alpha = (0.5, 0.75, 1.0)[idx % 3]
        order = FractionalOrder(alpha)
        rng = np.random.default_rng(1000 + idx)
        fam = make_dense_family(rng, dim)
        grid_c = TimeGrid(order, 0.4, 1.4, 201)
        grid_f = TimeGrid(order, 0.4, 1.4, 401)
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        ref = propagate_oracle(fam, order, *grid_c.t_nodes[[0, -1]], x,
                               steps=1500)
        got_c = build_propagator(fam, grid_c).matrix(200, 0) @ x
        got_f = build_propagator(fam, grid_f).matrix(400, 0) @ x
        e_c = np.linalg.norm(got_c - ref) / np.linalg.norm(ref)
        e_f = np.linalg.norm(got_f - ref) / np.linalg.norm(ref)
        coarse_errs.append(e_c)
        ratios.append(e_c / e_f)
    elapsed = time.perf_counter() - t0
    worst = max(coarse_errs)
    mean_ratio = float(np.mean(ratios))
    ok = worst <= 1e-5 and mean_ratio >= 3.5 and elapsed < 60.0
    report(3, "oracle-equivalence", ok,
           f"worst rel err {worst:.2e}, mean halving ratio "
           f"{mean_ratio:.2f}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert mean_ratio >= 3.5
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 4. evolution axioms on the demo family
# --------------------------------------------------------------------------

def test_criterion_04_evolution_axioms():
    order = FractionalOrder(0.8)
    fam = SpectralHeatFamily(lambda tau: 1.0, 6)

    # identity at zero elapsed time, exact
    grid = TimeGrid(order, 0.0, 1.0, 201)
    table = build_propagator(fam, grid)
    identity_exact = all(
        np.array_equal(table.factors(i, i), np.ones(6)) for i in range(201))

    # composition over all grid triples; per-mode factors are exponentials
    # of telescoping cumulative sums, so the quadrature-error estimate for
    # the composition defect is the roundoff floor
    tau = grid.tau_nodes
    cum = table.potential_cumint
    sq = np.arange(1, 7, dtype=float) ** 2
    expo = sq[None, :] * tau[:, None] + cum[:, None]      # (n, modes)
    worst_comp = 0.0
    for r in range(201):
        left = np.exp(-(expo[r:] - expo[r]))              # i >= r
        right = np.exp(-(expo[r] - expo[: r + 1]))        # j <= r
        direct = np.exp(-(expo[r:, None, :] - expo[None, : r + 1, :]))
        composed = left[:, None, :] * right[None, :, :]
        worst_comp = max(worst_comp, float(np.max(np.abs(direct - composed))))
    quad_floor = 1e-12
    comp_ok = worst_comp <= 5.0 * quad_floor

    # forward and backward equation residuals at mid-grid
    fine = TimeGrid(order, 0.0, 1.0, 801)
    table_f = build_propagator(fam, fine)
    resid_fwd = conformable_residual(table_f, fam, 400, 0)
    resid_bwd = max(adjoint_residual(table_f, fam, 800, 400, v)
                    for v in np.eye(6))
    resid_ok = resid_fwd <= 1e-5 and resid_bwd <= 1e-5

    ok = identity_exact and comp_ok and resid_ok
    report(4, "evolution-axioms", ok,
           f"composition defect {worst_comp:.1e}, forward residual "
           f"{resid_fwd:.1e}, backward residual {resid_bwd:.1e}")
    assert identity_exact
    assert comp_ok
    assert resid_ok


# --------------------------------------------------------------------------
# 5. kernel construction: the triangular solve against the Neumann series
# --------------------------------------------------------------------------

def test_criterion_05_kernel_construction():
    order = FractionalOrder(0.75)
    grid = TimeGrid(order, 0.4, 1.4, 101)

    # constant family: zero kernel at machine precision
    const_fam = DenseMatrixFamily(lambda tau: np.diag([1.0, 2.0]), 2)
    const_tab = build_kernel(const_fam, grid)
    const_zero = (np.max(np.abs(const_tab.lower)) == 0.0
                  and np.max(np.abs(materialise_resolvent(const_tab))) == 0.0)

    worst_series, worst_direct, worst_gap = 0.0, 0.0, 0.0
    families = []

    def commuting(tau):
        rates = np.stack([1.0 + 0.5 * tau, 2.0 + 0.25 * tau], axis=-1)
        return rates[..., None] * np.eye(2)
    families.append(DenseMatrixFamily(commuting, 2))
    families.append(make_dense_family(np.random.default_rng(55), 3))

    for fam in families:
        table = build_kernel(fam, grid)
        every_column = np.eye(grid.n_nodes * fam.dim)
        series, _ = kernel_series(table, every_column, tol=1e-8)
        worst_series = max(worst_series, kernel_equation_residual(
            table, every_column, series))
        worst_direct = max(worst_direct, kernel_residual(table, every_column))
        worst_gap = max(worst_gap, float(np.max(np.abs(
            series - table.apply(every_column)))))

    ok = (const_zero and worst_series <= 1e-8 and worst_direct <= 1e-12
          and worst_gap <= 1e-7)
    report(5, "kernel-construction", ok,
           f"series residual {worst_series:.1e}, direct residual "
           f"{worst_direct:.1e}, route gap {worst_gap:.1e}")
    assert const_zero
    assert worst_series <= 1e-8
    assert worst_direct <= 1e-12
    assert worst_gap <= 1e-7


# --------------------------------------------------------------------------
# 6. mild solver
# --------------------------------------------------------------------------

def test_criterion_06_mild_solver():
    order = FractionalOrder(0.8)

    # linear-gain absorption vs closed form
    lam, gain = 1.0, 0.4
    fam = DenseMatrixFamily(lambda tau: np.array([[lam]]), 1)
    grid = TimeGrid(order, 0.0, 1.0, 801)
    table = build_propagator(fam, grid)
    problem = ControlProblem(x0=np.array([2.0]),
                             nonlinearity=lambda tau, x: gain * x,
                             picard_tol=1e-12)
    result = picard_solve(problem, table)
    exact = 2.0 * np.exp((gain - lam) * (grid.tau_nodes - grid.tau_nodes[0]))
    absorption_err = float(np.max(np.abs(result.trajectory[:, 0]
                                         - exact)))

    # geometric decrease under a satisfied small-gain condition
    heat = SpectralHeatFamily(lambda tau: 1.0, 6)
    hgrid = TimeGrid(order, 0.0, 1.0, 201)
    htab = build_propagator(heat, hgrid)
    gram = build_gramian(np.eye(6), htab)
    x0 = np.zeros(6)
    x0[0] = 1.0
    hprob = ControlProblem(x0=x0, nonlinearity=lambda tau, x: 0.2 * x,
                           picard_tol=1e-11)
    rep = contraction_report(gram, gamma_growth=0.2)
    start = np.random.default_rng(3).standard_normal((201, 6))
    updates = picard_solve(hprob, htab, x_init=start).update_norms
    tail_ratios = [updates[i + 1] / updates[i]
                   for i in range(1, len(updates) - 1) if updates[i] > 0]
    geometric = rep.satisfied and tail_ratios \
        and all(r < 1.0 for r in tail_ratios)

    # horizon constant closed forms
    n_classic = abs(horizon_factor(1.0, 0.0, 2.5) - 2.5)
    n_half = abs(horizon_factor(0.5, 0.5, 1.0) - math.log(2.0))
    n_ok = n_classic <= 1e-12 and n_half <= 1e-12

    ok = absorption_err <= 1e-6 and geometric and n_ok
    report(6, "mild-solver", ok,
           f"absorption err {absorption_err:.1e}, geometric={geometric}, "
           f"horizon-const defects {n_classic:.1e}/{n_half:.1e}")
    assert absorption_err <= 1e-6
    assert geometric
    assert n_ok


# --------------------------------------------------------------------------
# 7. linear null control
# --------------------------------------------------------------------------

def test_criterion_07_linear_null_control():
    order = FractionalOrder(0.8)

    # scalar case
    fam_s = DenseMatrixFamily(lambda tau: np.array([[1.0]]), 1)
    grid_s = TimeGrid(FractionalOrder(1.0), 0.0, 1.0, 801)
    tab_s = build_propagator(fam_s, grid_s)
    gram_s = build_gramian(np.eye(1), tab_s)
    res_s = synthesize_null_control(gram_s, np.array([1.0]))

    # six-mode heat case
    fam_h = SpectralHeatFamily(lambda tau: 1.0, 6)
    grid_h = TimeGrid(order, 0.0, 1.0, 401)
    tab_h = build_propagator(fam_h, grid_h)
    gram_h = build_gramian(np.eye(6), tab_h)
    x0 = np.zeros(6)
    x0[0] = 1.0
    res_h = synthesize_null_control(gram_h, x0)

    transfer_ok = (res_s.final_state_norm <= 1e-6
                   and res_h.final_state_norm <= 1e-6)

    # strict minimum-norm property against 50 kernel perturbations
    rng = np.random.default_rng(77)
    u = res_h.control
    w = grid_h.weights()
    base = float(np.sum(w * np.sum(u**2, axis=1)))
    strict = 0
    for _ in range(50):
        v = kernel_space_perturbation(gram_h, rng)
        pert = float(np.sum(w * np.sum((u + v) ** 2, axis=1)))
        if pert > base:
            strict += 1
    ok = transfer_ok and strict == 50
    report(7, "linear-null-control", ok,
           f"final norms {res_s.final_state_norm:.1e}/"
           f"{res_h.final_state_norm:.1e}, strict perturbations {strict}/50")
    assert transfer_ok
    assert strict == 50


# --------------------------------------------------------------------------
# 8. quantitative inequality bound
# --------------------------------------------------------------------------

def test_criterion_08_inequality_constant():
    t0 = time.perf_counter()
    worst = 1.0
    for alpha in (0.6, 0.8, 1.0):
        order = FractionalOrder(alpha)
        fam = SpectralHeatFamily(lambda tau: 1.0, 6)
        grid = TimeGrid(order, 0.0, 1.0, 401)
        table = build_propagator(fam, grid)
        gram = build_gramian(np.eye(6), table)
        outcome = verify_null_inequality(gram)
        worst = min(worst, outcome.gamma_emp)
        assert outcome.passes
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.5 - 1e-6 and elapsed < 30.0
    report(8, "inequality-constant", ok,
           f"min inequality constant {worst:.6f} >= 0.5 - 1e-6, "
           f"{elapsed:.1f}s")
    assert worst >= 0.5 - 1e-6
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 9. semilinear closed loop via the CLI demo
# --------------------------------------------------------------------------

def test_criterion_09_semilinear_demo(tmp_path, capsys):
    out = str(tmp_path / "demo")
    rc = main(["control", "--config",
               str(CONFIG_DIR / "heat_null_control.cfg"), "--out", out])
    summary = {}
    for line in (Path(out) / "summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key] = value
    final = float(summary["final_state_norm"])
    lhs = float(summary["contraction_lhs"])
    iters = int(summary["iterations"])

    out_bad = str(tmp_path / "overgain")
    rc_bad = main(["control", "--config",
                   str(CONFIG_DIR / "heat_over_gain.cfg"), "--out", out_bad])
    err = capsys.readouterr().err
    loud = rc_bad != 0 and "ERROR " in err

    ok = rc == 0 and final <= 1e-5 and iters <= 20 and lhs < 1.0 and loud
    report(9, "semilinear-demo", ok,
           f"final {final:.1e}, sweeps {iters}, lhs {lhs:.3f}, "
           f"over-gain exit {rc_bad}")
    assert rc == 0
    assert final <= 1e-5
    assert iters <= 20
    assert lhs < 1.0
    assert loud


# --------------------------------------------------------------------------
# 10. determinism
# --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        out_c = str(tmp_path / f"control_{tag}")
        out_v = str(tmp_path / f"verify_{tag}")
        assert main(["control", "--config",
                     str(CONFIG_DIR / "heat_null_control.cfg"),
                     "--out", out_c]) == 0
        assert main(["verify", "--config",
                     str(CONFIG_DIR / "verify_gamma.cfg"),
                     "--out", out_v]) == 0
        pairs.append((out_c, out_v))
    identical = True
    for name in ("trajectory.csv", "control.csv", "summary.txt"):
        a = (Path(pairs[0][0]) / name).read_bytes()
        b = (Path(pairs[1][0]) / name).read_bytes()
        identical = identical and a == b
    a = (Path(pairs[0][1]) / "summary.txt").read_bytes()
    b = (Path(pairs[1][1]) / "summary.txt").read_bytes()
    identical = identical and a == b
    report(10, "determinism", identical, "byte-identical artifacts")
    assert identical
