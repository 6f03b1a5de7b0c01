"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from helmrecon import (
    CompressionModel,
    ConstantsBundle,
    Grid,
    HelmholtzOperator,
    NodalField,
    PwcField,
    build_boundary_weights,
    calibrate,
    check_level_transition,
    check_omega_conditions,
    clamp_to_bounds,
    compute_rho,
    derive_level,
    dtn_for_field,
    embed,
    estimate_lipschitz_constant,
    find_omega_for_rho,
    gradient_check,
    l2_dist,
    l2_norm,
    lipschitz_df_probe,
    make_uniform_partition,
    project,
    rho_vs_omega,
    run_level,
    run_multilevel,
)
from helmrecon.derivative import (
    apply_df,
    apply_df_adjoint,
    bank_for_field,
    df_norm_probe,
    indicator_probes,
    residual_from,
)
from helmrecon.domain import mass_scatter_matrix
from helmrecon.verify import audit_alessandrini

B1, B2 = 1.0, 2.0


def _report(num, name, passed, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_forward_manufactured_convergence():
    errs, solve_times = {}, {}
    for m in (17, 33, 65):
        g = Grid(m)
        part = make_uniform_partition(g, 1)
        c = PwcField(part, np.array([1.0]), (0.5, 2.0))
        op = HelmholtzOperator(c, 1.0)
        ustar = NodalField.from_function(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        f = NodalField(g, (2 * np.pi ** 2 - 1.0) * ustar.values)
        t0 = time.perf_counter()
        u = op.solve(g=None, f=f)
        solve_times[m] = time.perf_counter() - t0
        errs[m] = float(np.abs(u.values - ustar.values).max())
    orders = [np.log2(errs[17] / errs[33]), np.log2(errs[33] / errs[65])]
    ok = all(abs(o - 2.0) <= 0.3 for o in orders) and max(solve_times.values()) < 1.0
    _report(1, "forward-correctness", ok,
            f"orders {[f'{o:.3f}' for o in orders]}, slowest solve "
            f"{max(solve_times.values()) * 1e3:.1f} ms")


def test_criterion_02_alessandrini_identity():
    t0 = time.perf_counter()
    g = Grid(33)
    part = make_uniform_partition(g, 2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for pair in range(5):
        c1 = PwcField(part, rng.uniform(B1, B2, 4), (B1, B2))
        c2 = PwcField(part, rng.uniform(B1, B2, 4), (B1, B2))
        defect = audit_alessandrini(c1, c2, 5.0, trials=50, seed=pair)
        worst = max(worst, defect)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(2, "alessandrini-identity", ok,
            f"max relative defect {worst:.2e} over 5x50 pairs, {elapsed:.1f} s")


def test_criterion_03_frechet_derivative_and_adjoint():
    g = Grid(17)
    part = make_uniform_partition(g, 2)
    weights = build_boundary_weights(g)
    rng = np.random.default_rng(31)
    c = PwcField(part, rng.uniform(B1, B2, 4), (B1, B2))
    deltas = [PwcField(part, rng.standard_normal(4), (1e-12, 10.0)) for _ in range(10)]
    rows = gradient_check(c, 5.0, deltas)
    worst_slope = min(r.slope for r in rows)
    worst_rel = max(r.rel_err_smallest_t for r in rows)

    _, bank = bank_for_field(c, 5.0)
    scatter = mass_scatter_matrix(g)
    worst_dot = 0.0
    for _ in range(20):
        delta = PwcField(part, rng.standard_normal(4), (1e-12, 10.0))
        r_mat = rng.standard_normal((weights.nb, weights.nb))
        lhs = float(np.sum((apply_df(bank, delta) @ weights.w_minus)
                           * (weights.w_minus @ r_mat)))
        rhs = float(np.sum((scatter @ delta.cell_values())
                           * apply_df_adjoint(bank, r_mat).values))
        worst_dot = max(worst_dot, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    ok = worst_slope >= 1.8 and worst_rel <= 1e-5 and worst_dot <= 1e-10
    _report(3, "frechet-derivative", ok,
            f"slope >= {worst_slope:.3f}, smallest-t rel err {worst_rel:.2e}, "
            f"dot-test {worst_dot:.2e}")


def test_criterion_04_frequency_scaling():
    g = Grid(17)
    part = make_uniform_partition(g, 2)
    c = PwcField(part, np.full(4, 1.5), (B1, B2))
    c_other = PwcField(part, np.array([1.7, 1.35, 1.55, 1.45]), (B1, B2))
    probes = indicator_probes(part)
    w2s = np.geomspace(1e-3, 1.0, 7)
    norms, lips = [], []
    for w2 in w2s:
        _, bank = bank_for_field(c, w2)
        norms.append(df_norm_probe(bank, probes))
        lips.append(lipschitz_df_probe(c, c_other, w2, probes=probes))
    slope_bound = float(np.polyfit(np.log(w2s), np.log(norms), 1)[0])
    slope_lip = float(np.polyfit(np.log(w2s ** 2), np.log(lips), 1)[0])
    ok = abs(slope_bound - 1.0) <= 0.1 and abs(slope_lip - 1.0) <= 0.1
    _report(4, "frequency-scaling", ok,
            f"||DF|| vs omega^2 slope {slope_bound:.3f}, "
            f"Lipschitz probe vs omega^4 slope {slope_lip:.3f}")


def test_criterion_05_radius_formula():
    exact_half = compute_rho(1.0, 1.0, 0.0) == 0.5
    exact_eighth = compute_rho(1.0, 1.0, 0.125) == 0.03125
    xs = np.linspace(0.0, 0.125, 2001, endpoint=False)
    lhs = 1.0 + np.sqrt(1.0 - 8.0 * xs) - 4.0 * xs
    rhs = 0.5 * (np.sqrt(1.0 - 8.0 * xs) + 1.0) ** 2
    identity_defect = float(np.abs(lhs - rhs).max())
    ok = exact_half and exact_eighth and identity_defect <= 1e-12
    _report(5, "radius-formula", ok,
            f"rho(1,1,0)=0.5: {exact_half}, rho(1,1,1/8)=0.03125: {exact_eighth}, "
            f"identity defect {identity_defect:.2e}")


def test_criterion_06_condition_implications():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    pairs = ((1, 4), (4, 16), (16, 64))
    bundles = 0
    nonvacuous = 0
    counterexamples = 0
    while bundles < 1000:
        try:
            b = ConstantsBundle(
                df_bound0=10 ** rng.uniform(-2, 1),
                df_lip0=10 ** rng.uniform(-2, 1),
                stab_k=10 ** rng.uniform(-3, -0.5),
                b1=1.0,
                b2=rng.uniform(1.0, 3.0),
                omega2=10 ** rng.uniform(-3, 0),
                eps=rng.uniform(0.01, 0.5),
                phi=CompressionModel.power_law(10 ** rng.uniform(-4, 0),
                                               rng.uniform(0.5, 3.0)),
            )
        except Exception:
            continue
        bundles += 1
        for n_cur, n_next in pairs:
            om = check_omega_conditions(b, n_cur, n_next)
            if not om.passed:
                continue
            nonvacuous += 1
            direct = check_level_transition(derive_level(b, n_cur),
                                            derive_level(b, n_next))
            if not (direct.passed and direct.classical_ok):
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and nonvacuous > 100 and elapsed < 10.0
    _report(6, "condition-implications", ok,
            f"{counterexamples} counterexamples over 1000 bundles "
            f"({nonvacuous} nonvacuous), {elapsed:.2f} s")


def test_criterion_07_radius_grows_at_low_frequency():
    t0 = time.perf_counter()
    g = Grid(17)
    bundle = calibrate(g, 1.0, B1, B2, phi=CompressionModel.power_law(0.1, 1.0),
                       eps=0.1, samples=10, seed=17, n_values=(1, 4, 16))
    grid_w2 = [1.0 * 0.5 ** i for i in range(12)]
    rows = rho_vs_omega(bundle, 4, grid_w2)
    rhos = [r.rho for r in rows if r.rho is not None]
    increasing = len(rhos) >= 3 and all(b > a for a, b in zip(rhos, rhos[1:]))
    w2_target, rho_target = find_omega_for_rho(bundle, 4, 1e3)
    elapsed = time.perf_counter() - t0
    ok = increasing and rho_target >= 1e3 and elapsed < 60.0
    _report(7, "radius-vs-frequency", ok,
            f"{len(rhos)} admissible points strictly increasing: {increasing}, "
            f"rho {rho_target:.2e} >= 1e3 at omega^2 {w2_target:.2e}, {elapsed:.1f} s")


def test_criterion_08_end_to_end_reconstruction():
    t0 = time.perf_counter()
    g = Grid(33)
    p1 = make_uniform_partition(g, 1, 0)
    p2 = make_uniform_partition(g, 2, 1)
    truth = PwcField(p2, np.array([1.8, 1.8, 1.3, 1.3]), (B1, B2))
    data = dtn_for_field(truth, 5.0)
    bundle = ConstantsBundle(df_bound0=1.0, df_lip0=1500.0, stab_k=1e-4, b1=B1, b2=B2,
                             omega2=5.0, eps=0.1, phi=CompressionModel.zero())
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    result = run_multilevel([p1, p2], bundle, data, start, max_iter=[8, 400],
                            eta_overrides=[0.0, 0.0],
                            discrepancy_thresholds=[1e-8, 1e-8], truth=truth)
    rel_err = l2_dist(result.final, truth) / l2_norm(truth)
    monotone = all(bool(np.all(np.diff(run.history["r"]) < 0)) for run in result.runs)
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 1e-3 and monotone and elapsed < 300.0
    _report(8, "end-to-end-reconstruction", ok,
            f"relative error {rel_err:.2e}, residuals strictly decreasing: {monotone}, "
            f"{elapsed:.1f} s")


def test_criterion_09_multilevel_beats_cold_start():
    t0 = time.perf_counter()
    g = Grid(33)
    parts = [make_uniform_partition(g, k, lvl) for lvl, k in enumerate((1, 2, 4))]
    rng = np.random.default_rng(42)
    coarse = PwcField(parts[1], np.array([1.85, 1.55, 1.70, 1.40]), (B1, B2))
    wiggle = rng.uniform(-0.05, 0.05, 16)
    truth = PwcField(parts[2], np.clip(embed(coarse, parts[2]).coeffs + wiggle, B1, B2),
                     (B1, B2))
    data = dtn_for_field(truth, 5.0)
    bundle = ConstantsBundle(df_bound0=1.0, df_lip0=1e-3, stab_k=1e-4, b1=B1, b2=B2,
                             omega2=5.0, eps=0.1, phi=CompressionModel.zero())
    constants = [derive_level(bundle, p.n_regions) for p in parts]

    # oracle approximation errors for the coarse levels (synthetic truth known)
    etas = []
    for p in parts[:2]:
        z_best = clamp_to_bounds(project(truth, p))
        etas.append(residual_from(dtn_for_field(z_best, 5.0), data).norm)

    total_budget = 60
    remaining = total_budget
    current = PwcField(parts[0], np.array([1.5]), (B1, B2))
    run = None
    used = 0
    for i, p in enumerate(parts):
        if i > 0:
            current = embed(run.final, p)
        eta_i = etas[i] if i < 2 else 0.0
        tau_i = None if i < 2 else 1e-8
        run = run_level(current, constants[i], data, remaining,
                        eta_override=eta_i, discrepancy_threshold=tau_i)
        used += run.k_stop
        remaining -= run.k_stop
        if remaining <= 0:
            break
    err_multi = l2_dist(run.final, truth) / l2_norm(truth)

    cold_start = PwcField(parts[2], np.full(16, 1.5), (B1, B2))
    cold = run_level(cold_start, constants[2], data, total_budget,
                     eta_override=0.0, discrepancy_threshold=1e-8)
    err_cold = l2_dist(cold.final, truth) / l2_norm(truth)
    elapsed = time.perf_counter() - t0
    ok = err_multi <= err_cold and used <= total_budget and elapsed < 900.0
    _report(9, "multilevel-benefit", ok,
            f"multi {err_multi:.2e} (used {used}/{total_budget}) vs cold {err_cold:.2e} "
            f"(used {cold.k_stop}), {elapsed:.1f} s")


def test_criterion_10_stability_ratio_growth():
    t0 = time.perf_counter()
    g = Grid(33)
    report = estimate_lipschitz_constant(g, 5.0, B1, B2, big_ns=(1, 4, 16, 64),
                                         samples_per_n=6, seed=0)
    ratios = report.max_ratios
    nondecreasing = all(b >= 0.9 * a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = nondecreasing and report.khat_fit > 0 and elapsed < 1200.0
    _report(10, "stability-growth", ok,
            f"max ratios {[f'{r:.3e}' for r in ratios]}, khat_fit {report.khat_fit:.3e}, "
            f"{elapsed:.1f} s")


def test_criterion_11_determinism(tmp_path):
    from helmrecon.cli import main

    config = """\
[grid]
m = 17

[problem]
omega2 = 5.0
b1 = 1.0
b2 = 2.0

[truth]
k = 2
values = 1.8 1.8 1.3 1.3

[schedule]
levels = 1 4

[bundle]
mode = analytic
lhat0 = 1.0
l0 = 600.0
k = 0.0001
eps = 0.1

[run]
max_iter = 50
seed = 99
eta_override = 0.0
discrepancy_threshold = 1e-8
"""
    cfg = tmp_path / "config.ini"
    cfg.write_text(config)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["reconstruct", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["reconstruct", "--config", str(cfg), "--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("level0.csv", "level1.csv", "final_field.txt", "run_metadata.txt")
    )
    ok = rc1 == 0 and rc2 == 0 and identical
    _report(11, "determinism", ok,
            f"exit codes ({rc1}, {rc2}), byte-identical logs: {identical}")
