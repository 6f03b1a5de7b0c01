import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from helmrecon import (
    CompressionModel,
    ConfigurationError,
    ConstantsBundle,
    DiscretizationMismatchError,
    Grid,
    LevelConditionError,
    NodalField,
    PwcField,
    bregman,
    build_boundary_weights,
    check_omega_conditions,
    clamp_to_bounds,
    derive_level,
    dtn_for_field,
    embed,
    evaluate_state,
    l2_dist,
    l2_norm,
    make_uniform_partition,
    project,
    run_level,
    run_multilevel,
)
from helmrecon import forward, optimizer
from helmrecon.optimizer import _step_quantities
from helmrecon.textio import write_run_log, write_run_metadata

B1, B2, W2 = 1.0, 2.0, 5.0


@pytest.fixture(scope="module")
def problem17():
    g = Grid(17)
    p1 = make_uniform_partition(g, 1, 0)
    p2 = make_uniform_partition(g, 2, 1)
    weights = build_boundary_weights(g)
    truth = PwcField(p2, np.array([1.8, 1.8, 1.3, 1.3]), (B1, B2))
    data = dtn_for_field(truth, W2)
    bundle = ConstantsBundle(df_bound0=1.0, df_lip0=600.0, stab_k=1e-4, b1=B1, b2=B2,
                             omega2=W2, eps=0.1, phi=CompressionModel.zero())
    return g, p1, p2, weights, truth, data, bundle


def test_step_quantities_frozen_example():
    lc = _FakeLC(curvature=1.0, df_lip=2.0)
    u, mu = _step_quantities(0.5, 2.0, lc, 0.0)
    assert u == pytest.approx(0.25)
    assert mu == pytest.approx(0.03125)


class _FakeLC:
    def __init__(self, curvature, df_lip):
        self.curvature = curvature
        self.df_lip = df_lip


def test_step_quantities_residual_at_floor():
    # at r = eta the gain collapses to -4 * curvature * eta^2
    lc = _FakeLC(curvature=2.0, df_lip=1.0)
    eta = 0.3
    u, _ = _step_quantities(eta, 1.0, lc, eta)
    assert u == pytest.approx(-4.0 * 2.0 * eta ** 2)
    assert u <= 0.0


def test_run_level_fixed_point_stops_immediately(problem17):
    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    run = run_level(truth, lc, data, max_iter=10, eta_override=0.0)
    assert run.stop_reason == "discrepancy"
    assert run.k_stop == 0
    assert run.history["r"][0] == 0.0


@pytest.mark.parametrize("settings", [
    {"eta_override": np.nan},                # the exit error bound would read nan
    {"eta_override": -1.0},                  # ... or a negative bound
    {"eta_override": np.inf},
    {"eta_override": 0.0, "discrepancy_threshold": np.nan},  # r <= nan never stops
    {"eta_override": 0.0, "discrepancy_threshold": -1.0},    # nor does r <= -1
], ids=["eta_nan", "eta_negative", "eta_inf", "threshold_nan", "threshold_negative"])
def test_run_level_rejects_non_finite_or_negative_eta_and_threshold(problem17, settings):
    _, _, p2, _, truth, data, bundle = problem17
    with pytest.raises(ConfigurationError):
        run_level(truth, derive_level(bundle, 4), data, max_iter=10, **settings)


@pytest.mark.parametrize("cap", [np.nan, 2.5, -1, "3", True],
                         ids=["nan", "fraction", "negative", "string", "bool"])
def test_iteration_cap_must_be_a_count(problem17, monkeypatch, cap):
    # a NaN cap turned the cap off and 2.5 ran 3 iterates; both loops refuse
    # a cap that is not an integer >= 0 before any evaluation, on any level
    _, p1, p2, _, truth, data, bundle = problem17

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated before checking max_iter")

    monkeypatch.setattr(optimizer, "bank_for_field", no_evaluation)
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    with pytest.raises(ConfigurationError, match="max_iter"):
        run_level(truth, derive_level(bundle, 4), data, max_iter=cap, eta_override=0.0)
    for max_iter in (cap, [3, cap]):
        with pytest.raises(ConfigurationError, match="max_iter"):
            run_multilevel([p1, p2], bundle, data, start, max_iter=max_iter)


@pytest.mark.parametrize("settings", [
    {"eta_overrides": [0.0, np.nan]},
    {"eta_overrides": [0.0, 0.0], "discrepancy_thresholds": [1e-8, -1.0]},
], ids=["eta_nan", "threshold_negative"])
def test_multilevel_refuses_every_level_setting_before_any_evaluation(problem17, monkeypatch,
                                                                      settings):
    # a bad entry for level 1 was refused only after level 0 had run its descent
    _, p1, p2, _, _, data, bundle = problem17
    assembled = []
    real = forward.assemble_dtn
    monkeypatch.setattr(forward, "assemble_dtn",
                        lambda *args, **kwargs: assembled.append(1) or real(*args, **kwargs))
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    with pytest.raises(ConfigurationError, match="must be finite and >= 0"):
        run_multilevel([p1, p2], bundle, data, start, max_iter=10, **settings)
    assert assembled == []


@pytest.mark.parametrize("omega2, box, error", [
    (1.0, (B1, B2), DiscretizationMismatchError),   # constants for another frequency
    (W2, (B1, 3.0), ConfigurationError),            # a start box wider than theirs
    (W2, (0.5, B2), ConfigurationError),
], ids=["other_omega2", "box_above", "box_below"])
def test_descent_refuses_constants_for_another_problem(problem17, monkeypatch, omega2, box,
                                                       error):
    # both loops ran every level on such constants without a word
    _, p1, p2, _, _, data, bundle = problem17

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated before checking the constants")

    monkeypatch.setattr(optimizer, "bank_for_field", no_evaluation)
    other = dataclasses.replace(bundle, omega2=omega2)
    start = PwcField(p1, np.array([1.5]), box)
    with pytest.raises(error):
        run_level(start, derive_level(other, 1), data, max_iter=10, eta_override=0.0)
    with pytest.raises(error):
        run_multilevel([p1, p2], other, data, start, max_iter=10)


def test_descent_accepts_a_start_box_inside_the_constants_box(problem17):
    _, p1, _, _, _, data, bundle = problem17
    start = PwcField(p1, np.array([1.5]), (1.2, 1.8))
    run = run_level(start, derive_level(bundle, 1), data, max_iter=0, eta_override=0.0)
    assert run.stop_reason == "max_iter"


def test_run_level_stops_where_the_direction_vanishes(problem17, monkeypatch):
    _, p1, _, _, _, data, bundle = problem17
    monkeypatch.setattr(optimizer, "apply_df_adjoint",
                        lambda bank, res: NodalField(bank.grid, np.zeros(bank.grid.n_nodes)))
    lc = derive_level(dataclasses.replace(bundle, df_lip0=1e-6), 1)  # u > 0 at this residual
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    run = run_level(start, lc, data, max_iter=10, eta_override=0.0, discrepancy_threshold=1e-8)
    assert run.stop_reason == "stationary"
    assert run.k_stop == 0 and run.history["u"][0] > 0
    assert "direction vanished" in run.warnings[0]


@pytest.mark.parametrize("levels, settings, match", [
    (0, {}, "at least one partition"),
    (2, {"max_iter": [1, 1, 1]}, "schedule length"),
    (2, {"eta_overrides": [0.0]}, "schedule length"),
    (2, {"discrepancy_thresholds": [1e-8, 1e-8, 1e-8]}, "schedule length"),
], ids=["empty_schedule", "max_iter", "eta_overrides", "discrepancy_thresholds"])
def test_multilevel_refuses_a_schedule_its_settings_do_not_fit(problem17, levels, settings,
                                                               match):
    _, p1, p2, _, _, data, bundle = problem17
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    with pytest.raises(ConfigurationError, match=match):
        run_multilevel([p1, p2][:levels], bundle, data, start, **settings)


def test_run_level_max_iter_zero(problem17):
    g, p1, _, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 1)
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    run = run_level(start, lc, data, max_iter=0, eta_override=0.0,
                    discrepancy_threshold=1e-8)
    assert run.stop_reason == "max_iter"
    assert run.k_stop == 0
    assert run.history["r"].size == 1


def test_run_level_strictly_decreasing_residuals(problem17):
    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    run = run_level(start, lc, data, max_iter=300, eta_override=0.0,
                    discrepancy_threshold=1e-8)
    assert run.stop_reason == "discrepancy"
    r = run.history["r"]
    assert np.all(np.diff(r) < 0)
    # discrepancy index minimal: the previous residual sat above the threshold
    assert r[-2] > run.threshold


def test_run_level_mu_invariant_and_z_membership(problem17, monkeypatch):
    import helmrecon.optimizer as opt

    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    evaluated = []
    real = opt.bank_for_field
    monkeypatch.setattr(opt, "bank_for_field",
                        lambda c, *a, **k: evaluated.append(c) or real(c, *a, **k))
    run = run_level(start, lc, data, max_iter=40, eta_override=0.0,
                    discrepancy_threshold=1e-8)
    h = run.history
    live = h["t"] > 0
    assert np.allclose(h["mu"][live], h["u"][live] * h["r"][live] / h["t"][live] ** 2,
                       rtol=1e-12)
    assert len(evaluated) == run.k_stop + 1
    for field in evaluated:
        assert field.admissible()


def test_run_level_bregman_audit_nonincreasing(problem17):
    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    z_best = project(truth, p2)
    run = run_level(start, lc, data, max_iter=300, eta_override=0.0,
                    discrepancy_threshold=1e-8, z_best=z_best)
    audit = run.history["bregman"]
    assert np.all(np.diff(audit) <= 1e-14)


def test_multilevel_single_level_equals_run_level(problem17):
    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    direct = run_level(start, lc, data, max_iter=50, eta_override=0.0,
                       discrepancy_threshold=1e-8)
    multi = run_multilevel([p2], bundle, data, start, max_iter=50,
                           eta_overrides=[0.0], discrepancy_thresholds=[1e-8])
    assert np.array_equal(direct.history["r"], multi.runs[0].history["r"])
    assert np.array_equal(direct.final.coeffs, multi.final.coeffs)


def test_multilevel_two_levels_converges(problem17):
    _, p1, p2, weights, truth, data, bundle = problem17
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    result = run_multilevel([p1, p2], bundle, data, start, max_iter=[8, 300],
                            eta_overrides=[0.0, 0.0],
                            discrepancy_thresholds=[1e-8, 1e-8], truth=truth)
    err = l2_dist(result.final, truth) / l2_norm(truth)
    assert err <= 1e-3
    # warm start: level 1 begins from the embedded exit of level 0
    lifted = embed(result.runs[0].final, p2)
    assert result.runs[1].history["r"][0] <= result.runs[0].history["r"][-1] * (1 + 1e-9)
    assert l2_norm(lifted) == pytest.approx(l2_norm(result.runs[0].final), rel=1e-14)


def test_multilevel_requires_start_on_first_partition(problem17):
    _, p1, p2, weights, truth, data, bundle = problem17
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    with pytest.raises(ConfigurationError):
        run_multilevel([p1, p2], bundle, data, start, max_iter=5)


def test_multilevel_refuses_bad_schedule_and_override_downgrades(problem17):
    g, p1, p2, weights, truth, data, _ = problem17
    # a compression model too slow for this exponent budget: refinement refused
    bad = ConstantsBundle(df_bound0=1.0, df_lip0=1.0, stab_k=0.3, b1=B1, b2=B2,
                          omega2=W2, eps=0.1, phi=CompressionModel.power_law(0.9, 0.1))
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    # one decision for both: the warning carries the refusal's violation text
    violated = check_omega_conditions(bad, 1, 4).violated()
    with pytest.raises(LevelConditionError) as exc:
        run_multilevel([p1, p2], bad, data, start, max_iter=1)
    assert str(exc.value) == f"refinement N 1 -> 4 refused: {violated}"
    result = run_multilevel([p1, p2], bad, data, start, max_iter=[1, 1],
                            eta_overrides=[0.0, 0.0],
                            discrepancy_thresholds=[1e-8, 1e-8],
                            override_level_check=True)
    assert f"level 0 -> 1 (N 1 -> 4): {violated} (overridden)" in result.warnings


def test_run_log_csv_format(problem17, tmp_path):
    _, _, p2, weights, truth, data, bundle = problem17
    lc = derive_level(bundle, 4)
    start = PwcField(p2, np.full(4, 1.5), (B1, B2))
    run = run_level(start, lc, data, max_iter=5, eta_override=0.0,
                    discrepancy_threshold=1e-8, z_best=project(truth, p2))
    path = tmp_path / "run.csv"
    write_run_log(path, run)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,r_k,t_k,u_k,mu_k,bregman_opt"
    assert len(lines) == run.history["r"].size + 1
    assert lines[1].split(",")[0] == "0"
    # bregman column populated when the audit target is known
    assert lines[1].split(",")[5] != ""


def test_run_metadata_format(problem17, tmp_path):
    _, p1, p2, weights, truth, data, bundle = problem17
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    result = run_multilevel([p1, p2], bundle, data, start, max_iter=[2, 2],
                            eta_overrides=[0.0, 0.0],
                            discrepancy_thresholds=[1e-8, 1e-8])
    path = tmp_path / "meta.txt"
    write_run_metadata(path, result, bundle, extra={"note": "x"})
    text = path.read_text()
    assert "schedule = 1 4" in text
    assert "stop_reasons" in text
    assert "note = x" in text


def test_multilevel_reuses_exit_evaluation_at_level_start(problem17, monkeypatch):
    import helmrecon.optimizer as opt

    _, p1, p2, weights, truth, data, bundle = problem17
    start = PwcField(p1, np.array([1.5]), (B1, B2))
    evaluated = []
    real = opt.bank_for_field
    monkeypatch.setattr(opt, "bank_for_field",
                        lambda c, *a, **k: evaluated.append(c) or real(c, *a, **k))
    result = run_multilevel([p1, p2], bundle, data, start, max_iter=[3, 4],
                            eta_overrides=[0.0, 0.0],
                            discrepancy_thresholds=[1e-8, 1e-8])
    first, second = result.runs
    assert len(evaluated) == (first.k_stop + 1) + second.k_stop
    # the level-1 start carries the level-0 exit residual and direction
    assert second.history["r"][0] == first.history["r"][-1]
    assert second.history["t"][0] == first.history["t"][-1]
    lc = derive_level(bundle, 4)
    u, mu = _step_quantities(second.history["r"][0], second.history["t"][0], lc, 0.0)
    assert (second.history["u"][0], second.history["mu"][0]) == (u, mu)
    # and equals a fresh evaluation of the embedded field to rounding
    fresh = evaluate_state(embed(first.final, p2), data, lc, 0.0)
    assert fresh.r == pytest.approx(second.history["r"][0], rel=1e-12)


@pytest.mark.parametrize("m", [65, 129])
def test_evaluate_state_never_holds_a_dense_bank(m):
    # peak traced memory of one iterate: below half of the (n_nodes, nb)
    # float64 bank the solver no longer forms (at m = 33 the nb x nb
    # matrices and the skeleton values alone come near that half)
    g = Grid(m)
    part = make_uniform_partition(g, 4)
    rng = np.random.default_rng(m)
    data = dtn_for_field(PwcField(part, rng.uniform(B1, B2, 16), (B1, B2)), W2)
    lc = derive_level(ConstantsBundle(df_bound0=1.0, df_lip0=1e-3, stab_k=1e-4, b1=B1, b2=B2,
                                      omega2=W2, eps=0.1, phi=CompressionModel.zero()), 16)
    c = PwcField(part, np.full(16, 1.5), (B1, B2))
    evaluate_state(c, data, lc, 0.0)  # fills the per-grid caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_state(c, data, lc, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * g.n_nodes * g.n_boundary * 8


def test_multilevel_result_holds_less_than_one_residual():
    # a finished three-level run keeps per-iterate scalars and each level's
    # exit field and direction, but no nb x nb residual matrix
    g = Grid(33)
    parts = [make_uniform_partition(g, k, level) for level, k in enumerate((1, 2, 4))]
    rng = np.random.default_rng(33)
    data = dtn_for_field(PwcField(parts[-1], rng.uniform(B1, B2, 16), (B1, B2)), W2)
    bundle = ConstantsBundle(df_bound0=1.0, df_lip0=600.0, stab_k=1e-4, b1=B1, b2=B2,
                             omega2=W2, eps=0.1, phi=CompressionModel.zero())
    start = PwcField(parts[0], np.array([1.5]), (B1, B2))
    settings = dict(max_iter=[2, 2, 2], eta_overrides=[0.0] * 3,
                    discrepancy_thresholds=[1e-8] * 3)
    run_multilevel(parts, bundle, data, start, **settings)  # fills the per-grid caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_multilevel(parts, bundle, data, start, **settings)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert [run.k_stop for run in result.runs] == [2, 2, 2]
    assert held < g.n_boundary ** 2 * 8
