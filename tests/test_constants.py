import dataclasses
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmrecon import (
    CalibrationError,
    CompressionModel,
    ConfigurationError,
    ConstantsBundle,
    Grid,
    LevelConditionError,
    calibrate,
    check_level_transition,
    check_omega_conditions,
    compute_rho,
    derive_level,
    find_omega_for_rho,
    rho_vs_omega,
    solve_n_max,
)
from helmrecon import constants, derivative, forward, verify
from helmrecon.constants import LevelConstants, _nmax_lhs
from helmrecon.textio import load_bundle, save_bundle


def bundle(df_bound0=1.0, df_lip0=1.0, stab_k=0.1, b1=1.0, b2=1.0, omega2=1.0,
           eps=0.1, phi=None, n_exponent=4.0 / 7.0):
    return ConstantsBundle(df_bound0=df_bound0, df_lip0=df_lip0, stab_k=stab_k,
                           b1=b1, b2=b2, omega2=omega2, eps=eps,
                           phi=phi if phi is not None else CompressionModel.zero(),
                           n_exponent=n_exponent)


# ---------------------------------------------------------------- models


def test_compression_model_power_law():
    phi = CompressionModel.power_law(2.0, 1.5)
    assert phi(1) == 2.0
    assert phi(4) == pytest.approx(2.0 * 4 ** -1.5)


def test_compression_model_rejects_constant_nonzero():
    with pytest.raises(ConfigurationError):
        CompressionModel.power_law(1.0, 0.0)


def test_compression_model_zero_allowed():
    phi = CompressionModel.zero()
    assert phi(1) == 0.0 and phi(1000) == 0.0


@pytest.mark.parametrize("c, beta", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan),
                                     (1.0, np.inf)])
def test_compression_model_rejects_non_finite_power_law(c, beta):
    with pytest.raises(ConfigurationError, match="finite"):
        CompressionModel.power_law(c, beta)


@pytest.mark.parametrize("name", ["df_bound0", "df_lip0", "stab_k", "eps"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_bundle_rejects_non_finite_constants(name, value):
    with pytest.raises(ConfigurationError, match=name):
        bundle(**{name: value})


# ---------------------------------------------------------------- derive_level


def test_derive_level_frozen_values():
    lc = derive_level(bundle(), 1)
    assert lc.stab == pytest.approx(np.exp(0.2), rel=1e-12)
    assert lc.curvature == pytest.approx(np.exp(0.4), rel=1e-12)
    assert lc.df_bound == 1.0
    assert lc.df_lip == 1.0
    assert lc.eta == 0.0


def test_derive_level_power_laws_in_omega():
    lo = derive_level(bundle(omega2=0.5), 1)
    hi = derive_level(bundle(omega2=1.0), 1)
    assert lo.df_bound == pytest.approx(0.5 * hi.df_bound)
    assert lo.df_lip == pytest.approx(0.25 * hi.df_lip)


def test_derive_level_growth_in_n():
    b = bundle()
    lc1, lc16 = derive_level(b, 1), derive_level(b, 16)
    expect = np.exp(0.1 * 2.0 * (16 ** (4 / 7) - 1.0))
    assert lc16.stab / lc1.stab == pytest.approx(expect, rel=1e-12)


def test_derive_level_monotone_in_n():
    b = bundle(phi=CompressionModel.power_law(0.5, 1.0))
    lcs = [derive_level(b, n) for n in (1, 4, 16, 64)]
    for a, c in zip(lcs, lcs[1:]):
        assert c.stab >= a.stab
        assert c.curvature >= a.curvature
        assert c.eta <= a.eta


def test_derive_level_overflow_guard():
    with pytest.raises(ConfigurationError, match="reduce"):
        derive_level(bundle(stab_k=5.0), 10 ** 6)


@pytest.mark.parametrize("big_n", [0, 2.5, np.nan, True, "4"])
def test_derive_level_refuses_a_region_count_that_is_not_an_integer(big_n):
    # 2.5 and True returned a level, NaN ended in a bare ValueError and "4" in
    # a bare TypeError
    with pytest.raises(ConfigurationError, match="N must be an integer"):
        derive_level(bundle(), big_n)


def test_derive_level_takes_a_numpy_integer():
    assert derive_level(bundle(), np.int64(4)) == derive_level(bundle(), 4)


# ---------------------------------------------------------------- rho


def test_compute_rho_frozen_values():
    assert compute_rho(1.0, 1.0, 0.0) == 0.5
    assert compute_rho(1.0, 1.0, 0.125) == 0.03125


def test_compute_rho_domain_error():
    with pytest.raises(LevelConditionError, match="inadmissible"):
        compute_rho(1.0, 1.0, 0.126)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=0.125, exclude_max=True))
def test_rho_algebraic_identity(x):
    lhs = 1.0 + np.sqrt(1.0 - 8.0 * x) - 4.0 * x
    rhs = 0.5 * (np.sqrt(1.0 - 8.0 * x) + 1.0) ** 2
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------- level conditions


def test_transition_zero_phi_passes_any_n():
    b = bundle(phi=CompressionModel.zero())
    for n_next in (4, 16, 64, 256):
        d = check_level_transition(derive_level(b, 1), derive_level(b, n_next))
        assert d.passed
        assert d.classical_ok


def test_transition_first_inequality_fails_at_quarter():
    b = bundle()
    base = derive_level(b, 4)
    cur = dataclasses.replace(base, eta=0.0)
    nxt = dataclasses.replace(base, curvature=1.0, eta=0.25)  # 8 * 1/4 = 2 >= 1
    d = check_level_transition(cur, nxt)
    assert not d.contraction_ok
    assert not d.passed
    assert "curvature" in d.violated()


def test_transition_example_against_mpmath_oracle():
    # high-precision re-evaluation of both inequality sides
    b = bundle(df_bound0=1.0, df_lip0=1.0, stab_k=0.05, b1=1.0, b2=2.0, omega2=0.5,
               eps=0.1, phi=CompressionModel.power_law(1.0, 2.0))
    cur, nxt = derive_level(b, 4), derive_level(b, 16)
    d = check_level_transition(cur, nxt)

    mpmath.mp.dps = 50
    om2, b2v, kk, e = map(mpmath.mpf, ("0.5", "2", "0.05", "0.1"))

    def level(n):
        nn = mpmath.mpf(n)
        expo = kk * (1 + om2 * b2v) * nn ** (mpmath.mpf(4) / 7)
        df_bound = om2
        stab = mpmath.e ** expo / om2
        curv = mpmath.e ** (2 * expo)
        eta = om2 * nn ** -2
        return df_bound, stab, curv, eta

    _, _, curv_n, eta_n = level(4)
    df_b, stab, curv, eta = level(16)
    contraction = 8 * curv * eta
    lhs2 = (3 + e) * eta_n + eta
    rhs2 = 2 ** mpmath.mpf("-2.5") / (df_b * stab * curv)
    assert d.contraction_value == pytest.approx(float(contraction), rel=1e-12)
    assert d.budget_lhs == pytest.approx(float(lhs2), rel=1e-12)
    assert d.budget_rhs == pytest.approx(float(rhs2), rel=1e-12)
    assert d.contraction_ok == (contraction < 1)
    assert d.budget_ok == (lhs2 <= rhs2)


def test_omega_conditions_zero_phi():
    d = check_omega_conditions(bundle(phi=CompressionModel.zero()), 1, 64)
    assert d.passed


class _NumpyWithBrokenSqrt:
    """numpy, except that sqrt returns a negative number."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sqrt(x):
        return -np.sqrt(x) - 2.0


def test_transition_inconsistency_raises(monkeypatch):
    # the classical criterion is the only user of sqrt; breaking it makes the
    # pair of conditions pass while the criterion they imply fails
    b = bundle(phi=CompressionModel.zero())
    cur, nxt = derive_level(b, 1), derive_level(b, 4)
    assert check_level_transition(cur, nxt).classical_ok
    monkeypatch.setattr(constants, "np", _NumpyWithBrokenSqrt())
    with pytest.raises(LevelConditionError, match="classical criterion"):
        check_level_transition(cur, nxt)


def test_omega_conditions_inconsistency_raises(monkeypatch):
    b = bundle(phi=CompressionModel.zero())
    assert check_omega_conditions(b, 1, 64).passed
    failing = dataclasses.replace(
        check_level_transition(derive_level(b, 1), derive_level(b, 64)),
        passed=False, contraction_ok=False, contraction_value=2.0)
    monkeypatch.setattr(constants, "check_level_transition", lambda cur, nxt: failing)
    with pytest.raises(LevelConditionError, match="direct level conditions"):
        check_omega_conditions(b, 1, 64)


def test_omega_conditions_crossover_in_n_next():
    # for a fixed current level, refining too aggressively must eventually fail
    b = bundle(df_bound0=1.0, df_lip0=1.0, stab_k=0.05, b1=1.0, b2=1.0, omega2=0.05,
               eps=0.1, phi=CompressionModel.power_law(0.05, 1.0))
    n_cur = 4
    results = [check_omega_conditions(b, n_cur, n).passed for n in (4, 16, 64, 256, 1024, 4096)]
    assert results[0]
    assert not results[-1]
    flips = sum(1 for a, c in zip(results, results[1:]) if a != c)
    assert flips == 1  # single crossover


def _random_bundles(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
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
        out.append(b)
    return out


def test_implication_chain_on_random_bundles():
    n_pairs = ((1, 4), (4, 16), (16, 64))
    hits = 0
    for b in _random_bundles(300, seed=7):
        for n_cur, n_next in n_pairs:
            om = check_omega_conditions(b, n_cur, n_next)
            if not om.passed:
                continue
            hits += 1
            direct = check_level_transition(derive_level(b, n_cur), derive_level(b, n_next))
            assert direct.passed, f"omega conditions passed but level conditions failed: {b}"
            assert direct.classical_ok, f"level conditions passed but classical failed: {b}"
    assert hits > 50  # the sample must actually exercise the implication


# ---------------------------------------------------------------- n_max


def test_n_max_zero_phi_unbounded():
    assert solve_n_max(bundle(phi=CompressionModel.zero())).status == "unbounded"


def test_n_max_spec_style_bundle_has_no_sustainable_size():
    b = bundle(phi=CompressionModel.power_law(1.0, 1.0))
    res = solve_n_max(b)
    assert res.status == "none"
    assert res.n_max is None


def test_n_max_root_against_dense_scan_oracle():
    b = bundle(omega2=0.01, phi=CompressionModel.power_law(1.0, 1.0))
    res = solve_n_max(b)
    assert res.status == "bounded"
    ns = np.arange(1, 1_000_001, dtype=float)
    vals = _nmax_lhs(b, ns)
    oracle = int(ns[np.nonzero(vals <= 0)[0][-1]])
    assert res.n_max == oracle


# ---------------------------------------------------------------- rho vs omega


def test_rho_vs_omega_propagates_unexpected_errors(monkeypatch):
    b = bundle()

    def broken_guard(*args):
        raise RuntimeError("bug in the guard")

    monkeypatch.setattr(constants, "spectrum_guard", broken_guard)
    with pytest.raises(RuntimeError, match="bug in the guard"):
        rho_vs_omega(b, 4, [0.5])


def test_rho_increases_as_omega_decreases():
    b = bundle(df_bound0=0.1, df_lip0=0.1, stab_k=0.05, b2=2.0,
               phi=CompressionModel.power_law(0.01, 1.0))
    rows = rho_vs_omega(b, 4, [1.0, 0.5, 0.25, 0.125, 0.0625])
    rhos = [r.rho for r in rows if r.rho is not None]
    assert len(rhos) >= 3
    assert all(b < a for b, a in zip(rhos, rhos[1:]))
    for r in rows:
        if r.rho is not None:
            assert r.rho >= r.rho_floor


def test_rho_log_slope_matches_symbolic_oracle():
    import sympy

    b = bundle(df_bound0=0.3, df_lip0=0.2, stab_k=0.05, b2=2.0,
               phi=CompressionModel.zero())
    big_n = 4
    w2 = sympy.symbols("w2", positive=True)
    expo = sympy.Rational(1, 20) * (1 + w2 * 2) * sympy.Integer(big_n) ** sympy.Rational(4, 7)
    curv = sympy.Rational(1, 5) * sympy.exp(2 * expo)
    df_bound = sympy.Rational(3, 10) * w2
    rho_expr = sympy.Rational(1, 2) * (2 * curv * df_bound) ** -2 * 4
    dlog = sympy.simplify(sympy.diff(sympy.log(rho_expr), w2) * w2)
    for w2_val in (0.5, 0.1, 0.02):
        symbolic = float(dlog.subs(w2, w2_val))
        h = 1e-5 * w2_val
        lo = rho_vs_omega(b, big_n, [w2_val - h])[0].rho
        hi = rho_vs_omega(b, big_n, [w2_val + h])[0].rho
        numeric = (np.log(hi) - np.log(lo)) / (np.log(w2_val + h) - np.log(w2_val - h))
        assert numeric == pytest.approx(symbolic, rel=1e-5)


def test_find_omega_reaches_any_target():
    b = bundle(df_bound0=1.0, df_lip0=1.0, stab_k=0.05, b2=2.0,
               phi=CompressionModel.power_law(0.1, 1.0))
    for target in (10.0, 1e3):
        w2, rho = find_omega_for_rho(b, 4, target)
        assert rho >= target
        assert w2 > 0


# ---------------------------------------------------------------- calibrate


def test_calibrate_empirical_deterministic_and_positive():
    g = Grid(17)
    kwargs = dict(phi=CompressionModel.power_law(0.1, 1.0), eps=0.1,
                  samples=10, seed=21, n_values=(1, 4))
    b1 = calibrate(g, 1.0, 1.0, 2.0, **kwargs)
    b2 = calibrate(g, 1.0, 1.0, 2.0, **kwargs)
    assert b1.df_bound0 > 0 and b1.df_lip0 > 0 and b1.stab_k > 0
    assert (b1.df_bound0, b1.df_lip0, b1.stab_k) == (b2.df_bound0, b2.df_lip0, b2.stab_k)
    assert b1.calibration == "empirical"


@pytest.mark.parametrize("samples", [9, 10.5, "12", np.nan])
def test_calibrate_refuses_fewer_than_ten_or_fractional_samples(monkeypatch, samples):
    # 10.5 ended in a bare TypeError; every bad count is refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking samples")

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", no_solve)
    with pytest.raises(CalibrationError, match="sample pairs"):
        calibrate(Grid(17), 1.0, 1.0, 2.0, phi=CompressionModel.zero(), eps=0.1,
                  samples=samples)



@pytest.mark.parametrize("n_values", [(1, 4.0, 16), (1, True), (0, 4)])
def test_calibrate_refuses_region_counts_that_are_not_integers(monkeypatch, n_values):
    # a count tiles() cannot read is refused before any solve, not dropped
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking n_values")

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", no_solve)
    with pytest.raises(CalibrationError, match="region counts"):
        calibrate(Grid(17), 1.0, 1.0, 2.0, phi=CompressionModel.zero(), eps=0.1,
                  n_values=n_values)


# the benchmark's smoke size of calibrate-m33 (bench/run.py, TINY)
SMOKE = dict(phi=CompressionModel.power_law(0.1, 1), eps=0.1, samples=10,
             n_values=(1, 4, 16), seed=0)
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "calibrate_reference.json"


def test_calibrate_matches_the_benchmark_reference_at_smoke_size():
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["calibrate-m33:tiny"]["0"]
    b = calibrate(Grid(17), 5.0, 1.0, 2.0, **SMOKE)
    for name in ("df_bound0", "df_lip0", "stab_k"):
        assert getattr(b, name) == pytest.approx(ref[name], rel=1e-9), name


@pytest.mark.parametrize("seed", [0, 17, 99])
def test_calibrate_matches_the_benchmark_reference_at_full_size(seed):
    # calibrate-m33 as the benchmark runs it, within the rel 1e-6 of its gate
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["calibrate-m33"][str(seed)]
    b = calibrate(Grid(33), 5.0, 1.0, 2.0, **dict(SMOKE, samples=40, seed=seed))
    for name in ("df_bound0", "df_lip0", "stab_k"):
        assert getattr(b, name) == pytest.approx(ref[name], rel=1e-6), name


@pytest.mark.parametrize("settings, message", [
    ({"n_exponent": 2.0}, "stability exponent must lie in"),
    ({"eps": -1.0}, "eps must be finite and strictly positive"),
], ids=["n_exponent", "eps"])
def test_calibrate_refuses_bad_eps_or_exponent_before_any_operator(monkeypatch, settings,
                                                                   message):
    # ConstantsBundle refused both only after the whole calibration had run
    built = []
    init = forward.HelmholtzOperator.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", counted_init)
    with pytest.raises(ConfigurationError, match=message):
        calibrate(Grid(17), 5.0, 1.0, 2.0, **dict(SMOKE, **settings))
    assert built == []


def test_calibrate_refuses_a_box_with_b1_equal_to_b2_before_any_operator(no_operator):
    # the stability sweep's random pairs never differ in such a box, and it
    # looped forever
    with pytest.raises(ConfigurationError, match="b1 < b2"):
        calibrate(Grid(17), 5.0, 1.5, 1.5, **SMOKE)


def test_calibrate_work_count_and_stability_fit(monkeypatch):
    evals, reads, kinds = [], [], []
    init, dtn = forward.HelmholtzOperator.__init__, forward.HelmholtzOperator._dtn

    def counted_init(self, *args, **kwargs):
        evals.append(1)
        init(self, *args, **kwargs)

    def counted_dtn(self, bank):
        reads.append(1)
        return dtn(self, bank)

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", counted_init)
    monkeypatch.setattr(forward.HelmholtzOperator, "_dtn", counted_dtn)
    for module in (forward, derivative, verify):
        def norm(mat, weights, kind="hs", real=module.dtn_data_norm):
            kinds.append(kind)
            return real(mat, weights, kind)
        monkeypatch.setattr(module, "dtn_data_norm", norm)
    grid = Grid(17)
    b = calibrate(grid, 5.0, 1.0, 2.0, **SMOKE)
    assert "op" not in kinds
    # 4 bound fields, 10 Lipschitz pairs, and 4 pairs at each N = 1, 4, 16: 48
    # evaluations less the 4 of the sweep's mid-box base field, which is the
    # last bound field
    assert len(evals) == 44
    # the derivative fits read banks only: a DtN is read for the mid-box bound
    # field and the 20 sweep evaluations alone
    assert len(reads) == 21
    report = verify.estimate_lipschitz_constant(grid, 5.0, 1.0, 2.0, big_ns=(1, 4, 16),
                                                samples_per_n=4, seed=0)
    assert b.stab_k == report.khat_bound
    assert kinds.count("op") == len(report.samples)


# ---------------------------------------------------------------- persistence


def test_bundle_file_round_trip(tmp_path):
    b = bundle(df_bound0=0.125, df_lip0=2.5, stab_k=0.3,
               phi=CompressionModel.power_law(0.25, 1.5))
    path = tmp_path / "bundle.txt"
    save_bundle(path, b)
    back = load_bundle(path)
    assert back.df_bound0 == b.df_bound0
    assert back.stab_k == b.stab_k
    assert back.phi.c == 0.25 and back.phi.beta == 1.5


@pytest.mark.parametrize("line", ["eps = 0.2", "colour = blue", "eps 0.2"],
                         ids=["repeated_key", "unknown_key", "no_equals_sign"])
def test_bundle_file_rejects_malformed_lines(tmp_path, line):
    # each of these used to load: the last repeat won, the rest were ignored
    path = tmp_path / "bundle.txt"
    save_bundle(path, bundle())
    assert load_bundle(path) == bundle()
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(ConfigurationError):
        load_bundle(path)


@pytest.mark.parametrize("key", ["df_bound0", "omega2", "phi_beta"])
def test_bundle_file_refuses_a_missing_key(tmp_path, key):
    path = tmp_path / "bundle.txt"
    save_bundle(path, bundle())
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith(key + " ")))
    with pytest.raises(ConfigurationError, match=f"missing bundle key '{key}'"):
        load_bundle(path)


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_bundle_file_rejects_malformed_numbers(tmp_path, value):
    path = tmp_path / "bundle.txt"
    save_bundle(path, bundle())
    text = path.read_text()
    for key in ("df_bound0", "b2", "phi_beta", "n_exponent"):
        bad = tmp_path / f"bad_{key}.txt"
        bad.write_text("".join(f"{key} = {value}\n" if line.startswith(key + " ") else line
                               for line in text.splitlines(keepends=True)))
        with pytest.raises(ConfigurationError):
            load_bundle(bad)
