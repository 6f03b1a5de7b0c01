import numpy as np
import pytest

from helmrecon import (
    ConfigurationError,
    Grid,
    PwcField,
    estimate_lipschitz_constant,
    gradient_check,
    make_uniform_partition,
)
from helmrecon import verify
from helmrecon.derivative import indicator_probes
from helmrecon.verify import audit_alessandrini


@pytest.fixture(scope="module")
def fields17():
    g = Grid(17)
    part = make_uniform_partition(g, 2)
    rng = np.random.default_rng(4)
    c1 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    c2 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    return g, part, c1, c2


@pytest.mark.parametrize("trials", [0, -3, 2.5, "3"])
def test_identity_audit_needs_a_trial(fields17, trials, monkeypatch):
    # with no trial the audit would return a defect of 0.0 and pass; a
    # fractional or string count is refused too, before any solve, not by range()
    _, _, c1, c2 = fields17

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking trials")

    monkeypatch.setattr(verify, "bank_for_field", no_solve)
    for other in (c1, c2):
        with pytest.raises(ConfigurationError, match="trial"):
            audit_alessandrini(c1, other, 5.0, trials=trials, seed=0)


def test_identity_audit_refuses_an_unknown_variant(fields17):
    # equal fields return before any evaluation, so the check comes first
    _, _, c1, c2 = fields17
    for other in (c1, c2):
        with pytest.raises(ConfigurationError, match="variant"):
            audit_alessandrini(c1, other, 5.0, trials=3, seed=0, variant="upwind")


def test_identity_audit_zero_for_equal_fields(fields17):
    _, _, c1, _ = fields17
    assert audit_alessandrini(c1, c1, 5.0, trials=3, seed=0) == 0.0


def test_identity_audit_variational_flux(fields17):
    _, _, c1, c2 = fields17
    defect = audit_alessandrini(c1, c2, 5.0, trials=25, seed=1)
    assert defect <= 1e-9


def test_identity_audit_degrades_with_one_sided_flux(fields17):
    _, _, c1, c2 = fields17
    good = audit_alessandrini(c1, c2, 5.0, trials=10, seed=1)
    bad = audit_alessandrini(c1, c2, 5.0, trials=10, seed=1, variant="one_sided")
    assert bad > 1e-4
    assert bad > 1e3 * max(good, 1e-300)


def test_identity_audit_fine_grid_pair():
    # at m = 129 this pair's terms nearly cancel on one boundary pair; relative
    # to max(|lhs|, |rhs|) rather than to the summed terms it read 2.3e-9
    g = Grid(129)
    part = make_uniform_partition(g, 2)
    rng = np.random.default_rng(7)
    c1 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    c2 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    assert audit_alessandrini(c1, c2, 5.0, seed=7) <= 1e-9
    bad = audit_alessandrini(c1, c2, 5.0, seed=7, variant="one_sided")
    assert bad > 1e-3


def test_gradient_check_zero_direction(fields17):
    _, part, c1, _ = fields17
    zero = PwcField(part, np.zeros(4), (1e-12, 1.0))
    row = gradient_check(c1, 5.0, [zero])[0]
    assert row.passed
    assert row.rel_err_smallest_t == 0.0


def test_gradient_check_indicator_and_random_directions(fields17, rng):
    _, part, c1, _ = fields17
    deltas = indicator_probes(part)[:2]
    deltas += [PwcField(part, rng.standard_normal(4), (1e-12, 10.0)) for _ in range(2)]
    rows = gradient_check(c1, 5.0, deltas)
    for row in rows:
        assert row.slope >= 1.8
        assert row.rel_err_smallest_t <= 1e-5
        assert row.passed


def test_gradient_check_rejects_bad_direction_before_solving(fields17, monkeypatch):
    g, part, c1, _ = fields17
    other = make_uniform_partition(g, 4)
    bad = [np.ones(4), PwcField(other, np.ones(16), (1e-12, 1.0))]

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the directions")

    monkeypatch.setattr(verify, "bank_for_field", no_solve)
    for delta in bad:
        with pytest.raises(ConfigurationError, match="partition"):
            gradient_check(c1, 5.0, [indicator_probes(part)[0], delta])


@pytest.mark.parametrize("t_values", [(1e-1, 0.0), (1e-1, -1e-2), (1e-1, np.nan),
                                      (np.inf, 1e-2), ()])
def test_gradient_check_refuses_degenerate_t(fields17, t_values, monkeypatch):
    # t = 0 gave slope inf after divide-by-zero warnings, t < 0 a bare
    # LinAlgError from np.polyfit, no t at all an IndexError
    _, part, c1, _ = fields17

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the t values")

    monkeypatch.setattr(verify, "bank_for_field", no_solve)
    with pytest.raises(ConfigurationError, match="t values"):
        gradient_check(c1, 5.0, indicator_probes(part)[:1], t_values=t_values)


def test_gradient_check_shrinks_t_when_guard_fails(fields17):
    # a huge direction pushes c +- t*d out of positivity at t = 0.1; the check
    # must shrink t rather than fail
    _, part, c1, _ = fields17
    big = PwcField(part, np.full(4, 40.0), (1e-12, 100.0))
    row = gradient_check(c1, 5.0, [big], t_values=(1e-1, 1e-2))
    assert row[0].t_values[0] < 1e-1


def test_stability_sampling_n1_ratio_finite_and_stable(grid17):
    rep = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(1,),
                                      samples_per_n=6, seed=11)
    assert rep.max_ratios[0] > 0
    ratios = [s.ratio for s in rep.samples]
    assert max(ratios) / min(ratios) < 50  # same-N ratios live on one scale


def test_stability_sampling_refuses_no_region_count(grid17):
    # an empty sweep ended in a bare IndexError
    with pytest.raises(ConfigurationError, match="region count"):
        estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=())


@pytest.mark.parametrize("samples_per_n", [0, -1, 2.5, "6"])
def test_stability_sampling_refuses_a_sample_count_below_one(grid17, monkeypatch,
                                                             samples_per_n):
    # with 0 the sweep returned only its adversarial pairs; the count is
    # refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking samples_per_n")

    monkeypatch.setattr(verify, "build_boundary_weights", no_solve)
    with pytest.raises(ConfigurationError, match="sample"):
        estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(1, 4),
                                    samples_per_n=samples_per_n)


@pytest.mark.parametrize("big_ns", [(1, 2.5), (1, 0), (np.nan,), (1, "4"), (True, 4)])
def test_stability_sampling_refuses_a_region_count_that_is_not_an_integer(grid17, monkeypatch,
                                                                          big_ns):
    # (1, 2.5) solved at N = 1 and then ended in a bare TypeError inside the
    # sweep; every region count is refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking big_ns")

    monkeypatch.setattr(verify, "dtn_for_field", no_solve)
    with pytest.raises(ConfigurationError, match="region counts"):
        estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=big_ns, samples_per_n=1)


def test_stability_sampling_takes_numpy_integer_region_counts(grid17):
    kwargs = dict(samples_per_n=1, seed=3)
    rep = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(np.int64(1),), **kwargs)
    assert rep.max_ratios == estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(1,),
                                                         **kwargs).max_ratios


def test_stability_growth_and_determinism(grid17):
    kwargs = dict(big_ns=(1, 4, 16), samples_per_n=4, seed=5)
    rep1 = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, **kwargs)
    rep2 = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, **kwargs)
    assert rep1.max_ratios == rep2.max_ratios
    assert rep1.khat_fit == rep2.khat_fit
    for a, b in zip(rep1.max_ratios, rep1.max_ratios[1:]):
        assert b >= 0.9 * a


def test_stability_khat_bound_dominates_all_samples(grid17):
    rep = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(1, 4),
                                      samples_per_n=5, seed=2)
    covered = 0
    for s in rep.samples:
        bound = np.exp(rep.khat_bound * (1.0 + rep.omega2 * rep.b2)
                       * s.big_n ** rep.n_exponent) / rep.omega2
        covered += s.ratio <= bound * (1 + 1e-12)
    assert covered / len(rep.samples) >= 0.95


def test_stability_reports_operator_norm_variant(grid17):
    rep = estimate_lipschitz_constant(grid17, 1.0, 1.0, 2.0, big_ns=(1, 4),
                                      samples_per_n=4, seed=3)
    # Hilbert-Schmidt norm dominates the operator norm, so those ratios are lower
    for hs, op in zip(rep.max_ratios, rep.max_ratios_op):
        assert op >= hs
