import numpy as np
import pytest

from helmrecon import (
    DiscretizationMismatchError,
    DtnMatrix,
    Grid,
    HelmholtzOperator,
    PwcField,
    apply_df,
    apply_df_adjoint,
    assemble_dtn,
    bank_for_field,
    dtn_data_norm,
    dtn_for_field,
    lipschitz_df_probe,
    make_uniform_partition,
    residual_from,
)
from helmrecon.derivative import Residual, _weighted_df, df_norm_probe, indicator_probes
from helmrecon.domain import l2_norm, mass_scatter_matrix


@pytest.fixture(scope="module")
def setup17():
    g = Grid(17)
    part = make_uniform_partition(g, 2)
    rng = np.random.default_rng(99)
    c = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    from helmrecon import build_boundary_weights

    weights = build_boundary_weights(g)
    dtn, bank = bank_for_field(c, 5.0)
    return g, part, c, weights, dtn, bank


def test_bank_boundary_rows_are_identity(setup17):
    g, _, _, _, _, bank = setup17
    from helmrecon.forward import boundary_loop

    loop = boundary_loop(g)
    assert np.array_equal(bank.solutions[loop], np.eye(g.n_boundary))


def test_apply_df_zero(setup17):
    _, part, _, _, _, bank = setup17
    zero = PwcField(part, np.zeros(4), (1e-12, 1.0))
    assert np.all(apply_df(bank, zero) == 0.0)


def test_apply_df_linear(setup17):
    _, part, _, _, _, bank = setup17
    delta = PwcField(part, np.array([0.3, -0.7, 1.1, 0.2]), (1e-12, 10.0))
    doubled = delta.with_coeffs(2.0 * delta.coeffs)
    assert np.allclose(apply_df(bank, doubled), 2.0 * apply_df(bank, delta), rtol=1e-14)


def test_apply_df_grid_mismatch(setup17):
    _, _, _, _, _, bank = setup17
    other = make_uniform_partition(Grid(9), 2)
    with pytest.raises(DiscretizationMismatchError):
        apply_df(bank, PwcField(other, np.ones(4), (0.5, 2.0)))


def test_finite_difference_orders(setup17):
    # forward differences are first order, central second order
    _, part, c, weights, _, bank = setup17
    delta = PwcField(part, np.array([0.8, -0.5, 0.3, -0.2]), (1e-12, 10.0))
    exact = apply_df(bank, delta)
    ts = np.array([1e-1, 3e-2, 1e-2, 3e-3])
    fwd_errs, cen_errs = [], []
    for t in ts:
        box = (0.5, 3.0)
        plus = PwcField(part, c.coeffs + t * delta.coeffs, box)
        minus = PwcField(part, c.coeffs - t * delta.coeffs, box)
        lam0 = dtn_for_field(c, 5.0).lam
        lam_p = dtn_for_field(plus, 5.0).lam
        lam_m = dtn_for_field(minus, 5.0).lam
        fwd_errs.append(dtn_data_norm((lam_p - lam0) / t - exact, weights))
        cen_errs.append(dtn_data_norm((lam_p - lam_m) / (2 * t) - exact, weights))
    fwd_slope = np.polyfit(np.log(ts), np.log(fwd_errs), 1)[0]
    cen_slope = np.polyfit(np.log(ts), np.log(cen_errs), 1)[0]
    assert fwd_slope == pytest.approx(1.0, abs=0.2)
    assert cen_slope == pytest.approx(2.0, abs=0.2)


def test_adjoint_zero_residual(setup17):
    _, _, _, weights, _, bank = setup17
    out = apply_df_adjoint(bank, np.zeros((weights.nb, weights.nb)))
    assert np.all(out.values == 0.0)


def test_adjoint_dot_product_20_pairs(setup17, rng):
    g, part, _, weights, _, bank = setup17
    scatter = mass_scatter_matrix(g)
    for _ in range(20):
        delta = PwcField(part, rng.standard_normal(4), (1e-12, 10.0))
        r_mat = rng.standard_normal((weights.nb, weights.nb))
        lhs = float(np.sum((apply_df(bank, delta) @ weights.w_minus)
                           * (weights.w_minus @ r_mat)))
        t_field = apply_df_adjoint(bank, r_mat)
        rhs = float(np.sum((scatter @ delta.cell_values()) * t_field.values))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale <= 1e-10


def test_adjoint_direction_matches_brute_force(setup17):
    # one-region bump: the gradient's sign must predict the misfit change
    _, part, c, weights, dtn_c, bank = setup17
    target = PwcField(part, c.coeffs + np.array([0.2, -0.1, 0.15, 0.05]), (0.5, 3.0))
    data = dtn_for_field(target, 5.0)
    res = residual_from(dtn_c, data)
    grad = apply_df_adjoint(bank, res)
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = 1e-4
        moved = PwcField(part, c.coeffs + bump, (0.5, 3.0))
        r_moved = residual_from(dtn_for_field(moved, 5.0), data).norm
        predicted = float(np.sum((mass_scatter_matrix(part.grid)
                                  @ PwcField(part, bump, (1e-12, 1.0)).cell_values())
                                 * grad.values))
        brute = 0.5 * (r_moved ** 2 - res.norm ** 2)
        assert np.sign(predicted) == np.sign(brute)
        assert brute == pytest.approx(predicted, rel=2e-2)


def _bank16(m):
    g = Grid(m)
    part = make_uniform_partition(g, 4)
    c = PwcField(part, np.random.default_rng(m).uniform(1.0, 2.0, 16), (1.0, 2.0))
    return part, bank_for_field(c, 5.0)[1]


@pytest.mark.parametrize("m", [9, 17, 33])
def test_adjoint_matches_dense_einsum(m):
    _, bank = _bank16(m)
    u, wm = bank.solutions, bank.weights.w_minus
    r_mat = np.random.default_rng(7).standard_normal((bank.weights.nb,) * 2)
    assert np.abs(r_mat - r_mat.T).max() > 0.1  # a non-symmetric R must be handled
    oracle = bank.omega2 * np.einsum("np,pq,nq->n", u, wm @ r_mat @ wm, u, optimize=True)
    values = apply_df_adjoint(bank, r_mat).values
    assert np.linalg.norm(values - oracle) <= 1e-13 * np.linalg.norm(oracle)


@pytest.mark.parametrize("m", [9, 17, 33])
def test_apply_df_matches_dense_product(m):
    part, bank = _bank16(m)
    u = bank.solutions
    signed = np.random.default_rng(3).standard_normal(16)
    signed[[0, 5, 6, 15]] = 0.0
    cases = {
        "indicator": indicator_probes(part)[5],
        "signed with zero regions": PwcField(part, signed, (1e-12, 10.0)),
        "zero": PwcField(part, np.zeros(16), (1e-12, 1.0)),
    }
    for name, delta in cases.items():
        s = np.asarray(mass_scatter_matrix(part.grid) @ delta.cell_values())
        dense = bank.omega2 * ((u * s[:, None]).T @ u)
        out = apply_df(bank, delta)
        assert out.shape == (bank.weights.nb,) * 2, name
        if name == "zero":
            assert np.all(out == 0.0)
        else:
            assert np.linalg.norm(out - dense) <= 1e-13 * np.linalg.norm(dense), name


@pytest.mark.parametrize("m", [17, 33])
def test_weighted_probe_norms_match_the_data_norm_of_apply_df(m):
    # the probes read ||DF(delta)||_Y as ||W^1/2 DF(delta) W^1/2||_F, formed from
    # the bank's weighted rows, not as dtn_data_norm of apply_df
    part, bank = _bank16(m)
    mixed = np.random.default_rng(m).standard_normal(part.grid.n_cells)
    assert (mixed > 0).any() and (mixed < 0).any()
    for delta in [*indicator_probes(part), mixed]:
        ref = dtn_data_norm(apply_df(bank, delta), bank.weights)
        assert float(np.linalg.norm(_weighted_df(bank, delta))) == pytest.approx(ref, rel=1e-12)
    probes = indicator_probes(part)
    best = max(dtn_data_norm(apply_df(bank, d), bank.weights) / l2_norm(d) for d in probes)
    assert df_norm_probe(bank, probes) == pytest.approx(best, rel=1e-12)

    c1 = PwcField(part, np.random.default_rng(1).uniform(1.0, 2.0, 16), (1.0, 2.0))
    c2 = PwcField(part, np.random.default_rng(2).uniform(1.0, 2.0, 16), (1.0, 2.0))
    assert lipschitz_df_probe(c1, c1, 5.0) == 0.0
    bank1, bank2 = bank_for_field(c1, 5.0)[1], bank_for_field(c2, 5.0)[1]
    best = max(dtn_data_norm(apply_df(bank1, d) - apply_df(bank2, d), bank.weights) / l2_norm(d)
               for d in probes)
    assert lipschitz_df_probe(c1, c2, 5.0) == pytest.approx(best, rel=1e-12)


def test_bank_for_field_matches_dtn_for_field(setup17):
    _, _, c, weights, dtn, bank = setup17
    assert bank.grid == c.grid
    ref_dtn, ref_bank = assemble_dtn(HelmholtzOperator(c, 5.0))
    assert np.array_equal(ref_dtn.lam, dtn.lam)
    assert np.array_equal(ref_bank.solutions, bank.solutions)
    assert np.array_equal(dtn_for_field(c, 5.0).lam, dtn.lam)
    assert bank_for_field(c, 5.0)[1].grid == c.grid


def test_residual_from_rejects_frequency_mismatch(setup17):
    _, _, _, weights, dtn, _ = setup17
    other = DtnMatrix(lam=dtn.lam, weights=weights, omega2=4.0)
    with pytest.raises(DiscretizationMismatchError, match="frequencies"):
        residual_from(dtn, other)


def _dtn_on_grid9():
    return dtn_for_field(PwcField(make_uniform_partition(Grid(9), 1), np.array([1.5]),
                                  (1.0, 2.0)), 5.0)


def test_residual_from_rejects_mixed_weights(setup17):
    # weights belong to a grid, so mixed weights are mixed grids
    _, _, _, _, dtn, _ = setup17
    with pytest.raises(DiscretizationMismatchError, match="grids"):
        residual_from(dtn, _dtn_on_grid9())


def test_adjoint_rejects_residual_with_other_weights(setup17):
    _, _, _, _, _, bank = setup17
    other = _dtn_on_grid9()
    res = Residual(matrix=other.lam, weights=other.weights)
    with pytest.raises(DiscretizationMismatchError):
        apply_df_adjoint(bank, res)


def test_residual_norm_recomputed_consistent(setup17, rng):
    _, _, _, weights, _, _ = setup17
    mat = rng.standard_normal((weights.nb, weights.nb))
    res = Residual(matrix=mat, weights=weights)
    assert res.norm == dtn_data_norm(mat, weights)


def test_lipschitz_probe_zero_for_equal_fields(setup17):
    _, _, c, weights, _, _ = setup17
    assert lipschitz_df_probe(c, c, 5.0) == 0.0


def test_lipschitz_probe_frequency_sixteenth_when_omega_halved(grid17, weights17):
    part = make_uniform_partition(grid17, 2)
    c1 = PwcField(part, np.full(4, 1.4), (1.0, 2.0))
    c2 = PwcField(part, np.array([1.6, 1.3, 1.5, 1.45]), (1.0, 2.0))
    w2 = 4e-2
    hi = lipschitz_df_probe(c1, c2, w2)
    lo = lipschitz_df_probe(c1, c2, w2 / 4.0)  # omega halved
    assert hi / lo == pytest.approx(16.0, rel=0.5)  # within a factor of two


def test_df_bound_scales_with_omega_squared(grid17, weights17):
    part = make_uniform_partition(grid17, 2)
    c = PwcField(part, np.full(4, 1.5), (1.0, 2.0))
    probes = indicator_probes(part)
    w2s = np.geomspace(1e-3, 1.0, 5)
    norms = []
    for w2 in w2s:
        _, bank = bank_for_field(c, w2)
        norms.append(df_norm_probe(bank, probes))
    slope = np.polyfit(np.log(w2s), np.log(norms), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def test_frechet_remainder_second_order(setup17):
    # || F(c+d) - F(c) - DF(d) || = O(||d||^2)
    _, part, c, weights, dtn_c, bank = setup17
    direction = np.array([0.6, -0.4, 0.5, -0.3])
    sizes = np.array([1e-1, 3e-2, 1e-2, 3e-3])
    errs, dists = [], []
    for s in sizes:
        moved = PwcField(part, c.coeffs + s * direction, (0.5, 3.0))
        lam = dtn_for_field(moved, 5.0).lam
        df = apply_df(bank, PwcField(part, s * direction, (1e-12, 10.0)))
        errs.append(dtn_data_norm(lam - dtn_c.lam - df, weights))
        dists.append(l2_norm(PwcField(part, s * direction, (1e-12, 10.0))))
    slope = np.polyfit(np.log(dists), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
