import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmrecon import (
    AdmissibilityError,
    ConfigurationError,
    DiscretizationMismatchError,
    DtnMatrix,
    Grid,
    HelmholtzOperator,
    assemble_dtn,
    NearEigenfrequencyError,
    NodalField,
    Partition,
    PwcField,
    SolutionBank,
    apply_df,
    apply_df_adjoint,
    bank_for_field,
    build_boundary_weights,
    dtn_data_norm,
    dtn_for_field,
    load_dtn,
    make_uniform_partition,
    save_dtn,
    spectrum_guard,
)
from helmrecon import forward
from helmrecon.domain import grid_laplacian, interior_nodes, mass_scatter_matrix, node_quad_weights
from helmrecon.forward import boundary_loop, unit_square_eigenvalues

LAM1 = 2 * np.pi ** 2


def const_field(m, value=1.0, bounds=(0.5, 2.0)):
    part = make_uniform_partition(Grid(m), 1)
    return PwcField(part, np.array([float(value)]), bounds)


# ---------------------------------------------------------------- guard


def test_guard_low_window_example():
    win = spectrum_guard(5.0, 1.0, 2.0)
    assert win.kind == "low"
    assert win.window[1] == pytest.approx(LAM1 / 2.0)
    assert win.distance == pytest.approx(LAM1 / 2.0 - 5.0)


def test_guard_rejects_band_edge_exactly():
    with pytest.raises(AdmissibilityError, match="band 1"):
        spectrum_guard(LAM1 / 2.0, 1.0, 2.0)


def test_guard_rejects_exact_eigenvalue():
    with pytest.raises(AdmissibilityError):
        spectrum_guard(LAM1, 1.0, 1.0)


@pytest.mark.parametrize("omega2, b1, b2", [(np.nan, 1.0, 2.0), (np.inf, 1.0, 2.0),
                                            (-np.inf, 1.0, 2.0), (5.0, np.nan, 2.0),
                                            (5.0, 1.0, np.nan), (5.0, 1.0, np.inf)])
def test_guard_rejects_non_finite_inputs(omega2, b1, b2):
    with pytest.raises(ConfigurationError):
        spectrum_guard(omega2, b1, b2)


def test_guard_band_window():
    # between lam_1 = 2 pi^2 and lam_2 = 5 pi^2 for the unit coefficient box
    win = spectrum_guard(30.0, 1.0, 1.0)
    assert win.kind == "band"
    assert win.band_index == 1
    assert win.window[0] == pytest.approx(LAM1)
    assert win.window[1] == pytest.approx(5 * np.pi ** 2)


def test_guard_monotone_in_bounds(rng):
    # admissible for (b1, b2) stays admissible for any narrower box
    for _ in range(50):
        b1 = rng.uniform(0.5, 1.5)
        b2 = b1 + rng.uniform(0.0, 1.5)
        w2 = rng.uniform(1e-3, 40.0)
        try:
            spectrum_guard(w2, b1, b2)
        except AdmissibilityError:
            continue
        bb1 = rng.uniform(b1, b2)
        bb2 = rng.uniform(bb1, b2)
        spectrum_guard(w2, bb1, bb2)  # must not raise


def test_eigenvalue_enumeration():
    lams = unit_square_eigenvalues(100.0)
    expected = np.pi ** 2 * np.array([2, 5, 8, 10])
    assert np.allclose(lams[:4], expected)
    assert lams[-1] > 100.0


def _eigenvalues_brute_force(upto):
    p = np.arange(1, 40)
    lams = np.pi ** 2 * np.unique((p[:, None] ** 2 + p[None, :] ** 2).ravel())
    return np.concatenate([lams[lams <= upto], lams[lams > upto][:1]])


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 6.5, 11.0, 11.5, 12.0,
                               20.0, 20.5, 21.0, 23.0, 24.5, 30.5, 99.9, 100.0, 200.5])
def test_eigenvalue_enumeration_matches_brute_force(x):
    # runs of integers such as 21-24 are not sums of two positive squares, so
    # the first eigenvalue above upto can lie well past it
    upto = x * np.pi ** 2
    assert np.array_equal(unit_square_eigenvalues(upto), _eigenvalues_brute_force(upto))


# ---------------------------------------------------------------- discrete guard


def test_discrete_guard_refuses_a_continuum_low_window_at_a_discrete_eigenvalue():
    # m = 17, box (1, 1.5): omega^2 = lam^h_11 / 1.5 is an eigenvalue of the
    # discrete system for c = 1.5, and 13.138 lies inside the discrete band
    # [lam^h_11 / 1.5, lam^h_11]; the continuum guard calls both 'low'
    g, box = Grid(17), (1.0, 1.5)
    lam = (4.0 / g.h ** 2) * 2.0 * np.sin(0.5 * np.pi * g.h) ** 2
    part = make_uniform_partition(g, 1)
    for omega2, c in ((lam / 1.5, 1.5), (13.138, lam / 13.138 * (1 + 1e-6))):
        assert spectrum_guard(omega2, *box).kind == "low"
        with pytest.raises(AdmissibilityError, match="discrete band"):
            HelmholtzOperator(PwcField(part, np.array([c]), box), omega2)
    HelmholtzOperator(PwcField(part, np.array([1.5]), box), 0.999 * lam / 1.5)  # below the band


def test_operator_refuses_a_field_outside_its_box():
    # m = 33, omega^2 = 0.9 lam^h_11 / 2 is certified low for the box (1, 2), but
    # omega^2 c = 22.19 > lam^h_11 = 19.72 at c = 2.5: K_ii is indefinite there
    g = Grid(33)
    lam = (4.0 / g.h ** 2) * 2.0 * np.sin(0.5 * np.pi * g.h) ** 2
    omega2 = 0.9 * lam / 2.0
    part = make_uniform_partition(g, 1)
    assert spectrum_guard(omega2, 1.0, 2.0).kind == "low"
    with pytest.raises(AdmissibilityError, match="leave the box"):
        HelmholtzOperator(PwcField(part, np.array([2.5]), (1.0, 2.0)), omega2)
    with pytest.raises(AdmissibilityError, match="leave the box"):
        HelmholtzOperator(PwcField(part, np.array([0.5]), (1.0, 2.0)), omega2)
    with pytest.raises(AdmissibilityError):  # the box that holds it is not certified
        HelmholtzOperator(PwcField(part, np.array([2.5]), (1.0, 2.5)), omega2)
    HelmholtzOperator(PwcField(part, np.array([2.0]), (1.0, 2.0)), omega2)  # the box's edge


def test_discrete_guard_covers_every_singular_frequency(rng):
    # the generalized eigenvalues of (-Delta_h, diag(mean c)) of random
    # four-region fields, the frequencies where the interior system is
    # singular, all lie in a discrete band of the box, which the discrete
    # guard refuses
    m, box = 9, (1.0, 2.0)
    g = Grid(m)
    ii = interior_nodes(g)
    lap = grid_laplacian(g)[ii][:, ii].toarray() / g.h ** 2
    sin2 = np.sin(0.5 * np.pi * g.h * np.arange(1, m - 1)) ** 2
    lam_h = np.sort((4.0 / g.h ** 2 * (sin2[:, None] + sin2[None, :])).ravel())
    assert np.allclose(np.linalg.eigvalsh(lap), lam_h, rtol=1e-12)
    part = make_uniform_partition(g, 2)
    for _ in range(3):
        c = PwcField(part, rng.uniform(*box, part.n_regions), box)
        mean_c = (mass_scatter_matrix(g) @ c.cell_values())[ii] / g.h ** 2
        singular = np.linalg.eigvalsh(lap / np.sqrt(mean_c)[:, None] / np.sqrt(mean_c)[None, :])
        for w2 in singular:
            assert ((lam_h / box[1] <= w2) & (w2 <= lam_h / box[0])).any()
            with pytest.raises(AdmissibilityError, match="discrete band"):
                forward._discrete_guard(g, w2, *box)


# ---------------------------------------------------------------- solver


def test_manufactured_solution_second_order():
    errs = {}
    for m in (17, 33):
        g = Grid(m)
        op = HelmholtzOperator(const_field(m), 1.0)
        ustar = NodalField.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        f = NodalField(g, (2 * np.pi ** 2 - 1.0) * ustar.values)
        u = op.solve(g=None, f=f)
        errs[m] = np.abs(u.values - ustar.values).max()
    ratio = errs[17] / errs[33]
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_harmonic_limit_exact():
    m = 17
    g = Grid(m)
    op = HelmholtzOperator(const_field(m), 1e-6)
    ustar = NodalField.from_function(g, lambda x, y: x * x - y * y)
    f = NodalField(g, -1e-6 * ustar.values)
    gb = ustar.values[boundary_loop(g)]
    u = op.solve(g=gb, f=f)
    assert np.abs(u.values - ustar.values).max() < 1e-12


def test_zero_data_gives_zero_solution():
    op = HelmholtzOperator(const_field(17), 1.0)
    u = op.solve()
    assert np.all(u.values == 0.0)


@pytest.mark.parametrize("source", [NodalField(Grid(17), np.ones(17 * 17)), np.ones(5)])
def test_solve_rejects_wrong_size_source(source):
    op = HelmholtzOperator(const_field(9), 1.0)
    with pytest.raises(DiscretizationMismatchError):
        op.solve(f=source)


@pytest.mark.parametrize("where", ["g", "f"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_refuses_non_finite_data(where, bad, monkeypatch):
    # a NaN in g gave a field NaN at every interior node with no error (the
    # residual check's reference norm was NaN); an inf in f ended as
    # NearEigenfrequencyError after a RuntimeWarning
    op = HelmholtzOperator(const_field(17), 1.0)
    data = {"g": np.ones(Grid(17).n_boundary), "f": np.ones(17 * 17)}
    data[where][5] = bad

    def no_solve(self, rhs):
        raise AssertionError("solved before checking the data")

    monkeypatch.setattr(HelmholtzOperator, "_solve_skeleton", no_solve)
    with pytest.raises(ConfigurationError, match="finite"):
        op.solve(**data)


def _spy_dgetrf(monkeypatch, info=None, at=None):
    """Record the pivot moduli of each dense skeleton factor as getrf returns
    it; with info, report it as LAPACK's info, on every call or on call
    number at (from 0) only."""
    calls = []
    dgetrf = forward.lapack.dgetrf

    def spy(*args, **kwargs):
        lu, piv, code = dgetrf(*args, **kwargs)
        calls.append(np.abs(np.diagonal(lu)))
        return lu, piv, code if info is None or at not in (None, len(calls) - 1) else info

    monkeypatch.setattr(forward.lapack, "dgetrf", spy)
    return calls


def test_near_eigenfrequency_error_smallest_pivot(monkeypatch):
    # omega^2 is the smallest discrete eigenvalue to rounding; with the
    # discrete guard switched off, whichever side of the band edge rounding
    # puts it, the pivots of the dense factor (the backstop for what rounding
    # lets past a band edge) decide
    m = 9
    h = 1.0 / (m - 1)
    lam_h = (4 - 4 * np.cos(np.pi * h)) / h ** 2
    monkeypatch.setattr(forward, "_certify",  # the continuum guard alone
                        lambda grid, omega2, b1, b2: spectrum_guard(omega2, b1, b2))
    calls = _spy_dgetrf(monkeypatch)
    with pytest.raises(NearEigenfrequencyError) as exc:
        HelmholtzOperator(const_field(m, 1.0, (1.0, 1.0)), lam_h)
    assert len(calls) == 1  # the dense skeleton factor decided it
    assert exc.value.smallest_pivot is not None
    assert exc.value.smallest_pivot < 1e-10


def test_exactly_zero_dense_pivot_reports_zero(monkeypatch):
    _spy_dgetrf(monkeypatch, info=3)
    with pytest.raises(NearEigenfrequencyError, match="exactly zero") as exc:
        HelmholtzOperator(const_field(9), 5.0)
    assert exc.value.smallest_pivot == 0.0


@pytest.mark.parametrize("k, getrf", [(2, 1), (4, 5)], ids=["one-level", "two-level"])
def test_pivots_are_the_getrf_diagonal(monkeypatch, k, getrf):
    # getri overwrites each factor with its inverse in place, so the pooled
    # pivots must be read from the getrf diagonal before it; m = 33 with 2
    # regions per side is one factor, with 4 it is four crosses and S_TT
    calls = _spy_dgetrf(monkeypatch)
    part = make_uniform_partition(Grid(33), k)
    c = PwcField(part, np.random.default_rng(k).uniform(1.0, 2.0, part.n_regions), (1.0, 2.0))
    op = HelmholtzOperator(c, 5.0)
    assert len(calls) == getrf
    assert np.array_equal(op._lu.pivots, np.concatenate(calls))


@pytest.mark.parametrize("m", [33, 129])
def test_inverse_solve_near_the_edge_of_a_band_window(m):
    # omega^2 at 1 - 1e-2 of the upper edge of the box (1, 1.05)'s first band
    # window (at 1 - 1e-4 the discrete guard refuses it): the bank solved
    # through explicit inverses keeps its exact five-point residual within
    # 1e-12 of ||K_ib||_F (3.6e-14 at m = 129, 1.4e-14 through getrs)
    box = (1.0, 1.05)
    window = spectrum_guard(3 * np.pi ** 2, *box)
    assert window.band_index == 1
    part = make_uniform_partition(Grid(m), 4)
    c = PwcField(part, np.random.default_rng(0).uniform(*box, part.n_regions), box)
    op = HelmholtzOperator(c, (1 - 1e-2) * window.window[1])
    assert op.factor == "dense"
    bank = forward.solution_bank(op)
    res = op._five_point_residual(bank.solutions)
    assert res <= 1e-12 * np.sqrt(op.grid.n_boundary - 4)


# ------------------------------------------------- SuperLU oracle for the solver

# low window with a four-region field, and band windows of the unit box
ORACLE_CASES = [(m, box, w2) for m in (9, 17, 33)
                for box, w2 in (((1.0, 2.0), 5.0), ((1.0, 1.0), 30.0), ((1.0, 1.0), 85.0))]
# Band windows that once defeated a block elimination without pivoting. At
# m = 33 with c = 1 (d = h^2), omega^2 below is an eigenvalue of the first 21
# interior grid rows. At m = 17, omega^2 = 250 puts the 8- and 4-cell blocks
# past their positive-definiteness margin, so the skeleton uses s = 2.
STRIP_OMEGA2 = 32.0 ** 2 * (4 - 2 * np.cos(np.pi / 22) - 2 * np.cos(np.pi / 32))
ORACLE_CASES += [(33, (1.0, 1.0), STRIP_OMEGA2), (17, (1.0, 1.0), 250.0)]
# Block sizes the uniform four-region cases do not reach: (m, regions per
# side, box, omega^2, block size). s = 1 is the plain interior system; in the
# last case the positive-definiteness margin halves s from 8 down to 2. At m = 5
# with 4 x 4 regions the s = 1 layout groups for the two-level factor; it raised
# a bare IndexError while the grid Laplacian kept explicit zeros.
BLOCK_SIZE_CASES = [(9, 8, (1.0, 2.0), 5.0, 1), (33, 16, (1.0, 2.0), 5.0, 2),
                    (17, 2, (1.0, 1.0), 250.0, 2), (5, 4, (1.0, 2.0), 5.0, 1)]
# The skeleton factor is SuperLU where s = 2 gives more than 2 nb skeleton
# unknowns (n_x = 161 at m = 17, 705 at m = 33), dense LU in every other case.
SUPERLU_CASES = {(17, 2, 250.0), (33, 16, 5.0)}  # (m, regions per side, omega^2)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _matches_splu(m, k, box, omega2, rng):
    """The solver's bank, DtN and single solves against SuperLU on the assembled
    interior system, to 1e-12 relative; returns the operator."""
    g = Grid(m)
    part = make_uniform_partition(g, k)
    c = PwcField(part, rng.uniform(box[0], box[1], part.n_regions), box)
    op = HelmholtzOperator(c, omega2)
    assert op.factor == ("superlu" if (m, k, omega2) in SUPERLU_CASES else "dense")
    gb = rng.standard_normal(g.n_boundary)
    f = rng.standard_normal(g.n_nodes)
    u = op.solve(g=gb, f=f).values  # one right-hand side first, on a fresh factor
    dtn, bank = assemble_dtn(op)

    mass = sp.diags(mass_scatter_matrix(g) @ c.cell_values())
    k_full = (grid_laplacian(g) - omega2 * mass).tocsr()
    ii, bb = interior_nodes(g), boundary_loop(g)
    k_ii, k_ib = k_full[ii][:, ii].tocsc(), k_full[ii][:, bb]
    lu = spla.splu(k_ii)
    u_i = lu.solve(-k_ib.toarray())
    ref_bank = np.zeros((g.n_nodes, bb.size))
    ref_bank[bb] = np.eye(bb.size)
    ref_bank[ii] = u_i
    ref_lam = -(k_full[bb][:, bb].toarray() + k_full[bb][:, ii] @ u_i)
    assert _rel(bank.solutions, ref_bank) <= 1e-12
    assert _rel(dtn.lam, ref_lam) <= 1e-12

    ref_u = np.zeros(g.n_nodes)
    ref_u[bb] = gb
    ref_u[ii] = lu.solve(-(k_ib @ gb) + (node_quad_weights(g) * f)[ii])
    assert _rel(u, ref_u) <= 1e-12
    assert _rel(assemble_dtn(HelmholtzOperator(c, omega2))[1].solutions, ref_bank) <= 1e-12
    return op


@pytest.mark.parametrize("m, box, omega2", ORACLE_CASES)
def test_block_solver_matches_splu(m, box, omega2, rng):
    _matches_splu(m, 2, box, omega2, rng)


@pytest.mark.parametrize("m, k, box, omega2, s", BLOCK_SIZE_CASES)
def test_skeleton_solver_matches_splu_at_every_block_size(m, k, box, omega2, s, rng):
    assert _matches_splu(m, k, box, omega2, rng).block_size == s


@pytest.mark.parametrize("m, k, s", [(17, 1, 8), (33, 1, 16), (33, 4, 8), (33, 16, 2),
                                     (65, 1, 32), (129, 1, 32), (129, 4, 32), (129, 8, 16),
                                     (3, 1, 1)])
def test_block_size_divides_regions_within_the_caps(m, k, s):
    # s <= (m - 1) / 2 and s <= 32, the measured optima
    part = make_uniform_partition(Grid(m), k)
    c = PwcField(part, np.full(part.n_regions, 2.0), (1.0, 2.0))
    assert HelmholtzOperator(c, 5.0).block_size == s


@pytest.mark.parametrize("k, n_x, factor", [(4, 177, "dense"), (8, 385, "superlu")])
def test_skeleton_factor_is_dense_up_to_twice_the_loop(k, n_x, factor):
    # nb = 128 at m = 33: dense LU for n_x <= 256 skeleton unknowns
    part = make_uniform_partition(Grid(33), k)
    op = HelmholtzOperator(PwcField(part, np.full(part.n_regions, 2.0), (1.0, 2.0)), 5.0)
    assert (op._sk.n_x, op.factor) == (n_x, factor)


# The dense factor groups an even number of blocks per side, at least 4, into
# 2 x 2 super-blocks when every super-block interior keeps the block margin:
# four cross factors and one of the coarse skeleton T (m = 17: s = 4, crosses
# of 13 nodes, T of 29; m = 33: s = 8, crosses of 29, T of 61). Otherwise one
# factor of K~_XX: 2 blocks per side; an odd block count (m = 25: 3 blocks of
# s = 8); a band window where the 8-cell blocks keep the margin but the
# 16-cell super-blocks do not. (m, regions per side, box, omega^2, s, getrf calls)
TWO_LEVEL_CASES = [(17, 4, (1.0, 2.0), 5.0, 4, 5), (33, 4, (1.0, 2.0), 5.0, 8, 5),
                   (33, 2, (1.0, 2.0), 5.0, 16, 1), (25, 3, (1.0, 2.0), 5.0, 8, 1),
                   (33, 4, (1.0, 1.0), 85.0, 8, 1)]


@pytest.mark.parametrize("m, k, box, omega2, s, getrf", TWO_LEVEL_CASES)
def test_two_level_factor_matches_splu(m, k, box, omega2, s, getrf, rng, monkeypatch):
    calls = _spy_dgetrf(monkeypatch)
    op = _matches_splu(m, k, box, omega2, rng)
    assert op.block_size == s
    assert len(calls) == 2 * getrf  # _matches_splu factors the field twice


def _held_bytes(obj, seen) -> int:
    """Bytes of the numpy arrays reachable from obj through dataclass fields
    (cached properties included), tuples and sparse matrices, each buffer once."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if sp.issparse(obj):
        return sum(_held_bytes(getattr(obj, name), seen)
                   for name in ("data", "indices", "indptr", "row", "col") if hasattr(obj, name))
    if isinstance(obj, tuple):
        return sum(_held_bytes(x, seen) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_held_bytes(v, seen) for v in vars(obj).values())
    return 0


def test_dense_layout_holds_no_condensed_pattern(monkeypatch):
    # the dense factor assembles its blocks from the ring forms directly: at
    # m = 129 with 4 regions per side (s = 32, grouped) the static structures
    # it reads hold under 6.5 MiB (11.8 MiB with the CSC pattern beside them,
    # 6.8 with a gather index of the X-row ring-form entries and a sparse
    # ring-to-skeleton sum), and the CSC pattern is built for a SuperLU layout
    # only
    calls, plan = [], forward._csc_plan
    monkeypatch.setattr(forward, "_csc_plan", lambda *args: calls.append(args) or plan(*args))
    grid = Grid(129)
    part = make_uniform_partition(grid, 4)
    op = HelmholtzOperator(PwcField(part, np.full(16, 1.5), (1.0, 2.0)), 5.0)
    assert (op.block_size, op.factor, len(op._lu._dis.crosses)) == (32, "dense", 4)
    seen = set()
    held = _held_bytes(forward._skeleton(grid, 32), seen) + _held_bytes(
        forward._dissection(grid, 32, True), seen)
    assert held < 6.5 * 2 ** 20
    assert calls == []
    part = make_uniform_partition(Grid(33), 16)
    op = HelmholtzOperator(PwcField(part, np.full(256, 1.5), (1.0, 2.0)), 5.0)
    assert (op.block_size, op.factor) == (2, "superlu")
    assert calls == [(Grid(33), 2)]


def _dissection_by_masks(grid, s, grouped):
    """The _Dissection built one dense block at a time: a masked pass over
    every term with a row in X per block: the oracle of forward._dissection."""
    sk = forward._skeleton(grid, s)
    n_x, n_sigma = sk.n_x, sk.nodes.size
    owner = np.full(n_sigma, -1)
    owner[:n_x] = 0
    if grouped:
        i, j = np.divmod(sk.nodes[:n_x], grid.m)
        size, per_side = 2 * s, grid.cells_per_side // (2 * s)
        owner[:n_x] = np.where((i % size != 0) & (j % size != 0),
                               i // size * per_side + j // size, -1)
    all_rows, all_cols, lap = forward._term_positions(sk)
    in_x = np.flatnonzero(all_rows < n_x)
    rows, cols = all_rows[in_x], all_cols[in_x]
    crosses = np.stack([np.flatnonzero(owner == c) for c in range(owner.max() + 1)])
    rings = [np.unique(cols[(owner[rows] == c) & (owner[cols] != c)]) for c in range(len(crosses))]
    coarse = np.flatnonzero(owner[:n_x] < 0)
    blocks = [pair for cross, ring in zip(crosses, rings)
              for pair in ((cross, cross), (cross, ring), (ring[ring < n_x], cross))]
    blocks += [(coarse, coarse), (coarse, np.arange(n_x, n_sigma))]
    offsets = np.cumsum([0] + [r.size * c.size for r, c in blocks])
    slots = np.full(all_rows.size, offsets[-1])
    for (r, c), offset in zip(blocks, offsets):
        at_row, at_col = np.full(n_sigma, -1), np.full(n_sigma, -1)
        at_row[r], at_col[c] = np.arange(r.size), np.arange(c.size)
        i, j = at_row[rows], at_col[cols]
        mine = (i >= 0) & (j >= 0)
        slots[in_x[mine]] = offset + i[mine] + j[mine] * r.size
    ring_t = tuple(np.searchsorted(coarse, r[r < n_x]) for r in rings)
    ring_loop = tuple(r[r >= n_x] - n_x for r in rings)
    n_t, nb = coarse.size, grid.n_boundary
    schur, tb = offsets[3 * len(crosses)], offsets[3 * len(crosses) + 1]
    return forward._Dissection(
        crosses=crosses, coarse=coarse, ring_t=ring_t, ring_loop=ring_loop,
        offsets=offsets, slots=slots[lap.size:], lap_slots=slots[:lap.size], lap_values=lap,
        nb=nb,
        update_at=tuple(np.hstack([schur + rt[:, None] + rt[None, :] * n_t,
                                   tb + rt[:, None] + rl[None, :] * n_t])
                        for rt, rl in zip(ring_t, ring_loop)),
        bank_at=tuple(c[:, None] * nb + rl[None, :] for c, rl in zip(crosses, ring_loop)))


# (m, block size, grouped): ungrouped at 2, 4 and 8 blocks per side, grouped at
# 4 and 8, from m = 17 to the m = 129 layout of 4 regions per side
@pytest.mark.parametrize("m, s, grouped", [(17, 8, False), (33, 8, False), (65, 8, False),
                                           (17, 4, True), (33, 8, True), (17, 2, True),
                                           (65, 8, True), (129, 16, True), (129, 32, True)])
def test_one_pass_dissection_matches_the_per_block_build(m, s, grouped):
    grid = Grid(m)
    got, want = forward._dissection(grid, s, grouped), _dissection_by_masks(grid, s, grouped)
    for name in forward._Dissection.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, tuple):
            assert len(a) == len(b), name
        else:
            a, b = [a], [b]
        for x, y in zip(a, b):
            assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y), name


def _condensed(op, v):
    """K~ v = L_SS v - omega^2 diag(d_S) v - sum_b (F^T D_b F v_ring) on the
    ring of b, for skeleton values v (n_skeleton, k)."""
    sk = op._sk
    out = sk.l_sigma @ v
    out -= op._mass[:, None] * v
    np.subtract.at(out, sk.ring.ravel(), (op._forms @ v[sk.ring]).reshape(-1, v.shape[1]))
    return out


# (m, regions per side, block size, factor): s = 1, dense ungrouped, dense
# grouped, SuperLU at s = 4 and at s = 2
@pytest.mark.parametrize("m, k, s, factor", [(9, 8, 1, "dense"), (17, 2, 8, "dense"),
                                             (33, 4, 8, "dense"), (33, 8, 4, "superlu"),
                                             (17, 8, 2, "superlu")])
def test_dtn_is_the_loop_rows_of_the_condensed_operator(m, k, s, factor, rng):
    # the DtN, read from the loop rows of K~ alone, against the whole product
    # K~ [V_X; I]: bit for bit, but at s = 2, where a side of a block ring is
    # one row and its ring-form product a vector-matrix product, which may
    # sum in another order
    part = make_uniform_partition(Grid(m), k)
    op = HelmholtzOperator(PwcField(part, rng.uniform(1.0, 2.0, k * k), (1.0, 2.0)), 5.0)
    assert (op.block_size, op.factor) == (s, factor)
    if (m, k) == (33, 4):
        assert len(op._lu._dis.crosses) == 4
    dtn, bank = assemble_dtn(op)
    sk, nb = op._sk, Grid(m).n_boundary
    v = np.zeros((sk.nodes.size, nb))
    v[:sk.n_x] = bank.skeleton
    v[sk.n_x:] = np.eye(nb)
    oracle = -_condensed(op, v)[sk.n_x:]
    if s == 2:
        assert _rel(dtn.lam, oracle) <= 1e-15
    else:
        assert np.array_equal(dtn.lam, oracle)


def test_exactly_singular_superlu_factor_reports_zero(monkeypatch):
    # m = 17, 8 regions per side: s = 2, n_x = 161 > 2 nb = 128, the SuperLU path
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(forward.spla, "splu", singular)
    with pytest.raises(NearEigenfrequencyError, match="exactly singular") as exc:
        HelmholtzOperator(_audit_case(8), 5.0)
    assert exc.value.smallest_pivot == 0.0


def test_exactly_zero_pivot_in_a_cross_factor_reports_zero(monkeypatch):
    calls = _spy_dgetrf(monkeypatch, info=3, at=1)
    with pytest.raises(NearEigenfrequencyError, match="exactly zero") as exc:
        HelmholtzOperator(_audit_case(4), 5.0)  # grouped: m = 17, s = 4
    assert len(calls) == 2  # the second cross factor decided it
    assert exc.value.smallest_pivot == 0.0


@pytest.mark.parametrize("at", [1, 4], ids=["cross", "coarse"])
def test_pivot_test_pools_every_factor(monkeypatch, at):
    # a pivot shrunk to 1e-14 of its size in one factor, a cross factor or
    # S_TT (the fifth), fails the _PIVOT_RTOL test of the pooled pivots
    dgetrf = forward.lapack.dgetrf
    calls = []

    def spy(a, **kwargs):
        lu, piv, info = dgetrf(a, **kwargs)
        if len(calls) == at:
            lu[-1, -1] *= 1e-14
        calls.append(info)
        return lu, piv, info

    monkeypatch.setattr(forward.lapack, "dgetrf", spy)
    with pytest.raises(NearEigenfrequencyError, match="numerically at an eigenfrequency") as exc:
        HelmholtzOperator(_audit_case(4), 5.0)
    assert len(calls) == 5
    assert exc.value.smallest_pivot < 1e-13


def _lone_cell(field):
    """The same cell values with cell 0 moved into a region of its own, whose
    labels change on the first grid line of each axis: block_side 1."""
    part = field.partition
    c2r = part.cell_to_region.copy()
    c2r[0] = part.n_regions
    lone = Partition(part.grid, c2r, part.level)
    return PwcField(lone, np.append(field.coeffs, field.coeffs[part.cell_to_region[0]]),
                    field.bounds)


def test_block_size_one_without_square_blocks():
    field = PwcField(make_uniform_partition(Grid(9), 2), np.array([1.0, 1.5, 1.2, 1.8]), (1.0, 2.0))
    ref = HelmholtzOperator(field, 5.0)
    assert ref.block_size == 4
    op = HelmholtzOperator(_lone_cell(field), 5.0)
    assert op.block_size == 1
    assert _rel(assemble_dtn(op)[0].lam, assemble_dtn(ref)[0].lam) <= 1e-14


def _quadrant_split(grid):
    # a 2 x 2 partition whose last quadrant is split into its four quadrants
    cps = grid.cells_per_side
    ci, cj = np.divmod(np.arange(grid.n_cells), cps)
    c2r = ci // (cps // 2) * 2 + cj // (cps // 2)
    last = c2r == 3
    c2r[last] = 3 + (ci[last] - cps // 2) // (cps // 4) * 2 + (cj[last] - cps // 2) // (cps // 4)
    return Partition(grid, c2r, 0)


def _two_strips(grid):
    cj = np.arange(grid.n_cells) % grid.cells_per_side
    return Partition(grid, (cj >= grid.cells_per_side // 2).astype(np.int64), 0)


@pytest.mark.parametrize("build, side, factor", [(_quadrant_split, 4, "dense"),
                                                 (_two_strips, 8, "dense")],
                         ids=["split-quadrant", "two-strips"])
def test_hand_built_labels_condense_at_their_block_side(build, side, factor, rng):
    # labellings no uniform builder makes condense at the side the labels allow,
    # with the DtN of the same cells labelled for s = 1
    part = build(Grid(17))
    assert part.block_side == side
    field = PwcField(part, rng.uniform(1.0, 2.0, part.n_regions), (1.0, 2.0))
    op = HelmholtzOperator(field, 5.0)
    assert (op.block_size, op.factor) == (side, factor)
    ref = HelmholtzOperator(_lone_cell(field), 5.0)
    assert ref.block_size == 1
    assert _rel(assemble_dtn(op)[0].lam, assemble_dtn(ref)[0].lam) <= 1e-14


def test_ring_forms_match_dense_product(rng):
    # the separable closed form of F^T D_b F against the dense product
    sk = forward._skeleton(Grid(33), 8)
    symbols = forward._block_symbols(sk, rng.uniform(-0.1, 0.05, sk.ring.shape[0]))
    dense = np.einsum("ir,bi,is->brs", sk.coupling, symbols, sk.coupling)
    assert _rel(forward._ring_forms(sk, symbols), dense) <= 1e-14


@pytest.mark.parametrize("s", range(1, forward._MAX_BLOCK + 1))
def test_block_forms_match_the_dst_products(s, rng):
    # G_b = (S x S) D_b F from F's rank-one sides, against the two DST
    # products, at every block size the caps allow (2 s cells per side); at
    # s = 1 there are no block interiors
    grid = Grid(2 * s + 1)
    sk = forward._skeleton(grid, s)
    symbols = forward._block_symbols(sk, rng.uniform(-0.1, 0.05, sk.interior.shape[0]))
    bank = SolutionBank(np.zeros((sk.n_x, grid.n_boundary)), build_boundary_weights(grid),
                        5.0, s, symbols)
    forms = bank._block_forms(slice(None))
    if s == 1:
        assert forms.shape == (0, 0, 0)
        return
    dst = forward._to_nodes(sk.basis, symbols[:, :, None] * sk.coupling)
    assert forms.shape == dst.shape == (4, (s - 1) ** 2, 4 * (s - 1))
    assert _rel(forms, dst) <= 1e-14
    assert _rel(bank._block_forms(slice(1, 3)), dst[1:3]) <= 1e-14


@pytest.mark.parametrize("s", [2, 8, 16, 32])
def test_interior_forms_are_the_gram_of_the_block_forms(s, rng):
    # S x S is orthonormal, so G_b^T G_b = F^T D_b^2 F: the ring forms of the
    # squared symbols, which the bank's gram folds into its skeleton product
    grid = Grid(2 * s + 1)
    sk = forward._skeleton(grid, s)
    symbols = forward._block_symbols(sk, rng.uniform(-0.1, 0.05, sk.interior.shape[0]))
    bank = SolutionBank(np.zeros((sk.n_x, grid.n_boundary)), build_boundary_weights(grid),
                        5.0, s, symbols)
    g = bank._block_forms(slice(None))
    forms = bank._interior_forms
    assert forms.shape == (4, 4 * (s - 1), 4 * (s - 1)) and not forms.flags.writeable
    assert _rel(forms, g.transpose(0, 2, 1) @ g) <= 1e-13
    assert bank._interior_forms is forms


def test_box_certificate_runs_once_per_box_and_refuses_every_time(monkeypatch):
    calls = []
    guard = forward.spectrum_guard
    monkeypatch.setattr(forward, "spectrum_guard", lambda *args: calls.append(args) or guard(*args))
    forward._certify.cache_clear()
    part = make_uniform_partition(Grid(17), 2)
    field = PwcField(part, np.array([1.2, 1.4, 1.6, 1.8]), (1.0, 2.0))
    for _ in range(3):
        HelmholtzOperator(field, 5.0)
    assert len(calls) == 1
    for n in range(2, 4):  # a band omega^2 is refused on every construction
        with pytest.raises(AdmissibilityError, match="forbidden band 1"):
            HelmholtzOperator(field, LAM1 / 1.5)
        assert len(calls) == n
    # a discrete band too (see the m = 17 case above)
    g, box = Grid(17), (1.0, 1.5)
    lam = (4.0 / g.h ** 2) * 2.0 * np.sin(0.5 * np.pi * g.h) ** 2
    for _ in range(2):
        with pytest.raises(AdmissibilityError, match="discrete band"):
            HelmholtzOperator(const_field(17, 1.5, box), lam / 1.5)
    # a wider box at the certified omega^2 is checked again: 5.0 lies in its band 1
    with pytest.raises(AdmissibilityError, match="forbidden band 1"):
        HelmholtzOperator(PwcField(part, field.coeffs, (1.0, 4.5)), 5.0)
    HelmholtzOperator(field, 5.0)
    assert len(calls) == 6


def _audit_case(per_side=2):
    g = Grid(17)
    part = make_uniform_partition(g, per_side)
    return PwcField(part, np.resize([1.2, 1.9, 1.5, 1.1], part.n_regions), (1.0, 2.0))


def _perturb_first_block_symbol(monkeypatch):
    exact = forward._block_symbols

    def perturbed(sk, sigma):
        symbols = exact(sk, sigma)
        symbols[0] *= 1.0 + 1e-6
        return symbols

    monkeypatch.setattr(forward, "_block_symbols", perturbed)


def test_sketched_audit_catches_a_perturbed_block_symbol(monkeypatch):
    # D_b enters the condensation and the block interiors alike, so the
    # condensed residual stays exact; only the five-point sketch can see it
    c = _audit_case()
    assemble_dtn(HelmholtzOperator(c, 5.0))  # passes unperturbed
    _perturb_first_block_symbol(monkeypatch)
    with pytest.raises(NearEigenfrequencyError, match="sketched"):
        assemble_dtn(HelmholtzOperator(c, 5.0))


def test_solution_bank_is_the_bank_of_assemble_dtn_alone(weights17):
    # dense one-level (s = 8), dense two-level (s = 4, grouped) and SuperLU (s = 2)
    for per_side, factor in ((2, "dense"), (4, "dense"), (8, "superlu")):
        c = _audit_case(per_side)
        op = HelmholtzOperator(c, 5.0)
        assert op.factor == factor
        bank = forward.solution_bank(op)
        _, ref = assemble_dtn(HelmholtzOperator(c, 5.0))
        assert bank.weights is weights17 and bank.block_size == ref.block_size
        assert np.array_equal(bank.skeleton, ref.skeleton)
        assert np.array_equal(bank.symbols, ref.symbols)
    assert forward.solution_bank(op).weights is weights17


def test_solution_bank_audits_the_bank(monkeypatch):
    _perturb_first_block_symbol(monkeypatch)
    with pytest.raises(NearEigenfrequencyError, match="sketched"):
        forward.solution_bank(HelmholtzOperator(_audit_case(), 5.0))


# 2 regions per side: s = 8, n_x = 29 <= 2 nb; 4 per side: s = 4, n_x = 81, the
# two-level dense factor; 8 per side: s = 2, n_x = 161 > 2 nb = 128
@pytest.mark.parametrize("per_side, factor", [(2, "dense"), (4, "dense"), (8, "superlu")])
def test_condensed_audit_catches_a_perturbed_skeleton_entry(monkeypatch, per_side, factor):
    c = _audit_case(per_side)
    exact = HelmholtzOperator._solve_skeleton

    def one_entry_off(self, rhs):
        x = exact(self, rhs)
        if x.ndim == 2:
            x.flat[np.argmax(np.abs(x))] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(HelmholtzOperator, "_solve_skeleton", one_entry_off)
    op = HelmholtzOperator(c, 5.0)
    assert op.factor == factor
    op.solve(g=np.ones(Grid(17).n_boundary))  # single solves are left alone
    with pytest.raises(NearEigenfrequencyError, match="skeleton"):
        assemble_dtn(op)


def test_reading_the_dense_bank_changes_no_result(weights17):
    c = _audit_case()
    part = c.partition
    delta = PwcField(part, np.array([0.3, -0.7, 1.1, 0.2]), (1e-12, 10.0))
    r_mat = np.random.default_rng(5).standard_normal((weights17.nb,) * 2)

    def results(materialise):
        dtn, bank = assemble_dtn(HelmholtzOperator(c, 5.0))
        if materialise:
            assert bank.solutions.shape == (289, 64)
        return [dtn.lam, apply_df(bank, delta), apply_df_adjoint(bank, r_mat).values,
                np.array([dtn_data_norm(dtn.lam, weights17)])]

    for plain, materialised in zip(results(False), results(True)):
        assert np.array_equal(plain, materialised)


def test_bank_apply_matches_dense_bank(rng):
    g = Grid(33)
    part = make_uniform_partition(g, 4)
    c = PwcField(part, rng.uniform(1.0, 2.0, 16), (1.0, 2.0))
    _, bank = assemble_dtn(HelmholtzOperator(c, 5.0))
    vec = rng.standard_normal(g.n_boundary)
    cols = rng.standard_normal((g.n_boundary, 3))
    assert _rel(bank.apply(vec), bank.solutions @ vec) <= 1e-13
    assert _rel(bank.apply(cols), bank.solutions @ cols) <= 1e-13


@pytest.mark.parametrize("shape", [(128,), (65,), (64, 2, 2), ()],
                         ids=["two_loops", "one_extra", "three_axes", "scalar"])
def test_bank_apply_rejects_wrong_boundary_length(grid17, weights17, shape):
    # (2 nb,) used to fold into two columns and return a (2 n_nodes,) array
    _, bank = assemble_dtn(HelmholtzOperator(const_field(17, 1.5), 5.0))
    with pytest.raises(DiscretizationMismatchError):
        bank.apply(np.ones(shape))


@pytest.mark.parametrize("shape", [(17 * 17 + 5,), (17 * 17, 2)], ids=["extra_nodes", "two_columns"])
def test_bank_gram_rejects_wrong_node_count(grid17, weights17, shape):
    # (n_nodes + 5,) used to return a 64 x 64 result, (n_nodes, 2) a bare IndexError
    _, bank = assemble_dtn(HelmholtzOperator(const_field(17, 1.5), 5.0))
    with pytest.raises(DiscretizationMismatchError):
        bank.gram(np.ones(shape))


@pytest.mark.parametrize("shape", [(65, 65), (64, 5)], ids=["one_extra", "narrow"])
def test_bank_quadratic_diagonal_rejects_wrong_shape(grid17, weights17, shape):
    # both used to raise a bare ValueError
    _, bank = assemble_dtn(HelmholtzOperator(const_field(17, 1.5), 5.0))
    with pytest.raises(DiscretizationMismatchError):
        bank.quadratic_diagonal(np.ones(shape))


def test_block_solver_smallest_grid():
    # m = 3: a single interior node, one 1 x 1 block
    c = const_field(3)
    op = HelmholtzOperator(c, 1.0)
    dtn, bank = assemble_dtn(op)
    d = 4.0 - 1.0 * 0.25
    edge = bank.solutions[4, [1, 3, 5, 7]]
    assert np.allclose(edge, 1.0 / d, rtol=1e-15)
    assert np.all(bank.solutions[4, [0, 2, 4, 6]] == 0.0)
    assert dtn.symmetry_defect() <= 1e-15


# ---------------------------------------------------------------- weights


def test_weights_constant_vector(weights17):
    ones = np.ones(weights17.nb)
    assert np.allclose(weights17.w_plus @ ones, weights17.h_b * ones, atol=1e-12)


def test_weights_mutually_inverse(weights17):
    prod = weights17.w_plus @ weights17.w_minus
    assert np.linalg.norm(prod - weights17.h_b ** 2 * np.eye(weights17.nb)) <= 1e-10


def test_weights_top_mode_against_dense_eigensolve(weights17):
    # dense eigensolve oracle: largest weight equals h_b sqrt(1 + 4/h_b^2)
    top = np.linalg.eigvalsh(weights17.w_plus).max()
    hb = weights17.h_b
    assert top == pytest.approx(hb * np.sqrt(1.0 + 4.0 / hb ** 2), rel=1e-12)


def _eigh_weights(grid):
    """Oracle: the weights from a dense eigensolve of the boundary-loop Laplacian."""
    nb, hb = grid.n_boundary, grid.h
    idx = np.arange(nb)
    lb = 2.0 * np.eye(nb)
    lb[idx, (idx + 1) % nb] = lb[idx, (idx - 1) % nb] = -1.0
    mu, v = np.linalg.eigh(lb / hb ** 2)
    mu = np.clip(mu, 0.0, None)

    def calculus(power, scale):
        w = (v * (1.0 + mu) ** power) @ v.T * scale
        return 0.5 * (w + w.T)

    return calculus(0.5, hb), calculus(-0.5, hb), calculus(-0.25, np.sqrt(hb))


@pytest.mark.parametrize("m", [5, 9, 17, 33])
def test_weights_closed_form_matches_dense_eigensolve(m):
    weights = build_boundary_weights(Grid(m))
    for got, want in zip((weights.w_plus, weights.w_minus, weights.w_minus_half),
                         _eigh_weights(Grid(m))):
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_weights_are_one_object_per_grid():
    # every caller of a grid shares one set of circulants, built on first use
    assert build_boundary_weights(Grid(9)) is build_boundary_weights(Grid(9))
    assert build_boundary_weights(Grid(9)) is not build_boundary_weights(Grid(17))


# ---------------------------------------------------------------- DtN matrix


def test_assemble_dtn_returns_dtn_and_bank(grid17, weights17):
    op = HelmholtzOperator(const_field(17), 5.0)
    dtn, bank = assemble_dtn(op)
    assert isinstance(dtn, DtnMatrix) and isinstance(bank, SolutionBank)
    assert bank.weights is weights17 and bank.grid == grid17
    assert bank.omega2 == dtn.omega2 == 5.0
    assert not bank.solutions.flags.writeable
    default_dtn, _ = assemble_dtn(op)
    assert default_dtn.weights is weights17
    assert np.array_equal(default_dtn.lam, dtn.lam)


def test_dtn_for_field_returns_the_evaluation(grid17, weights17):
    c = const_field(17)
    dtn = dtn_for_field(c, 5.0, weights=weights17)
    ref_dtn, ref_bank = assemble_dtn(HelmholtzOperator(c, 5.0))
    assert isinstance(dtn, DtnMatrix) and dtn.weights is weights17
    assert np.array_equal(dtn.lam, ref_dtn.lam)
    bank_dtn, bank = bank_for_field(c, 5.0)
    assert np.array_equal(bank_dtn.lam, dtn.lam)
    assert np.array_equal(bank.solutions, ref_bank.solutions)


def test_dtn_for_field_refuses_weights_of_another_grid(monkeypatch):
    # refused before any operator is built, not after its solve
    built = []
    init = HelmholtzOperator.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HelmholtzOperator, "__init__", spy)
    with pytest.raises(DiscretizationMismatchError, match="different grid"):
        dtn_for_field(const_field(17), 5.0, weights=build_boundary_weights(Grid(33)))
    assert built == []


@pytest.mark.parametrize("shape", [(81, 63), (80, 64), (81 * 64,)])
def test_solution_bank_rejects_wrong_shape(weights17, shape):
    # condensed form at s = 4 on Grid(17): 81 interior skeleton nodes, 16 blocks
    symbols = np.ones((16, 9))
    SolutionBank(np.zeros((81, 64)), weights17, 5.0, 4, symbols)
    with pytest.raises(DiscretizationMismatchError):
        SolutionBank(np.zeros(shape), weights17, 5.0, 4, symbols)


def test_solution_bank_requires_its_block_form(weights17):
    skeleton = np.zeros((81, 64))
    with pytest.raises(TypeError):  # no default that would zero the block interiors
        SolutionBank(skeleton, weights17, 5.0, 4)
    for symbols, s in ((np.ones((16, 8)), 4), (np.ones((16, 9)), 2)):
        with pytest.raises(DiscretizationMismatchError):
            SolutionBank(skeleton, weights17, 5.0, s, symbols)


def test_dtn_symmetry(grid17, weights17, rng):
    part = make_uniform_partition(grid17, 2)
    c = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
    dtn = dtn_for_field(c, 5.0)
    assert dtn.symmetry_defect() <= 1e-9


def test_dtn_constants_near_kernel_at_low_frequency():
    dtn = dtn_for_field(const_field(17), 1e-8)
    ones = np.ones(dtn.weights.nb)
    assert np.linalg.norm(dtn.lam @ ones) <= 1e-6 * np.linalg.norm(dtn.lam, ord=2) \
        * np.linalg.norm(ones)


def test_dtn_functional_grid_convergence():
    # Richardson oracle: harmonic data x^2 - y^2, functional against psi = x;
    # errors measured against the finest grid
    def functional(m):
        g = Grid(m)
        dtn = dtn_for_field(const_field(m), 1e-9)
        xy = g.node_coords()[boundary_loop(g)]
        gb = xy[:, 0] ** 2 - xy[:, 1] ** 2
        return float(xy[:, 0] @ (dtn.lam @ gb))

    s17, s33, s65 = functional(17), functional(33), functional(65)
    e17, e33 = abs(s17 - s65), abs(s33 - s65)
    order = np.log2(e17 / e33)
    assert order >= 1.0


def test_dtn_continuity_in_coefficient(grid17, weights17):
    part = make_uniform_partition(grid17, 2)
    base = PwcField(part, np.full(4, 1.5), (1.0, 2.0))
    bumped = base.with_coeffs(base.coeffs + np.array([1e-6, 0, 0, 0]))
    d0 = dtn_for_field(base, 5.0)
    d1 = dtn_for_field(bumped, 5.0)
    change = dtn_data_norm(d1.lam - d0.lam, weights17)
    scale = dtn_data_norm(d0.lam, weights17)
    assert change <= 1e-4 * scale  # bounded sensitivity, not a jump


def test_dtn_file_round_trip(tmp_path, grid17, weights17):
    dtn = dtn_for_field(const_field(17), 1.0)
    path = tmp_path / "dtn.txt"
    save_dtn(path, dtn)
    assert path.read_text().startswith("dtn 64 1.0\n")
    back = load_dtn(path, weights17)
    assert np.array_equal(back.lam, dtn.lam)
    assert back.omega2 == dtn.omega2
    with pytest.raises(DiscretizationMismatchError, match="nb=64"):
        load_dtn(path, build_boundary_weights(Grid(9)))


# ---------------------------------------------------------------- data norm


def test_data_norm_zero():
    w = build_boundary_weights(Grid(3))
    assert dtn_data_norm(np.zeros((8, 8)), w) == 0.0


def test_data_norm_known_singular_values():
    # A = W^{-1/2} Q diag(sigma) Q^T W^{-1/2}, so W^{1/2} A W^{1/2} has the
    # singular values |sigma|: ||sigma|| under hs and max |sigma| under op
    w = build_boundary_weights(Grid(3))
    q = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))[0]
    root_inv = np.linalg.inv(w.w_minus_half)
    sigma = np.zeros(8)
    sigma[0], sigma[1] = 3.0, 4.0
    a = root_inv @ (q * sigma) @ q.T @ root_inv
    assert dtn_data_norm(a, w, kind="hs") == pytest.approx(5.0)
    assert dtn_data_norm(a, w, kind="op") == pytest.approx(4.0)


def test_data_norm_matches_dense_svd_oracle(weights17, rng):
    a = rng.standard_normal((weights17.nb, weights17.nb))
    weighted = weights17.w_minus_half @ a @ weights17.w_minus_half
    sv = np.linalg.svd(weighted, compute_uv=False)
    assert dtn_data_norm(a, weights17, "hs") == pytest.approx(
        float(np.sqrt(np.sum(sv ** 2))), rel=1e-12)
    assert dtn_data_norm(a, weights17, "op") == pytest.approx(float(sv[0]), rel=1e-12)


@pytest.mark.parametrize("body", [
    "dtn 64 1.0\n",                                   # truncated
    "dtn 64 nan\n",                                   # non-finite header
    "dtn sixty-four 1.0\n",                           # non-numeric header
])
def test_load_dtn_rejects_malformed_header(tmp_path, weights17, body):
    path = tmp_path / "dtn.txt"
    path.write_text(body)
    with pytest.raises(ConfigurationError):
        load_dtn(path, weights17)


@pytest.mark.parametrize("edit", ["ragged", "non_finite", "non_numeric", "trailing",
                                  "zero_omega2", "negative_omega2"])
def test_load_dtn_rejects_malformed_rows(tmp_path, weights17, edit):
    dtn = dtn_for_field(const_field(17), 1.0)
    path = tmp_path / "dtn.txt"
    save_dtn(path, dtn)
    lines = path.read_text().splitlines()
    if edit == "ragged":
        lines[3] += " 0.5"
    elif edit == "non_finite":
        lines[3] = lines[3].replace(lines[3].split()[0], "inf", 1)
    elif edit == "non_numeric":
        lines[3] = lines[3].replace(lines[3].split()[0], "0,5", 1)
    elif edit.endswith("omega2"):  # both loaded, though no solve runs at omega^2 <= 0
        lines[0] = "dtn 64 0.0" if edit == "zero_omega2" else "dtn 64 -1.0"
    else:
        lines.append(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError):
        load_dtn(path, weights17)
