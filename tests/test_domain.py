import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmrecon import (
    ConfigurationError,
    DiscretizationMismatchError,
    Grid,
    NodalField,
    Partition,
    PwcField,
    bregman,
    clamp_to_bounds,
    embed,
    l2_dist,
    l2_norm,
    load_pwc_field,
    make_uniform_partition,
    project,
    save_field,
)
from helmrecon.domain import (boundary_loop, cell_corners, grid_laplacian, interior_nodes, tiles,
                              uniform_partition)


# ---------------------------------------------------------------- grid


def test_grid_interior_boundary_disjoint_cover():
    g = Grid(9)
    loop = boundary_loop(g)
    interior = interior_nodes(g)
    assert len(set(loop)) == g.n_boundary == 32
    assert set(loop) | set(interior) == set(range(g.n_nodes))
    assert set(loop) & set(interior) == set()


def test_grid_boundary_loop_is_cyclic_walk():
    g = Grid(7)
    loop = boundary_loop(g)
    xy = g.node_coords()[loop]
    # consecutive loop nodes (cyclically) are exactly one spacing apart
    diffs = np.diff(np.vstack([xy, xy[:1]]), axis=0)
    steps = np.linalg.norm(diffs, axis=1)
    assert np.allclose(steps, g.h)


@pytest.mark.parametrize("m", range(3, 10))
def test_grid_laplacian_stores_the_five_point_pattern_only(m):
    # at m <= 5 scipy's kron went through BSR and kept its blocks' zeros:
    # 325 entries at m = 5, which coupled node (1, 1) to 15 nodes
    lap = grid_laplacian(Grid(m))
    assert lap.nnz == m * m + 4 * m * (m - 1)  # the diagonal and both ends of every edge
    assert np.all(lap.data != 0.0)
    i, j = np.divmod(np.arange(m * m), m)
    rows, cols = lap.nonzero()
    assert np.all(np.abs(i[rows] - i[cols]) + np.abs(j[rows] - j[cols]) <= 1)


def test_grid_too_small_rejected():
    with pytest.raises(ConfigurationError):
        Grid(2)


@pytest.mark.parametrize("m", [9.5, 9.0, "9", True, np.nan])
def test_grid_refuses_a_non_integer_size(m):
    # Grid(9.5) had 90.25 nodes, and its boundary weights ended in a bare ValueError
    with pytest.raises(ConfigurationError, match="m="):
        Grid(m)


def test_grid_accepts_numpy_integers():
    assert Grid(np.int64(9)) == Grid(9)
    assert Grid(np.int32(9)).n_nodes == 81


# ---------------------------------------------------------------- partitions


def test_uniform_partition_m9_k2():
    p = make_uniform_partition(Grid(9), 2)
    assert p.n_regions == 4
    assert np.all(p.region_cell_counts == 16)  # 4x4 grid cells each
    assert p.region_areas.sum() == pytest.approx(1.0)
    # regions numbered in raster order of their lower-left cells
    assert np.array_equal(p.cell_to_region.reshape(8, 8)[::4, ::4], [[0, 1], [2, 3]])


def test_uniform_partition_identity():
    p = make_uniform_partition(Grid(9), 1)
    assert p.n_regions == 1
    assert np.all(p.cell_to_region == 0)


def test_uniform_partition_divisibility_error():
    with pytest.raises(ConfigurationError, match="m=9.*k=3"):
        make_uniform_partition(Grid(9), 3)


@pytest.mark.parametrize("build", [
    lambda g: make_uniform_partition(g, 2.5),
    lambda g: make_uniform_partition(g, True),
    lambda g: make_uniform_partition(g, "2"),
    lambda g: uniform_partition(g, 4.0),
], ids=["k-float", "k-bool", "k-str", "n-float"])
@pytest.mark.parametrize("m", [9, 11])
def test_partition_builders_refuse_counts_that_are_not_integers(build, m):
    with pytest.raises(ConfigurationError):
        build(Grid(m))


def test_tiles_answers_false_for_counts_that_are_not_integers():
    assert not tiles(Grid(9), 4.0)
    assert not tiles(Grid(9), True)
    assert not tiles(Grid(9), "4")
    assert tiles(Grid(9), np.int64(4))


def test_partition_builders_take_numpy_integers():
    g = Grid(9)
    p = make_uniform_partition(g, np.int64(2))
    assert p.n_regions == 4
    assert uniform_partition(g, np.int64(16)).n_regions == 16


@pytest.mark.parametrize("scale, shift, level", [
    (1, 0, 2.5), (1, 0, None), (1, 0, -1), (1, 0, "1"), (1, 0, True), (1, -1, 0), (2, 0, 0),
], ids=["level-float", "level-none", "level-negative", "level-str", "level-bool",
        "negative-id", "missing-ids"])
def test_partition_refuses_a_bad_level_or_labelling(scale, shift, level):
    # level=2.5 was accepted, and save_field then wrote a 'pwc 4 2.5' header that
    # pwc_file_header refuses; labels 2 c2r leave ids 1, 3 and 5 empty
    g = Grid(9)
    c2r = make_uniform_partition(g, 2).cell_to_region
    with pytest.raises(ConfigurationError):
        Partition(g, scale * c2r + shift, level)


@pytest.mark.parametrize("labels", [
    lambda c2r: c2r + 0.7,                        # was read as the 2 x 2 partition
    lambda c2r: np.zeros(c2r.shape, dtype=bool),  # was read as one region
    lambda c2r: np.full(c2r.shape, np.nan),       # warned in the int64 cast first
], ids=["fractional", "bool", "nan"])
def test_partition_refuses_labels_that_are_not_integers(labels):
    g = Grid(9)
    c2r = make_uniform_partition(g, 2).cell_to_region
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="integers"):
            Partition(g, labels(c2r), 0)


def test_partition_takes_integral_float_labels():
    p = make_uniform_partition(Grid(9), 2)
    assert Partition(p.grid, p.cell_to_region.astype(float), 0).same_as(p)


@pytest.mark.parametrize("m", [5, 9, 17, 33, 65, 129])
def test_block_side_of_a_uniform_partition_is_its_region_side(m):
    g = Grid(m)
    for k in range(1, g.cells_per_side + 1):
        if g.cells_per_side % k == 0:
            assert make_uniform_partition(g, k).block_side == g.cells_per_side // k


# ---------------------------------------------------------------- projection


def _two_vertical_strips(grid):
    cps = grid.cells_per_side
    cj = np.arange(grid.n_cells) % cps
    c2r = (cj >= cps // 2).astype(np.int64)
    return Partition(grid=grid, cell_to_region=c2r, level=0)


def test_project_constant_is_fixed_point():
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    f = NodalField(g, np.full(g.n_nodes, 5.0))
    out = project(f, p, bounds=(1.0, 10.0))
    assert np.allclose(out.coeffs, 5.0)


def test_project_linear_over_strips_exact():
    g = Grid(9)
    p = _two_vertical_strips(g)
    f = NodalField.from_function(g, lambda x, y: x)
    out = project(f, p, bounds=(1e-9, 1.0))
    assert out.coeffs == pytest.approx([0.25, 0.75], abs=1e-15)


def _region_integral_reference(f: NodalField, p: Partition, region: int) -> float:
    """Independent quadrature: loop over the region's cells, average the four
    corner values, multiply by the cell area."""
    g = f.grid
    corners = cell_corners(g)
    total = 0.0
    for cell in np.flatnonzero(p.cell_to_region == region):
        vals = [f.values[n] for n in corners[cell]]
        total += (sum(vals) / 4.0) * g.h ** 2
    return total


def test_project_zero_mean_residual_against_quadrature_oracle(rng):
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    f = NodalField(g, rng.standard_normal(g.n_nodes))
    pf = project(f, p, bounds=(1e-9, 1.0))
    for j in range(p.n_regions):
        int_f = _region_integral_reference(f, p, j)
        int_pf = pf.coeffs[j] * p.region_areas[j]
        assert int_f - int_pf == pytest.approx(0.0, abs=1e-14)


def test_project_idempotent_and_pwc_fixed_point(rng):
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    f = NodalField(g, rng.standard_normal(g.n_nodes))
    once = project(f, p, bounds=(1e-9, 1.0))
    twice = project(once, p)
    assert np.allclose(twice.coeffs, once.coeffs, rtol=1e-14, atol=0.0)
    field = PwcField(p, np.array([1.0, 2.0, 3.0, 4.0]), (0.5, 5.0))
    assert np.array_equal(project(field, p).coeffs, field.coeffs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_project_nonexpansive(seed):
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    r = np.random.default_rng(seed)
    f = NodalField(g, r.standard_normal(g.n_nodes))
    gg = NodalField(g, r.standard_normal(g.n_nodes))
    pf, pg = project(f, p, bounds=(1e-9, 1.0)), project(gg, p, bounds=(1e-9, 1.0))
    assert l2_dist(pf, pg) <= l2_dist(f, gg) + 1e-12


def test_project_tower_property(rng):
    g = Grid(9)
    coarse = make_uniform_partition(g, 2)
    fine = make_uniform_partition(g, 4)
    f = NodalField(g, rng.standard_normal(g.n_nodes))
    via_fine = project(project(f, fine, bounds=(1e-9, 1.0)), coarse)
    direct = project(f, coarse, bounds=(1e-9, 1.0))
    assert np.allclose(via_fine.coeffs, direct.coeffs, atol=1e-14)


def test_clamp_examples():
    g = Grid(9)
    p = _two_vertical_strips(g)
    f = PwcField(p, np.array([0.5, 1.5]), (1.0, 2.0))
    assert np.array_equal(clamp_to_bounds(f).coeffs, [1.0, 1.5])
    ok = PwcField(p, np.array([1.2, 1.8]), (1.0, 2.0))
    assert np.array_equal(clamp_to_bounds(ok).coeffs, ok.coeffs)
    high = PwcField(p, np.array([3.0, 2.5]), (1.0, 2.0))
    assert np.array_equal(clamp_to_bounds(high).coeffs, [2.0, 2.0])


# ---------------------------------------------------------------- norms


def test_norms_trivial_values():
    g = Grid(9)
    p = make_uniform_partition(g, 1)
    one = PwcField(p, np.array([1.0]), (0.5, 2.0))
    tiny = PwcField(p, np.array([1e-12]), (1e-13, 2.0))
    assert l2_dist(one, one) == 0.0
    assert l2_norm(one) == pytest.approx(1.0)
    assert l2_dist(one, tiny) == pytest.approx(1.0, abs=1e-9)
    assert bregman(one, tiny) == pytest.approx(0.5, abs=1e-9)


def test_norm_triangle_inequality(rng):
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    for _ in range(10):
        a, b, c = (PwcField(p, rng.standard_normal(4) + 2.0, (1e-9, 10.0)) for _ in range(3))
        assert l2_dist(a, c) <= l2_dist(a, b) + l2_dist(b, c) + 1e-12


def test_norm_mismatched_grids_rejected():
    f = PwcField(make_uniform_partition(Grid(9), 1), np.array([1.0]), (0.5, 2.0))
    g = PwcField(make_uniform_partition(Grid(17), 1), np.array([1.0]), (0.5, 2.0))
    with pytest.raises(DiscretizationMismatchError):
        l2_dist(f, g)
    nodal = NodalField(Grid(9), np.zeros(81))
    with pytest.raises(DiscretizationMismatchError):
        l2_dist(f, nodal)
    # one check and one message for every pair of operands (domain.check_same_grid)
    for mismatch in (lambda: l2_dist(f, g), lambda: project(f, g.partition),
                     lambda: project(nodal, g.partition, bounds=(0.5, 2.0)),
                     lambda: embed(f, g.partition)):
        with pytest.raises(DiscretizationMismatchError, match="live on different grids"):
            mismatch()


def test_embed_preserves_norm_exactly():
    g = Grid(9)
    coarse = make_uniform_partition(g, 2)
    fine = make_uniform_partition(g, 4)
    f = PwcField(coarse, np.array([1.0, 2.0, 3.0, 4.0]), (0.5, 5.0))
    lifted = embed(f, fine)
    assert l2_norm(lifted) == pytest.approx(l2_norm(f), rel=1e-15)
    assert l2_dist(lifted, f) == 0.0


def test_embed_refuses_a_partition_that_is_not_nested():
    g = Grid(9)
    f = PwcField(make_uniform_partition(g, 2), np.array([1.0, 2.0, 3.0, 4.0]), (0.5, 5.0))
    cj = np.arange(g.n_cells) % g.cells_per_side
    across = Partition(g, (cj >= 3).astype(int), 1)  # the coarse regions split at column 4
    with pytest.raises(DiscretizationMismatchError, match="not nested"):
        embed(f, across)
    constant = f.with_coeffs(np.full(4, 2.0))  # unless the field is constant across the cut
    assert np.array_equal(embed(constant, across).coeffs, [2.0, 2.0])


# ---------------------------------------------------------------- file format


def test_pwc_field_file_round_trip(tmp_path):
    g = Grid(9)
    p = make_uniform_partition(g, 2)
    f = PwcField(p, np.array([1.25, 1.5, 1.75, 2.0]), (1.0, 2.0))
    path = tmp_path / "field.txt"
    save_field(path, f)
    text = path.read_text()
    assert text.startswith("pwc 4 0\n")
    back = load_pwc_field(path, p, f.bounds)
    assert np.array_equal(back.coeffs, f.coeffs)


def test_field_file_header_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense 1 2\n")
    with pytest.raises(ConfigurationError):
        load_pwc_field(path, make_uniform_partition(Grid(9), 1), (1.0, 2.0))
    good = tmp_path / "good.txt"
    save_field(good, PwcField(make_uniform_partition(Grid(9), 2),
                              np.ones(4), (0.5, 2.0)))
    with pytest.raises(DiscretizationMismatchError):
        load_pwc_field(good, make_uniform_partition(Grid(9), 1), (1.0, 2.0))
    with pytest.raises(DiscretizationMismatchError, match="level"):
        load_pwc_field(good, make_uniform_partition(Grid(9), 2, level=1), (0.5, 2.0))


BAD_PWC = {
    "non_numeric": "pwc 4 0\n0 1.5\n1 abc\n2 1.5\n3 1.5\n",
    "non_numeric_header": "pwc four 0\n0 1.5\n1 1.5\n2 1.5\n3 1.5\n",
    "ragged": "pwc 4 0\n0 1.5\n1 1.5 1.6\n2 1.5\n3 1.5\n",
    "truncated": "pwc 4 0\n0 1.5\n1 1.5\n",
    "out_of_range": "pwc 4 0\n0 1.5\n1 1.5\n2 1.5\n-1 1.5\n",  # -1 must not wrap to 3
    "index_too_large": "pwc 4 0\n0 1.5\n1 1.5\n2 1.5\n4 1.5\n",
    "fractional_index": "pwc 4 0\n0 1.5\n1.5 1.5\n2 1.5\n3 1.5\n",
    "repeated": "pwc 4 0\n0 1.5\n1 1.5\n1 1.6\n3 1.5\n",
    "non_finite": "pwc 4 0\n0 1.5\n1 nan\n2 1.5\n3 1.5\n",
    "infinite": "pwc 4 0\n0 1.5\n1 1.5\n2 inf\n3 1.5\n",
    "trailing": "pwc 4 0\n0 1.5\n1 1.5\n2 1.5\n3 1.5\n0 1.7\n",
    "outside_box": "pwc 4 0\n0 1.5\n1 2.5\n2 1.5\n3 1.5\n",  # the bounds are (1, 2)
}


@pytest.mark.parametrize("case", sorted(BAD_PWC))
def test_load_pwc_field_rejects_malformed(tmp_path, case):
    path = tmp_path / "bad.txt"
    path.write_text(BAD_PWC[case])
    with pytest.raises(ConfigurationError):
        load_pwc_field(path, make_uniform_partition(Grid(9), 2), (1.0, 2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pwc_field_rejects_non_finite_coefficients(bad):
    part = make_uniform_partition(Grid(9), 2)
    with pytest.raises(ConfigurationError):
        PwcField(part, np.array([1.5, bad, 1.5, 1.5]), (1.0, 2.0))
