"""Unit-square discretization, partitions, and piecewise-constant fields.

The computational domain is the closed unit square covered by an m x m grid of
nodes with spacing h = 1/(m-1). Grid cells are the (m-1)^2 squares between
nodes. A Partition labels every cell with one of N disjoint regions
D_1..D_N, and the labels are all it records; fields that
are constant on every region form the finite-dimensional search space of the
inverse solver, boxed by a-priori coefficient bounds.

Quadrature convention: integrals use the cell-area rule with the integrand
averaged over the four corner nodes of each cell. This is exact for
piecewise-constant integrands and makes the region-averaging projection an
orthogonal projection in the induced inner product, hence non-expansive.

Everything here is immutable after construction; operations are pure and
touch no file (textio reads and writes the field files).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, DiscretizationMismatchError, is_count

__all__ = [
    "Grid",
    "Partition",
    "PwcField",
    "NodalField",
    "make_uniform_partition",
    "project",
    "clamp_to_bounds",
    "embed",
    "l2_norm",
    "l2_dist",
    "bregman",
]


@dataclass(frozen=True)
class Grid:
    """Uniform m x m node grid on the closed unit square, spacing h = 1/(m-1).

    Node (i, j) sits at (x, y) = (j*h, i*h) and has flat index i*m + j.
    Cell (ci, cj) is the square with lower-left corner node (ci, cj); its flat
    index is ci*(m-1) + cj.
    """

    m: int

    def __post_init__(self):
        if not is_count(self.m, 3):
            raise ConfigurationError(f"grid needs an integer m >= 3, got m={self.m!r}")

    @property
    def h(self) -> float:
        return 1.0 / (self.m - 1)

    @property
    def n_nodes(self) -> int:
        return self.m * self.m

    @property
    def cells_per_side(self) -> int:
        return self.m - 1

    @property
    def n_cells(self) -> int:
        return (self.m - 1) ** 2

    @property
    def n_boundary(self) -> int:
        return 4 * (self.m - 1)

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of (x, y) node positions, flat index order."""
        idx = np.arange(self.n_nodes)
        i, j = divmod(idx, self.m)
        return np.column_stack([j * self.h, i * self.h])


@lru_cache(maxsize=None)
def boundary_loop(grid: Grid) -> np.ndarray:
    """Boundary node ids ordered as one closed loop (counterclockwise from the origin)."""
    m = grid.m
    bottom = np.arange(m - 1)                                   # (0, j), j = 0..m-2
    right = np.arange(m - 1) * m + (m - 1)                      # (i, m-1), i = 0..m-2
    top = (m - 1) * m + np.arange(m - 1, 0, -1)                 # (m-1, j), j = m-1..1
    left = np.arange(m - 1, 0, -1) * m                          # (i, 0), i = m-1..1
    loop = np.concatenate([bottom, right, top, left])
    loop.setflags(write=False)
    return loop


@lru_cache(maxsize=None)
def interior_nodes(grid: Grid) -> np.ndarray:
    m = grid.m
    i, j = np.divmod(np.arange(grid.n_nodes), m)
    mask = (i > 0) & (i < m - 1) & (j > 0) & (j < m - 1)
    ids = np.nonzero(mask)[0]
    ids.setflags(write=False)
    return ids


def cell_corners(grid: Grid) -> np.ndarray:
    """(n_cells, 4) node ids of each cell's corners (ll, lr, ul, ur)."""
    m = grid.m
    ci, cj = np.divmod(np.arange(grid.n_cells), m - 1)
    ll = ci * m + cj
    corners = np.column_stack([ll, ll + 1, ll + m, ll + m + 1])
    corners.setflags(write=False)
    return corners


@lru_cache(maxsize=None)
def cell_average_matrix(grid: Grid) -> sp.csr_matrix:
    """(n_cells, n_nodes) sparse operator taking nodal values to per-cell corner averages."""
    corners = cell_corners(grid)
    rows = np.repeat(np.arange(grid.n_cells), 4)
    data = np.full(4 * grid.n_cells, 0.25)
    return sp.csr_matrix((data, (rows, corners.ravel())), shape=(grid.n_cells, grid.n_nodes))


@lru_cache(maxsize=None)
def mass_scatter_matrix(grid: Grid) -> sp.csr_matrix:
    """(n_nodes, n_cells) sparse operator; (S c)_n = h^2/4 * sum of c over cells touching node n.

    S c is the diagonal of the lumped mass operator for the cell field c, and
    S^T f gives the cell-area quadrature of a nodal field per cell.
    """
    return (grid.h ** 2) * cell_average_matrix(grid).T.tocsr()


@lru_cache(maxsize=None)
def node_quad_weights(grid: Grid) -> np.ndarray:
    """Per-node quadrature weights h^2 * (adjacent cell count)/4."""
    w = np.asarray(mass_scatter_matrix(grid) @ np.ones(grid.n_cells))
    w.setflags(write=False)
    return w


def grid_laplacian(grid: Grid) -> sp.csr_matrix:
    """Graph Laplacian of the node grid; u^T L v approximates the Dirichlet form.

    Equals h^2 times the five-point -Delta_h at interior rows.
    """
    m = grid.m
    main = np.full(m, 2.0)
    main[0] = main[-1] = 1.0
    path = sp.diags([main, -np.ones(m - 1), -np.ones(m - 1)], [0, -1, 1])
    eye = sp.identity(m)
    return (sp.kron(eye, path) + sp.kron(path, eye)).tocsr()


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cover of the grid cells by N regions at one schedule level.

    cell_to_region assigns every grid cell a region id; the ids must be
    0..N-1, each used, and fix N. The labels are the one record of the
    partition: no link to a coarser partition is kept (nesting is a property
    of the two labellings, which embed checks), and the block size of the
    solver's condensation is read off them (block_side).
    """

    grid: Grid
    cell_to_region: np.ndarray
    level: int
    n_regions: int = field(init=False)

    def __post_init__(self):
        if not is_count(self.level, 0):
            raise ConfigurationError(f"partition level must be an integer >= 0, got {self.level!r}")
        labels = np.asarray(self.cell_to_region)
        if labels.shape != (self.grid.n_cells,):
            raise ConfigurationError("cell_to_region must label every grid cell exactly once")
        if labels.dtype.kind not in "iuf" or not (np.floor(labels) == labels).all():
            raise ConfigurationError(f"region ids must be integers, got {labels.dtype} labels")
        if (labels.min() < 0 or labels.max() >= self.grid.n_cells
                or (np.bincount(labels.astype(np.int64)) == 0).any()):
            raise ConfigurationError("region ids must cover 0..N-1 with no empty region")
        c2r = np.ascontiguousarray(labels, dtype=np.int64)
        c2r.setflags(write=False)
        object.__setattr__(self, "cell_to_region", c2r)
        object.__setattr__(self, "n_regions", int(c2r.max()) + 1)

    @cached_property
    def block_side(self) -> int:
        """The largest s dividing the cells per side such that the labels are
        constant on every aligned s x s cell block: the gcd of the cells per
        side and of every grid line along which the labels change."""
        cps = self.grid.cells_per_side
        labels = self.cell_to_region.reshape(cps, cps)
        rows = np.flatnonzero((labels[1:] != labels[:-1]).any(axis=1)) + 1
        cols = np.flatnonzero((labels[:, 1:] != labels[:, :-1]).any(axis=0)) + 1
        return int(np.gcd.reduce(np.concatenate([rows, cols, [cps]])))

    @property
    def region_cell_counts(self) -> np.ndarray:
        return np.bincount(self.cell_to_region, minlength=self.n_regions)

    @property
    def region_areas(self) -> np.ndarray:
        return self.region_cell_counts * self.grid.h ** 2

    def same_as(self, other: "Partition") -> bool:
        return np.array_equal(self.cell_to_region, other.cell_to_region)


def make_uniform_partition(grid: Grid, k: int, level: int = 0) -> Partition:
    """Uniform k x k partition into N = k^2 square regions of side 1/k,
    numbered in raster order of their lower-left cells.

    Requires k to divide the cells per side.
    """
    if not is_count(k, 1):
        raise ConfigurationError(f"cells per side k must be an integer >= 1, got {k!r}")
    if grid.cells_per_side % k != 0:
        raise ConfigurationError(
            f"uniform partition needs k to divide the cell count per side: "
            f"m={grid.m} gives {grid.cells_per_side} cells per side, k={k}"
        )
    s = grid.cells_per_side // k
    ci, cj = np.divmod(np.arange(grid.n_cells), grid.cells_per_side)
    return Partition(grid, ci // s * k + cj // s, level)


def tiles(grid: Grid, n: int) -> bool:
    """Whether n = k^2 regions tile the grid uniformly: n is an integer and k
    divides the cells per side."""
    if not is_count(n, 1):
        return False
    k = math.isqrt(n)
    return k * k == n and grid.cells_per_side % k == 0


def uniform_partition(grid: Grid, n: int, level: int = 0) -> Partition:
    """The uniform partition into n regions (ConfigurationError unless tiles(grid, n))."""
    if not tiles(grid, n):
        raise ConfigurationError(f"{n} regions do not tile grid m={grid.m}: N must be k^2 "
                                 f"with k dividing the {grid.cells_per_side} cells per side")
    return make_uniform_partition(grid, math.isqrt(n), level)


@dataclass(frozen=True, eq=False)
class PwcField:
    """Piecewise-constant field: one coefficient per partition region, plus box bounds.

    The bounds (b1, b2) are carried as data; admissibility is checked where the
    solver requires it, not at construction (intermediate descent iterates may
    leave the box before clamping).
    """

    partition: Partition
    coeffs: np.ndarray
    bounds: tuple[float, float]

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=float)
        if c.shape != (self.partition.n_regions,):
            raise DiscretizationMismatchError(
                f"expected {self.partition.n_regions} coefficients, got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ConfigurationError(
                f"coefficients must be finite; {int((~np.isfinite(c)).sum())} are not")
        b1, b2 = self.bounds
        if not (0 < b1 <= b2):
            raise ConfigurationError(f"bounds must satisfy 0 < b1 <= b2, got ({b1}, {b2})")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "bounds", (float(b1), float(b2)))

    @property
    def grid(self) -> Grid:
        return self.partition.grid

    def cell_values(self) -> np.ndarray:
        """Field value on every grid cell."""
        return self.coeffs[self.partition.cell_to_region]

    def admissible(self) -> bool:
        b1, b2 = self.bounds
        return bool((self.coeffs >= b1).all() and (self.coeffs <= b2).all())

    def with_coeffs(self, coeffs: np.ndarray) -> "PwcField":
        return PwcField(self.partition, coeffs, self.bounds)


@dataclass(frozen=True, eq=False)
class NodalField:
    """One real value per grid node (flat, row-major)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise DiscretizationMismatchError(
                f"expected {self.grid.n_nodes} nodal values, got shape {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "NodalField":
        xy = grid.node_coords()
        return cls(grid, np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float))


def project(f: NodalField | PwcField, p: Partition, bounds: tuple[float, float] | None = None) -> PwcField:
    """Orthogonal projection onto the span of region indicators (region averaging).

    Nodal input is first reduced to per-cell corner averages (the quadrature
    representation); piecewise-constant input is re-averaged exactly from its
    cell values, so projecting a field onto its own partition returns it
    unchanged. Bounds are inherited from piecewise-constant input unless given.
    """
    if isinstance(f, NodalField):
        if f.grid.m != p.grid.m:
            raise DiscretizationMismatchError("field and partition grids differ")
        cellavg = np.asarray(cell_average_matrix(p.grid) @ f.values)
        if bounds is None:
            raise ConfigurationError("bounds are required when projecting a nodal field")
    elif isinstance(f, PwcField):
        if f.grid.m != p.grid.m:
            raise DiscretizationMismatchError("field and partition grids differ")
        cellavg = f.cell_values()
        if bounds is None:
            bounds = f.bounds
    else:
        raise TypeError(f"cannot project object of type {type(f).__name__}")
    counts = p.region_cell_counts
    sums = np.bincount(p.cell_to_region, weights=cellavg, minlength=p.n_regions)
    return PwcField(p, sums / counts, bounds)


def clamp_to_bounds(f: PwcField) -> PwcField:
    """Coordinatewise projection of the coefficients into the box [b1, b2]."""
    b1, b2 = f.bounds
    return f.with_coeffs(np.clip(f.coeffs, b1, b2))


def embed(f: PwcField, fine: Partition) -> PwcField:
    """Re-express a field exactly on a nested finer partition (norm-preserving injection)."""
    if f.grid.m != fine.grid.m:
        raise DiscretizationMismatchError("field and partition grids differ")
    cellvals = f.cell_values()
    counts = fine.region_cell_counts
    sums = np.bincount(fine.cell_to_region, weights=cellvals, minlength=fine.n_regions)
    coeffs = sums / counts
    spread = np.bincount(fine.cell_to_region, weights=cellvals ** 2, minlength=fine.n_regions) / counts
    if not np.allclose(spread, coeffs ** 2, rtol=0, atol=1e-12 * max(1.0, float(np.abs(cellvals).max()) ** 2)):
        raise DiscretizationMismatchError("partition is not nested: a fine region crosses a coarse one")
    return PwcField(fine, coeffs, f.bounds)


def _check_same_grid(a, b):
    if a.grid.m != b.grid.m:
        raise DiscretizationMismatchError("fields live on different grids")


def l2_norm(f: PwcField | NodalField) -> float:
    """Discrete L2 norm over the unit square (cell-area quadrature)."""
    if isinstance(f, PwcField):
        return float(np.sqrt(np.sum(f.coeffs ** 2 * f.partition.region_areas)))
    if isinstance(f, NodalField):
        return float(np.sqrt(np.sum(node_quad_weights(f.grid) * f.values ** 2)))
    raise TypeError(f"cannot take the norm of {type(f).__name__}")


def l2_dist(f, g) -> float:
    """Discrete L2 distance; fields must share a grid (partitions may differ)."""
    if isinstance(f, PwcField) and isinstance(g, PwcField):
        _check_same_grid(f, g)
        d = f.cell_values() - g.cell_values()
        return float(np.sqrt(f.grid.h ** 2 * np.sum(d ** 2)))
    if isinstance(f, NodalField) and isinstance(g, NodalField):
        _check_same_grid(f, g)
        d = f.values - g.values
        return float(np.sqrt(np.sum(node_quad_weights(f.grid) * d ** 2)))
    raise DiscretizationMismatchError(
        f"cannot mix {type(f).__name__} and {type(g).__name__} in a distance"
    )


def bregman(f, g) -> float:
    """Bregman distance of the squared-norm functional: half the squared L2 distance."""
    return 0.5 * l2_dist(f, g) ** 2
