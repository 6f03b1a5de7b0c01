"""Unit-square discretization, partition hierarchies, and piecewise-constant fields.

The computational domain is the closed unit square covered by an m x m grid of
nodes with spacing h = 1/(m-1). Grid cells are the (m-1)^2 squares between
nodes. A Partition groups cells into N disjoint regions D_1..D_N; fields that
are constant on every region form the finite-dimensional search space of the
inverse solver, boxed by a-priori coefficient bounds.

Quadrature convention: integrals use the cell-area rule with the integrand
averaged over the four corner nodes of each cell. This is exact for
piecewise-constant integrands and makes the region-averaging projection an
orthogonal projection in the induced inner product, hence non-expansive.

Everything here is immutable after construction; operations are pure.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, DiscretizationMismatchError

__all__ = [
    "Grid",
    "Partition",
    "PwcField",
    "NodalField",
    "make_uniform_partition",
    "refine_partition",
    "split_region",
    "project",
    "clamp_to_bounds",
    "embed",
    "l2_norm",
    "l2_dist",
    "bregman",
    "save_field",
    "load_pwc_field",
    "load_nodal_field",
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
        if self.m < 3:
            raise ConfigurationError(f"grid needs at least 3 nodes per side, got m={self.m}")

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

    cell_to_region assigns every grid cell a region id in [0, N). Regions of
    partitions produced by this module are square cell blocks, recorded in
    ``blocks`` as rows (i0, j0, side) in cell coordinates, sorted in raster
    order; that order defines the region numbering. No link to a coarser
    partition is kept: nesting is a property of the two cell labellings, which
    embed checks.
    """

    grid: Grid
    cell_to_region: np.ndarray
    n_regions: int
    level: int
    blocks: np.ndarray | None = None

    def __post_init__(self):
        c2r = np.ascontiguousarray(self.cell_to_region, dtype=np.int64)
        if c2r.shape != (self.grid.n_cells,):
            raise ConfigurationError("cell_to_region must label every grid cell exactly once")
        present = np.bincount(c2r, minlength=self.n_regions)
        if c2r.min() < 0 or c2r.max() >= self.n_regions or (present == 0).any():
            raise ConfigurationError("region ids must cover 0..N-1 with no empty region")
        if self.n_regions < 1:
            raise ConfigurationError("need N >= 1")
        c2r.setflags(write=False)
        object.__setattr__(self, "cell_to_region", c2r)
        if self.blocks is not None:
            b = np.ascontiguousarray(self.blocks, dtype=np.int64)
            b.setflags(write=False)
            object.__setattr__(self, "blocks", b)

    @property
    def region_cell_counts(self) -> np.ndarray:
        return np.bincount(self.cell_to_region, minlength=self.n_regions)

    @property
    def region_areas(self) -> np.ndarray:
        return self.region_cell_counts * self.grid.h ** 2

    def region_cells(self, j: int) -> np.ndarray:
        """Cell indices of region j."""
        return np.nonzero(self.cell_to_region == j)[0]

    def same_as(self, other: "Partition") -> bool:
        return (
            self.grid.m == other.grid.m
            and self.n_regions == other.n_regions
            and np.array_equal(self.cell_to_region, other.cell_to_region)
        )


def _blocks_to_partition(grid: Grid, blocks: list[tuple[int, int, int]],
                         level: int) -> Partition:
    sorted_blocks = sorted(blocks, key=lambda b: (b[0], b[1]))
    c2r = np.empty(grid.n_cells, dtype=np.int64)
    cps = grid.cells_per_side
    for rid, (i0, j0, side) in enumerate(sorted_blocks):
        ci = np.repeat(np.arange(i0, i0 + side), side)
        cj = np.tile(np.arange(j0, j0 + side), side)
        c2r[ci * cps + cj] = rid
    return Partition(
        grid=grid,
        cell_to_region=c2r,
        n_regions=len(blocks),
        level=level,
        blocks=np.asarray(sorted_blocks, dtype=np.int64),
    )


def make_uniform_partition(grid: Grid, k: int, level: int = 0) -> Partition:
    """Uniform k x k partition into N = k^2 square regions of side 1/k.

    Requires k to divide the cells per side.
    """
    if k < 1:
        raise ConfigurationError(f"cells per side k must be >= 1, got {k}")
    if grid.cells_per_side % k != 0:
        raise ConfigurationError(
            f"uniform partition needs k to divide the cell count per side: "
            f"m={grid.m} gives {grid.cells_per_side} cells per side, k={k}"
        )
    s = grid.cells_per_side // k
    blocks = [(bi * s, bj * s, s) for bi in range(k) for bj in range(k)]
    return _blocks_to_partition(grid, blocks, level)


def tiles(grid: Grid, n: int) -> bool:
    """Whether n = k^2 regions tile the grid uniformly: k divides the cells per side."""
    k = math.isqrt(max(n, 0))
    return n >= 1 and k * k == n and grid.cells_per_side % k == 0


def uniform_partition(grid: Grid, n: int, level: int = 0) -> Partition:
    """The uniform partition into n regions (ConfigurationError unless tiles(grid, n))."""
    if not tiles(grid, n):
        raise ConfigurationError(f"{n} regions do not tile grid m={grid.m}: N must be k^2 "
                                 f"with k dividing the {grid.cells_per_side} cells per side")
    return make_uniform_partition(grid, math.isqrt(n), level)


def refine_partition(p: Partition, factor: int = 2) -> Partition:
    """Split every region into factor^2 square children, one level finer.

    Each child's cells lie in one region of p; no parent map is kept.
    """
    if factor < 2:
        raise ConfigurationError(f"refinement factor must be >= 2, got {factor}")
    if p.blocks is None:
        raise ConfigurationError("can only refine partitions with square block regions")
    if any(side % factor for _, _, side in p.blocks):
        raise ConfigurationError(
            f"refinement by {factor} does not divide a region of this partition "
            f"(grid m={p.grid.m})"
        )
    children: list[tuple[int, int, int]] = []
    for i0, j0, side in p.blocks:
        s = side // factor
        for a in range(factor):
            for b in range(factor):
                children.append((i0 + a * s, j0 + b * s, s))
    return _blocks_to_partition(p.grid, children, p.level + 1)


def split_region(p: Partition, region: int) -> Partition:
    """Split one square region into its four quadrants, leaving the rest alone."""
    if p.blocks is None:
        raise ConfigurationError("can only split partitions with square block regions")
    if not 0 <= region < p.n_regions:
        raise ConfigurationError(f"region {region} out of range 0..{p.n_regions - 1}")
    i0, j0, side = p.blocks[region]
    if side % 2:
        raise ConfigurationError(f"region {region} has odd cell side {side}, cannot split")
    s = side // 2
    blocks: list[tuple[int, int, int]] = []
    for rid, (bi, bj, bs) in enumerate(p.blocks):
        if rid == region:
            for a in range(2):
                for b in range(2):
                    blocks.append((bi + a * s, bj + b * s, s))
        else:
            blocks.append((int(bi), int(bj), int(bs)))
    return _blocks_to_partition(p.grid, blocks, p.level + 1)


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


def save_field(path, f: PwcField | NodalField) -> None:
    """Write a field in the plain-text exchange format (UTF-8, LF)."""
    if isinstance(f, PwcField):
        lines = [f"pwc {f.partition.n_regions} {f.partition.level}"]
        lines += [f"{j} {float(v)!r}" for j, v in enumerate(f.coeffs)]
    elif isinstance(f, NodalField):
        lines = [f"nodal {f.grid.m}"]
        lines += [repr(float(v)) for v in f.values]
    else:
        raise TypeError(f"cannot save {type(f).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_number(path, token: str, kind=float):
    """One numeric token of a field or matrix file; anything that is not a
    finite number of the given kind raises ConfigurationError."""
    try:
        value = kind(token)
    except ValueError:
        raise ConfigurationError(f"{path}: {token!r} is not a valid {kind.__name__}") from None
    if kind is int and not -2 ** 63 < value < 2 ** 63:
        raise ConfigurationError(f"{path}: integer {token!r} is out of range")
    if kind is float and not np.isfinite(value):
        raise ConfigurationError(f"{path}: non-finite value {token!r}")
    return value


def read_header(fh, path, layout: str, kinds: tuple) -> list:
    """Parse a header line laid out as '<name> <field> ...' with the given field types."""
    tokens = fh.readline().split()
    name = layout.split()[0]
    if len(tokens) != len(kinds) + 1 or tokens[0] != name:
        raise ConfigurationError(f"{path}: expected '{layout}' header")
    return [parse_number(path, tok, kind) for tok, kind in zip(tokens[1:], kinds)]


def read_rows(fh, path, rows: int, cols: int) -> np.ndarray:
    """Read rows lines of exactly cols finite numbers each."""
    out = np.empty((rows, cols))
    for r in range(rows):
        tokens = fh.readline().split()
        if not tokens:
            raise ConfigurationError(f"{path}: truncated after {r} of {rows} data lines")
        if len(tokens) != cols:
            raise ConfigurationError(
                f"{path}: data line {r + 1} has {len(tokens)} values, expected {cols}")
        out[r] = [parse_number(path, tok) for tok in tokens]
    return out


def expect_end(fh, path) -> None:
    """Reject anything but blank lines after the declared data."""
    if fh.read().strip():
        raise ConfigurationError(f"{path}: unexpected data after the declared entries")


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; other bytes raise ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def pwc_file_header(path) -> tuple[int, int]:
    """(N, level) from the header of a piecewise-constant field file."""
    with open_text(path) as fh:
        n, level = read_header(fh, path, "pwc <N> <level>", (int, int))
    if n < 1:
        raise ConfigurationError(f"{path}: region count must be positive, got {n}")
    return n, level


def load_pwc_field(path, partition: Partition, bounds: tuple[float, float]) -> PwcField:
    """Read a pwc file: N lines 'region coeff', each region exactly once, each
    coefficient inside bounds (ConfigurationError otherwise)."""
    with open_text(path) as fh:
        n, level = read_header(fh, path, "pwc <N> <level>", (int, int))
        if n != partition.n_regions:
            raise DiscretizationMismatchError(
                f"{path}: file has {n} regions, partition has {partition.n_regions}"
            )
        if level != partition.level:
            raise DiscretizationMismatchError(
                f"{path}: file level {level} != partition level {partition.level}"
            )
        coeffs = np.empty(n)
        seen = np.zeros(n, dtype=bool)
        for row in read_rows(fh, path, n, 2):
            j = int(row[0])
            if j != row[0] or not 0 <= j < n:
                raise ConfigurationError(f"{path}: region index {row[0]:g} is not in 0..{n - 1}")
            if seen[j]:
                raise ConfigurationError(f"{path}: region {j} is listed twice")
            coeffs[j] = row[1]
            seen[j] = True
        expect_end(fh, path)
    field = PwcField(partition, coeffs, bounds)
    if not field.admissible():
        raise ConfigurationError(
            f"{path}: coefficients {coeffs.min()} to {coeffs.max()} leave the box {field.bounds}")
    return field


def load_nodal_field(path, grid: Grid) -> NodalField:
    """Read a nodal file: m^2 row-major values after the header, in any
    whitespace layout."""
    with open_text(path) as fh:
        (m,) = read_header(fh, path, "nodal <m>", (int,))
        if m != grid.m:
            raise DiscretizationMismatchError(f"{path}: file has m={m}, grid has m={grid.m}")
        tokens = fh.read().split()
    if len(tokens) != grid.n_nodes:
        raise ConfigurationError(f"{path}: expected {grid.n_nodes} values, got {len(tokens)}")
    values = np.array([parse_number(path, tok) for tok in tokens])
    return NodalField(grid, values)
