"""Five-point Helmholtz solver, DtN matrix assembly, and the frequency guard.

Discrete model on the unit square: at interior nodes the equation is the
lumped form  L u - omega^2 diag(d(c)) u = M f, where L is the grid graph
Laplacian (h^2 times the five-point -Delta_h), d(c) is the cell-to-node mass
lumping of the coefficient field c = c^-2, and M is the same lumping of 1.
Boundary nodes carry Dirichlet values along a single closed loop.

Solver. The fields are piecewise constant on square cell blocks, so the
interior of every s x s block has one lumped mass and an operator that the
orthonormal DST-I diagonalises in closed form. HelmholtzOperator eliminates
the block interiors exactly (static condensation, the capacitance-matrix idea
of Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970) and factors only
the condensed operator on the skeleton, the grid lines between blocks, with
SuperLU and partial pivoting. One factor serves the low window and band
windows alike; at s = 1 (a partition without square blocks) the skeleton is
the whole grid. The DtN assembly solves for the skeleton values V_X of the
boundary-indicator solutions only; the SolutionBank keeps V_X and the block
symbols, and gives the bank's products (U g, U^T diag(w) U, diag(U P U^T))
from them without forming the dense (n_nodes, nb) bank. A residual audit
backs every solve: the whole condensed residual of the bank plus a sketched
five-point residual of U G for a fixed Gaussian G, and the exact five-point
residual of a single solve. Static per-grid and per-block-size pieces (index
sets, the DST, the condensed pattern) are cached.

The DtN matrix maps boundary Dirichlet coefficients to variational Neumann
coefficients: column p is (minus) the residual of the full system applied to
the solution with the p-th boundary indicator as data, read off at boundary
rows. Defining the flux variationally (not by one-sided differences) makes the
interior-boundary product identity

    omega^2 * sum_cells (c1 - c2) * avg(u1 u2) * h^2  =  h^T (Lam1 - Lam2) g

hold to solver precision for any two coefficient fields, which the derivative
and stability layers rely on.

One forward evaluation is assemble_dtn: it returns the DtN matrix and the
SolutionBank behind it (the indicator solutions in condensed form, which also
give the derivative and its adjoint), with the default boundary weights
resolved there. dtn_for_field and derivative.bank_for_field are named entries
onto it.

The data-space norm is a weighted Hilbert-Schmidt norm: boundary Sobolev
weight operators of orders +-1/2 are functions of the boundary-loop Laplacian,
which is circulant (the loop is closed and uniformly spaced), so one
closed-form DFT symbol determines them all, with no eigensolve.

scipy.sparse.linalg is imported as ``spla``: ``spla.splu`` is the skeleton
factor, one call per operator, and the benchmark's layer trace wraps it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import circulant

from .domain import (
    Grid,
    NodalField,
    PwcField,
    boundary_loop,
    grid_laplacian,
    interior_nodes,
    expect_end,
    mass_scatter_matrix,
    node_quad_weights,
    read_header,
    read_rows,
)
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    DiscretizationMismatchError,
    NearEigenfrequencyError,
)

__all__ = [
    "SpectrumWindow",
    "spectrum_guard",
    "unit_square_eigenvalues",
    "BoundaryWeights",
    "build_boundary_weights",
    "HelmholtzOperator",
    "DtnMatrix",
    "SolutionBank",
    "assemble_dtn",
    "dtn_data_norm",
    "dtn_for_field",
    "save_dtn",
    "load_dtn",
    "save_weights",
    "load_weights",
]

_PIVOT_RTOL = 1e-13
_SOLVE_RTOL = 1e-10
_BLOCK_MARGIN = 0.5  # block interiors stay at least half as definite as their Laplacian
_BLOCKS_PER_SIDE = 2  # block size s at most (m - 1) / 2 ...
_MAX_BLOCK = 32  # ... and at most 32 cells (measured optimum, see _block_size)
_COLUMN_CHUNKS = 8  # the indicator solve runs over nb / 8 columns at a time
_CHUNK_ENTRIES = 1 << 14  # values per group of blocks in the block-interior passes
_SKETCH_COLUMNS = 4  # Gaussian columns of the sketched five-point audit
_SKETCH_SEED = 20240817
_SYMBOL_RTOL = 1e-12  # weights: symbol evenness, and file blocks against the rebuilt pair


def unit_square_eigenvalues(upto: float) -> np.ndarray:
    """Distinct Dirichlet eigenvalues pi^2 (p^2 + q^2) of -Delta on the unit
    square, ascending, covering (0, upto] plus the first value above.

    With x = max(upto, 0) / pi^2, the pair p = ceil(sqrt(x)), q = 1 gives
    p^2 + 1 in (x, x + 2 sqrt(x) + 2], so sums up to that cap always include
    one above upto.
    """
    x = max(upto, 0.0) / np.pi ** 2
    cap = int(np.floor(x + 2.0 * np.sqrt(x) + 2.0))
    p = np.arange(1, int(np.sqrt(cap)) + 1)
    sums = np.unique((p[:, None] ** 2 + p[None, :] ** 2).ravel())
    lams = np.pi ** 2 * sums[sums <= cap]
    above = lams[lams > upto]
    return np.concatenate([lams[lams <= upto], above[:1]])


@dataclass(frozen=True)
class SpectrumWindow:
    """Certificate that omega^2 avoids every forbidden band [lam_n/B2, lam_n/B1].

    kind 'low' means 0 < omega^2 < lam_1/B2 with window = (0, lam_1/B2);
    kind 'band' means lam_n/B1 < omega^2 < lam_{n+1}/B2 with that window and
    band_index = n (1-based). distance is to the nearest forbidden band.
    """

    kind: str
    window: tuple[float, float]
    distance: float
    band_index: int | None
    eigenvalues: np.ndarray


def spectrum_guard(omega2: float, b1: float, b2: float) -> SpectrumWindow:
    """Check omega^2 against the forbidden bands induced by the coefficient box.

    For any admissible field the n-th Dirichlet eigenvalue of the weighted
    problem lies in [lam_n/B2, lam_n/B1], so omega^2 outside every such band is
    safe for the whole box. Band membership (closed bands) raises
    AdmissibilityError naming the band.
    """
    if not (0 < b1 <= b2):
        raise ConfigurationError(f"bounds must satisfy 0 < b1 <= b2, got ({b1}, {b2})")
    if omega2 <= 0:
        raise AdmissibilityError(f"omega^2 must be positive, got {omega2}")
    lams = unit_square_eigenvalues(omega2 * b2)
    lo = lams / b2
    hi = lams / b1
    inside = (lo <= omega2) & (omega2 <= hi)
    if inside.any():
        n = int(np.nonzero(inside)[0][0]) + 1
        raise AdmissibilityError(
            f"omega^2 = {omega2} lies in forbidden band {n}: "
            f"[{lo[n - 1]}, {hi[n - 1]}] (eigenvalue {lams[n - 1]}, bounds ({b1}, {b2}))"
        )
    if omega2 < lo[0]:
        return SpectrumWindow(
            kind="low",
            window=(0.0, float(lo[0])),
            distance=float(lo[0] - omega2),
            band_index=None,
            eigenvalues=lams,
        )
    below = np.nonzero(hi < omega2)[0]
    n = int(below[-1])
    if n + 1 >= lams.size or omega2 >= lo[n + 1]:
        # should be unreachable: the eigenvalue list extends past omega2*b2
        raise AdmissibilityError(f"omega^2 = {omega2} could not be certified against the spectrum")
    return SpectrumWindow(
        kind="band",
        window=(float(hi[n]), float(lo[n + 1])),
        distance=float(min(omega2 - hi[n], lo[n + 1] - omega2)),
        band_index=n + 1,
        eigenvalues=lams,
    )


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """Read-only dense symmetric circulant with the even real symbol (DFT order)."""
    col = np.fft.ifft(symbol).real
    mat = circulant(0.5 * (col + np.roll(col[::-1], 1)))  # exactly symmetric
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class BoundaryWeights:
    """SPD weight operators realizing the boundary Sobolev norms of order +-1/2.

    The boundary-loop Laplacian (nb nodes, spacing h_b) is circulant with
    eigenvalues mu_k = (2 - 2 cos(2 pi k / nb)) / h_b^2 in DFT order. The
    only state is the symbol of w_minus, symbol_k = h_b (1 + mu_k)^{-1/2}:
    finite, positive and even (symbol_k = symbol_{nb-k}). The dense
    circulants w_minus, w_minus_half (of sqrt(symbol), the symmetric square
    root) and w_plus = h_b^2 w_minus^{-1} are formed once, on first use.
    """

    grid: Grid
    symbol: np.ndarray

    def __post_init__(self):
        sym = np.array(self.symbol, dtype=float)
        nb = self.grid.n_boundary
        if (sym.shape != (nb,) or not (np.isfinite(sym).all() and (sym > 0).all())
                or np.abs(sym[1:] - sym[:0:-1]).max() > _SYMBOL_RTOL * sym.max()):
            raise ConfigurationError(f"weight symbol must be {nb} finite positive values "
                                     "with symbol_k = symbol_(nb-k)")
        sym.setflags(write=False)
        object.__setattr__(self, "symbol", sym)

    @property
    def nb(self) -> int:
        return self.grid.n_boundary

    @property
    def h_b(self) -> float:
        return self.grid.h

    @cached_property
    def w_minus(self) -> np.ndarray:
        return _circulant(self.symbol)

    @cached_property
    def w_minus_half(self) -> np.ndarray:
        return _circulant(np.sqrt(self.symbol))

    @cached_property
    def w_plus(self) -> np.ndarray:
        return _circulant(self.h_b ** 2 / self.symbol)

    def compatible(self, other: "BoundaryWeights") -> bool:
        """Same grid, and symbols equal to _SYMBOL_RTOL of the larger maximum."""
        if self.grid != other.grid:
            return False
        scale = max(self.symbol.max(), other.symbol.max())
        return bool(np.abs(self.symbol - other.symbol).max() <= _SYMBOL_RTOL * scale)


def build_boundary_weights(grid: Grid) -> BoundaryWeights:
    """Weights of the grid's boundary loop from their closed-form symbol."""
    hb = grid.h
    mu = (2.0 * np.sin(np.pi * np.fft.fftfreq(grid.n_boundary)) / hb) ** 2  # 2 - 2cos = 4 sin^2
    return BoundaryWeights(grid, hb / np.sqrt(1.0 + mu))


def _to_nodes(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(S x S) x for x of shape (blocks, (s-1)^2, k): the DST along both grid
    directions of each block interior, as two (s-1)-sized products. S is
    symmetric, so this is also (S x S)^T."""
    n = basis.shape[0]
    blocks, _, k = x.shape
    y = np.matmul(basis, x.reshape(blocks, n, n * k))
    return np.matmul(basis, y.reshape(blocks, n, n, k)).reshape(blocks, n * n, k)


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """Static pieces of the five-point system of one grid, condensed at block size s.

    The skeleton holds the nodes on the grid lines i = 0 or j = 0 (mod s): the
    interior skeleton X in natural order, then the boundary loop; a node's
    skeleton position is its index in that order. The other nodes form the
    interiors of the s x s cell blocks, (s-1)^2 nodes each in row-major order,
    coupled only to the 4(s-1) ring nodes beside the block's edges (bottom,
    top, left, right, each in increasing grid order). At s = 1 there are no
    block interiors and the skeleton is the whole grid.
    """

    s: int
    nodes: np.ndarray       # skeleton node ids
    n_x: int                # interior skeleton nodes: the unknowns of the condensed system
    ring: np.ndarray        # (n_blocks, 4(s-1)) skeleton positions of each block's ring
    interior: np.ndarray    # (n_blocks, (s-1)^2) node ids of each block interior
    basis: np.ndarray       # orthonormal DST-I S of size s - 1 (exactly symmetric)
    mu: np.ndarray          # (s-1)^2 eigenvalues mu_p + mu_q of a block interior's Laplacian
    coupling: np.ndarray    # F = (S x S)^T E, E the 0/1 coupling of a block interior to its ring
    l_sigma: sp.csr_matrix  # skeleton block of the grid Laplacian
    sigma_diag: np.ndarray  # positions of its diagonal entries in l_sigma.data
    scatter: sp.csr_matrix  # (n_skeleton, n_blocks 4(s-1)): sums ring entries into the skeleton
    x_indptr: np.ndarray    # CSC pattern of the condensed rows X, all skeleton columns
    x_indices: np.ndarray
    x_cols: np.ndarray      # column of each pattern entry; the X columns come first
    x_base: np.ndarray      # the Laplacian's entries in that pattern
    x_slots: np.ndarray     # pattern slot of each X diagonal, then of each entry x_forms picks
    x_forms: np.ndarray     # flat indices into the ring forms of the entries with a row in X
    grid_interior: np.ndarray  # interior node ids of the grid, natural order
    l_rows: sp.csr_matrix      # their rows of the grid Laplacian, all columns
    inward: np.ndarray         # per loop node: its interior neighbour (diagonal at a corner)
    edge: np.ndarray           # loop positions of the non-corner nodes


@lru_cache(maxsize=None)
def _skeleton(grid: Grid, s: int) -> _Skeleton:
    m, n = grid.m, s - 1
    i, j = np.divmod(np.arange(grid.n_nodes), m)
    boundary = (i == 0) | (i == m - 1) | (j == 0) | (j == m - 1)
    loop = boundary_loop(grid)
    nodes = np.concatenate([np.flatnonzero(((i % s == 0) | (j % s == 0)) & ~boundary), loop])
    n_x, n_sigma = nodes.size - loop.size, nodes.size
    position = np.full(grid.n_nodes, -1)
    position[nodes] = np.arange(n_sigma)

    k = grid.cells_per_side // s
    blocks = np.arange(k * k if n else 0)
    r0, c0 = (blocks // k * s)[:, None], (blocks % k * s)[:, None]
    rows, cols = r0 + np.arange(1, s), c0 + np.arange(1, s)
    ring = position[np.concatenate([r0 * m + cols, (r0 + s) * m + cols,
                                    rows * m + c0, rows * m + c0 + s], axis=1)]
    p = np.arange(1, s)
    basis = np.sqrt(2.0 / s) * np.sin(np.pi * np.outer(p, p) / s)
    mu1 = 2.0 - 2.0 * np.cos(np.pi * p / s)
    e = np.zeros((n, n, 4 * n))
    if n:
        e[0, p - 1, p - 1] = 1.0          # bottom ring node c beside interior node (0, c)
        e[n - 1, p - 1, n + p - 1] = 1.0  # top
        e[p - 1, 0, 2 * n + p - 1] = 1.0      # left ring node a beside interior node (a, 0)
        e[p - 1, n - 1, 3 * n + p - 1] = 1.0  # right

    l_sigma = grid_laplacian(grid)[nodes][:, nodes].tocsr()
    lap = l_sigma.tocoo()
    in_x = lap.row < n_x
    form_rows = np.broadcast_to(ring[:, :, None], (blocks.size, 4 * n, 4 * n)).ravel()
    form_cols = np.broadcast_to(ring[:, None, :], (blocks.size, 4 * n, 4 * n)).ravel()
    x_forms = np.flatnonzero(form_rows < n_x)
    diag = np.arange(n_x)
    pattern, slot = np.unique(np.concatenate([lap.col[in_x], diag, form_cols[x_forms]]) * n_x
                              + np.concatenate([lap.row[in_x], diag, form_rows[x_forms]]),
                              return_inverse=True)
    n_lap = int(in_x.sum())
    li, lj = np.divmod(loop, m)
    interior = interior_nodes(grid)
    skeleton = _Skeleton(
        s=s, nodes=nodes, n_x=n_x, ring=ring,
        interior=(rows[:, :, None] * m + cols[:, None, :]).reshape(blocks.size, n * n),
        basis=basis,
        mu=(mu1[:, None] + mu1[None, :]).ravel(),
        coupling=_to_nodes(basis, e.reshape(1, n * n, 4 * n))[0],
        l_sigma=l_sigma,
        sigma_diag=np.flatnonzero(l_sigma.indices == np.repeat(np.arange(n_sigma),
                                                               np.diff(l_sigma.indptr))),
        scatter=sp.csr_matrix((np.ones(ring.size), (ring.ravel(), np.arange(ring.size))),
                              shape=(n_sigma, ring.size)),
        x_indptr=np.concatenate([[0], np.cumsum(np.bincount(pattern // n_x, minlength=n_sigma))]),
        x_indices=pattern % n_x,
        x_cols=pattern // n_x,
        x_base=np.bincount(slot[:n_lap], weights=lap.data[in_x], minlength=pattern.size),
        x_slots=slot[n_lap:],
        x_forms=x_forms,
        grid_interior=interior,
        l_rows=grid_laplacian(grid)[interior].tocsr(),
        inward=(li + (li == 0) - (li == m - 1)) * m + lj + (lj == 0) - (lj == m - 1),
        edge=np.flatnonzero((li % (m - 1) != 0) | (lj % (m - 1) != 0)),
    )
    for arr in (skeleton.nodes, skeleton.ring, skeleton.interior, skeleton.basis,
                skeleton.coupling, skeleton.x_cols, skeleton.x_base, skeleton.inward):
        arr.setflags(write=False)
    return skeleton


def _block_size(c2inv: PwcField, omega2: float) -> int:
    """The largest s that divides every region's side and offset, is at most
    _MAX_BLOCK and (m - 1) / _BLOCKS_PER_SIDE, and keeps every block interior
    positive definite with margin: omega^2 h^2 max c <= _BLOCK_MARGIN (2 mu_1),
    2 mu_1 = 4 - 4 cos(pi/s) being the smallest eigenvalue of a block
    interior's Laplacian. 1 for a partition without square blocks.

    The caps are where one descent iterate was fastest (BLAS on one thread):
    s = 8 at m = 17, 16 at m = 33, 32 at m = 65 and 129. A larger s grows the
    dense ring forms and block products as s^3 per block, a smaller one the
    skeleton and its SuperLU solve as m^2 / s."""
    grid = c2inv.grid
    blocks = c2inv.partition.blocks
    if blocks is None:
        return 1
    common = int(np.gcd.reduce(np.append(blocks.ravel(), grid.cells_per_side)))
    sigma = omega2 * grid.h ** 2 * float(c2inv.coeffs.max())
    for s in range(min(common, _MAX_BLOCK, grid.cells_per_side // _BLOCKS_PER_SIDE), 1, -1):
        if common % s == 0 and sigma <= _BLOCK_MARGIN * 4.0 * (1.0 - np.cos(np.pi / s)):
            return s
    return 1


def _block_symbols(sk: _Skeleton, sigma: np.ndarray) -> np.ndarray:
    """D_b = 1 / (mu_p + mu_q - sigma_b): the inverse of each block interior's
    operator in the DST basis, (n_blocks, (s-1)^2)."""
    return 1.0 / (sk.mu[None, :] - sigma[:, None])


def _ring_forms(sk: _Skeleton, symbols: np.ndarray) -> np.ndarray:
    """F^T D_b F for every block, (n_blocks, 4(s-1), 4(s-1)).

    A side's column of F is a rank-one DST pattern: t_p S[c, q] for the bottom
    (t = S[0]) and top (t = S[s-2] = (-1)^p S[0]) sides, and the transpose
    pattern for left and right. With D_b symmetric in (p, q), every pair of
    sides is one of three (s-1)-square products, up to reversing its rows or
    columns: S diag(w) S with w = (t t')^T D_b for two parallel sides, and
    Q = S diag(a) D_b diag(a) S (a = S[0]) for a horizontal and a vertical one.
    """
    n = sk.s - 1
    if not n:
        return np.zeros((0, 0, 0))
    basis, a = sk.basis, sk.basis[0]
    d = symbols.reshape(-1, n, n)
    same = (basis * ((a * a) @ d)[:, None, :]) @ basis
    opposite = (basis * ((a * basis[n - 1]) @ d)[:, None, :]) @ basis
    q = basis @ (a[:, None] * d * a) @ basis
    forms = np.empty((d.shape[0], 4 * n, 4 * n))
    bottom, top, left, right = (slice(r * n, (r + 1) * n) for r in range(4))
    for one, other in ((bottom, top), (left, right)):
        forms[:, one, one] = forms[:, other, other] = same
        forms[:, one, other] = forms[:, other, one] = opposite
    forms[:, bottom, left] = q
    forms[:, bottom, right] = q[:, ::-1, :]
    forms[:, top, left] = q[:, :, ::-1]
    forms[:, top, right] = q[:, ::-1, ::-1]
    for horizontal in (bottom, top):
        for vertical in (left, right):
            forms[:, vertical, horizontal] = forms[:, horizontal, vertical].transpose(0, 2, 1)
    return forms


def _block_groups(sk: _Skeleton, per_block: int) -> list[slice]:
    """Slices over the blocks, each group holding at most _CHUNK_ENTRIES of
    per-block values (at least one block)."""
    step = max(1, _CHUNK_ENTRIES // max(1, per_block))
    return [slice(b0, b0 + step) for b0 in range(0, sk.interior.shape[0], step)]


def _fill_blocks(sk: _Skeleton, symbols: np.ndarray, u: np.ndarray, hat=None) -> None:
    """Write the block interiors of u (n_nodes, k), whose skeleton rows are set:
    u_b = (S x S) D_b (F u_ring + hat_b), hat_b a block source in the DST basis."""
    ring_nodes = sk.nodes[sk.ring]
    for blk in _block_groups(sk, sk.interior.shape[1] * u.shape[1]):
        x = sk.coupling @ u[ring_nodes[blk]]
        if hat is not None:
            x += hat[blk]
        x *= symbols[blk, :, None]
        u[sk.interior[blk]] = _to_nodes(sk.basis, x)


@lru_cache(maxsize=None)
def _sketch(nb: int) -> np.ndarray:
    """The fixed Gaussian test matrix (nb, _SKETCH_COLUMNS) of the bank audit."""
    sketch = np.random.default_rng(_SKETCH_SEED).standard_normal((nb, _SKETCH_COLUMNS))
    sketch.setflags(write=False)
    return sketch


class HelmholtzOperator:
    """Interior system K_ii u_i = rhs for one coefficient field and frequency.

    Runs the spectrum guard for the field's coefficient box, then condenses
    the block interiors out of K_ii in closed form and factors the skeleton
    once; every Dirichlet solve (``solve``, and the indicator bank in
    ``assemble_dtn``) reuses that factor.

    The field is constant on the s x s cell blocks (``block_size``, see
    _block_size), so a block interior carries the lumped mass h^2 c_b and the
    operator T x I + I x T - sigma_b I (T = tridiag(-1, 2, -1), sigma_b =
    omega^2 h^2 c_b), whose inverse is (S x S) D_b (S x S)^T with the DST-I S.
    Eliminating the interiors leaves K~ = K_SS - sum_b scatter(F^T D_b F) on the
    skeleton. SuperLU with partial pivoting factors its rows and columns X,
    and its pivots decide NearEigenfrequencyError: det K_ii = det K~_XX times
    the positive block determinants, so K~_XX is singular exactly when K_ii
    is, in the low window and in band windows alike.
    """

    def __init__(self, c2inv: PwcField, omega2: float):
        if omega2 <= 0:
            raise AdmissibilityError(f"omega^2 must be positive, got {omega2}")
        spectrum_guard(omega2, *c2inv.bounds)
        self.grid = c2inv.grid
        self.omega2 = float(omega2)
        self.block_size = _block_size(c2inv, self.omega2)
        self._sk = sk = _skeleton(self.grid, self.block_size)
        self.mass_diag = np.asarray(mass_scatter_matrix(self.grid) @ c2inv.cell_values())
        mass = self.omega2 * self.mass_diag[sk.nodes]
        self._symbols = _block_symbols(sk, self.omega2 * self.mass_diag[sk.interior[:, :1]].ravel())
        self._forms = _ring_forms(sk, self._symbols)
        data = sk.l_sigma.data.copy()
        data[sk.sigma_diag] -= mass
        self._k_sigma = sp.csr_matrix((data, sk.l_sigma.indices, sk.l_sigma.indptr),
                                      shape=sk.l_sigma.shape)
        n_x = sk.n_x
        self._k_x = sk.x_base - np.bincount(  # the rows X of K~, in the static pattern
            sk.x_slots, weights=np.concatenate([mass[:n_x], self._forms.ravel()[sk.x_forms]]),
            minlength=sk.x_base.size)
        n_xx = sk.x_indptr[n_x]
        k_xx = sp.csc_matrix((self._k_x[:n_xx], sk.x_indices[:n_xx], sk.x_indptr[:n_x + 1]),
                             shape=(n_x, n_x))
        try:
            self._lu = spla.splu(k_xx, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise NearEigenfrequencyError(
                f"interior system is singular at omega^2 = {self.omega2}: {exc}",
                smallest_pivot=0.0,
            ) from exc
        pivots = np.abs(self._lu.U.diagonal())
        self.smallest_pivot = float(pivots.min())
        if self.smallest_pivot < _PIVOT_RTOL * float(pivots.max()):
            raise NearEigenfrequencyError(
                f"omega^2 = {self.omega2} is numerically at an eigenfrequency of the "
                f"discrete operator (smallest pivot {self.smallest_pivot:.3e})",
                smallest_pivot=self.smallest_pivot,
            )

    def _k_xb_columns(self, c0: int, c1: int) -> np.ndarray:
        """Dense K~_XB[:, c0:c1]."""
        sk = self._sk
        entries = slice(sk.x_indptr[sk.n_x + c0], sk.x_indptr[sk.n_x + c1])
        out = np.zeros((sk.n_x, c1 - c0))
        out[sk.x_indices[entries], sk.x_cols[entries] - sk.n_x - c0] = self._k_x[entries]
        return out

    def _condensed(self, v: np.ndarray) -> np.ndarray:
        """K~ v for skeleton values v (n_skeleton, k)."""
        sk = self._sk
        out = self._k_sigma @ v
        out -= sk.scatter @ (self._forms @ v[sk.ring]).reshape(-1, v.shape[1])
        return out

    def _five_point_residual(self, u: np.ndarray, source=None) -> float:
        """||K_ii u_i + K_ib u_b - source||_F for full nodal columns u (n_nodes, k)."""
        sk = self._sk
        res = sk.l_rows @ u
        res -= (self.omega2 * self.mass_diag[sk.grid_interior])[:, None] * u[sk.grid_interior]
        if source is not None:
            res -= source
        return float(np.linalg.norm(res))

    def _check(self, res: float, rhs_norm: float, what: str) -> None:
        if rhs_norm > 0 and not res <= _SOLVE_RTOL * rhs_norm:
            raise NearEigenfrequencyError(
                f"{what} residual {res / rhs_norm:.3e} exceeds {_SOLVE_RTOL} "
                f"(omega^2 = {self.omega2} too close to an eigenfrequency)",
                smallest_pivot=self.smallest_pivot,
            )

    def solve(self, g: np.ndarray | None = None, f: NodalField | np.ndarray | None = None) -> NodalField:
        """Solve with Dirichlet data g (boundary-loop order) and volume source f.

        The block sources enter the skeleton system through their DST, and
        the whole five-point residual is audited."""
        sk = self._sk
        n_x, nb, n_nodes = sk.n_x, self.grid.n_boundary, self.grid.n_nodes
        g = np.zeros(nb) if g is None else np.asarray(g, dtype=float)
        if g.shape != (nb,):
            raise DiscretizationMismatchError(f"expected {nb} boundary values, got {g.shape}")
        source = np.zeros(n_nodes)
        if f is not None:
            fv = f.values if isinstance(f, NodalField) else np.asarray(f, dtype=float)
            if fv.shape != (n_nodes,):
                raise DiscretizationMismatchError(
                    f"expected {n_nodes} source values, got {fv.shape}")
            source = node_quad_weights(self.grid) * fv
        hat = _to_nodes(sk.basis, source[sk.interior][:, :, None])
        folded = sk.coupling.T @ (self._symbols[:, :, None] * hat)
        xb = slice(sk.x_indptr[n_x], None)
        rhs = source[sk.nodes[:n_x]] + (sk.scatter @ folded.reshape(-1))[:n_x] - np.bincount(
            sk.x_indices[xb], weights=self._k_x[xb] * g[sk.x_cols[xb] - n_x], minlength=n_x)
        u = np.zeros((n_nodes, 1))
        u[sk.nodes[n_x:], 0] = g
        rhs_norm = self._five_point_residual(u, source[sk.grid_interior, None])
        u[sk.nodes[:n_x], 0] = self._lu.solve(rhs)
        _fill_blocks(sk, self._symbols, u, hat)
        self._check(self._five_point_residual(u, source[sk.grid_interior, None]), rhs_norm,
                    "linear solve")
        return NodalField(self.grid, u[:, 0])

    def _indicator_skeleton(self) -> tuple[np.ndarray, np.ndarray]:
        """Skeleton values V_X (n_x, nb) of the boundary-indicator solutions and
        the variational DtN -(K~_BX V_X + K~_BB), over nb / _COLUMN_CHUNKS
        columns at a time. Audit: the condensed residual K~_XX V_X + K~_XB over
        all nb columns must be within _SOLVE_RTOL of ||K~_XB||_F.

        All solves run before all products: SuperLU calls scipy's BLAS and the
        products numpy's, and with unpinned threads the two pools contend at
        every switch between them."""
        sk = self._sk
        n_x, nb = sk.n_x, self.grid.n_boundary
        skeleton = np.empty((n_x, nb))
        lam = np.empty((nb, nb))
        width = max(1, nb // _COLUMN_CHUNKS)
        chunks = [slice(c0, min(c0 + width, nb)) for c0 in range(0, nb, width)]
        for cols in chunks:
            skeleton[:, cols] = self._lu.solve(self._k_xb_columns(cols.start, cols.stop))
        np.negative(skeleton, out=skeleton)
        v = np.empty((sk.nodes.size, width))
        res2 = 0.0
        for cols in chunks:
            chunk = v[:, :cols.stop - cols.start]
            chunk[:n_x] = skeleton[:, cols]
            chunk[n_x:] = np.eye(nb, cols.stop - cols.start, -cols.start)
            out = self._condensed(chunk)
            res2 += float(np.vdot(out[:n_x], out[:n_x]))
            lam[:, cols] = -out[n_x:]
        k_xb = self._k_x[sk.x_indptr[n_x]:]
        self._check(np.sqrt(res2), float(np.linalg.norm(k_xb)), "skeleton")
        return skeleton, lam

    def _audit_bank(self, bank: "SolutionBank") -> None:
        """Sketched five-point audit of the indicator bank U: for the fixed
        Gaussian G = _sketch(nb), ||(K U) G||_F^2 / _SKETCH_COLUMNS is an
        unbiased estimate of ||K_ii U_i + K_ib U_b||_F^2, which must be within
        _SOLVE_RTOL of ||K_ib||_F (one unit per non-corner loop node)."""
        res = self._five_point_residual(bank.apply(_sketch(self.grid.n_boundary)))
        self._check(res / np.sqrt(_SKETCH_COLUMNS), float(np.sqrt(self._sk.edge.size)),
                    "sketched bank")


@dataclass(frozen=True, eq=False)
class DtnMatrix:
    """Discrete DtN operator with the boundary weights defining its data norm.

    lam[q, p] is the variational Neumann coefficient at boundary node q of the
    solution with the p-th boundary indicator as Dirichlet data; symmetric to
    solver precision.
    """

    lam: np.ndarray
    weights: BoundaryWeights
    omega2: float

    def __post_init__(self):
        lam = np.ascontiguousarray(self.lam, dtype=float)
        nb = self.weights.nb
        if lam.shape != (nb, nb):
            raise DiscretizationMismatchError(f"DtN must be {nb} x {nb}, got {lam.shape}")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    def symmetry_defect(self) -> float:
        scale = np.linalg.norm(self.lam)
        if scale == 0:
            return 0.0
        return float(np.linalg.norm(self.lam - self.lam.T) / scale)


@dataclass(frozen=True, eq=False)
class SolutionBank:
    """Boundary-indicator solutions U (n_nodes, nb) for one field and frequency,
    kept in condensed form, read-only.

    skeleton holds V_X (n_x, nb), the values of U on the interior skeleton of
    block size block_size (the boundary rows of U are the identity); symbols
    holds each block's D_b (see HelmholtzOperator), so that U is
    G_b V_ring = (S x S) D_b F V_ring on a block interior. At block_size 1
    the skeleton is every interior node and symbols has no rows. The grid is
    the weights' grid.
    ``solutions`` materialises U on first read (tests, diagnostics); the
    methods below, which the library uses, never form it.
    """

    skeleton: np.ndarray
    weights: BoundaryWeights
    omega2: float
    block_size: int
    symbols: np.ndarray

    def __post_init__(self):
        grid, s = self.grid, int(self.block_size)
        if s < 1 or grid.cells_per_side % s:
            raise DiscretizationMismatchError(
                f"block size {s} does not divide the {grid.cells_per_side} cells per side")
        sk = _skeleton(grid, s)
        u = np.ascontiguousarray(self.skeleton, dtype=float)
        d = np.ascontiguousarray(self.symbols, dtype=float)
        if u.shape != (sk.n_x, grid.n_boundary) or d.shape != sk.interior.shape:
            raise DiscretizationMismatchError(
                f"skeleton values and block symbols must be {(sk.n_x, grid.n_boundary)} and "
                f"{sk.interior.shape}, got {u.shape} and {d.shape}")
        u.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "skeleton", u)
        object.__setattr__(self, "symbols", d)
        object.__setattr__(self, "block_size", s)

    @property
    def grid(self) -> Grid:
        return self.weights.grid

    @property
    def _sk(self) -> _Skeleton:
        return _skeleton(self.grid, self.block_size)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """U g for boundary data g (nb,) or (nb, k), in O(n_nodes s k) flops and
        O(n_nodes k) memory."""
        sk = self._sk
        g = np.asarray(g, dtype=float)
        cols = g.reshape(self.grid.n_boundary, -1)
        u = np.empty((self.grid.n_nodes, cols.shape[1]))
        u[sk.nodes[:sk.n_x]] = self.skeleton @ cols
        u[sk.nodes[sk.n_x:]] = cols
        _fill_blocks(sk, self.symbols, u)
        return u.reshape((-1,) + g.shape[1:])

    @cached_property
    def solutions(self) -> np.ndarray:
        """The dense (n_nodes, nb) bank U."""
        u = self.apply(np.eye(self.grid.n_boundary))
        u.setflags(write=False)
        return u

    def _rows(self, pos: np.ndarray, x_rows=None, loop_rows=None) -> np.ndarray:
        """Rows at skeleton positions pos (any shape) of U, or of U p when given
        its rows on X and on the loop."""
        n_x = self._sk.n_x
        out = np.empty(pos.shape + (self.grid.n_boundary,))
        inner = pos < n_x
        out[inner] = (self.skeleton if x_rows is None else x_rows)[pos[inner]]
        loop = np.nonzero(~inner)
        if loop_rows is None:
            out[loop] = 0.0
            out[loop + (pos[loop] - n_x,)] = 1.0
        else:
            out[loop] = loop_rows[pos[loop] - n_x]
        return out

    def _block_forms(self, blocks: slice) -> np.ndarray:
        """G_b = (S x S) D_b F for the given blocks, (blocks, (s-1)^2, 4(s-1))."""
        sk = self._sk
        return _to_nodes(sk.basis, self.symbols[blocks, :, None] * sk.coupling)

    def gram(self, w: np.ndarray) -> np.ndarray:
        """U^T diag(w) U for nodal weights w, from the rows where w is nonzero:
        skeleton rows of U, and V_ring^T (G_b^T diag(w_b) G_b) V_ring for each
        block interior."""
        sk = self._sk
        pos = np.flatnonzero(w[sk.nodes])
        u = self._rows(pos)
        out = u.T @ (w[sk.nodes[pos], None] * u)
        for b in np.flatnonzero(np.any(w[sk.interior] != 0.0, axis=1)):
            g = self._block_forms(slice(b, b + 1))[0]
            ring = self._rows(sk.ring[b])
            out += ring.T @ ((g.T @ (w[sk.interior[b], None] * g)) @ ring)
        return out

    def quadratic_diagonal(self, p: np.ndarray) -> np.ndarray:
        """diag(U p U^T) at every node, with U p formed on the skeleton only:
        p_qq on the loop, rowsum(V_X o V_X p) on X, and rowsum((G_b C_b) o G_b)
        on each block interior with C_b = V_ring p V_ring^T."""
        sk = self._sk
        out = np.empty(self.grid.n_nodes)
        up = self.skeleton @ p  # rows X of U p; its loop rows are p
        out[sk.nodes[:sk.n_x]] = np.einsum("ij,ij->i", self.skeleton, up)
        out[sk.nodes[sk.n_x:]] = np.diagonal(p)
        n_int, n_ring = sk.coupling.shape
        for blk in _block_groups(sk, max(n_ring * self.grid.n_boundary, n_int * n_ring)):
            ring = self._rows(sk.ring[blk])
            c = self._rows(sk.ring[blk], up, p) @ ring.transpose(0, 2, 1)
            g = self._block_forms(blk)
            out[sk.interior[blk]] = np.einsum("bij,bij->bi", g @ c, g)
        return out


def assemble_dtn(op: HelmholtzOperator, weights: BoundaryWeights | None = None,
                 variant: str = "variational") -> tuple[DtnMatrix, SolutionBank]:
    """One forward evaluation: the DtN matrix and its solution bank.

    The variational DtN is -(K~_BB + K~_BX V_X), the boundary rows of the
    condensed operator on the bank's skeleton values, which equal
    -(K_bb + K_bi U_i). variant='one_sided' replaces the variational flux with
    an inward finite difference (for degradation experiments only; it reads
    the dense bank, materialised once and kept by the bank). weights default
    to build_boundary_weights(op.grid).
    The condensed residual and a sketched five-point residual of the bank are
    audited (HelmholtzOperator._indicator_skeleton, _audit_bank).
    """
    grid = op.grid
    weights = build_boundary_weights(grid) if weights is None else weights
    if weights.grid.m != grid.m:
        raise DiscretizationMismatchError("weights were built for a different grid")
    if variant not in ("variational", "one_sided"):
        raise ConfigurationError(f"unknown DtN variant {variant!r}")
    skeleton, lam = op._indicator_skeleton()
    bank = SolutionBank(skeleton, weights, op.omega2, op.block_size, op._symbols)
    op._audit_bank(bank)
    if variant == "one_sided":
        sk, nb = op._sk, grid.n_boundary
        factor = np.full(nb, 1.0 / np.sqrt(2.0))
        factor[sk.edge] = 1.0
        lam = (bank.solutions[sk.inward] - np.eye(nb)) * factor[:, None]
    return (DtnMatrix(lam=lam, weights=weights, omega2=op.omega2), bank)


def dtn_data_norm(mat: np.ndarray, weights: BoundaryWeights, kind: str = "hs") -> float:
    """Data-space norm of a DtN difference: || W^{1/2} A W^{1/2} || with W the
    order -1/2 weight. kind='hs' (default, the Y norm) or 'op' (largest
    singular value of the same weighted matrix, diagnostic)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (weights.nb, weights.nb):
        raise DiscretizationMismatchError(
            f"matrix shape {mat.shape} does not match weights ({weights.nb})"
        )
    weighted = weights.w_minus_half @ mat @ weights.w_minus_half
    if kind == "hs":
        return float(np.linalg.norm(weighted, "fro"))
    if kind == "op":
        return float(np.linalg.norm(weighted, 2))
    raise ConfigurationError(f"unknown norm kind {kind!r}")


def dtn_for_field(c2inv: PwcField, omega2: float, weights: BoundaryWeights | None = None,
                  return_solutions: bool = False, variant: str = "variational"):
    """Forward map of one field: the DtnMatrix, or (DtnMatrix, SolutionBank)
    with return_solutions (see assemble_dtn)."""
    dtn, bank = assemble_dtn(HelmholtzOperator(c2inv, omega2), weights=weights, variant=variant)
    return (dtn, bank) if return_solutions else dtn


def save_dtn(path, dtn: DtnMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dtn {dtn.weights.nb} {float(dtn.omega2)!r}\n")
        for row in dtn.lam:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_dtn(path, weights: BoundaryWeights) -> DtnMatrix:
    with open(path, encoding="utf-8") as fh:
        nb, omega2 = read_header(fh, path, "dtn <nb> <omega2>", (int, float))
        if nb != weights.nb:
            raise DiscretizationMismatchError(f"{path}: file nb={nb}, weights nb={weights.nb}")
        lam = read_rows(fh, path, nb, nb)
        expect_end(fh, path)
    return DtnMatrix(lam=lam, weights=weights, omega2=omega2)


def save_weights(path, weights: BoundaryWeights) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, mat in (("wplus", weights.w_plus), ("wminus", weights.w_minus)):
            fh.write(f"{name} {weights.nb}\n")
            for row in mat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_weights(path, grid: Grid) -> BoundaryWeights:
    """Read a weights file: the symbol is the real DFT of w_minus's first
    column, and both blocks must match the pair rebuilt from it to 1e-12 of
    their largest entry (ConfigurationError otherwise)."""
    expected = grid.n_boundary
    mats = {}
    with open(path, encoding="utf-8") as fh:
        for name in ("wplus", "wminus"):
            (nb,) = read_header(fh, path, f"{name} <nb>", (int,))
            if nb != expected:
                raise DiscretizationMismatchError(f"{path}: file nb={nb}, grid nb={expected}")
            mats[name] = read_rows(fh, path, nb, nb)
        expect_end(fh, path)
    weights = BoundaryWeights(grid, np.fft.fft(mats["wminus"][:, 0]).real)
    for name, rebuilt in (("wplus", weights.w_plus), ("wminus", weights.w_minus)):
        if np.abs(mats[name] - rebuilt).max() > _SYMBOL_RTOL * np.abs(mats[name]).max():
            raise ConfigurationError(f"{path}: {name} is not an SPD circulant pair "
                                     "with wplus wminus = h_b^2 I")
    return weights
