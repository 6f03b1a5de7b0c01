"""Five-point Helmholtz solver, DtN matrix assembly, and the frequency guard.

Discrete model on the unit square: at interior nodes the equation is the
lumped form  L u - omega^2 diag(d(c)) u = M f, where L is the grid graph
Laplacian (h^2 times the five-point -Delta_h), d(c) is the cell-to-node mass
lumping of the coefficient field c = c^-2, and M is the same lumping of 1.
Boundary nodes carry Dirichlet values along a single closed loop.

Solver. With the interior nodes in natural (row-major) order, the interior
matrix K_ii is block tridiagonal over the n = m - 2 interior grid rows:
tridiagonal diagonal blocks D_k = tridiag(-1, 4 - omega^2 d, -1) and -I
off-diagonal blocks. HelmholtzOperator eliminates across grid rows with
Schur complements S_k = D_k - S_{k-1}^{-1}, stores each S_k^{-1} (n^3 doubles
in all, 16 MB at m = 129), and solves by one forward and one backward sweep of
dense n x n products per grid row. The DtN assembly runs those sweeps in place
on the interior rows of the (n_nodes, nb) solution bank, whose right-hand
sides are scattered straight into it. The elimination does not pivot across
grid rows, so it is stable in the low window but can lose accuracy in a band
window; there the operator falls back to SuperLU on the assembled K_ii (see
HelmholtzOperator). A residual audit against the assembled K_ii backs every
solve. Static per-grid pieces (index sets, the boundary block of L, the
interior rows of L) are cached per Grid.

The DtN matrix maps boundary Dirichlet coefficients to variational Neumann
coefficients: column p is (minus) the residual of the full system applied to
the solution with the p-th boundary indicator as data, read off at boundary
rows. Defining the flux variationally (not by one-sided differences) makes the
interior-boundary product identity

    omega^2 * sum_cells (c1 - c2) * avg(u1 u2) * h^2  =  h^T (Lam1 - Lam2) g

hold to solver precision for any two coefficient fields, which the derivative
and stability layers rely on.

One forward evaluation is assemble_dtn: it returns the DtN matrix and the
SolutionBank behind it (the (n_nodes, nb) indicator solutions, which also give
the derivative and its adjoint), with the default boundary weights resolved
there. dtn_for_field and derivative.bank_for_field are named entries onto it.

The data-space norm is a weighted Hilbert-Schmidt norm: boundary Sobolev
weight operators of orders +-1/2 are functions of the boundary-loop Laplacian,
which is circulant (the loop is closed and uniformly spaced), so one
closed-form DFT symbol determines them all, with no eigensolve.

scipy.sparse.linalg is imported as ``spla`` and called only by that
fallback: the benchmark's layer trace wraps ``helmrecon.forward.spla.splu``,
and a zero call count there is the expected trace in the low window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import circulant
from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork

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
_BLOCK_BACKWARD_TOL = 1e-15  # normwise backward error a block solve must reach (~ 9 eps)
_AUDIT_ENTRIES = 1 << 20  # residual entries per audit chunk (bounds its scratch memory)
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


@dataclass(frozen=True, eq=False)
class _GridStructure:
    """Static pieces of the five-point system of one grid, built once per Grid."""

    interior: np.ndarray     # interior node ids in natural (row-major) order
    loop: np.ndarray         # boundary node ids in loop order
    inward: np.ndarray       # per loop node: its interior neighbour (the diagonal one at a corner)
    edge: np.ndarray         # loop positions of the non-corner nodes
    l_bb: np.ndarray         # dense boundary block of the grid Laplacian, loop order
    l_rows: sp.csr_matrix    # interior rows of the grid Laplacian, all columns
    l_rows_diag: np.ndarray  # positions of the diagonal entries in l_rows.data


@lru_cache(maxsize=None)
def _grid_structure(grid: Grid) -> _GridStructure:
    m = grid.m
    lap = grid_laplacian(grid)
    interior = interior_nodes(grid)
    loop = boundary_loop(grid)
    i, j = np.divmod(loop, m)
    ii = i + (i == 0) - (i == m - 1)
    jj = j + (j == 0) - (j == m - 1)
    corner = ((i == 0) | (i == m - 1)) & ((j == 0) | (j == m - 1))
    l_rows = lap[interior].tocsr()
    row_of = np.repeat(np.arange(interior.size), np.diff(l_rows.indptr))
    l_rows_diag = np.flatnonzero(l_rows.indices == interior[row_of])
    structure = _GridStructure(
        interior=interior,
        loop=loop,
        inward=ii * m + jj,
        edge=np.flatnonzero(~corner),
        l_bb=lap[loop][:, loop].toarray(),
        l_rows=l_rows,
        l_rows_diag=l_rows_diag,
    )
    for arr in (structure.inward, structure.edge, structure.l_bb, structure.l_rows_diag):
        arr.setflags(write=False)
    return structure


def _factor_blocks(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Inverses of the block Schur complements S_k and the getrf pivots of each.

    diag[k] holds the diagonal of the tridiagonal block D_k; S_0 = D_0 and
    S_k = D_k - S_{k-1}^{-1}. Returns None when getrf finds a singular (or
    overflowing) S_k.
    """
    n = diag.shape[0]
    off = np.zeros((n, n))
    idx = np.arange(n - 1)
    off[idx, idx + 1] = off[idx + 1, idx] = -1.0
    inv = np.empty((n, n, n))
    pivots = np.empty((n, n))
    lwork = max(1, int(dgetri_lwork(n)[0]))
    for k in range(n):
        s = off - inv[k - 1] if k else off.copy()
        s.flat[::n + 1] += diag[k]
        lu, piv, info = dgetrf(s, overwrite_a=True)
        pivots[k] = np.abs(np.diagonal(lu))
        if info != 0 or not np.isfinite(pivots[k]).all():
            return None
        inv[k], info = dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
    return inv, pivots


class HelmholtzOperator:
    """Interior system K_ii u_i = rhs for one coefficient field and frequency.

    Runs the spectrum guard for the field's coefficient box at construction,
    then factors K_ii once by block elimination across grid rows; every
    Dirichlet solve (one right-hand side in ``solve``, the whole indicator
    bank in ``assemble_dtn``) reuses that factor.

    Block structure. In natural order the interior nodes form n = m - 2 grid
    rows of n nodes, and K_ii = L_ii - omega^2 diag(d_i) is block tridiagonal:
    D_k = tridiag(-1, 4 - omega^2 d, -1) on the diagonal and -I beside it.
    Sequential Schur complements S_0 = D_0, S_k = D_k - S_{k-1}^{-1} give
    K_ii = L U with unit lower block bidiagonal L (sub-blocks -S_{k-1}^{-1})
    and upper block bidiagonal U (diagonal S_k, super-blocks -I). Each S_k is
    factored with LAPACK getrf and its inverse stored (getri): n^3 doubles,
    16 MB at m = 129. A solve is then one forward and one backward sweep of
    dense n x n products per grid row, run in place on the solution array.

    What the block pivots certify. det K_ii is the product of the getrf
    pivots of all S_k, but S_k is singular exactly when omega^2 is an
    eigenvalue of the system restricted to the first k + 1 grid rows, and the
    spectrum guard certifies only the whole domain. In the low window K_ii
    is positive definite (up to the discretization gap at the window's top
    edge), hence so is every S_k, and the elimination is stable. In a band
    window a strip eigenvalue near
    omega^2 makes some S_k nearly singular, and the sweeps then lose accuracy
    without K_ii being ill-conditioned. So the block factor is used only
    while it is sound: a singular S_k, a smallest pivot below 1e-13 of the
    largest, or a block solve whose normwise backward error exceeds 1e-15
    switches the operator to SuperLU (partial pivoting) on the assembled
    K_ii, whose own pivots then decide NearEigenfrequencyError. A residual
    audit against the assembled K_ii backs every solve.
    """

    def __init__(self, c2inv: PwcField, omega2: float):
        if omega2 <= 0:
            raise AdmissibilityError(f"omega^2 must be positive, got {omega2}")
        spectrum_guard(omega2, *c2inv.bounds)
        self.grid = c2inv.grid
        self.omega2 = float(omega2)
        self._s = s = _grid_structure(self.grid)
        self.mass_diag = np.asarray(mass_scatter_matrix(self.grid) @ c2inv.cell_values())
        # interior rows of K = L - omega^2 diag(d), all columns: [K_ii K_ib]
        data = s.l_rows.data.copy()
        data[s.l_rows_diag] -= self.omega2 * self.mass_diag[s.interior]
        self._k_rows = sp.csr_matrix((data, s.l_rows.indices, s.l_rows.indptr),
                                     shape=s.l_rows.shape)
        self._k_norm = float(abs(self._k_rows).sum(axis=1).max())  # inf-norm, for backward errors
        self._lu = None
        n = self.grid.m - 2
        blocks = _factor_blocks(data[s.l_rows_diag].reshape(n, n))
        if blocks is not None:
            self._inv, pivots = blocks
            self.smallest_pivot = float(pivots.min())
            if self.smallest_pivot >= _PIVOT_RTOL * float(pivots.max()):
                return
        self._factor_superlu()

    def _factor_superlu(self) -> None:
        """Replace the block factor by SuperLU on the assembled K_ii."""
        self._inv = None
        try:
            self._lu = spla.splu(self._k_rows[:, self._s.interior].tocsc())
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

    def _residual_norm(self, u: np.ndarray, source) -> float:
        """||K_ii u_i + K_ib u_b - source||_F, in row chunks of bounded size."""
        k_rows = self._k_rows
        step = max(1, _AUDIT_ENTRIES // u.shape[1])
        res2 = 0.0
        for r0 in range(0, k_rows.shape[0], step):
            res = k_rows[r0:r0 + step] @ u
            if source is not None:
                res -= source[r0:r0 + step]
            res2 += float(np.vdot(res, res))
        return np.sqrt(res2)

    def _solve_in_place(self, u: np.ndarray, rhs_norm: float, source=None) -> None:
        """Overwrite the interior rows of u (n_nodes, k) with K_ii^{-1} times
        themselves, then audit: K_ii u_i + K_ib u_b = source must hold to
        _SOLVE_RTOL * rhs_norm, where the boundary rows of u hold the
        Dirichlet data and the interior rows held -K_ib u_b + source.
        """
        m = self.grid.m
        x = u.reshape(m, m, -1)[1:-1, 1:-1]  # block row k is grid row k + 1
        if self._lu is None:
            inv = self._inv
            tmp = np.empty_like(x[0])
            for k in range(1, x.shape[0]):
                np.matmul(inv[k - 1], x[k - 1], out=tmp)
                x[k] += tmp
            x_norm2 = 0.0
            for k in range(x.shape[0] - 1, -1, -1):
                if k < x.shape[0] - 1:
                    x[k] += x[k + 1]
                np.matmul(inv[k], x[k], out=tmp)
                x[k] = tmp
                x_norm2 += float(np.vdot(tmp, tmp))
            res = self._residual_norm(u, source)
            x_norm = np.sqrt(x_norm2)
            if np.isfinite(x_norm) and res <= _BLOCK_BACKWARD_TOL * (
                    self._k_norm * x_norm + rhs_norm):
                return
            # a near-singular S_k cost the sweeps their accuracy: rebuild the
            # right-hand side -K_ib u_b + source and pivot instead
            self._factor_superlu()
            x[...] = 0.0
            rhs = -(self._k_rows @ u)
            if source is not None:
                rhs += source
            x[...] = rhs.reshape(x.shape)
        rhs = np.ascontiguousarray(x).reshape(-1, u.shape[1])
        x[...] = self._lu.solve(rhs).reshape(x.shape)
        res = self._residual_norm(u, source)
        if rhs_norm > 0 and not res <= _SOLVE_RTOL * rhs_norm:
            raise NearEigenfrequencyError(
                f"linear solve residual {res / rhs_norm:.3e} exceeds {_SOLVE_RTOL} "
                f"(omega^2 = {self.omega2} too close to an eigenfrequency)",
                smallest_pivot=self.smallest_pivot,
            )

    def solve(self, g: np.ndarray | None = None, f: NodalField | np.ndarray | None = None) -> NodalField:
        """Solve with Dirichlet data g (boundary-loop order) and volume source f."""
        s = self._s
        nb = self.grid.n_boundary
        g = np.zeros(nb) if g is None else np.asarray(g, dtype=float)
        if g.shape != (nb,):
            raise DiscretizationMismatchError(f"expected {nb} boundary values, got {g.shape}")
        u = np.zeros((self.grid.n_nodes, 1))
        u[s.loop, 0] = g
        np.add.at(u[:, 0], s.inward[s.edge], g[s.edge])  # -K_ib g
        source = None
        if f is not None:
            fv = f.values if isinstance(f, NodalField) else np.asarray(f, dtype=float)
            if fv.shape != (self.grid.n_nodes,):
                raise DiscretizationMismatchError(
                    f"expected {self.grid.n_nodes} source values, got {fv.shape}")
            source = (node_quad_weights(self.grid) * fv)[s.interior, None]
            u[s.interior] += source
        self._solve_in_place(u, float(np.linalg.norm(u[s.interior])), source)
        return NodalField(self.grid, u[:, 0])

    def indicator_bank(self) -> np.ndarray:
        """(n_nodes, nb) solutions, column p with the p-th boundary indicator as
        Dirichlet data; the boundary rows form the identity."""
        s = self._s
        nb = self.grid.n_boundary
        bank = np.zeros((self.grid.n_nodes, nb))
        bank[s.loop, np.arange(nb)] = 1.0
        bank[s.inward[s.edge], s.edge] = 1.0  # -K_ib: one unit per non-corner column
        self._solve_in_place(bank, float(np.sqrt(s.edge.size)))
        return bank


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
    """Boundary-indicator solutions for one field and frequency, read-only.

    solutions has shape (n_nodes, nb); column p solves the interior equation
    with the p-th boundary indicator as Dirichlet data. The grid is the
    weights' grid.
    """

    solutions: np.ndarray
    weights: BoundaryWeights
    omega2: float

    def __post_init__(self):
        u = np.ascontiguousarray(self.solutions, dtype=float)
        shape = (self.grid.n_nodes, self.grid.n_boundary)
        if u.shape != shape:
            raise DiscretizationMismatchError(
                f"bank must be (n_nodes, nb) = {shape}, got {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "solutions", u)

    @property
    def grid(self) -> Grid:
        return self.weights.grid


def assemble_dtn(op: HelmholtzOperator, weights: BoundaryWeights | None = None,
                 variant: str = "variational") -> tuple[DtnMatrix, SolutionBank]:
    """One forward evaluation: the DtN matrix and its solution bank.

    The bank holds one solution per boundary indicator; its boundary rows form
    the identity. The variational DtN is -(K_bb + K_bi U_i): a row gather of
    the bank at the interior neighbour of each non-corner boundary node, minus
    K_bb. variant='one_sided' replaces the variational flux with an inward
    finite difference (for degradation experiments only). weights default to
    build_boundary_weights(op.grid).
    """
    grid = op.grid
    weights = build_boundary_weights(grid) if weights is None else weights
    if weights.grid.m != grid.m:
        raise DiscretizationMismatchError("weights were built for a different grid")
    if variant not in ("variational", "one_sided"):
        raise ConfigurationError(f"unknown DtN variant {variant!r}")
    s = op._s
    nb = grid.n_boundary
    bank = op.indicator_bank()
    if variant == "variational":
        lam = -s.l_bb
        lam.flat[::nb + 1] += op.omega2 * op.mass_diag[s.loop]
        lam[s.edge] += bank[s.inward[s.edge]]
    else:
        factor = np.full(nb, 1.0 / np.sqrt(2.0))
        factor[s.edge] = 1.0
        lam = (bank[s.inward] - bank[s.loop]) * factor[:, None]
    return (DtnMatrix(lam=lam, weights=weights, omega2=op.omega2),
            SolutionBank(solutions=bank, weights=weights, omega2=op.omega2))


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
