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
partial pivoting: by dense LAPACK getrf when the skeleton has at most twice
as many unknowns as the boundary loop (coarse blocks, where getri turns each
factor into its inverse, so that one GEMM, several times faster than getrs's
triangular solves, solves the nb right-hand sides), by SuperLU otherwise
(fine blocks, where a dense factor would not fit: 2 GB at s = 1, m = 129).
The dense factor eliminates one level further where the blocks group into
2 x 2 super-blocks (nested dissection, George, SIAM J. Numer. Anal. 10,
1973): each super-block's inner cross of skeleton lines is factored on its
own, and only the Schur complement on the coarse skeleton between them is
factored as a whole. The factor serves the low window and band windows
alike; at s = 1 (a partition whose block_side is 1) the skeleton is the
whole grid. The DtN assembly solves for the skeleton values V_X of the
boundary-indicator solutions only; the SolutionBank keeps V_X and the block
symbols, and gives the bank's products (U g, U^T diag(w) U, diag(U P U^T))
from them without forming the dense (n_nodes, nb) bank. The DtN is read from
the loop rows of the condensed operator on [V_X; I] alone. A residual audit
backs every solve: a sketched five-point residual of U G for a fixed Gaussian
G, whose rows X are the condensed residual of [V_X G; G], and the exact
five-point residual of a single solve. Static per-grid and per-block-size
pieces (index sets, the DST) are cached, and with them every index plan an
evaluation reads, each built from _Skeleton.ring, the one map from the ring
forms to the skeleton: the row plans of _Skeleton (which ring rows of U are
rows of V_X and which identity rows) and the flat plans of _Dissection (where
each term of K~ lands in the dense factor's buffer, and where each cross's
products land in the Schur complement, the coarse right-hand side and the
bank). The dense factor is assembled from the ring forms straight into its
blocks (multifrontal assembly, Duff & Reid, ACM TOMS 9, 1983); only SuperLU
reads a compressed-column pattern of K~, built for its layouts alone.
A single solve lifts its Dirichlet data into the source (K_ii u_i = M f -
K_ib g), so K~ is applied only in the factor's assembly and the DtN's loop
rows. An evaluation then does arithmetic and precomputed gathers and scatters
only. The block forms G_b = (S x S) D_b F of the adjoint and the derivative
come in closed form from F's rank-one sides (SolutionBank._block_forms), and
the frequency certificate of a (grid, omega^2, box) runs once, not once per
field (_certify).

The DtN matrix maps boundary Dirichlet coefficients to variational Neumann
coefficients: column p is (minus) the residual of the full system applied to
the solution with the p-th boundary indicator as data, read off at boundary
rows. Defining the flux variationally (not by one-sided differences) makes the
interior-boundary product identity

    omega^2 * sum_cells (c1 - c2) * avg(u1 u2) * h^2  =  h^T (Lam1 - Lam2) g

hold to solver precision for any two coefficient fields, which the derivative
and stability layers rely on. It is the one flux the library evaluates (the
one-sided flux of verify.audit_alessandrini shows what breaks without it).

One forward evaluation is assemble_dtn: it returns the DtN matrix and the
SolutionBank behind it (the indicator solutions in condensed form, which also
give the derivative and its adjoint). It is solution_bank, which solves and
audits the bank, followed by the DtN read. A caller that reads only the bank
(the derivative probes of calibration) calls solution_bank and skips the
read. dtn_for_field (the DtN alone) and derivative.bank_for_field run
assemble_dtn on a field's operator.

The data-space norm is a weighted Hilbert-Schmidt norm: boundary Sobolev
weight operators of orders +-1/2 are functions of the boundary-loop Laplacian,
which is circulant (the loop is closed and uniformly spaced), so one
closed-form DFT symbol determines them all, with no eigensolve. The grid
alone fixes that symbol: build_boundary_weights keeps one BoundaryWeights per
grid, and every bank and DtN matrix of the grid carries it.

Threads. Importing this module sets numpy's and scipy's OpenBLAS pools (each
wheel loads its own) to one thread unless the user set OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS, and changes no environment variable: the thread count decides
how BLAS splits its sums, which recon's finest level amplifies about
1e12-fold, and on two cores the pools' threads contend. A second core serves
instead the independent halves of an iterate's largest passes: the two
halves of the dense factor's crosses, each factored and solved against its
ring (_TwoLevelLU), the two halves of the crosses of the bank's
back-substitution (_TwoLevelLU.solve), the row halves of each W product of
W R W (pulled_back), the row halves of V_X P with their rowsums and then the
two halves of the adjoint's block groups (SolutionBank.quadratic_diagonal),
and the two halves of the DtN read's loop groups (HelmholtzOperator._dtn).
Each pass has one body, which _pair runs whole on the caller where the larger
half has fewer than _PAIR_WORK (2^22) multiply-adds or the pass has one item,
and by halves otherwise: at 16 regions, no pass at m = 33, W R W and the
adjoint at m = 65, and all five at m = 129. _pair runs the second half on one
helper thread, started on first use and dropped in a forked child, while the
caller runs the first; both run in order on the caller when BLAS may use more
than one thread (a variable other than 1, or pools this module cannot set),
when the process may use one CPU only, or on the helper itself. The split is
fixed by the array shapes, never by where a half runs: each half makes the
same BLAS and LAPACK calls with the same arguments wherever it runs, writes
rows of its own, and no sum crosses the halves (the factor's halves hand
their crosses' Schur products back, and the caller subtracts them in cross
order), so the bits do not depend on the placement (with the wheels'
OpenBLAS they also equal the whole pass's, which sums each entry in the same
order whatever rows it is given). The caller allocates both halves'
workspaces, so that the helper allocates nothing large.

scipy.sparse.linalg is imported as ``spla`` and scipy.linalg.lapack as
``lapack``: an operator's skeleton factor is a _SparseLU, which calls
``spla.splu`` once, or a _TwoLevelLU, which calls ``lapack.dgetrf`` and
``lapack.dgetri`` once per dense factor (once ungrouped; once per cross plus
once for the coarse skeleton grouped, five times at four blocks per side).
The benchmark's layer trace wraps ``spla.splu`` there; it does not see the
dense factors, whose time, with getri's inverses, the cross solves that form
the coarse Schur complement and the bank's cross solves, counts as operator
assembly (``forward.operator_assembly.self_s``), while the coarse product and
the back-substitution of the crosses count in ``forward.assemble_dtn.self_s``.
Where the crosses split (m = 129), the LAPACK calls and products of half the
crosses, and half the crosses' back-substitution, run on the helper thread,
inside those spans: the caller waits for them there. No function that the
trace wraps runs on the helper thread.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, circulant, lapack

from .domain import (
    Grid,
    NodalField,
    PwcField,
    boundary_loop,
    grid_laplacian,
    interior_nodes,
    mass_scatter_matrix,
    node_quad_weights,
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
    "solution_bank",
]

_PIVOT_RTOL = 1e-13
_SOLVE_RTOL = 1e-10
_BLOCK_MARGIN = 0.5  # block interiors stay at least half as definite as their Laplacian
_BLOCKS_PER_SIDE = 2  # block size s at most (m - 1) / 2 ...
_MAX_BLOCK = 32  # ... and at most 32 cells (measured optimum, see _block_size)
_COLUMN_CHUNKS = 8  # SuperLU indicator solves run over nb / 8 right-hand sides at a time
_DENSE_SKELETON = 2  # dense LU for a skeleton of at most 2 nb unknowns (measured crossover)
_CHUNK_ENTRIES = 1 << 14  # values per group of blocks in the block-interior passes
_SKETCH_COLUMNS = 4  # Gaussian columns of the sketched five-point audit
_SKETCH_SEED = 20240817
# multiply-adds of a half below which a pass runs whole on the caller: at m = 65,
# halves of 1.8 M lost to the handoff to the helper and halves of 8.4 M gained
_PAIR_WORK = 1 << 22


def _one_blas_thread() -> bool:
    """One thread for each OpenBLAS, set on the extension module that links it;
    other builds (MKL, a system OpenBLAS, numpy 1.x) are left as they are.
    True when BLAS runs on one thread: both pools were set here, or the user's
    variable says 1 (OpenBLAS reads OPENBLAS_NUM_THREADS before
    OMP_NUM_THREADS, and an empty one as unset)."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1"
    pinned = 0
    for module, setter in (("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
                           ("scipy.linalg._fblas", "scipy_openblas_set_num_threads")):
        try:
            fn = getattr(ctypes.CDLL(importlib.import_module(module).__file__), setter)
        except (ImportError, OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)
        pinned += 1
    return pinned == 2


_ONE_BLAS_THREAD = _one_blas_thread()
_helper = None  # the helper thread of _pair (an executor of one worker), started on first use
_helper_lock = threading.Lock()  # held to start it
_on_helper = threading.local()  # .active is set on the helper thread only


def _drop_helper() -> None:
    """A forked child has no helper thread: the parent's executor would take
    the child's first half and wait for it forever, so the child starts its
    own (under a new lock, which no other thread of the parent holds)."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _pair(half, second_at: int, work: int, scratch: int = 0) -> None:
    """One pass by its body half(part, buf), part a slice of what the pass
    runs over. Where the larger half has fewer than _PAIR_WORK multiply-adds
    (work), or the first half is empty (second_at 0: a pass of one item), the
    pass runs whole: half(slice(None), None) on the caller, and numpy
    allocates what the body needs. Otherwise its two halves,
    half(slice(None, second_at), buf) and half(slice(second_at, None), buf),
    each with a flat float64 workspace buf of scratch values: the second on
    the one helper thread while the first runs on the caller, or both in
    order on the caller, in one workspace, when BLAS may run on more than
    one thread, when the process may use one CPU only, or when this call
    already runs on the helper. The caller allocates each half's workspace
    before either half begins and frees both after both end, so that no
    large allocation or free falls while the other half runs: the helper's
    own malloc arena would keep the pages it touched, and frees amid the
    caller's allocations would leave its heap in a layout that depends on
    the timing (on recon-m129, a fifth of the runs peaked 1.7 MiB higher).
    An exception of either half reaches the caller, after both halves end."""
    global _helper
    if work < _PAIR_WORK or second_at == 0:
        half(slice(None), None)
        return
    first, second = slice(None, second_at), slice(second_at, None)
    if not _ONE_BLAS_THREAD or getattr(_on_helper, "active", False) or _cpus() < 2:
        buf = np.empty(scratch)
        half(first, buf)
        half(second, buf)
        return
    with _helper_lock:
        if _helper is None:  # imported here: a process that never splits a pass skips it
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(1, "helmrecon-pair", initializer=setattr,
                                         initargs=(_on_helper, "active", True))
        helper = _helper
    mine, theirs = np.empty(scratch), np.empty(scratch)
    future = helper.submit(_run_half, [(half, second, theirs)])
    try:
        half(first, mine)
    finally:
        future.exception()  # waits for the helper's half, whatever the caller's did
    future.result()


def _run_half(job: list) -> None:
    """Run the one (half, part, workspace) that job holds, taken out of it
    first, so that the helper holds no reference to the caller's arrays once
    the half has returned, and the caller frees them."""
    half, part, buf = job.pop()
    half(part, buf)


def _buffer(flat: np.ndarray | None, shape: tuple, offset: int = 0) -> np.ndarray | None:
    """The flat workspace from offset as an array of the shape; None without
    one, so that an out= argument lets numpy allocate."""
    return None if flat is None else flat[offset:offset + prod(shape)].reshape(shape)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in numpy's BLAS, by the row halves of a on _pair."""
    h, out = a.shape[0] // 2, np.empty((a.shape[0], b.shape[1]))
    _pair(lambda rows, _: np.matmul(a[rows], b, out=out[rows]), h,
          (a.shape[0] - h) * a.shape[1] * b.shape[1])
    return out


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


def spectrum_guard(omega2: float, b1: float, b2: float) -> SpectrumWindow:
    """Check omega^2 against the forbidden bands induced by the coefficient box.

    For any admissible field the n-th Dirichlet eigenvalue of the weighted
    problem lies in [lam_n/B2, lam_n/B1], so omega^2 outside every such band is
    safe for the whole box. Band membership (closed bands) raises
    AdmissibilityError naming the band; non-finite inputs raise
    ConfigurationError.
    """
    if not (0 < b1 <= b2 < np.inf):
        raise ConfigurationError(f"bounds must satisfy 0 < b1 <= b2 < inf, got ({b1}, {b2})")
    if not np.isfinite(omega2):
        raise ConfigurationError(f"omega^2 must be finite, got {omega2}")
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
    )


def _discrete_guard(grid: Grid, omega2: float, b1: float, b2: float) -> None:
    """spectrum_guard for the grid's five-point operator: omega^2 must avoid
    every band [lam^h_pq/B2, lam^h_pq/B1] of its Dirichlet eigenvalues
    lam^h_pq = (4/h^2)(sin^2(p pi h/2) + sin^2(q pi h/2)), 1 <= p, q <= m - 2.
    These lie below the continuum ones, so a continuum window can hold a
    discrete band. Every interior node carries the lumped mass h^2 times the
    mean of its four cells, in [h^2 B1, h^2 B2], so by min-max this certifies
    the interior system nonsingular for every field in the box."""
    p = np.arange(1, grid.m - 1)
    sin2 = np.sin(0.5 * np.pi * grid.h * p) ** 2
    lam = (4.0 / grid.h ** 2) * (sin2[:, None] + sin2[None, :])
    inside = (lam / b2 <= omega2) & (omega2 <= lam / b1)
    if inside.any():
        i, j = np.argwhere(inside)[0]
        raise AdmissibilityError(
            f"omega^2 = {omega2} lies in the discrete band of lam^h_{p[i]},{p[j]} = "
            f"{lam[i, j]} at m = {grid.m}: [{lam[i, j] / b2}, {lam[i, j] / b1}]")


@lru_cache(maxsize=256)
def _certify(grid: Grid, omega2: float, b1: float, b2: float) -> None:
    """spectrum_guard and _discrete_guard for one (grid, omega^2, box), run on
    its first operator only: the certificate holds for every field in the box.
    A refusal raises and is not cached, so it repeats on every construction."""
    spectrum_guard(omega2, b1, b2)
    _discrete_guard(grid, omega2, b1, b2)


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """Read-only dense symmetric circulant with the even real symbol (DFT order)."""
    col = np.fft.ifft(symbol).real
    mat = circulant(0.5 * (col + np.roll(col[::-1], 1)))  # exactly symmetric
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class BoundaryWeights:
    """SPD weight operators realizing the boundary Sobolev norms of order +-1/2
    on a grid's boundary loop; build_boundary_weights gives the grid's one.

    The boundary-loop Laplacian (nb nodes, spacing h_b) is circulant with
    eigenvalues mu_k = (2 - 2 cos(2 pi k / nb)) / h_b^2 in DFT order, so the
    grid alone fixes the symbol of w_minus, symbol_k = h_b (1 + mu_k)^{-1/2}.
    The symbol and the dense circulants w_minus, w_minus_half (of
    sqrt(symbol), the symmetric square root) and w_plus = h_b^2 w_minus^{-1}
    are formed once, on first use.
    """

    grid: Grid

    @property
    def nb(self) -> int:
        return self.grid.n_boundary

    @property
    def h_b(self) -> float:
        return self.grid.h

    @cached_property
    def symbol(self) -> np.ndarray:
        mu = (2.0 * np.sin(np.pi * np.fft.fftfreq(self.nb)) / self.h_b) ** 2  # 2 - 2cos = 4 sin^2
        sym = self.h_b / np.sqrt(1.0 + mu)
        sym.setflags(write=False)
        return sym

    @cached_property
    def w_minus(self) -> np.ndarray:
        return _circulant(self.symbol)

    @cached_property
    def w_minus_half(self) -> np.ndarray:
        return _circulant(np.sqrt(self.symbol))

    @cached_property
    def w_plus(self) -> np.ndarray:
        return _circulant(self.h_b ** 2 / self.symbol)


@lru_cache(maxsize=None)
def build_boundary_weights(grid: Grid) -> BoundaryWeights:
    """The grid's boundary weights: one object per grid, like _skeleton."""
    return BoundaryWeights(grid)


def _to_nodes(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(S x S) x for x of shape (blocks, (s-1)^2, k): the DST along both grid
    directions of each block interior, as two (s-1)-sized products. S is
    symmetric, so this is also (S x S)^T."""
    n = basis.shape[0]
    blocks, _, k = x.shape
    y = np.matmul(basis, x.reshape(blocks, n, n * k))
    return np.matmul(basis, y.reshape(blocks, n, n, k)).reshape(blocks, n * n, k)


class _RowPlan(NamedTuple):
    """Where the rows of U at some skeleton positions come from (_Skeleton.rows):
    out[x_slots] = V_X[x_pos] and out[loop_slots] = I[loop_pos] (flat identity,
    the flat positions of the ones in out), or the same rows of U p. runs, if
    asked for, holds the same as (slots, rows, on the loop) for each run of
    consecutive slots with one source."""

    shape: tuple
    x_slots: np.ndarray
    x_pos: np.ndarray
    loop_slots: np.ndarray
    loop_pos: np.ndarray
    identity: np.ndarray
    runs: tuple


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
    grid_interior: np.ndarray  # interior node ids of the grid, natural order
    l_rows: sp.csr_matrix      # their rows of the grid Laplacian, all columns
    sides: np.ndarray          # (2(s-1), s-1): S diag(S[0]) over S diag(S[s-2])
    side_basis: np.ndarray     # (s-1, (s-1)^2): K[q, (c, y)] = S[c, q] S[q, y]

    def rows(self, pos: np.ndarray, runs: bool = False) -> _RowPlan:
        """The _RowPlan of skeleton positions pos of any shape, such as
        ring[blocks], with its runs if asked for (pos not empty)."""
        flat = pos.ravel()
        x_slots, loop_slots = np.flatnonzero(flat < self.n_x), np.flatnonzero(flat >= self.n_x)
        loop_pos = flat[loop_slots] - self.n_x
        plan = _RowPlan(pos.shape, x_slots, flat[x_slots], loop_slots, loop_pos,
                        loop_slots * (self.nodes.size - self.n_x) + loop_pos, ())
        if not runs:
            return plan
        on_loop = flat >= self.n_x
        local = np.where(on_loop, flat - self.n_x, flat)
        cuts = [0, *(np.flatnonzero(np.diff(on_loop)) + 1), flat.size]
        return plan._replace(runs=tuple((slice(a, b), local[a:b], bool(on_loop[a]))
                                        for a, b in zip(cuts, cuts[1:])))

    @cached_property
    def ring_groups(self) -> tuple:
        """(blocks, rows(ring[blocks])) for each group of blocks of the
        adjoint's block pass, sized by its ring rows (n_ring, nb) or block
        forms (n_int, n_ring), whichever is larger."""
        n_int, n_ring = self.coupling.shape
        per_block = max(n_ring * (self.nodes.size - self.n_x), n_int * n_ring)
        return tuple((blk, self.rows(self.ring[blk], runs=True))
                     for blk in _block_groups(self.ring.shape[0], per_block))

    @cached_property
    def loop_groups(self) -> tuple:
        """(blocks, rows, rows(ring[blocks])) for the blocks beside each side
        of the loop, in groups of at most _CHUNK_ENTRIES ring-row values: rows
        are the ring slots of that side, which all lie on the loop."""
        n, n_ring = self.s - 1, self.ring.shape[1]
        groups = []
        for side in range(4 if n else 0):
            beside = np.flatnonzero(self.ring[:, side * n] >= self.n_x)
            for blk in _block_groups(beside.size, n_ring * (self.nodes.size - self.n_x)):
                groups.append((beside[blk], slice(side * n, side * n + n),
                               self.rows(self.ring[beside[blk]], runs=True)))
        return tuple(groups)

    @cached_property
    def loop_laplacian(self) -> tuple[sp.csr_matrix, sp.coo_matrix]:
        """The loop rows of l_sigma: L_BX, and L_BB as (row, col, value) entries."""
        rows = self.l_sigma[self.n_x:]
        return rows[:, :self.n_x], rows[:, self.n_x:].tocoo()


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

    lap = grid_laplacian(grid)
    interior = interior_nodes(grid)
    skeleton = _Skeleton(
        s=s, nodes=nodes, n_x=n_x, ring=ring,
        interior=(rows[:, :, None] * m + cols[:, None, :]).reshape(blocks.size, n * n),
        basis=basis,
        mu=(mu1[:, None] + mu1[None, :]).ravel(),
        coupling=_to_nodes(basis, e.reshape(1, n * n, 4 * n))[0],
        l_sigma=lap[nodes][:, nodes].tocsr(),
        grid_interior=interior,
        l_rows=lap[interior].tocsr(),
        sides=np.concatenate([basis * basis[:1], basis * basis[n - 1:n]]),
        side_basis=(basis.T[:, :, None] * basis[:, None, :]).reshape(n, n * n),
    )
    for arr in (skeleton.nodes, skeleton.ring, skeleton.interior, skeleton.basis,
                skeleton.coupling, skeleton.sides, skeleton.side_basis):
        arr.setflags(write=False)
    return skeleton


def _term_positions(sk: _Skeleton) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, lap): the skeleton positions of the terms of K~ that the
    factors assemble, in order: the Laplacian's entries with a row in X (values
    lap), the diagonal mass on X, and every ring-form entry, which a factor
    discards if its row is on the loop. The dense and the sparse factor each
    map these terms to their own storage once; nothing keeps the list."""
    lap = sk.l_sigma.tocoo()
    in_x = lap.row < sk.n_x
    shape = sk.ring.shape + sk.ring.shape[1:]
    diag = np.arange(sk.n_x)
    rows = np.broadcast_to(sk.ring[:, :, None], shape).ravel()
    cols = np.broadcast_to(sk.ring[:, None, :], shape).ravel()
    return (np.concatenate([lap.row[in_x], diag, rows]),
            np.concatenate([lap.col[in_x], diag, cols]), lap.data[in_x])


def _definite(sigma: float, s: int) -> bool:
    """Whether every s x s cell square's interior stays positive definite with
    margin when sigma = omega^2 h^2 max c: sigma <= _BLOCK_MARGIN (2 mu_1),
    2 mu_1 = 4 - 4 cos(pi/s) being the smallest eigenvalue of its Laplacian."""
    return sigma <= _BLOCK_MARGIN * 4.0 * (1.0 - np.cos(np.pi / s))


def _block_size(c2inv: PwcField, omega2: float) -> tuple[int, bool]:
    """The block layout (s, grouped). s is the largest divisor of the
    partition's block_side (the side of the largest aligned cell blocks its
    labels are constant on) that is at most _MAX_BLOCK and (m - 1) /
    _BLOCKS_PER_SIDE and keeps every block interior positive definite with
    margin (_definite); 1 if no divisor >= 2 does. grouped: the
    dense factor groups the blocks 2 x 2, at an even number of blocks per
    side, at least 4, when every 2s x 2s super-block interior keeps the margin.

    The caps are where one descent iterate was fastest (BLAS on one thread):
    s = 8 at m = 17, 16 at m = 33, 32 at m = 65 and 129. A larger s grows the
    dense ring forms and block products as s^3 per block, a smaller one the
    skeleton and its factor and solve as m^2 / s."""
    grid = c2inv.grid
    common = c2inv.partition.block_side
    sigma = omega2 * grid.h ** 2 * float(c2inv.coeffs.max())
    cap = min(common, _MAX_BLOCK, grid.cells_per_side // _BLOCKS_PER_SIDE)
    s = max((d for d in range(2, cap + 1) if common % d == 0 and _definite(sigma, d)), default=1)
    k = grid.cells_per_side // s
    return s, k % 2 == 0 and k >= 4 and _definite(sigma, 2 * s)


def _block_symbols(sk: _Skeleton, sigma: np.ndarray) -> np.ndarray:
    """D_b = 1 / (mu_p + mu_q - sigma_b): the inverse of each block interior's
    operator in the DST basis, (n_blocks, (s-1)^2)."""
    return 1.0 / (sk.mu[None, :] - sigma[:, None])


def _ring_forms(sk: _Skeleton, symbols: np.ndarray, out=None) -> np.ndarray:
    """F^T D_b F for every block, (n_blocks, 4(s-1), 4(s-1)), in the flat out if given.

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
    shape = (d.shape[0], 4 * n, 4 * n)
    forms = np.empty(shape) if out is None else out.reshape(shape)
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


def _block_groups(count: int, per_block: int) -> list[slice]:
    """Slices over count blocks, each group holding at most _CHUNK_ENTRIES of
    per-block values (at least one block)."""
    step = max(1, _CHUNK_ENTRIES // max(1, per_block))
    return [slice(b0, b0 + step) for b0 in range(0, count, step)]


def _fill_blocks(sk: _Skeleton, symbols: np.ndarray, u: np.ndarray, hat=None) -> None:
    """Write the block interiors of u (n_nodes, k), whose skeleton rows are set:
    u_b = (S x S) D_b (F u_ring + hat_b), hat_b a block source in the DST basis."""
    ring_nodes = sk.nodes[sk.ring]
    for blk in _block_groups(sk.interior.shape[0], sk.interior.shape[1] * u.shape[1]):
        x = sk.coupling @ u[ring_nodes[blk]]
        if hat is not None:
            x += hat[blk]
        x *= symbols[blk, :, None]
        u[sk.interior[blk]] = _to_nodes(sk.basis, x)


@dataclass(frozen=True, eq=False)
class _Dissection:
    """The order in which the dense factor eliminates K~_XX of one grid and
    block size: one level of nested dissection above the block condensation.

    Grouped, the cross C_i of a 2 x 2 super-block is the skeleton inside it
    (4s - 3 nodes), and the coarse skeleton T is the rest of X, on the grid
    lines between super-blocks. A cross's ring, the columns its rows couple
    to outside it, is the T and loop nodes on its super-block's edges (corners
    excluded). Ungrouped, X is one cross, its ring is the loop (corners
    excluded again), and T is empty.
    The dense blocks share one flat buffer, which split cuts into views and
    _TwoLevelLU fills straight from the terms of K~ (see _term_positions):
    slots places each diagonal mass and ring-form term (past the blocks if on a
    loop row), lap_slots and lap_values the Laplacian's entries. Two flat
    index plans per cross spare the factor and the bank solve every np.ix_:
    update_at places T_i x (its ring, in B_i's column order) in the buffer,
    its T columns in the K~_TT block and its loop columns in the K~_TB block
    (the coarse right-hand side), and bank_at places C_i x (its ring's loop
    nodes) in the solution (n_x, nb).
    """

    crosses: np.ndarray  # (n_cross, n_c) X positions of each cross
    coarse: np.ndarray   # (n_t,) X positions of T
    ring_t: tuple        # per cross: T indices (into coarse) of its ring's T nodes
    ring_loop: tuple     # per cross: loop indices of its ring's loop nodes
    offsets: np.ndarray  # buffer offsets of A_i, B_i, E_i per cross, then K~_TT, K~_TB, the end
    slots: np.ndarray    # buffer index of each X diagonal, then of each ring-form entry
    lap_slots: np.ndarray   # buffer index of each Laplacian entry with a row in X ...
    lap_values: np.ndarray  # ... and its value
    nb: int              # loop nodes: the columns of K~_TB
    update_at: tuple     # per cross: (|T_i|, |ring|) buffer indices
    bank_at: tuple       # per cross: (n_c, |ring loop|) flat indices, row-major

    def split(self, buf: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Fortran-ordered views of buf: per cross (A_i, B_i, E_i), with
        A_i = K~_{C_i C_i}, B_i = K~ on C_i and its ring (T nodes first, then
        loop nodes) and E_i = K~_{T_i C_i} (T_i its ring's T nodes); then
        K~_TT and K~_TB."""
        n_c, n_t = self.crosses.shape[1], self.coarse.size
        o = self.offsets

        def view(k, rows, cols):
            return buf[o[k]:o[k + 1]].reshape(rows, cols, order="F")

        blocks = [(view(3 * c, n_c, n_c), view(3 * c + 1, n_c, rt.size + rl.size),
                   view(3 * c + 2, rt.size, n_c))
                  for c, (rt, rl) in enumerate(zip(self.ring_t, self.ring_loop))]
        k = 3 * len(blocks)
        return blocks, view(k, n_t, n_t), view(k + 1, n_t, self.nb)


@lru_cache(maxsize=None)
def _dissection(grid: Grid, s: int, grouped: bool) -> _Dissection:
    sk = _skeleton(grid, s)
    n_x, n_sigma = sk.n_x, sk.nodes.size
    owner = np.full(n_sigma, -1)  # the cross of each skeleton node, -1 on T and the loop
    owner[:n_x] = 0
    if grouped:
        i, j = np.divmod(sk.nodes[:n_x], grid.m)
        size, per_side = 2 * s, grid.cells_per_side // (2 * s)
        owner[:n_x] = np.where((i % size != 0) & (j % size != 0),
                               i // size * per_side + j // size, -1)
    crosses = np.stack([np.flatnonzero(owner == c) for c in range(owner.max() + 1)])
    coarse = np.flatnonzero(owner[:n_x] < 0)
    (n_cross, n_c), n_t, nb = crosses.shape, coarse.size, grid.n_boundary
    # a node's class: its cross, n_cross on T, n_cross + 1 on the loop. A term's
    # dense block, and the context whose index table places it there, follow
    # from the classes of its row and column (a pair of classes that no term
    # has, such as two crosses, is left wherever its row puts it). The tables
    # and positions are int32, which halves the term-sized temporaries.
    cls = owner.astype(np.int32)
    cls[coarse], cls[n_x:] = n_cross, n_cross + 1
    # a loop row's term: past the blocks (block 3 n_cross + 2), in context n_cross + 1
    block = np.full((n_cross + 2, n_cross + 2), 3 * n_cross + 2, dtype=np.int32)
    context = np.full((n_cross + 2, n_cross + 2), n_cross + 1, dtype=np.int32)
    k = np.arange(n_cross)
    block[k], context[k] = 3 * k[:, None] + 1, k[:, None]  # B_c: cross row, column off it
    block[k, k] = 3 * k                                     # A_c
    block[n_cross, k], context[n_cross, k] = 3 * k + 2, k   # E_c: T row, cross column
    block[n_cross, n_cross:], context[n_cross, n_cross:] = 3 * n_cross + np.arange(2), n_cross
    block, context = block.ravel(), context.ravel()
    rows, cols, lap = _term_positions(sk)
    # the one term-sized array kept, allocated before the temporaries: freeing
    # them then leaves no hole below a live array in the heap (1.2 MiB of peak
    # RSS in a descent at m = 129)
    slots = np.empty(rows.size, dtype=np.intp)
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    pair = cls[rows] * np.int32(n_cross + 2) + cls[cols]
    # a cross's ring: the columns of its B_c terms (blocks 3c + 1), T nodes first
    in_ring = np.zeros((n_cross, n_sigma), dtype=bool)
    on_b = ((block < 3 * n_cross) & (block % 3 == 1))[pair]
    in_ring[context[pair[on_b]], cols[on_b]] = True
    rings = [np.flatnonzero(r) for r in in_ring]
    ring_t = tuple(np.searchsorted(coarse, r[r < n_x]) for r in rings)
    ring_loop = tuple(r[r >= n_x] - n_x for r in rings)
    # index[context, node]: the row or column of a node in a block of that
    # context: its index in its cross, in T or on the loop, or in the ring of
    # the context's cross; 0 in a loop row's context
    index = np.zeros((n_cross + 2, n_sigma), dtype=np.int32)
    index[:-1, crosses] = np.arange(n_c)
    index[:-1, coarse], index[:-1, n_x:] = np.arange(n_t), np.arange(nb)
    index[:n_cross][in_ring] = (np.cumsum(in_ring, axis=1) - 1)[in_ring]
    # the dense blocks in buffer order: A_c, B_c, E_c per cross, then K~_TT and
    # K~_TB; a loop row's term lands at the end
    heights = [h for rt in ring_t for h in (n_c, n_c, rt.size)] + [n_t, n_t]
    widths = [w for r, rt in zip(rings, ring_t) for w in (n_c, r.size, n_c)] + [n_t, nb]
    offsets = np.cumsum([0] + [h * w for h, w in zip(heights, widths)])
    flat, at = index.ravel(), context[pair]
    at *= np.int32(n_sigma)
    slots[:] = flat[at + cols]
    slots *= np.append(heights, 0)[block][pair]  # column-major
    at += rows
    slots += flat[at]
    slots += offsets[block][pair]
    schur, tb = offsets[3 * n_cross:3 * n_cross + 2]  # K~_TT and K~_TB, column-major
    dissection = _Dissection(
        crosses=crosses, coarse=coarse, ring_t=ring_t, ring_loop=ring_loop,
        offsets=offsets, slots=slots[lap.size:], lap_slots=slots[:lap.size], lap_values=lap,
        nb=nb,
        update_at=tuple(rt[:, None] + np.concatenate([schur + rt * n_t, tb + rl * n_t])
                        for rt, rl in zip(ring_t, ring_loop)),
        bank_at=tuple(c[:, None] * nb + rl[None, :] for c, rl in zip(crosses, ring_loop)))
    for arr in (crosses, coarse, offsets, slots, lap, *ring_t, *ring_loop, *dissection.update_at,
                *dissection.bank_at):
        arr.setflags(write=False)
    return dissection


def _getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK getrf of a Fortran-ordered a in place; LinAlgError on an exactly
    zero pivot."""
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"pivot {info} of a dense factor is exactly zero")
    return lu, piv


def _getri(lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """The inverse from a getrf factor with no zero pivot, by LAPACK getri in
    place, with its optimal (blocked) workspace."""
    return lapack.dgetri(lu, piv, lwork=int(lapack.dgetri_lwork(lu.shape[0])[0]),
                         overwrite_lu=True)[0]


class _TwoLevelLU:
    """Dense LU of K~_XX in the order of a _Dissection (nested dissection,
    George, SIAM J. Numer. Anal. 10, 1973), kept as explicit inverses, so that
    every solve against the bank or a single right-hand side is one GEMM:
    with one BLAS thread, dgemm runs 4 to 10 times faster than the triangular
    solves of getrs (dtrsm) at these sizes.

    getrf factors each cross block A_i; W_i = A_i^{-1} K~_{C_i T_i}, on the
    T nodes of its ring only, gives the Schur complement S_TT = K~_TT -
    sum_i K~_{T_i C_i} W_i, which getrf factors in turn. W_i comes from
    getrs, so S_TT and its pivots do not depend on the inverses. pivots
    pools the pivot moduli of every getrf, read before getri turns the
    factor into the inverse in place. With the factor come the indicator
    bank's cross solves Z_i = A_i^{-1} K~_{C_i, ring loop}, in B_i's place
    like W_i, and its coarse right-hand side R = K~_TB - sum_i K~_{T_i C_i}
    Z_i, in K~_TB's place, so that the bank solve allocates only its
    result, S_TT^{-1} R and the workspaces of its back-substitution. With
    one cross and no T this is one inverse of K~_XX. A solve by an explicit
    inverse is not backward stable in general (Du Croz & Higham, IMA J.
    Numer. Anal. 12, 1992); the residual audits check every solve.

    The crosses are independent until the Schur update, so their factors
    and solves run as one body on _pair, the first half of the crosses on
    the caller and the second on the helper, and so does the bank's
    back-substitution. Their products run in numpy's matmul, which releases
    the GIL (scipy's dgemm holds it): the factor's into Fortran-ordered
    results, the back-substitution's into the rows it places. There matmul
    gives dgemm's bits at every dense layout the tests reach, checked
    against a scipy-only copy of the factor (a row-major A_i^{-1} Z_i did
    not). Each cross writes E_i [W_i Z_i] apart, and the caller subtracts
    them from S_TT and R in cross order, so every sum keeps the order of one
    core. S_TT^{-1} R stays whole in dgemm, since no split of it keeps its
    bits, and so do a single solve's products, whose one column numpy would
    take as a matrix-vector product, summed in another order.
    """

    def __init__(self, dis: _Dissection, terms: np.ndarray):
        # K~_X = L - sum(terms), each entry's terms summed in slots order by
        # one bincount; (0 - t) + L is L - t to the bit (exact negation,
        # commutative addition), and an entry with no term and no L reads +0.0
        buf = np.bincount(dis.slots, weights=terms, minlength=dis.offsets[-1] + 1)
        np.subtract(0.0, buf, out=buf)
        buf[dis.lap_slots] += dis.lap_values
        blocks, schur, self._r = dis.split(buf)
        self._dis = dis
        n = len(blocks)
        self._cross, pivots = [None] * n, [None] * n
        # per cross E_i [W_i Z_i], for the caller to subtract from S_TT and R in
        # cross order (B_i's place holds [W_i Z_i] once the cross is solved)
        products = [np.empty((e.shape[0], b.shape[1]), order="F") for _, b, e in blocks]

        def factor_crosses(part, scratch):
            # the LAPACK calls of every cross of the part, then their products:
            # unpinned, numpy's and scipy's BLAS pools contend at each switch
            for c in range(n)[part]:
                (a, b, e), n_t = blocks[c], dis.ring_t[c].size
                lu, piv = _getrf(a)
                pivots[c] = np.abs(np.diagonal(lu))
                # in place (a Fortran-contiguous block): B_i's T columns become W_i
                w = lapack.dgetrs(lu, piv, b[:, :n_t], overwrite_b=True)[0]
                self._cross[c] = (_getri(lu, piv), w, b[:, n_t:], e)
            for c in range(n)[part]:
                inv, _, z, e = self._cross[c]
                # A_i^{-1} Z_i Fortran-ordered, as the transpose of Z_i^T A_i^{-T}
                z[:] = np.matmul(z.T, inv.T, out=_buffer(scratch, z.shape[::-1])).T
                np.matmul(e, blocks[c][1], out=products[c])

        n_c, ring = dis.crosses.shape[1], blocks[0][1].shape[1]
        # multiply-adds per cross: getrf with getri n_c^3, getrs with A_i^{-1} Z_i
        # n_c^2 ring, and E_i [W_i Z_i] |T_i| n_c ring, |T_i| close to n_c
        _pair(factor_crosses, n // 2, (n - n // 2) * n_c * n_c * (n_c + 2 * ring),
              n_c * max(rl.size for rl in dis.ring_loop))
        for update_at, product in zip(dis.update_at, products):
            buf[update_at] -= product  # S_TT -= E_i W_i and R -= E_i Z_i, in place
        self._schur = None
        if dis.coarse.size:
            lu, piv = _getrf(schur)
            pivots.append(np.abs(np.diagonal(lu)))
            self._schur = _getri(lu, piv)
        self.pivots = np.concatenate(pivots)

    def solve(self, rhs: np.ndarray | None) -> np.ndarray:
        """K~_XX^{-1} rhs for rhs (n_x, k). rhs None stands for -K~_XB, the
        indicator bank's right-hand side, whose cross solves -Z_i and coarse
        right-hand side -R came with the factor: the coarse values are
        -S_TT^{-1} R, and each cross's -W_i times its ring's part of them,
        minus Z_i in the columns of its ring's loop nodes (placed by the
        _Dissection's flat plans). The bank's products -W_i x_T run on _pair,
        by the two halves of the crosses, and the caller subtracts each Z_i
        after both halves end."""
        dis = self._dis
        bank = rhs is None
        if bank:
            r_t, sign = self._r, -1.0
        else:
            r_t, sign = np.asfortranarray(rhs[dis.coarse]), 1.0
            solved = []
            for c, (inv, _, _, e) in enumerate(self._cross):
                solved.append(blas.dgemm(1.0, inv, rhs[dis.crosses[c]]))
                r_t[dis.ring_t[c]] -= blas.dgemm(1.0, e, solved[-1])
        x_t = sign * r_t if self._schur is None else blas.dgemm(sign, self._schur, r_t)
        k, n = x_t.shape[1], len(self._cross)
        x = np.empty((dis.crosses.size + dis.coarse.size, k))
        x[dis.coarse] = x_t
        if not bank:
            for c, (_, w, _, _) in enumerate(self._cross):
                rows = dis.crosses[c]
                x[rows] = blas.dgemm(-1.0, w, x_t[dis.ring_t[c]])
                x[rows] += solved[c]
            return x

        def back_substitute(part, scratch):
            for c in range(n)[part]:
                w = self._cross[c][1]
                ring = np.take(x, dis.coarse[dis.ring_t[c]], axis=0, mode="clip",
                               out=_buffer(scratch, (w.shape[1], k)))
                product = np.matmul(w, ring, out=_buffer(scratch, (w.shape[0], k), ring.size))
                x[dis.crosses[c]] = np.negative(product, out=product)

        n_c, most = dis.crosses.shape[1], max(rt.size for rt in dis.ring_t)
        _pair(back_substitute, n // 2, (n - n // 2) * n_c * most * k, (n_c + most) * k)
        for c, (_, _, z, _) in enumerate(self._cross):
            x.reshape(-1)[dis.bank_at[c]] -= z
        return x


class _CscPlan(NamedTuple):
    """The rows X of K~ in compressed-column form, all skeleton columns (X
    first, then the loop): the pattern of the X-row terms of _term_positions,
    the Laplacian's entries in it (base, with one slot past the pattern for the
    loop-row terms), and the pattern slot of each X diagonal, then of each
    ring-form entry."""

    n_x: int
    indptr: np.ndarray
    indices: np.ndarray
    cols: np.ndarray
    base: np.ndarray
    slots: np.ndarray


@lru_cache(maxsize=None)
def _csc_plan(grid: Grid, s: int) -> _CscPlan:
    """The _CscPlan of a grid and block size, which only _SparseLU reads: the
    dense factor assembles its blocks from the terms directly."""
    sk = _skeleton(grid, s)
    n_x = sk.n_x
    rows, cols, lap = _term_positions(sk)
    past = n_x * sk.nodes.size  # past every cols * n_x + rows with a row in X
    pattern, slot = np.unique(np.where(rows < n_x, cols * n_x + rows, past), return_inverse=True)
    pattern = pattern[pattern < past]  # the loop-row terms keep slot pattern.size
    plan = _CscPlan(
        n_x=n_x,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(pattern // n_x,
                                                          minlength=sk.nodes.size))]),
        indices=pattern % n_x,
        cols=pattern // n_x,
        base=np.bincount(slot[:lap.size], weights=lap, minlength=pattern.size + 1),
        slots=slot[lap.size:])
    for arr in plan[1:]:
        arr.setflags(write=False)
    return plan


class _SparseLU:
    """SuperLU factor of K~_XX (minimum degree on A^T + A, symmetric mode),
    whose factor stays sparse on the large skeletons of fine blocks; the same
    interface as _TwoLevelLU. K~_X = base - sum(terms) in the pattern of a
    _CscPlan. LinAlgError when SuperLU finds it exactly singular."""

    def __init__(self, plan: _CscPlan, terms: np.ndarray):
        n_x, n_xx = plan.n_x, plan.indptr[plan.n_x]
        k_x = plan.base - np.bincount(plan.slots, weights=terms, minlength=plan.base.size)
        k_xx = sp.csc_matrix((k_x[:n_xx], plan.indices[:n_xx], plan.indptr[:n_x + 1]),
                             shape=(n_x, n_x))
        try:
            self._lu = spla.splu(k_xx, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc
        self.pivots = np.abs(self._lu.U.diagonal())
        self._plan, self._k_x = plan, k_x

    def solve(self, rhs: np.ndarray | None) -> np.ndarray:
        """K~_XX^{-1} rhs for rhs (n_x, k). rhs None stands for -K~_XB, solved
        over nb / _COLUMN_CHUNKS dense columns at a time."""
        if rhs is not None:
            return self._lu.solve(rhs)
        plan = self._plan
        n_x, nb = plan.n_x, plan.indptr.size - 1 - plan.n_x
        out = np.empty((n_x, nb))
        width = max(1, nb // _COLUMN_CHUNKS)
        for c0 in range(0, nb, width):
            c1 = min(c0 + width, nb)
            entries = slice(plan.indptr[n_x + c0], plan.indptr[n_x + c1])
            cols = np.zeros((n_x, c1 - c0), order="F")
            cols[plan.indices[entries], plan.cols[entries] - n_x - c0] = -self._k_x[entries]
            out[:, c0:c1] = self._lu.solve(cols)
        return out


@lru_cache(maxsize=None)
def _sketch(nb: int) -> np.ndarray:
    """The fixed Gaussian test matrix (nb, _SKETCH_COLUMNS) of the bank audit."""
    sketch = np.random.default_rng(_SKETCH_SEED).standard_normal((nb, _SKETCH_COLUMNS))
    sketch.setflags(write=False)
    return sketch


class HelmholtzOperator:
    """Interior system K_ii u_i = rhs for one coefficient field and frequency.

    Refuses a field with a coefficient outside its own box
    (AdmissibilityError), runs the spectrum guard for that box and certifies
    the same box against the grid's discrete spectrum (_discrete_guard), once
    per (grid, omega^2, box) and again after every refusal (_certify), then
    condenses the block interiors out of K_ii in closed form and factors the
    skeleton once; every Dirichlet solve (``solve``, and the indicator bank in
    ``solution_bank``) reuses that factor.

    The field is constant on the s x s cell blocks (``block_size``, see
    _block_size), so a block interior carries the lumped mass h^2 c_b and the
    operator T x I + I x T - sigma_b I (T = tridiag(-1, 2, -1), sigma_b =
    omega^2 h^2 c_b), whose inverse is (S x S) D_b (S x S)^T with the DST-I S.
    Eliminating the interiors leaves K~ = K_SS - sum_b F^T D_b F on the
    skeleton, each block's ring form taken on its ring. Its rows and columns
    X, K~_XX, are factored with partial pivoting (``factor``): 'dense'
    (_TwoLevelLU, LAPACK getrf, then getri: the factor keeps the inverse and
    solves by GEMM; fastest while n_x <= 2 nb) or 'superlu' (_SparseLU,
    whose factor stays sparse on the large skeletons of fine blocks).

    The dense factor is two-level when _block_size groups the blocks 2 x 2:
    the inverse of each super-block's inner cross C_i, then of the Schur
    complement S_TT on the coarse skeleton T between the crosses, whose
    inverse solves all nb indicator columns in one product; each cross is
    solved only against the columns of its ring. The margin keeps every cross
    block positive definite, and det K~_XX = prod_i det A_{C_i C_i} det S_TT.
    Otherwise it is one inverse of K~_XX (one cross, no T), the same code
    path.

    The pivots of every factor, pooled, decide NearEigenfrequencyError, on an
    exactly zero pivot (smallest_pivot 0.0) or one below _PIVOT_RTOL of the
    largest: det K_ii = det K~_XX times the positive block determinants, so
    K~_XX is singular exactly when K_ii is, in the low window and in band
    windows alike. Past the discrete guard this catches only what rounding
    lets through at a band's edge.
    """

    def __init__(self, c2inv: PwcField, omega2: float):
        if not c2inv.admissible():
            raise AdmissibilityError(
                f"coefficients in [{c2inv.coeffs.min()}, {c2inv.coeffs.max()}] leave the box "
                f"{c2inv.bounds} that the frequency guard certifies")
        _certify(c2inv.grid, float(omega2), *c2inv.bounds)
        self.grid = c2inv.grid
        self.omega2 = float(omega2)
        self.block_size, grouped = _block_size(c2inv, self.omega2)
        self._sk = sk = _skeleton(self.grid, self.block_size)
        n_x = sk.n_x
        self.mass_diag = np.asarray(mass_scatter_matrix(self.grid) @ c2inv.cell_values())
        self._mass = self.omega2 * self.mass_diag[sk.nodes]
        self._symbols = _block_symbols(sk, self.omega2 * self.mass_diag[sk.interior[:, :1]].ravel())
        # K~_X = L - sum(terms): the mass on X, then the ring forms in place (_term_positions)
        terms = np.empty(n_x + sk.ring.size * sk.ring.shape[1])
        terms[:n_x] = self._mass[:n_x]
        self._forms = _ring_forms(sk, self._symbols, terms[n_x:])
        self.factor = "dense" if n_x <= _DENSE_SKELETON * self.grid.n_boundary else "superlu"
        try:
            self._lu = (_TwoLevelLU(_dissection(self.grid, self.block_size, grouped), terms)
                        if self.factor == "dense"
                        else _SparseLU(_csc_plan(self.grid, self.block_size), terms))
        except np.linalg.LinAlgError as exc:
            raise NearEigenfrequencyError(
                f"interior system is singular at omega^2 = {self.omega2}: {exc}",
                smallest_pivot=0.0) from exc
        self.smallest_pivot = float(self._lu.pivots.min())
        if self.smallest_pivot < _PIVOT_RTOL * float(self._lu.pivots.max()):
            raise NearEigenfrequencyError(
                f"omega^2 = {self.omega2} is numerically at an eigenfrequency of the "
                f"discrete operator (smallest pivot {self.smallest_pivot:.3e})",
                smallest_pivot=self.smallest_pivot,
            )

    def _solve_skeleton(self, rhs: np.ndarray | None) -> np.ndarray:
        """K~_XX^{-1} rhs for rhs (n_x,) or (n_x, k) by the operator's factor; rhs
        None gives the indicator bank's skeleton values V_X = -K~_XX^{-1} K~_XB."""
        if rhs is None:
            return self._lu.solve(None)
        return self._lu.solve(rhs.reshape(rhs.shape[0], -1)).reshape(rhs.shape)

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
        """Solve with Dirichlet data g (boundary-loop order) and volume source f,
        both finite (ConfigurationError otherwise). The data is lifted into the
        source, K_ii u_i = M f - K_ib g, whose block parts enter the skeleton
        system through their DST; the whole five-point residual is audited."""
        sk = self._sk
        n_x, nb, n_nodes = sk.n_x, self.grid.n_boundary, self.grid.n_nodes
        g = np.zeros(nb) if g is None else np.asarray(g, dtype=float)
        if g.shape != (nb,):
            raise DiscretizationMismatchError(f"expected {nb} boundary values, got {g.shape}")
        fv = np.zeros(n_nodes) if f is None else (
            f.values if isinstance(f, NodalField) else np.asarray(f, dtype=float))
        if fv.shape != (n_nodes,):
            raise DiscretizationMismatchError(f"expected {n_nodes} source values, got {fv.shape}")
        if not (np.isfinite(g).all() and np.isfinite(fv).all()):
            raise ConfigurationError("Dirichlet data and source must be finite")
        source = (node_quad_weights(self.grid) * fv)[sk.grid_interior]
        data = np.zeros(n_nodes)
        data[sk.nodes[n_x:]] = g
        lifted = np.zeros(n_nodes)
        lifted[sk.grid_interior] = source - sk.l_rows @ data  # M f - K_ib g
        hat = _to_nodes(sk.basis, lifted[sk.interior][:, :, None])
        folded = sk.coupling.T @ (self._symbols[:, :, None] * hat)
        rhs = lifted[sk.nodes[:n_x]] + np.bincount(sk.ring.ravel(), folded.ravel(), n_x)[:n_x]
        u = np.zeros((n_nodes, 1))
        u[sk.nodes[:n_x], 0] = self._solve_skeleton(rhs)
        _fill_blocks(sk, self._symbols, u, hat)  # with zero boundary values, as lifted
        u[sk.nodes[n_x:], 0] = g
        self._check(self._five_point_residual(u, source[:, None]), float(np.linalg.norm(lifted)),
                    "linear solve")
        return NodalField(self.grid, u[:, 0])

    def _audit_bank(self, bank: "SolutionBank") -> None:
        """Sketched five-point audit of the indicator bank U: for the fixed
        Gaussian G = _sketch(nb), ||(K U) G||_F^2 / _SKETCH_COLUMNS is an
        unbiased estimate of ||K_ii U_i + K_ib U_b||_F^2, which must be within
        _SOLVE_RTOL of ||K_ib||_F (one unit per non-corner loop node). The
        block interiors of U G are filled exactly, so its rows X hold the
        condensed residual of [V_X G; G]: the skeleton solve and the block
        symbols are audited together (Freivalds' check of a product)."""
        res = self._five_point_residual(bank.apply(_sketch(self.grid.n_boundary)))
        self._check(res / np.sqrt(_SKETCH_COLUMNS), float(np.sqrt(self.grid.n_boundary - 4)),
                    "sketched skeleton and bank")

    def _dtn(self, bank: "SolutionBank") -> np.ndarray:
        """The variational DtN -(K~_BX V_X + K~_BB), the loop rows of K~ [V_X; I]:
        L_BX V_X + L_BB - omega^2 diag(d_B), minus the loop rows of the ring
        forms of the blocks beside the loop, gathered through the bank's ring
        rows a group of blocks at a time, the two halves of the groups on
        _pair. A loop node lies on at most one ring, so every entry is summed
        in the order of the whole product, and the halves write apart."""
        sk = self._sk
        l_bx, l_bb = sk.loop_laplacian
        out = l_bx @ bank.skeleton
        out[l_bb.row, l_bb.col] += l_bb.data
        out.reshape(-1)[::out.shape[0] + 1] -= self._mass[sk.n_x:]

        def beside(part, buf):
            for blocks, rows, plan in groups[part]:
                out[sk.ring[blocks, rows] - sk.n_x] -= self._forms[blocks, rows] @ bank._rows(
                    plan, out=buf)

        groups, (n, n_ring, nb) = sk.loop_groups, (sk.s - 1, sk.ring.shape[1], out.shape[1])
        h, most = len(groups) // 2, max((blocks.size for blocks, _, _ in groups), default=0)
        _pair(beside, h, (len(groups) - h) * most * n * n_ring * nb, most * n_ring * nb)
        return np.negative(out, out=out)


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
        sk, nb = self._sk, self.grid.n_boundary
        g = np.asarray(g, dtype=float)
        if g.ndim > 2 or g.shape[:1] != (nb,):
            raise DiscretizationMismatchError(f"expected ({nb},) or ({nb}, k) data, got {g.shape}")
        cols = g.reshape(nb, -1)
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

    def _rows(self, plan: _RowPlan, x_rows=None, loop_rows=None, out=None) -> np.ndarray:
        """Rows of U, or of U p given its rows on X and on the loop, where plan
        (_Skeleton.rows) says: one gather per source into a new array, or one
        per run straight into the front of the flat workspace out, which
        allocates nothing."""
        nb = self.grid.n_boundary
        x_rows = self.skeleton if x_rows is None else x_rows
        if out is None:
            out = np.empty((prod(plan.shape), nb))
            out[plan.x_slots] = x_rows[plan.x_pos]
            out[plan.loop_slots] = 0.0 if loop_rows is None else loop_rows[plan.loop_pos]
        else:
            out = _buffer(out, (prod(plan.shape), nb))
            for slots, rows, on_loop in plan.runs:
                if on_loop and loop_rows is None:
                    out[slots] = 0.0
                else:
                    np.take(loop_rows if on_loop else x_rows, rows, axis=0, out=out[slots],
                            mode="clip")
        if loop_rows is None:
            out.reshape(-1)[plan.identity] = 1.0
        return out.reshape(plan.shape + (nb,))

    def _block_sides(self, blocks: slice, out=None) -> np.ndarray:
        """B_a K and B_t K of _block_forms for the given blocks, (blocks, 2, x,
        c, y), into the front of the flat out if given."""
        sk = self._sk
        n = sk.s - 1
        d = self.symbols[blocks]
        count = d.shape[0]
        return np.matmul(sk.sides @ d.reshape(count, n, n), sk.side_basis,
                         out=_buffer(out, (count, 2 * n, n * n))).reshape(count, 2, n, n, n)

    def _block_forms(self, blocks: slice, sides=None, xs=slice(None), out=None) -> np.ndarray:
        """G_b = (S x S) D_b F for the given blocks, (blocks, (s-1)^2, 4(s-1)),
        in closed form from F's rank-one sides (see _ring_forms): the bottom
        side is G[(x, y), c] = (B_a K)[x, (c, y)] with B_a = S diag(S[0]) D_b
        and the static K[q, (c, y)] = S[c, q] S[q, y], the top side the same
        with B_t = S diag(S[s-2]) D_b, and left and right are their (x, y)
        transposes (D_b is symmetric in (p, q)). That is 2 n^4 multiply-adds
        per block (n = s - 1), where the two DST products take 8 n^4. Given
        the blocks' sides (_block_sides), only the rows (x, y) with x in xs,
        into the front of the flat out if given."""
        g = self._block_sides(blocks) if sides is None else sides
        bottom_top, left_right = g[:, :, xs], g[..., xs]
        count, rows, n = g.shape[0], bottom_top.shape[2], g.shape[3]
        shape = (count, rows, n, 4, n)
        out = np.empty(shape) if out is None else _buffer(out, shape)
        out[:, :, :, :2] = bottom_top.transpose(0, 2, 4, 1, 3)  # bottom, top: [x, y, c]
        out[:, :, :, 2:] = left_right.transpose(0, 4, 2, 1, 3)  # left, right: [x, y, a] = [y, x, a]
        return out.reshape(count, rows * n, 4 * n)

    def gram(self, w: np.ndarray) -> np.ndarray:
        """U^T diag(w) U for nodal weights w, from the rows where w is nonzero:
        skeleton rows of U, and V_ring^T (G_b^T diag(w_b) G_b) V_ring for each
        block interior."""
        if np.shape(w) != (self.grid.n_nodes,):
            raise DiscretizationMismatchError(
                f"expected {self.grid.n_nodes} nodal weights, got shape {np.shape(w)}")
        return self._gram(w, None, None)

    def _gram(self, w: np.ndarray, x_rows, loop_rows) -> np.ndarray:
        """gram(w) for U, or (U p)^T diag(w) (U p) given the rows of U p on X and
        on the loop (see _rows): the block interiors of U p are G_b (U p)_ring."""
        sk = self._sk
        pos = np.flatnonzero(w[sk.nodes])
        u = self._rows(sk.rows(pos), x_rows, loop_rows)
        out = u.T @ (w[sk.nodes[pos], None] * u)
        for b in np.flatnonzero(np.any(w[sk.interior] != 0.0, axis=1)):
            g = self._block_forms(slice(b, b + 1))[0]
            ring = self._rows(sk.rows(sk.ring[b:b + 1]), x_rows, loop_rows)[0]
            out += ring.T @ ((g.T @ (w[sk.interior[b], None] * g)) @ ring)
        return out

    @cached_property
    def _weighted_skeleton(self) -> np.ndarray:
        """V_X W^{1/2}: the rows X of U W^{1/2}, W^{1/2} = weights.w_minus_half."""
        return self.skeleton @ self.weights.w_minus_half

    def _weighted_gram(self, w: np.ndarray) -> np.ndarray:
        """W^{1/2} U^T diag(w) U W^{1/2} = (U W^{1/2})^T diag(w) (U W^{1/2}), whose
        Frobenius norm is the data norm of U^T diag(w) U (dtn_data_norm) without
        the two nb^3 weight products."""
        return self._gram(w, self._weighted_skeleton, self.weights.w_minus_half)

    def quadratic_diagonal(self, p: np.ndarray) -> np.ndarray:
        """diag(U p U^T) at every node, with U p formed on the skeleton only:
        p_qq on the loop, rowsum(V_X o V_X p) on X, and rowsum((G_b C_b) o G_b)
        on each block interior with C_b = V_ring p V_ring^T. The rows X, and
        then the block groups, run on _pair."""
        nb = self.grid.n_boundary
        if np.shape(p) != (nb, nb):
            raise DiscretizationMismatchError(f"expected a ({nb}, {nb}) matrix, got {np.shape(p)}")
        p = np.asarray(p, dtype=float)
        sk, v = self._sk, self.skeleton
        n_x, h = sk.n_x, sk.n_x // 2
        out, up, rowsum = np.empty(self.grid.n_nodes), np.empty((n_x, nb)), np.empty(n_x)

        def on_x(rows, _):  # rows X of U p (its loop rows are p) and their rowsums
            np.matmul(v[rows], p, out=up[rows])
            np.einsum("ij,ij->i", v[rows], up[rows], out=rowsum[rows])

        _pair(on_x, h, (n_x - h) * nb * nb)
        out[sk.nodes[:n_x]] = rowsum
        out[sk.nodes[n_x:]] = np.diagonal(p)

        def blocks(part, buf):
            # buf, if given: a holds the ring rows, then G_b and G_b C_b on a
            # slab of xs x values at a time; b the ring rows of U p, then the
            # blocks' sides; c holds C_b. Without it numpy allocates, and one
            # slab holds every x value.
            a, b, c = (None,) * 3 if buf is None else np.split(buf, np.cumsum(sizes[:2]))
            step = side if buf is None else xs
            for blk, plan in groups[part]:
                ring = self._rows(plan, out=a)
                c_b = np.matmul(self._rows(plan, up, p, out=b), ring.transpose(0, 2, 1),
                                out=_buffer(c, (plan.shape[0], n_ring, n_ring)))
                sides = self._block_sides(blk, out=b)
                for x in range(0, side, step):
                    g = self._block_forms(blk, sides, slice(x, x + step), out=a)
                    np.einsum("bij,bij->bi", np.matmul(g, c_b, out=_buffer(a, g.shape, g.size)),
                              g, out=sums[blk, x * side:(x + step) * side])

        groups, (n_int, n_ring), side = sk.ring_groups, sk.coupling.shape, sk.s - 1
        h, most = len(groups) // 2, max((plan.shape[0] for _, plan in groups), default=0)
        xs, sums = max(1, nb // max(1, 2 * side)), np.empty(sk.interior.shape)
        sizes = (most * n_ring * nb, most * max(n_ring * nb, 2 * side ** 3), most * n_ring * n_ring)
        _pair(blocks, h, (len(groups) - h) * most * n_ring * n_ring * (nb + n_int), sum(sizes))
        out[sk.interior] = sums
        return out


def solution_bank(op: HelmholtzOperator) -> SolutionBank:
    """The solution bank of one forward evaluation, without its DtN matrix.

    The skeleton solve gives the bank's V_X, and a sketched five-point
    residual audits it (HelmholtzOperator._audit_bank); its weights are
    build_boundary_weights(op.grid). For callers that read only the bank (the
    derivative probes); assemble_dtn reads the DtN from it.
    """
    bank = SolutionBank(op._solve_skeleton(None), build_boundary_weights(op.grid), op.omega2,
                        op.block_size, op._symbols)
    op._audit_bank(bank)
    return bank


def assemble_dtn(op: HelmholtzOperator) -> tuple[DtnMatrix, SolutionBank]:
    """One forward evaluation: the DtN matrix and its solution bank.

    The audited bank comes from solution_bank, and the variational DtN, the
    one flux, is read from the loop rows of the condensed operator on
    [V_X; I] alone: -(K~_BB + K~_BX V_X), which equals -(K_bb + K_bi U_i)
    (HelmholtzOperator._dtn). Where BLAS runs on more than one thread,
    numpy's and scipy's pools contend at every switch between them: a dense
    evaluation switches from the crosses' LAPACK calls (scipy) to their
    products (numpy) once per half of the crosses, back for the coarse
    factor and S_TT^{-1} R, and to numpy for the back-substitution, the
    audit and the DtN read.
    """
    bank = solution_bank(op)
    return (DtnMatrix(lam=op._dtn(bank), weights=bank.weights, omega2=op.omega2), bank)


def pulled_back(mat: np.ndarray, weights: BoundaryWeights) -> tuple[np.ndarray, float]:
    """P = W A W and the Hilbert-Schmidt data norm ||W^{1/2} A W^{1/2}||_F =
    sqrt(<A, P>) of a DtN difference A (nb, nb), W the order -1/2 weight.
    P is what the adjoint reads, so one pair of products gives both."""
    pulled = _product(_product(weights.w_minus, mat), weights.w_minus)
    return pulled, float(np.sqrt(np.vdot(mat, pulled)))


def dtn_data_norm(mat: np.ndarray, weights: BoundaryWeights, kind: str = "hs") -> float:
    """Data-space norm of a DtN difference: || W^{1/2} A W^{1/2} || with W the
    order -1/2 weight. kind='hs' (default, the Y norm, see pulled_back) or
    'op' (largest singular value of the same weighted matrix, diagnostic)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (weights.nb, weights.nb):
        raise DiscretizationMismatchError(
            f"matrix shape {mat.shape} does not match weights ({weights.nb})"
        )
    if kind == "hs":
        return pulled_back(mat, weights)[1]
    if kind == "op":
        return float(np.linalg.norm(weights.w_minus_half @ mat @ weights.w_minus_half, 2))
    raise ConfigurationError(f"unknown norm kind {kind!r}")


def dtn_for_field(c2inv: PwcField, omega2: float,
                  weights: BoundaryWeights | None = None) -> DtnMatrix:
    """Forward map of one field: the DtnMatrix of assemble_dtn, without its bank.
    Its weights are always the grid's; weights built for another grid raise
    DiscretizationMismatchError before any operator is built."""
    if weights is not None and weights.grid != c2inv.grid:
        raise DiscretizationMismatchError("weights were built for a different grid")
    return assemble_dtn(HelmholtzOperator(c2inv, omega2))[0]
