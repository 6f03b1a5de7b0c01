"""Derivative of the coefficient-to-DtN map, its adjoint, and residuals.

For a coefficient field c with boundary-indicator solutions u_p (the solution
bank), the derivative in direction dc acts on boundary data pairs as

    <DF(dc) g, h> = omega^2 * sum_cells dc_cell * avg(u^g u^h) * h^2,

with products evaluated at nodes and averaged per cell. In matrix form
DF(dc) = omega^2 U^T diag(s) U with s the mass lumping of dc, so DF is exactly
the derivative of the assembled DtN matrix and the adjoint

    T(x) = omega^2 * sum_pq (w_minus R w_minus)_pq u_p(x) u_q(x)

is its exact transpose under the weighted Hilbert-Schmidt data product and the
cell-area field product: the dot-product test holds to rounding. One bank per
iterate suffices: forward.assemble_dtn returns it beside the DtN matrix, and
SolutionBank is defined there.

Both bank products do only the arithmetic their result needs. DF(dc) reads
only the bank rows where s is nonzero (an indicator probe touches one region).
T(x) depends only on the symmetric part of P = w_minus R w_minus, so P is
folded into the triangle B = triu(P + P^T, 1) + diag(P), which gives the same
diag(U B U^T), and the column blocks of B below its diagonal are skipped: 5/8
of the dense flops at nb = 512, tending to 1/2 as nb grows. Both run over row
chunks of the bank, so no (n_nodes, nb) temporary is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import NodalField, PwcField, l2_norm, mass_scatter_matrix
from .errors import DiscretizationMismatchError
from .forward import (
    BoundaryWeights,
    DtnMatrix,
    SolutionBank,
    build_boundary_weights,
    dtn_data_norm,
    dtn_for_field,
)

__all__ = [
    "SolutionBank",
    "Residual",
    "residual_from",
    "bank_for_field",
    "apply_df",
    "apply_df_adjoint",
    "df_norm_probe",
    "lipschitz_df_probe",
    "indicator_probes",
]

# Bank rows per chunk and triangle columns per block in the bank products; it
# bounds their scratch to a few hundred KiB whatever the grid. The products
# stay in numpy: scipy's dtrmm would skip the whole lower triangle, but it runs
# in scipy's own BLAS, whose thread pool contends with numpy's when threads are
# not pinned (a descent at m = 33 ran 3x slower on 2 cores) and whose packing
# buffers add to the peak memory.
_TILE = 128


@dataclass(frozen=True, eq=False)
class Residual:
    """DtN-space residual F(c) - y with its data norm attached."""

    matrix: np.ndarray
    weights: BoundaryWeights
    norm: float = None  # type: ignore[assignment]

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "norm", dtn_data_norm(mat, self.weights))


def residual_from(current: DtnMatrix, data: DtnMatrix) -> Residual:
    if not current.weights.compatible(data.weights):
        raise DiscretizationMismatchError("DtN matrices carry incompatible weights")
    if current.omega2 != data.omega2:
        raise DiscretizationMismatchError(
            f"DtN matrices taken at different frequencies: {current.omega2} vs {data.omega2}"
        )
    return Residual(matrix=current.lam - data.lam, weights=current.weights)


def bank_for_field(c2inv: PwcField, omega2: float,
                   weights: BoundaryWeights | None = None):
    """The DtN matrix and its solution bank for one field (one factorization)."""
    return dtn_for_field(c2inv, omega2, weights=weights, return_solutions=True)


def _delta_cells(bank: SolutionBank, delta) -> np.ndarray:
    if isinstance(delta, PwcField):
        if delta.grid.m != bank.grid.m:
            raise DiscretizationMismatchError("perturbation lives on a different grid")
        return delta.cell_values()
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (bank.grid.n_cells,):
        raise DiscretizationMismatchError(
            f"expected a PwcField or {bank.grid.n_cells} cell values, got shape {delta.shape}"
        )
    return delta


def _tiles(n: int):
    return [slice(start, min(start + _TILE, n)) for start in range(0, n, _TILE)]


def apply_df(bank: SolutionBank, delta) -> np.ndarray:
    """Directional derivative of the DtN matrix; bilinear in the perturbation.

    Only the bank rows where the lumped perturbation s is nonzero contribute,
    so they are gathered, in row chunks, and nothing else is multiplied.
    """
    cells = _delta_cells(bank, delta)
    s = np.asarray(mass_scatter_matrix(bank.grid) @ cells)
    support = np.flatnonzero(s)
    nb = bank.grid.n_boundary
    out = np.zeros((nb, nb))
    for chunk in _tiles(support.size):
        rows = support[chunk]
        u = bank.solutions[rows]
        out += (u * s[rows, None]).T @ u
    out *= bank.omega2
    return out


def apply_df_adjoint(bank: SolutionBank, residual: Residual | np.ndarray) -> NodalField:
    """Adjoint of the derivative under the data product: the descent direction field.

    The duality map of the Hilbert data space is the identity, so the input is
    the residual matrix itself. The pulled-back residual P = w_minus R w_minus
    is folded into its upper triangle B (module docstring), and diag(U B U^T)
    is summed tile by tile over row chunks of the bank and column blocks of B,
    each block multiplied only by the rows of B above its diagonal end.
    """
    if isinstance(residual, Residual):
        if not residual.weights.compatible(bank.weights):
            raise DiscretizationMismatchError("residual weights do not match the bank")
        mat = residual.matrix
    else:
        mat = np.asarray(residual, dtype=float)
        if mat.shape != (bank.weights.nb, bank.weights.nb):
            raise DiscretizationMismatchError(
                f"residual must be {bank.weights.nb} square, got {mat.shape}"
            )
    wm = bank.weights.w_minus
    pulled = wm @ mat @ wm
    tri = np.triu(pulled + pulled.T, 1)
    np.fill_diagonal(tri, np.diagonal(pulled))
    u = bank.solutions
    values = np.zeros(u.shape[0])
    for rows in _tiles(u.shape[0]):
        chunk = u[rows]
        for cols in _tiles(tri.shape[1]):
            head = chunk[:, :cols.stop] @ tri[:cols.stop, cols]  # zero below cols.stop
            values[rows] += np.einsum("ij,ij->i", chunk[:, cols], head)
    values *= bank.omega2
    return NodalField(bank.grid, values)


def indicator_probes(partition) -> list[PwcField]:
    """One-region indicator fields of a partition (unit coefficient on one region)."""
    probes = []
    for j in range(partition.n_regions):
        coeffs = np.zeros(partition.n_regions)
        coeffs[j] = 1.0
        probes.append(PwcField(partition, coeffs, (1e-12, 1.0)))
    return probes


def df_norm_probe(bank: SolutionBank, probes) -> float:
    """Largest ||DF(delta)||_Y / ||delta||_L2 over the probe directions."""
    best = 0.0
    for delta in probes:
        denom = l2_norm(delta) if isinstance(delta, PwcField) else float(
            np.sqrt(bank.grid.h ** 2 * np.sum(np.asarray(delta) ** 2)))
        if denom == 0:
            continue
        ratio = dtn_data_norm(apply_df(bank, delta), bank.weights) / denom
        best = max(best, ratio)
    return best


def lipschitz_df_probe(c1: PwcField, c2: PwcField, omega2: float,
                       weights: BoundaryWeights | None = None,
                       probes=None) -> float:
    """Estimate ||DF(c1) - DF(c2)|| by probing both derivatives.

    Probes default to the region indicators of c1's partition; the result is
    the largest Y-norm of the difference per unit perturbation norm. Used to
    calibrate the derivative Lipschitz coefficient (growth omega^4).
    """
    if c1.grid.m != c2.grid.m:
        raise DiscretizationMismatchError("fields live on different grids")
    weights = build_boundary_weights(c1.grid) if weights is None else weights
    _, bank1 = bank_for_field(c1, omega2, weights=weights)
    _, bank2 = bank_for_field(c2, omega2, weights=weights)
    if probes is None:
        probes = indicator_probes(c1.partition)
    best = 0.0
    for delta in probes:
        denom = l2_norm(delta)
        if denom == 0:
            continue
        diff = apply_df(bank1, delta) - apply_df(bank2, delta)
        best = max(best, dtn_data_norm(diff, weights) / denom)
    return best
