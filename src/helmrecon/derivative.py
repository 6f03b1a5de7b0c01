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
field suffices: forward.solution_bank solves and audits it, and SolutionBank
is defined there. A descent iterate reads the DtN matrix too and takes both
from forward.assemble_dtn (bank_for_field); the derivative probes read the
bank alone, so lipschitz_df_probe takes it from solution_bank and no DtN is
assembled for them. Banks, DtN matrices and residuals carry their grid's one
set of boundary weights (forward.build_boundary_weights), so residual_from and
apply_df_adjoint match operands by grid (domain.check_same_grid).

The bank is kept in condensed form (skeleton values V_X and closed-form block
symbols), and both products are taken from it without forming U. DF(dc)
reads only the skeleton rows and blocks where s is nonzero, a block interior's
V_ring^T G_b^T diag(s_b) G_b V_ring folded into the one product over those
skeleton rows (its ring is skeleton). Where s_b is constant, as for any dc on
a partition the blocks refine, G_b^T G_b = F^T D_b^2 F (S x S is
orthonormal) comes in closed form and G_b is not formed. T(x) is p_qq on
the boundary loop, rowsum(V_X o V_X P) on the interior skeleton and
rowsum((G_b C_b) o G_b) on each block interior, with C_b = V_ring P V_ring^T;
it depends only on the symmetric part of P, so P needs no folding.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import forward
from .domain import NodalField, PwcField, check_same_grid, l2_norm, mass_scatter_matrix
from .errors import DiscretizationMismatchError
from .forward import (
    BoundaryWeights,
    DtnMatrix,
    HelmholtzOperator,
    SolutionBank,
    # unused here; the benchmark's trace wraps all three
    build_boundary_weights, dtn_data_norm, dtn_for_field,  # noqa: F401
    pulled_back,
    solution_bank,
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


@dataclass(frozen=True, eq=False)
class Residual:
    """Data norm and pulled-back residual P = w_minus R w_minus of a DtN-space
    residual R = F(c) - y, formed together (forward.pulled_back). P is what
    the adjoint reads; R itself is not kept."""

    matrix: InitVar[np.ndarray]
    weights: BoundaryWeights
    norm: float = field(init=False)
    pulled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, matrix):
        mat = np.ascontiguousarray(matrix, dtype=float)
        nb = self.weights.nb
        if mat.shape != (nb, nb):
            raise DiscretizationMismatchError(f"residual must be {nb} square, got {mat.shape}")
        pulled, norm = pulled_back(mat, self.weights)
        pulled.setflags(write=False)
        object.__setattr__(self, "pulled", pulled)
        object.__setattr__(self, "norm", norm)


def residual_from(current: DtnMatrix, data: DtnMatrix) -> Residual:
    check_same_grid(current.weights.grid, data.weights.grid, "DtN matrices")
    if current.omega2 != data.omega2:
        raise DiscretizationMismatchError(
            f"DtN matrices taken at different frequencies: {current.omega2} vs {data.omega2}"
        )
    return Residual(matrix=current.lam - data.lam, weights=current.weights)


def bank_for_field(c2inv: PwcField, omega2: float):
    """The DtN matrix and its solution bank for one field: forward.assemble_dtn,
    looked up on its module so that a wrapper installed there sees this call."""
    return forward.assemble_dtn(HelmholtzOperator(c2inv, omega2))


def _lumped(bank: SolutionBank, delta) -> np.ndarray:
    """The nodal lumped mass s of a perturbation (PwcField or cell values)."""
    if isinstance(delta, PwcField):
        check_same_grid(delta.grid, bank.grid, "perturbation and bank")
        delta = delta.cell_values()
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (bank.grid.n_cells,):
        raise DiscretizationMismatchError(
            f"expected a PwcField or {bank.grid.n_cells} cell values, got shape {delta.shape}")
    return np.asarray(mass_scatter_matrix(bank.grid) @ delta)


def apply_df(bank: SolutionBank, delta) -> np.ndarray:
    """Directional derivative of the DtN matrix; bilinear in the perturbation.

    omega^2 U^T diag(s) U with s the lumped perturbation, read by the bank
    from the skeleton rows and block interiors where s is nonzero only.
    """
    out = bank.gram(_lumped(bank, delta))
    out *= bank.omega2
    return out


def _weighted_df(bank: SolutionBank, delta) -> np.ndarray:
    """W^{1/2} DF(delta) W^{1/2} = omega^2 (U W^{1/2})^T diag(s) (U W^{1/2}), W the
    order -1/2 weight: its Frobenius norm is ||DF(delta)||_Y, taken without
    forming DF(delta) and weighting it (SolutionBank._weighted_gram)."""
    out = bank._weighted_gram(_lumped(bank, delta))
    out *= bank.omega2
    return out


def apply_df_adjoint(bank: SolutionBank, residual: Residual | np.ndarray) -> NodalField:
    """Adjoint of the derivative under the data product: the descent direction field.

    The duality map of the Hilbert data space is the identity, so the input is
    the residual matrix itself. The field is omega^2 diag(U P U^T) for the
    pulled-back residual P = w_minus R w_minus (Residual.pulled; a bare
    matrix is wrapped in a Residual first), which the bank sums from its
    condensed form (SolutionBank.quadratic_diagonal).
    """
    if isinstance(residual, Residual):
        check_same_grid(residual.weights.grid, bank.grid, "residual and bank")
    else:
        residual = Residual(matrix=residual, weights=bank.weights)
    values = bank.quadratic_diagonal(residual.pulled)
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


def _largest_ratio(probes, weighted) -> float:
    """Largest ||weighted(delta)||_F / ||delta||_L2 over the PwcFields of nonzero norm."""
    best = 0.0
    for delta in probes:
        denom = l2_norm(delta)
        if denom != 0:
            best = max(best, float(np.linalg.norm(weighted(delta))) / denom)
    return best


def df_norm_probe(bank: SolutionBank, probes) -> float:
    """Largest ||DF(delta)||_Y / ||delta||_L2 over the PwcField probes, each Y-norm
    the Frobenius norm of W^{1/2} DF(delta) W^{1/2} (_weighted_df)."""
    return _largest_ratio(probes, lambda delta: _weighted_df(bank, delta))


def lipschitz_df_probe(c1: PwcField, c2: PwcField, omega2: float, probes=None) -> float:
    """Estimate ||DF(c1) - DF(c2)|| by probing both derivatives.

    Probes default to the region indicators of c1's partition; the result is
    the largest Y-norm of the difference per unit perturbation norm, taken
    from the two weighted derivatives (_weighted_df). Used to calibrate the
    derivative Lipschitz coefficient (growth omega^4). It reads the two
    solution banks only, so both come from forward.solution_bank and no DtN
    matrix is assembled.
    """
    check_same_grid(c1.grid, c2.grid, "fields")
    bank1 = solution_bank(HelmholtzOperator(c1, omega2))
    bank2 = solution_bank(HelmholtzOperator(c2, omega2))
    if probes is None:
        probes = indicator_probes(c1.partition)
    return _largest_ratio(probes, lambda delta: _weighted_df(bank1, delta)
                          - _weighted_df(bank2, delta))
