"""Reconstruction of piecewise-constant squared-slowness fields from
Dirichlet-to-Neumann data by multi-level projected steepest descent.

Layers, bottom up: domain (grids, partitions, fields, projections), forward
(Helmholtz solves, DtN assembly, the frequency guard, data norms), derivative
(the DtN derivative and its adjoint), constants (the stability-constant
calculus and refinement conditions), optimizer (single-level descent and the
multi-level driver), verify (independent oracles), textio (every text file
format, its reader and its writer), cli (experiment driver). Importing the
package sets numpy's and scipy's OpenBLAS pools to one thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set (see forward).
"""

from .constants import (
    CompressionModel, ConstantsBundle, LevelConstants, calibrate, check_level_transition,
    check_omega_conditions, compute_rho, derive_level, find_omega_for_rho, rho_vs_omega,
    solve_n_max,
)
from .derivative import (
    Residual, apply_df, apply_df_adjoint, bank_for_field, lipschitz_df_probe, residual_from,
)
from .domain import (
    Grid, NodalField, Partition, PwcField, bregman, clamp_to_bounds, embed, l2_dist, l2_norm,
    make_uniform_partition, project,
)
from .errors import (
    AdmissibilityError, CalibrationError, ConfigurationError, DiscretizationMismatchError,
    HelmreconError, LevelConditionError, NearEigenfrequencyError,
)
from .forward import (
    BoundaryWeights, DtnMatrix, HelmholtzOperator, SolutionBank, SpectrumWindow, assemble_dtn,
    build_boundary_weights, dtn_data_norm, dtn_for_field, solution_bank, spectrum_guard,
)
from .optimizer import (
    DescentState, LevelRun, MultilevelResult, descent_step, evaluate_state, run_level,
    run_multilevel,
)
from .textio import load_dtn, load_pwc_field, save_dtn, save_field
from .verify import audit_alessandrini, estimate_lipschitz_constant, gradient_check

__version__ = "0.1.0"
