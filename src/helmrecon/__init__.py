"""Reconstruction of piecewise-constant squared-slowness fields from
Dirichlet-to-Neumann data by multi-level projected steepest descent.

Layers, bottom up: domain (grids, partitions, fields, projections), forward
(Helmholtz solves, DtN assembly, the frequency guard, data norms), derivative
(the DtN derivative and its adjoint), constants (the stability-constant
calculus and refinement conditions), optimizer (single-level descent and the
multi-level driver), verify (independent oracles), cli (experiment driver).

The names below resolve on first use (PEP 562), so importing the package
loads neither numpy nor a submodule. That lets cli choose the BLAS thread
count before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "CompressionModel", "ConstantsBundle", "LevelConstants", "calibrate",
        "check_level_transition", "check_omega_conditions", "compute_rho", "derive_level",
        "find_omega_for_rho", "rho_vs_omega", "solve_n_max",
    ),
    "derivative": (
        "Residual", "apply_df", "apply_df_adjoint", "bank_for_field", "lipschitz_df_probe",
        "residual_from",
    ),
    "domain": (
        "Grid", "NodalField", "Partition", "PwcField", "bregman", "clamp_to_bounds", "embed",
        "l2_dist", "l2_norm", "load_nodal_field", "load_pwc_field", "make_uniform_partition",
        "project", "refine_partition", "save_field", "split_region",
    ),
    "errors": (
        "AdmissibilityError", "CalibrationError", "ConfigurationError",
        "DiscretizationMismatchError", "HelmreconError", "LevelConditionError",
        "NearEigenfrequencyError",
    ),
    "forward": (
        "BoundaryWeights", "DtnMatrix", "HelmholtzOperator", "SolutionBank", "SpectrumWindow",
        "assemble_dtn", "build_boundary_weights", "dtn_data_norm", "dtn_for_field", "load_dtn",
        "save_dtn", "spectrum_guard",
    ),
    "optimizer": (
        "DescentState", "LevelRun", "MultilevelResult", "descent_step", "evaluate_state",
        "run_level", "run_multilevel",
    ),
    "verify": ("audit_alessandrini", "estimate_lipschitz_constant", "gradient_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "config"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
