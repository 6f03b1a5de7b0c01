"""Projected steepest descent over piecewise-constant fields, level by level.

One iterate costs one DtN assembly: the assembly's solution bank doubles as
the gradient's ingredients. With residual norm r, direction norm t, the
level's curvature constant and approximation error eta (see the constants
module), each iterate carries

    u  = -curvature*r^2 + (1 - 2*curvature*eta)*r - eta - curvature*eta^2
    mu = u * r / t^2

and the step subtracts mu times the data-space gradient pulled back to the
field space, then projects onto the admissible set: region averaging followed
by clamping into the coefficient box. A level stops at the discrepancy
threshold (3+eps)*eta by default, on a nonpositive u (residual at the
approximation floor), on a vanishing direction, or at the iteration cap.

The multi-level driver checks the frequency-explicit refinement conditions
between consecutive schedule entries, warm-starts each level by exact embedding of the previous
exit iterate (whose residual norm and direction carry over, since the embedded
field is the same cell field), and reports the exit error bound

    (4+eps) * stab(N_last) * eta_last + phi(N_last).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import ConstantsBundle, LevelConstants, check_omega_conditions, derive_level
from .derivative import apply_df_adjoint, bank_for_field, residual_from
from .domain import NodalField, Partition, PwcField, bregman, clamp_to_bounds, embed, \
    l2_norm, project
from .errors import ConfigurationError, LevelConditionError, is_count
from .forward import DtnMatrix

__all__ = [
    "DescentState",
    "LevelRun",
    "MultilevelResult",
    "evaluate_state",
    "descent_step",
    "run_level",
    "run_multilevel",
]


@dataclass(frozen=True, eq=False)
class DescentState:
    """One iterate: field, direction, residual norm r, direction norm t, and
    the step quantities u and mu."""

    k: int
    field: PwcField
    direction: NodalField
    r: float
    t: float
    u: float
    mu: float


def _step_quantities(r: float, t: float, lc: LevelConstants, eta: float):
    cv = lc.curvature
    u = -cv * r ** 2 + (1.0 - 2.0 * cv * eta) * r - eta - cv * eta ** 2
    mu = u * r / t ** 2 if t > 0.0 else np.nan
    return float(u), float(mu)


def evaluate_state(c: PwcField, data: DtnMatrix, lc: LevelConstants, eta: float,
                   k: int = 0) -> DescentState:
    """Assemble the forward map at c and package direction, norms, and quantities."""
    dtn, bank = bank_for_field(c, data.omega2)
    res = residual_from(dtn, data)
    del dtn  # the DtN matrix goes before the adjoint
    direction = apply_df_adjoint(bank, res)
    t = l2_norm(direction)
    u, mu = _step_quantities(res.norm, t, lc, eta)
    return DescentState(k=k, field=c, direction=direction, r=res.norm, t=t, u=u, mu=mu)


def descent_step(state: DescentState, lc: LevelConstants, data: DtnMatrix,
                 eta: float | None = None) -> DescentState:
    """Take one projected step from an admissible state and re-evaluate.

    Requires u > 0 (descent admissible) and t > 0.
    """
    eta = lc.eta if eta is None else eta
    if not (state.u > 0.0):
        raise LevelConditionError(
            f"step quantity u = {state.u:.6g} is not positive: the residual sits at the "
            f"approximation floor for this level"
        )
    if not (state.t > 0.0) or not np.isfinite(state.mu):
        raise LevelConditionError("direction vanished: stationary point reached")
    pulled = project(state.direction, state.field.partition, bounds=state.field.bounds)
    stepped = state.field.with_coeffs(state.field.coeffs - state.mu * pulled.coeffs)
    new_field = clamp_to_bounds(stepped)
    return evaluate_state(new_field, data, lc, eta, k=state.k + 1)


@dataclass(frozen=True, eq=False)
class LevelRun:
    """Record of one level: per-iterate scalars, stop reason, and the exit state."""

    partition: Partition
    constants: LevelConstants
    threshold: float
    history: dict
    stop_reason: str
    k_stop: int
    exit_state: DescentState
    warnings: list = field(default_factory=list)

    @property
    def final(self) -> PwcField:
        return self.exit_state.field


def _check_level_settings(max_iter, eta_override, discrepancy_threshold) -> None:
    """Refuse a level's cap, eta and threshold before it evaluates anything: k >= nan
    never holds and a cap of 2.5 ran 3 steps; r <= nan or r <= -1 never holds, so
    the discrepancy stop would be silently off."""
    if not is_count(max_iter, 0):
        raise ConfigurationError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    for name, value in (("eta_override", eta_override),
                        ("discrepancy_threshold", discrepancy_threshold)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


def run_level(start: PwcField, lc: LevelConstants, data: DtnMatrix, max_iter: int,
              eta_override: float | None = None,
              discrepancy_threshold: float | None = None,
              z_best: PwcField | None = None,
              warm: DescentState | None = None) -> LevelRun:
    """Iterate the projected descent on one partition until a stop condition.

    eta_override replaces the bundle's modeled approximation error (synthetic
    experiments pass the exact one); discrepancy_threshold overrides the
    default (3+eps)*eta stop level; either one non-finite or negative raises
    ConfigurationError. z_best, when given, is the level's best
    approximation of the truth and feeds the per-iterate Bregman audit.
    warm, when given, is an evaluated state whose field equals start cell for
    cell (the previous level's exit state); its residual norm and direction are
    reused instead of evaluating start again, and u and mu are recomputed
    with this level's constants and eta.
    """
    _check_level_settings(max_iter, eta_override, discrepancy_threshold)
    eps = lc.bundle.eps
    eta = lc.eta if eta_override is None else float(eta_override)
    tau = (3.0 + eps) * eta if discrepancy_threshold is None else float(discrepancy_threshold)
    cols = {name: [] for name in ("k", "r", "t", "u", "mu", "bregman")}
    warnings: list[str] = []
    if warm is None:
        state = evaluate_state(start, data, lc, eta, k=0)
    else:
        u, mu = _step_quantities(warm.r, warm.t, lc, eta)
        state = replace(warm, k=0, field=start, u=u, mu=mu)
    stop_reason = None
    while True:
        cols["k"].append(state.k)
        cols["r"].append(state.r)
        cols["t"].append(state.t)
        cols["u"].append(state.u)
        cols["mu"].append(state.mu)
        cols["bregman"].append(np.nan if z_best is None else bregman(state.field, z_best))
        if state.r <= tau:
            stop_reason = "discrepancy"
            break
        if state.u <= 0.0:
            stop_reason = "u_nonpositive"
            warnings.append(
                f"iterate {state.k}: u = {state.u:.6g} <= 0 with residual {state.r:.6g} "
                f"above the threshold {tau:.6g}; the level's approximation floor is reached"
            )
            break
        if state.t == 0.0 or not np.isfinite(state.mu):
            stop_reason = "stationary"
            warnings.append(
                f"iterate {state.k}: direction vanished with residual {state.r:.6g} "
                f"above the threshold {tau:.6g}"
            )
            break
        if state.k >= max_iter:
            stop_reason = "max_iter"
            break
        state = descent_step(state, lc, data, eta=eta)
    history = {name: np.asarray(vals, dtype=float) for name, vals in cols.items()}
    history["k"] = history["k"].astype(int)
    return LevelRun(
        partition=start.partition,
        constants=lc,
        threshold=tau,
        history=history,
        stop_reason=stop_reason,
        k_stop=state.k,
        exit_state=state,
        warnings=warnings,
    )


@dataclass(frozen=True, eq=False)
class MultilevelResult:
    runs: list
    final: PwcField
    error_bound: float
    warnings: list


def run_multilevel(schedule: list[Partition], bundle: ConstantsBundle, data: DtnMatrix,
                   start: PwcField, max_iter: int | list[int] = 500,
                   eta_overrides=None, discrepancy_thresholds=None,
                   override_level_check: bool = False,
                   truth: PwcField | None = None) -> MultilevelResult:
    """Run the descent over a refinement schedule with warm starts.

    Each refinement between consecutive schedule entries is decided by
    check_omega_conditions alone: a failure raises LevelConditionError, or,
    with override_level_check, adds the same violation text to the warnings
    with the suffix "(overridden)". truth, when given (synthetic experiments),
    enables the per-level Bregman audit against the level-best approximation.
    """
    if not schedule:
        raise ConfigurationError("schedule must contain at least one partition")
    if start.partition.n_regions != schedule[0].n_regions or not \
            start.partition.same_as(schedule[0]):
        raise ConfigurationError("start field must live on the first schedule partition")
    n_levels = len(schedule)
    iters = [max_iter] * n_levels if np.ndim(max_iter) == 0 else list(max_iter)
    etas = [None] * n_levels if eta_overrides is None else list(eta_overrides)
    taus = [None] * n_levels if discrepancy_thresholds is None else list(discrepancy_thresholds)
    if not (len(iters) == len(etas) == len(taus) == n_levels):
        raise ConfigurationError("per-level settings must match the schedule length")
    for cap, eta, tau in zip(iters, etas, taus):  # every level's, before the first runs
        _check_level_settings(cap, eta, tau)

    constants = [derive_level(bundle, p.n_regions) for p in schedule]
    warnings: list[str] = []
    for n in range(n_levels - 1):
        n_cur, n_next = schedule[n].n_regions, schedule[n + 1].n_regions
        decision = check_omega_conditions(bundle, n_cur, n_next)
        if decision.passed:
            continue
        if not override_level_check:
            raise LevelConditionError(
                f"refinement N {n_cur} -> {n_next} refused: {decision.violated()}"
            )
        warnings.append(
            f"level {n} -> {n + 1} (N {n_cur} -> {n_next}): {decision.violated()} (overridden)"
        )

    runs: list[LevelRun] = []
    current, warm = start, None
    for n, part in enumerate(schedule):
        if n > 0:
            # the embedded field equals the exit iterate cell for cell, so the
            # exit evaluation is reused rather than assembled again
            warm = runs[-1].exit_state
            current = embed(warm.field, part)
        z_best = None
        if truth is not None:
            z_best = clamp_to_bounds(project(truth, part, bounds=start.bounds))
        run = run_level(current, constants[n], data, iters[n],
                        eta_override=etas[n], discrepancy_threshold=taus[n],
                        z_best=z_best, warm=warm)
        runs.append(run)
        warnings.extend(f"level {n}: {w}" for w in run.warnings)
        if run.stop_reason == "max_iter" and n < n_levels - 1:
            warnings.append(
                f"level {n}: iteration cap reached before the discrepancy level; "
                f"refining anyway"
            )

    last = constants[-1]
    eta_last = last.eta if etas[-1] is None else float(etas[-1])
    error_bound = (4.0 + bundle.eps) * last.stab * eta_last + bundle.phi(schedule[-1].n_regions)
    return MultilevelResult(runs=runs, final=runs[-1].final,
                            error_bound=float(error_bound),
                            warnings=warnings)
