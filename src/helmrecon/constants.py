"""Stability-constant calculus: level constants, refinement conditions, N_max.

A ConstantsBundle holds the a-priori data. For a partition with N regions the
derived level constants are

    df_bound  = df_bound0 * omega^2            (derivative norm bound)
    df_lip    = df_lip0   * omega^4            (derivative Lipschitz bound)
    stab      = omega^-2 * exp(stab_k*(1 + omega^2*B2) * N^e)   (stability)
    curvature = df_lip * stab^2
    eta       = df_bound0 * omega^2 * phi(N)   (approximation error model)

with phi(N) = c * N^-beta the power-law compression model and e the
stability exponent (default 4/7, kept verbatim from the 3D estimate;
configurable). The convergence radius of the projected descent is

    rho = 1/2 * (2*curvature*df_bound)^-2 * (1 + sqrt(1 - 8*curvature*eta)
                                               - 4*eta*curvature)^2.

Refinement from N_n to N_{n+1} regions is allowed when

    8*curvature_{n+1}*eta_{n+1} < 1,
    (3+eps)*eta_n + eta_{n+1} <= 2^{-5/2} / (df_bound_{n+1}*stab_{n+1}*curvature_{n+1}),

and the frequency-explicit forms of the same conditions are

    phi(N_{n+1}) - 1/8 * omega^-2 (df_lip0*df_bound0)^-1 * exp(-2*E_{n+1}) < 0,
    (3+eps)*phi(N_n) + phi(N_{n+1})
        - 2^{-5/2} * omega^-2 (df_bound0^2*df_lip0)^-1 * exp(-3*E_{n+1}) <= 0,

where E_{n+1} = stab_k*(1 + omega^2*B2)*N_{n+1}^e. Under the model equality
eta = df_bound0*omega^2*phi(N) each frequency-explicit condition is equivalent
to the corresponding level condition, which in turn implies the classical
single-inequality criterion. optimizer.run_multilevel decides each
refinement with the frequency-explicit check alone (check_omega_conditions),
which cross-checks the level conditions. The largest sustainable N solves

    (4+eps)*phi(N) - 2^{-5/2} omega^-2 (df_bound0^2 df_lip0)^-1 exp(-3*E) = 0;

if the left side stays negative the refinement is unbounded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, CalibrationError, ConfigurationError, LevelConditionError,
                     is_count)
from .forward import spectrum_guard

__all__ = [
    "CompressionModel",
    "ConstantsBundle",
    "LevelConstants",
    "TransitionDecision",
    "OmegaDecision",
    "NMaxResult",
    "RhoPoint",
    "derive_level",
    "compute_rho",
    "check_level_transition",
    "check_omega_conditions",
    "solve_n_max",
    "calibrate",
    "rho_vs_omega",
    "find_omega_for_rho",
]

_EXP_CAP = 700.0  # largest exponent fed to exp() anywhere in the calculus
_N_MAX_CAP = 1e9  # solve_n_max reports "unbounded" when still sustainable here
_N_MAX_SCAN_POINTS = 4096
_MAX_HALVINGS = 200  # of omega^2 in find_omega_for_rho
DEFAULT_EXPONENT = 4.0 / 7.0


@dataclass(frozen=True)
class CompressionModel:
    """Monotone-decreasing bound phi(N) = c * N^-beta on the best-approximation
    error; c = 0 gives the exact-representability model phi = 0."""

    c: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if not (0 <= self.c < np.inf and np.isfinite(self.beta)):
            raise ConfigurationError("compression prefactor must be finite and >= 0, and the "
                                     f"exponent finite; got {self.c}, {self.beta}")
        if self.c > 0 and self.beta <= 0:
            raise ConfigurationError(
                "a nonzero compression model must decrease in N (beta > 0); "
                f"got beta = {self.beta}"
            )

    @classmethod
    def power_law(cls, c: float, beta: float) -> "CompressionModel":
        return cls(c=c, beta=beta)

    @classmethod
    def zero(cls) -> "CompressionModel":
        return cls(c=0.0, beta=1.0)

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        if (n < 1).any():
            raise ConfigurationError("phi is defined for N >= 1")
        out = self.c * n ** (-self.beta)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ConstantsBundle:
    """A-priori data of the calculus.

    df_bound0 scales the derivative bound (growth omega^2), df_lip0 the
    derivative Lipschitz bound (growth omega^4), stab_k the stability exponent
    coefficient. eps is the discrepancy tolerance, phi the compression model,
    n_exponent the stability exponent on N. calibration records provenance.
    """

    df_bound0: float
    df_lip0: float
    stab_k: float
    b1: float
    b2: float
    omega2: float
    eps: float
    phi: CompressionModel
    n_exponent: float = DEFAULT_EXPONENT
    calibration: str = "analytic"

    def __post_init__(self):
        for name in ("df_bound0", "df_lip0", "stab_k", "eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and strictly positive")
        if not (0 < self.n_exponent <= 1):
            raise ConfigurationError(f"stability exponent must lie in (0, 1], got {self.n_exponent}")
        spectrum_guard(self.omega2, self.b1, self.b2)  # also checks the bounds

    def stability_exponent(self, big_n):
        """E = stab_k (1 + omega^2 B2) N^e, for a number or an array of N."""
        return self.stab_k * (1.0 + self.omega2 * self.b2) * big_n ** self.n_exponent

    def budget(self, expo):
        """The refinement budget 2^{-5/2} omega^-2 (df_bound0^2 df_lip0)^-1 exp(-3 E)."""
        return (2.0 ** (-2.5) / self.omega2 / (self.df_bound0 ** 2 * self.df_lip0)
                * np.exp(-3.0 * expo))


@dataclass(frozen=True)
class LevelConstants:
    """Constants of one partition level, all derived from the bundle at N regions."""

    bundle: ConstantsBundle
    big_n: int
    df_bound: float
    df_lip: float
    stab: float
    curvature: float
    eta: float
    rho: float | None


def compute_rho(curvature: float, df_bound: float, eta: float) -> float:
    """Convergence radius of the projected descent at one level.

    Defined while 8*curvature*eta <= 1 (the square root's domain); beyond that
    the level is inadmissible. A radius below or above the float range reads
    0.0 or inf.
    """
    x = curvature * eta
    if 8.0 * x > 1.0:
        raise LevelConditionError(
            f"level inadmissible: 8 * curvature * eta = {8 * x:.6g} > 1"
        )
    inner = 1.0 + np.sqrt(max(1.0 - 8.0 * x, 0.0)) - 4.0 * x
    with np.errstate(over="ignore", under="ignore"):  # 0.0 or inf, not OverflowError
        return float(0.5 * np.float64(2.0 * curvature * df_bound) ** -2.0 * inner ** 2)


def derive_level(bundle: ConstantsBundle, big_n: int) -> LevelConstants:
    """Evaluate every level constant at N = big_n regions, an integer >= 1."""
    if not is_count(big_n, 1):
        raise ConfigurationError(f"N must be an integer >= 1, got {big_n!r}")
    expo = bundle.stability_exponent(big_n)
    if 2.0 * expo > _EXP_CAP:
        raise ConfigurationError(
            f"stability exponent {expo:.3g} overflows exp(); reduce stab_k, omega^2, or N "
            f"(stab_k={bundle.stab_k}, omega2={bundle.omega2}, N={big_n})"
        )
    omega2 = bundle.omega2
    df_bound = bundle.df_bound0 * omega2
    df_lip = bundle.df_lip0 * omega2 ** 2
    stab = np.exp(expo) / omega2
    curvature = bundle.df_lip0 * np.exp(2.0 * expo)  # df_lip * stab^2, overflow-safe form
    eta = bundle.df_bound0 * omega2 * bundle.phi(big_n)
    rho = None
    if 8.0 * curvature * eta <= 1.0:
        rho = compute_rho(curvature, df_bound, eta)
    return LevelConstants(
        bundle=bundle,
        big_n=int(big_n),
        df_bound=float(df_bound),
        df_lip=float(df_lip),
        stab=float(stab),
        curvature=float(curvature),
        eta=float(eta),
        rho=rho,
    )


@dataclass(frozen=True)
class TransitionDecision:
    """Outcome of the direct level-to-level refinement check."""

    passed: bool
    contraction_ok: bool           # 8 * curvature_{n+1} * eta_{n+1} < 1
    contraction_value: float
    budget_ok: bool                # (3+eps) eta_n + eta_{n+1} <= budget
    budget_lhs: float
    budget_rhs: float
    classical_ok: bool | None      # the single-inequality criterion, when defined

    def violated(self) -> str | None:
        if self.passed:
            return None
        if not self.contraction_ok:
            return (f"8*curvature*eta = {self.contraction_value:.6g} >= 1 at the finer level")
        return (f"(3+eps)*eta_n + eta_next = {self.budget_lhs:.6g} exceeds the budget "
                f"{self.budget_rhs:.6g}")


def check_level_transition(cur: LevelConstants, nxt: LevelConstants) -> TransitionDecision:
    """Direct refinement conditions between two derived levels (same bundle)."""
    if cur.bundle is not nxt.bundle and cur.bundle != nxt.bundle:
        raise ConfigurationError("level constants come from different bundles")
    eps = cur.bundle.eps
    contraction = 8.0 * nxt.curvature * nxt.eta
    ok1 = contraction < 1.0
    lhs2 = (3.0 + eps) * cur.eta + nxt.eta
    rhs2 = 2.0 ** (-2.5) / (nxt.df_bound * nxt.stab * nxt.curvature)
    ok2 = lhs2 <= rhs2
    passed = ok1 and ok2
    classical_ok = None
    if ok1:
        root = np.sqrt(1.0 - contraction)
        classical_lhs = (3.0 + eps) * cur.eta
        classical_rhs = (
            2.0 ** (-0.5) / (nxt.df_bound * nxt.stab)
            * ((1.0 + root) / (2.0 * nxt.curvature) - 2.0 * nxt.eta)
            - nxt.eta
        )
        classical_ok = classical_lhs < classical_rhs
        # the pair of conditions implies the classical criterion (up to rounding)
        if passed and not classical_ok and not np.isclose(classical_lhs, classical_rhs,
                                                          rtol=1e-12):
            raise LevelConditionError(
                "refinement conditions passed but the classical criterion failed")
    return TransitionDecision(
        passed=passed,
        contraction_ok=ok1,
        contraction_value=float(contraction),
        budget_ok=ok2,
        budget_lhs=float(lhs2),
        budget_rhs=float(rhs2),
        classical_ok=classical_ok,
    )


@dataclass(frozen=True)
class OmegaDecision:
    """Outcome of the frequency-explicit refinement conditions."""

    passed: bool
    first_ok: bool
    first_lhs: float
    second_ok: bool
    second_lhs: float

    def violated(self) -> str | None:
        if self.passed:
            return None
        if not self.first_ok:
            return (f"frequency condition 1 fails: phi(N_next) term = {self.first_lhs:.6g} >= 0")
        return (f"frequency condition 2 fails: budget term = {self.second_lhs:.6g} > 0")


def check_omega_conditions(bundle: ConstantsBundle, n_cur: int, n_next: int) -> OmegaDecision:
    """Frequency-explicit refinement conditions for N_cur -> N_next regions.

    These imply the direct level conditions (checked here under the model
    equality eta = df_bound0 * omega^2 * phi(N)).
    """
    if n_next < n_cur:
        raise ConfigurationError(f"refinement must not shrink N: {n_cur} -> {n_next}")
    expo = bundle.stability_exponent(n_next)
    first_lhs = bundle.phi(n_next) - (
        0.125 / bundle.omega2 / (bundle.df_lip0 * bundle.df_bound0) * np.exp(-2.0 * expo))
    second_lhs = ((3.0 + bundle.eps) * bundle.phi(n_cur) + bundle.phi(n_next)
                  - bundle.budget(expo))
    first_ok = first_lhs < 0.0
    second_ok = second_lhs <= 0.0
    decision = OmegaDecision(
        passed=first_ok and second_ok,
        first_ok=first_ok,
        first_lhs=float(first_lhs),
        second_ok=second_ok,
        second_lhs=float(second_lhs),
    )
    if decision.passed and 2.0 * expo <= _EXP_CAP:
        direct = check_level_transition(derive_level(bundle, n_cur), derive_level(bundle, n_next))
        if not (direct.passed or _borderline(direct)):
            raise LevelConditionError(
                "frequency conditions passed but the direct level conditions failed")
    return decision


def _borderline(direct: TransitionDecision) -> bool:
    # 1-ulp disagreements between the two equivalent formulations
    close1 = np.isclose(direct.contraction_value, 1.0, rtol=1e-12)
    close2 = np.isclose(direct.budget_lhs, direct.budget_rhs, rtol=1e-12)
    return (direct.contraction_ok or close1) and (direct.budget_ok or close2)


@dataclass(frozen=True)
class NMaxResult:
    """Largest sustainable region count.

    status: 'bounded' (n_max holds the largest N with a nonpositive defining
    left side), 'unbounded' (still sustainable at the scan cap), or 'none'
    (positive throughout: no sustainable size at all).
    """

    status: str
    n_max: int | None
    cap: float


def _nmax_lhs(bundle: ConstantsBundle, n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    expo = np.minimum(bundle.stability_exponent(n), _EXP_CAP)
    return (4.0 + bundle.eps) * bundle.phi(n) - bundle.budget(expo)


def solve_n_max(bundle: ConstantsBundle) -> NMaxResult:
    """Locate the fixed point of the refinement budget by pre-scan and bisection
    over N in [1, _N_MAX_CAP]."""
    grid = np.unique(np.concatenate([
        np.arange(1, 1025, dtype=float),
        np.geomspace(1.0, _N_MAX_CAP, _N_MAX_SCAN_POINTS),
    ]))
    vals = _nmax_lhs(bundle, grid)
    ok = vals <= 0.0
    if not ok.any():
        return NMaxResult(status="none", n_max=None, cap=_N_MAX_CAP)
    last = int(np.nonzero(ok)[0][-1])
    if last == grid.size - 1:
        return NMaxResult(status="unbounded", n_max=None, cap=_N_MAX_CAP)
    lo, hi = grid[last], grid[last + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _nmax_lhs(bundle, mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 0.25:
            break
    n_max = int(np.floor(lo))
    while n_max > 1 and _nmax_lhs(bundle, n_max) > 0:
        n_max -= 1
    return NMaxResult(status="bounded", n_max=n_max, cap=_N_MAX_CAP)


@dataclass(frozen=True)
class RhoPoint:
    omega2: float
    rho: float | None
    rho_floor: float | None
    note: str


def rho_vs_omega(bundle: ConstantsBundle, big_n: int, omega2_grid) -> list[RhoPoint]:
    """Tabulate the convergence radius against frequency at fixed N.

    Inadmissible frequencies and levels are skipped with an annotation.
    rho_floor is 1/8 (curvature*df_bound)^-2, the mechanism's lower bound once
    the contraction condition holds; it reads 0.0 where the square overflows.
    """
    rows: list[RhoPoint] = []
    for w2 in omega2_grid:
        try:  # the bundle's validation and frequency guard, then the level's
            lc = derive_level(dataclasses.replace(bundle, omega2=float(w2)), big_n)
        except (AdmissibilityError, ConfigurationError) as exc:
            rows.append(RhoPoint(float(w2), None, None, f"skipped: {exc}"))
            continue
        if lc.rho is None:
            rows.append(RhoPoint(float(w2), None, None,
                                 "skipped: contraction condition fails (8*curvature*eta > 1)"))
            continue
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            floor = 0.125 / np.float64(lc.curvature * lc.df_bound) ** 2  # 0.0 past overflow
        rows.append(RhoPoint(float(w2), float(lc.rho), float(floor), ""))
    return rows


def find_omega_for_rho(bundle: ConstantsBundle, big_n: int, target: float):
    """Halve omega^2 from the bundle's until the radius reaches the target; returns
    (omega2, rho)."""
    w2 = bundle.omega2
    for _ in range(_MAX_HALVINGS):
        rows = rho_vs_omega(bundle, big_n, [w2])
        rho = rows[0].rho
        if rho is not None and rho >= target:
            return w2, rho
        w2 *= 0.5
    raise CalibrationError(
        f"no omega^2 with radius >= {target} found within {_MAX_HALVINGS} halvings"
    )


def calibrate(grid, omega2: float, b1: float, b2: float, *, phi: CompressionModel,
              eps: float, mode: str = "empirical", n_values=(1, 4, 16), samples: int = 12,
              seed: int = 0, n_exponent: float = DEFAULT_EXPONENT) -> ConstantsBundle:
    """Fit the three coefficients of a ConstantsBundle from forward/derivative
    probes; "empirical" is the only mode.

    It measures df_bound0 from derivative-norm probes over omega^2,
    df_lip0 from derivative-difference probes over omega^4, and stab_k from the
    largest implied exponent of sampled stability ratios across region counts.
    Deterministic under the seed.

    The two derivative fits read solution banks only, so their fields are
    evaluated by forward.solution_bank, which assembles no DtN matrix; the one
    exception is the derivative-bound fit's last field, the constant mid-box
    field, whose DtN the stability fit reuses. The stability fit is khat_bound
    of verify.estimate_lipschitz_constant at the same grid, seed and samples
    per N, taken from the same sweep of field pairs: it evaluates each pair's
    DtN difference (the mid-box base field of the adversarial pairs not
    again) and reads only the Hilbert-Schmidt data distance, so no
    operator-norm ratio or report is formed.
    """
    if mode != "empirical":
        raise CalibrationError(f"unknown calibration mode {mode!r}")
    if not is_count(samples, 10):
        raise CalibrationError(f"samples must be an integer >= 10 (sample pairs), got {samples!r}")

    from .domain import PwcField, l2_dist, make_uniform_partition, tiles
    from .derivative import bank_for_field, df_norm_probe, indicator_probes, lipschitz_df_probe
    from .forward import HelmholtzOperator, build_boundary_weights, solution_bank
    from .verify import _implied_exponent, _stability_sweep

    rng = np.random.default_rng(seed)
    weights = build_boundary_weights(grid)
    k_side = 2 if grid.cells_per_side % 2 == 0 else 1
    part = make_uniform_partition(grid, k_side)

    def random_field():
        return PwcField(part, rng.uniform(b1, b2, size=part.n_regions), (b1, b2))

    probes = indicator_probes(part)
    best_bound = 0.0
    for c in [random_field() for _ in range(max(3, samples // 4))]:
        bank = solution_bank(HelmholtzOperator(c, omega2), weights)
        best_bound = max(best_bound, df_norm_probe(bank, probes))
    # the mid-box field last, with its DtN: the stability sweep's base field
    mid = PwcField(part, np.full(part.n_regions, 0.5 * (b1 + b2)), (b1, b2))
    mid_dtn, bank = bank_for_field(mid, omega2, weights=weights)
    fitted_bound = max(best_bound, df_norm_probe(bank, probes)) / omega2

    best_lip = 0.0
    for _ in range(samples):
        c1, c2 = random_field(), random_field()
        dist = l2_dist(c1, c2)
        if dist == 0:
            continue
        ratio = lipschitz_df_probe(c1, c2, omega2, weights=weights, probes=probes)
        best_lip = max(best_lip, ratio / (omega2 ** 2 * dist))
    fitted_lip = best_lip

    feasible_n = [n for n in n_values if tiles(grid, n)]
    if not feasible_n:
        raise CalibrationError(f"no region count in {n_values} fits grid m={grid.m}")
    sweep = _stability_sweep(grid, omega2, b1, b2, feasible_n,
                             max(4, samples // len(feasible_n)), seed, weights, mid_dtn.lam)
    khat_bound = float(max(_implied_exponent(dist / data_dist, feasible_n[level], omega2, b2,
                                             n_exponent)
                           for level, _, dist, _, data_dist in sweep))
    fitted_k = max(khat_bound, 1e-6)

    if fitted_bound <= 0 or fitted_lip <= 0:
        raise CalibrationError(
            f"calibration produced nonpositive constants (df_bound0={fitted_bound}, "
            f"df_lip0={fitted_lip}); widen the sample set"
        )
    return ConstantsBundle(df_bound0=fitted_bound, df_lip0=fitted_lip, stab_k=fitted_k,
                           b1=b1, b2=b2, omega2=omega2, eps=eps, phi=phi,
                           n_exponent=n_exponent, calibration="empirical")
