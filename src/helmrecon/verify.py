"""Independent oracles: identity audits, derivative checks, stability sampling.

These deliberately avoid the code paths they audit where possible: the
interior side of the identity audit is assembled from the solutions U g and
U h of the two banks, the gradient check differences full forward maps, and
the stability sampler works from pairs of fields and their data distance only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid, PwcField, boundary_loop, l2_dist, mass_scatter_matrix, uniform_partition
from .derivative import apply_df, bank_for_field
from .errors import AdmissibilityError, ConfigurationError, is_count
from .forward import (DtnMatrix, HelmholtzOperator, build_boundary_weights, dtn_data_norm,
                      dtn_for_field, solution_bank)

__all__ = [
    "StabilitySample",
    "LipschitzReport",
    "GradientCheckRow",
    "audit_alessandrini",
    "gradient_check",
    "estimate_lipschitz_constant",
]

SLOPE_MIN = 1.8  # the pass thresholds of gradient_check
REL_TOL = 1e-5


def _one_sided_evaluation(c: PwcField, omega2: float):
    """bank_for_field with a one-sided difference flux in place of the
    variational one, its bank from solution_bank (no variational DtN is read):
    row q is U at the inward neighbour of loop node q (its diagonal neighbour
    at a corner) minus the indicator of q, corner rows scaled by 1/sqrt(2)."""
    bank = solution_bank(HelmholtzOperator(c, omega2))
    m = c.grid.m
    li, lj = np.divmod(boundary_loop(c.grid), m)
    inward = (li + (li == 0) - (li == m - 1)) * m + lj + (lj == 0) - (lj == m - 1)
    factor = np.where((li % (m - 1) == 0) & (lj % (m - 1) == 0), 1.0 / np.sqrt(2.0), 1.0)
    lam = (bank.solutions[inward] - np.eye(c.grid.n_boundary)) * factor[:, None]
    return DtnMatrix(lam=lam, weights=bank.weights, omega2=omega2), bank


def audit_alessandrini(c1: PwcField, c2: PwcField, omega2: float, trials: int = 50,
                       seed: int = 0, variant: str = "variational") -> float:
    """Max relative defect of the interior-boundary product identity.

    For random boundary pairs (g, h), compares
        omega^2 * sum_cells (c1 - c2) * avg(u1 u2) * h^2
    against h^T (Lam1 - Lam2) g, where u1 solves at c1 with data g and u2 at
    c2 with data h. Exactly zero for identical fields. trials that is not an
    integer >= 1 raises ConfigurationError before any solve: no trial would
    read as a defect of zero.

    variant 'one_sided' swaps in a one-sided flux (_one_sided_evaluation);
    another variant raises ConfigurationError.

    Each defect |lhs - rhs| is relative to the magnitude of the summed terms,
    omega^2 * sum_nodes |s u1 u2| with s the lumped mass of c1 - c2, which
    sets the size of the rounding both sides carry. Relative to
    max(|lhs|, |rhs|) instead, a pair whose terms nearly cancel would read
    rounding as a defect.
    """
    evaluate = {"variational": bank_for_field, "one_sided": _one_sided_evaluation}.get(variant)
    if evaluate is None:
        raise ConfigurationError(f"unknown DtN variant {variant!r}")
    if not is_count(trials, 1):
        raise ConfigurationError(f"the identity audit needs at least one trial, got {trials!r}")
    if c1.grid.m != c2.grid.m:
        raise ConfigurationError("fields live on different grids")
    grid = c1.grid
    dcells = c1.cell_values() - c2.cell_values()
    if np.all(dcells == 0):
        return 0.0
    (dtn1, bank1), (dtn2, bank2) = evaluate(c1, omega2), evaluate(c2, omega2)
    s = np.asarray(mass_scatter_matrix(grid) @ dcells)
    rng = np.random.default_rng(seed)
    nb = grid.n_boundary
    worst = 0.0
    for _ in range(trials):
        g = rng.standard_normal(nb)
        h = rng.standard_normal(nb)
        terms = s * bank1.apply(g) * bank2.apply(h)
        lhs = omega2 * float(np.sum(terms))
        rhs = float(h @ ((dtn1.lam - dtn2.lam) @ g))
        scale = omega2 * float(np.sum(np.abs(terms)))
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass(frozen=True)
class GradientCheckRow:
    """Per-direction finite-difference report."""

    slope: float
    rel_err_smallest_t: float
    t_values: np.ndarray
    errors: np.ndarray
    passed: bool


def gradient_check(c: PwcField, omega2: float, deltas,
                   t_values=(1e-1, 1e-2, 1e-3)) -> list[GradientCheckRow]:
    """Central-difference audit of the derivative along given directions.

    Per direction, reports the log-log slope of || (F(c+t d) - F(c-t d))/(2t)
    - DF(d) ||_Y against t (central differencing gives slope 2) and the
    relative error at the smallest t; a direction passes with a slope of at
    least SLOPE_MIN and a relative error of at most REL_TOL. Perturbed solves
    run the frequency guard at bounds widened to cover the perturbed
    coefficients; t shrinks automatically if a perturbation lands in a
    forbidden band. Every direction must be a PwcField on c's partition, and
    t_values one or more finite values > 0 (ConfigurationError otherwise).
    """
    t_values = sorted((float(t) for t in t_values), reverse=True)
    if not t_values or not all(np.isfinite(t) and t > 0 for t in t_values):
        raise ConfigurationError(f"t values must be one or more finite values > 0, got {t_values}")
    for delta in deltas:
        if not (isinstance(delta, PwcField) and delta.partition.same_as(c.partition)):
            raise ConfigurationError("gradient_check needs PwcField directions on c's partition")
    _, bank = bank_for_field(c, omega2)
    weights = bank.weights
    rows = []
    for delta in deltas:
        exact = apply_df(bank, delta)
        scale = dtn_data_norm(exact, weights)
        ts, errs = [], []
        for t_use in t_values:
            for _ in range(60):
                try:
                    coeffs_p = c.coeffs + t_use * delta.coeffs
                    coeffs_m = c.coeffs - t_use * delta.coeffs
                    lo = min(coeffs_p.min(), coeffs_m.min(), c.bounds[0])
                    hi = max(coeffs_p.max(), coeffs_m.max(), c.bounds[1])
                    if lo <= 0:
                        raise AdmissibilityError("perturbation makes the field nonpositive")
                    box = (lo, hi)
                    plus = PwcField(c.partition, coeffs_p, box)
                    minus = PwcField(c.partition, coeffs_m, box)
                    dtn_p = dtn_for_field(plus, omega2)
                    dtn_m = dtn_for_field(minus, omega2)
                    break
                except AdmissibilityError:
                    t_use *= 0.5
            else:
                raise AdmissibilityError("could not find an admissible perturbation size")
            diff = (dtn_p.lam - dtn_m.lam) / (2.0 * t_use)
            errs.append(dtn_data_norm(diff - exact, weights))
            ts.append(t_use)
        ts = np.asarray(ts)
        errs = np.asarray(errs)
        positive = errs > 0
        if positive.sum() >= 2:
            slope = float(np.polyfit(np.log(ts[positive]), np.log(errs[positive]), 1)[0])
        else:
            slope = np.inf  # differences at rounding level: better than any slope
        rel = float(errs[-1] / scale) if scale > 0 else 0.0
        rows.append(GradientCheckRow(
            slope=slope,
            rel_err_smallest_t=rel,
            t_values=ts,
            errors=errs,
            passed=bool(slope >= SLOPE_MIN and rel <= REL_TOL),
        ))
    return rows


@dataclass(frozen=True)
class StabilitySample:
    """One sampled pair: field distance over data distance at region count N."""

    big_n: int
    ratio: float
    ratio_op: float
    kind: str


@dataclass(frozen=True)
class LipschitzReport:
    """Stability-ratio growth across region counts with fitted exponents.

    khat_fit is the regression slope of log(max_ratio * omega^2) against
    (1 + omega^2*B2) * N^e; khat_bound is the largest implied per-sample
    exponent (so the bound with khat_bound dominates every sample).
    Ratios are reported under the Hilbert-Schmidt data norm, with the
    operator-norm variant alongside.
    """

    big_ns: list
    max_ratios: list
    max_ratios_op: list
    khat_fit: float
    khat_bound: float
    fit_residual: float
    omega2: float
    b2: float
    n_exponent: float
    samples: list


def _stability_pairs(grid: Grid, big_n: int, b1: float, b2: float, samples: int, rng):
    """Adversarial pairs first (a deep-interior single-region bump of the
    constant mid-box field, which is each one's first field), then random pairs."""
    part = uniform_partition(grid, big_n)
    k = int(round(np.sqrt(big_n)))
    mid = 0.5 * (b1 + b2)
    pairs = []
    base = np.full(big_n, mid)
    bumped = base.copy()
    center = (k // 2) * k + k // 2 if k > 1 else 0
    bumped[center] = b2
    pairs.append((PwcField(part, base, (b1, b2)), PwcField(part, bumped, (b1, b2)), "adversarial"))
    if k > 2:
        inner = (k // 2) * k + (k // 2 - 1)
        bumped2 = base.copy()
        bumped2[inner] = b1
        pairs.append((PwcField(part, base, (b1, b2)), PwcField(part, bumped2, (b1, b2)),
                      "adversarial"))
    while len(pairs) < samples:
        c1 = PwcField(part, rng.uniform(b1, b2, big_n), (b1, b2))
        c2 = PwcField(part, rng.uniform(b1, b2, big_n), (b1, b2))
        if l2_dist(c1, c2) == 0:
            continue
        pairs.append((c1, c2, "random"))
    return pairs


def _stability_sweep(grid: Grid, omega2: float, b1: float, b2: float, big_ns,
                     samples_per_n: int, seed: int, mid_lam=None):
    """Yield (level, kind, field distance, DtN difference, data distance) for each
    sampled pair with a nonzero data distance, one pair at a time; level
    indexes big_ns.

    The first field of every adversarial pair is the constant mid-box field,
    whose DtN does not depend on the partition: mid_lam, when the caller has
    it, else evaluated on first use, and reused.
    """
    rng, weights = np.random.default_rng(seed), build_boundary_weights(grid)
    for level, big_n in enumerate(big_ns):
        for c1, c2, kind in _stability_pairs(grid, big_n, b1, b2, samples_per_n, rng):
            if kind == "adversarial":
                if mid_lam is None:
                    mid_lam = dtn_for_field(c1, omega2).lam
                lam1 = mid_lam
            else:
                lam1 = dtn_for_field(c1, omega2).lam
            diff = lam1 - dtn_for_field(c2, omega2).lam
            data_dist = dtn_data_norm(diff, weights)
            if data_dist != 0:
                yield level, kind, l2_dist(c1, c2), diff, data_dist


def _implied_exponent(ratio: float, big_n: int, omega2: float, b2: float,
                      n_exponent: float) -> float:
    """The stability coefficient k at which omega^-2 exp(k (1 + omega^2 B2) N^e)
    equals a sampled ratio."""
    return np.log(ratio * omega2) / ((1.0 + omega2 * b2) * big_n ** n_exponent)


def estimate_lipschitz_constant(grid: Grid, omega2: float, b1: float, b2: float,
                                big_ns=(1, 4, 16, 64), samples_per_n: int = 6,
                                seed: int = 0, n_exponent: float = 4.0 / 7.0) -> LipschitzReport:
    """Sample worst stability ratios ||c1-c2|| / ||Lam1-Lam2||_Y per region count.

    Deterministic under the seed; degenerate pairs are skipped. The mid-box
    base field that every adversarial pair starts from is evaluated once for
    the whole sweep (_stability_sweep); each pair's operator-norm ratio is
    taken from its DtN difference as the sweep yields it. An empty big_ns, or
    one with an entry that is not an integer >= 1, raises ConfigurationError
    before any solve.
    """
    if len(big_ns) == 0:
        raise ConfigurationError("the stability sweep needs at least one region count")
    if not all(is_count(n, 1) for n in big_ns):
        raise ConfigurationError(f"region counts must be integers >= 1, got {list(big_ns)!r}")
    if not is_count(samples_per_n, 1):
        raise ConfigurationError(f"samples_per_n must be an integer >= 1, got {samples_per_n!r}")
    weights = build_boundary_weights(grid)
    all_samples: list[StabilitySample] = []
    max_ratios, max_ratios_op = [0.0] * len(big_ns), [0.0] * len(big_ns)
    for level, kind, dist, diff, data_dist in _stability_sweep(
            grid, omega2, b1, b2, big_ns, samples_per_n, seed):
        ratio = dist / data_dist
        ratio_op = dist / dtn_data_norm(diff, weights, kind="op")
        all_samples.append(StabilitySample(big_n=big_ns[level], ratio=ratio,
                                           ratio_op=ratio_op, kind=kind))
        max_ratios[level] = max(max_ratios[level], ratio)
        max_ratios_op[level] = max(max_ratios_op[level], ratio_op)
    xs = np.array([(1.0 + omega2 * b2) * n ** n_exponent for n in big_ns])
    ys = np.log(np.array(max_ratios) * omega2)
    if len(big_ns) >= 2:
        coef = np.polyfit(xs, ys, 1)
        khat_fit = float(coef[0])
        fit_residual = float(np.sqrt(np.mean((np.polyval(coef, xs) - ys) ** 2)))
    else:
        khat_fit = float(ys[0] / xs[0])
        fit_residual = 0.0
    khat_bound = float(max(_implied_exponent(s.ratio, s.big_n, omega2, b2, n_exponent)
                           for s in all_samples))
    return LipschitzReport(
        big_ns=list(big_ns),
        max_ratios=max_ratios,
        max_ratios_op=max_ratios_op,
        khat_fit=khat_fit,
        khat_bound=khat_bound,
        fit_residual=fit_residual,
        omega2=omega2,
        b2=b2,
        n_exponent=n_exponent,
        samples=all_samples,
    )
