"""End-to-end reconstruction of a two-layer medium from noiseless DtN data.

Schedule: one region, then four. The truth is representable at the final
level, so the synthetic approximation error is zero and the final level runs
to a tight discrepancy threshold. Per level, the residual history and the
Bregman distance to the level-best approximation are printed.
"""

import numpy as np

from helmrecon import (
    CompressionModel,
    ConstantsBundle,
    Grid,
    PwcField,
    dtn_for_field,
    l2_dist,
    l2_norm,
    make_uniform_partition,
    run_multilevel,
)

B1, B2, W2 = 1.0, 2.0, 5.0
grid = Grid(33)
p1 = make_uniform_partition(grid, 1, level=0)
p2 = make_uniform_partition(grid, 2, level=1)

truth = PwcField(p2, np.array([1.8, 1.8, 1.3, 1.3]), (B1, B2))
print("truth (two-layer medium):", truth.coeffs)
data = dtn_for_field(truth, W2)

bundle = ConstantsBundle(df_bound0=1.0, df_lip0=1500.0, stab_k=1e-4, b1=B1, b2=B2,
                         omega2=W2, eps=0.1, phi=CompressionModel.zero())
start = PwcField(p1, np.array([1.5]), (B1, B2))

result = run_multilevel([p1, p2], bundle, data, start, max_iter=[8, 400],
                        eta_overrides=[0.0, 0.0], discrepancy_thresholds=[1e-8, 1e-8],
                        truth=truth)

for n, run in enumerate(result.runs):
    h = run.history
    print()
    print(f"== level {n} (N = {run.partition.n_regions}), stop: {run.stop_reason} ==")
    print(f"{'k':>4} {'residual':>12} {'step size':>12} {'bregman to best':>16}")
    for i in range(h["k"].size):
        print(f"{h['k'][i]:>4} {h['r'][i]:>12.4e} {h['mu'][i]:>12.4e} "
              f"{h['bregman'][i]:>16.4e}")

rel_err = l2_dist(result.final, truth) / l2_norm(truth)
print()
print("recovered:", np.round(result.final.coeffs, 6))
print(f"relative L2 error: {rel_err:.2e}")
print(f"exit error bound from the calculus: {result.error_bound:.2e}")
for w in result.warnings:
    print("note:", w)
