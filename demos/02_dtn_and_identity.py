"""DtN matrices, the data norm, and the interior-boundary product identity.

The identity

    omega^2 sum_cells (c1 - c2) avg(u1 u2) h^2  =  h^T (Lam1 - Lam2) g

ties the difference of two DtN matrices to a weighted interior integral of the
coefficient difference. With the variational flux it holds to solver
precision; forcing a one-sided difference flux destroys it, which is why the
derivative and stability layers insist on the variational trace.
"""

import numpy as np

from helmrecon import Grid, PwcField, build_boundary_weights, dtn_for_field, \
    make_uniform_partition
from helmrecon.verify import audit_alessandrini

grid = Grid(33)
part = make_uniform_partition(grid, 2)
weights = build_boundary_weights(grid)
rng = np.random.default_rng(7)
c1 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))
c2 = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))

dtn = dtn_for_field(c1, 5.0)
print(f"DtN matrix: {weights.nb} x {weights.nb}, symmetry defect "
      f"{dtn.symmetry_defect():.2e}")

ones = np.ones(weights.nb)
print(f"boundary weights: w_plus @ 1 == h_b (max dev "
      f"{np.abs(weights.w_plus @ ones - weights.h_b).max():.2e}), "
      f"w_plus w_minus == h_b^2 I (defect "
      f"{np.linalg.norm(weights.w_plus @ weights.w_minus - weights.h_b ** 2 * np.eye(weights.nb)):.2e})")

print()
print("== identity audit over 50 random boundary pairs ==")
good = audit_alessandrini(c1, c2, 5.0, trials=50, seed=1)
bad = audit_alessandrini(c1, c2, 5.0, trials=50, seed=1, variant="one_sided")
print(f"variational flux: max relative defect {good:.2e}")
print(f"one-sided flux:   max relative defect {bad:.2e}  <- why the variational trace matters")
