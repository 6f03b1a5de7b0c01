"""Derivative of the coefficient-to-DtN map: finite-difference check, exact
adjoint, and the frequency power laws.

The derivative norm grows like omega^2 and its Lipschitz modulus like omega^4;
both exponents are visible in log-log sweeps and feed the constants calculus.
"""

import numpy as np

from helmrecon import Grid, HelmholtzOperator, PwcField, build_boundary_weights, \
    gradient_check, lipschitz_df_probe, make_uniform_partition, solution_bank
from helmrecon.derivative import apply_df, apply_df_adjoint, df_norm_probe, indicator_probes
from helmrecon.domain import mass_scatter_matrix

grid = Grid(17)
part = make_uniform_partition(grid, 2)
weights = build_boundary_weights(grid)
rng = np.random.default_rng(3)
c = PwcField(part, rng.uniform(1.0, 2.0, 4), (1.0, 2.0))

print("== central-difference audit (expect slope 2) ==")
deltas = [PwcField(part, rng.standard_normal(4), (1e-12, 10.0)) for _ in range(3)]
for i, row in enumerate(gradient_check(c, 5.0, deltas)):
    print(f"direction {i}: slope {row.slope:.3f}, smallest-t relative error "
          f"{row.rel_err_smallest_t:.2e}")

print()
print("== adjoint dot-product test (exact by construction) ==")
bank = solution_bank(HelmholtzOperator(c, 5.0))
scatter = mass_scatter_matrix(grid)
delta = PwcField(part, rng.standard_normal(4), (1e-12, 10.0))
r_mat = rng.standard_normal((weights.nb, weights.nb))
lhs = float(np.sum((apply_df(bank, delta) @ weights.w_minus) * (weights.w_minus @ r_mat)))
rhs = float(np.sum((scatter @ delta.cell_values()) * apply_df_adjoint(bank, r_mat).values))
print(f"<DF(d), R>_Y = {lhs:.12e}")
print(f"<d, DF*R>_L2 = {rhs:.12e}   relative gap {abs(lhs - rhs) / abs(lhs):.2e}")

print()
print("== frequency power laws ==")
probes = indicator_probes(part)
c2 = PwcField(part, np.array([1.7, 1.35, 1.55, 1.45]), (1.0, 2.0))
w2s = np.geomspace(1e-3, 1.0, 6)
norms = []
lips = []
for w2 in w2s:
    b = solution_bank(HelmholtzOperator(c, w2))
    norms.append(df_norm_probe(b, probes))
    lips.append(lipschitz_df_probe(c, c2, w2, probes=probes))
    print(f"omega^2 = {w2:8.1e}: ||DF|| ~ {norms[-1]:.3e}, Lipschitz probe ~ {lips[-1]:.3e}")
print(f"slope of ||DF|| vs omega^2:       "
      f"{np.polyfit(np.log(w2s), np.log(norms), 1)[0]:.3f} (expect 1)")
print(f"slope of probe vs omega^4:        "
      f"{np.polyfit(np.log(w2s ** 2), np.log(lips), 1)[0]:.3f} (expect 1)")
