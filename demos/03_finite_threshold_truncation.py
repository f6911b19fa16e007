"""A population spectrum whose transform stays finite at its edge: the second
branch saturates at theta_max past a finite threshold, the rate function
stays convex across it, and truncating the population edge restores an
infinite threshold while approximating the original rate from below."""

import numpy as np

from rmtldp.dyson import CovarianceModel, g_bar_sigma
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import approx_sweep, epsilon_truncate, rate_table

model = CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0)
edge = model.edge
print(f"theta_max = {edge.theta_max:.10f}, threshold x_c = {edge.x_c:.10f}, "
      f"r(sigma) = {edge.r_sigma:.10f}")

print()
print("== the second branch saturates at theta_max beyond x_c ==")
for x in (10.0, 14.0, 17.9, 18.0, 20.0, 30.0):
    print(f"Gbar({x}) = {g_bar_sigma(model, x):.12f}")

print()
print("== convexity across the threshold ==")
table = rate_table(model, 25.0, 400)
d2 = np.diff(table.i_values, 2)
k = np.searchsorted(table.x_grid, 18.0)
print("min second difference on the grid:", float(d2.min()))
print("second differences around x_c:", [f"{v:.3e}" for v in d2[k - 3:k + 3]])

print()
print("== right-edge truncation sweep ==")
xs = np.linspace(edge.r_sigma + 0.5, 25.0, 30)
sweep = approx_sweep(model, [0.4, 0.2, 0.1, 0.05], xs)
print("eps        r(sigma_eps)      sup |I_eps - I|")
for eps, r_eps, err in zip(sweep.eps, sweep.r_sigma_eps, sweep.sup_error):
    print(f"{eps:<10} {r_eps:.10f}   {err:.3e}")
print("(truncated rates never exceed the original; the truncated threshold is infinite)")
rho_trunc = epsilon_truncate(model.rho, 0.1)
print("truncated model threshold:", CovarianceModel(rho_trunc, 1.0).edge.x_c)
