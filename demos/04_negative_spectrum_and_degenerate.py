"""Population spectra with negative mass: for alpha > 1 the top eigenvalue
sits at a negative edge with a rate function diverging toward zero; for
alpha <= 1 the pair is degenerate and the top eigenvalue is trapped at zero
exactly, which the finite-size sampler reproduces to rounding error."""

import math

import numpy as np

from rmtldp.dyson import CovarianceModel, detect_degenerate, g_bar_sigma
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import edge_stats
from rmtldp.rate import rate, rate_degenerate

neg = SpectralMeasure.point_mass(-1.0)

print("== alpha = 2: negative edge, finite rates on [r(sigma), 0) ==")
model = CovarianceModel(neg, 2.0)
edge = model.edge
print(f"r(sigma) = {edge.r_sigma:.10f}  "
      f"(closed form {-((1 - 1 / math.sqrt(2)) ** 2):.10f})")
print(f"theta_c  = {edge.theta_c:.10f}  (closed form {2 * (1 + math.sqrt(2)):.10f})")
for x in (-0.08, -0.05, -0.02, -0.005):
    print(f"I({x}) = {rate(model, x):.6f}   Gbar({x}) = {g_bar_sigma(model, x):.4f}")
print("the second branch blows up toward zero, so the rate diverges there;")
print("I(0) =", rate(model, 0.0))

print()
print("== alpha = 1/2: degenerate pair ==")
thin = CovarianceModel(neg, 0.5)
print("degenerate:", detect_degenerate(thin))
print("rate function: I(0) =", rate_degenerate(0.0), "; I(0.3) =", rate_degenerate(0.3))
stats = edge_stats(thin, 200, 25, seed=0)
print(f"sampled top eigenvalues at n=200: mean={stats.mean_lambda_max:.3e}, "
      f"largest deviation from 0 = {np.max(np.abs(stats.values)):.3e}")
print("(rank deficiency forces an exact zero eigenvalue in every replica)")
