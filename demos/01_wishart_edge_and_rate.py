"""Edge location and rate function for the classical Wishart ensemble.

The model is H = (1/M) Z^T Z with M/N -> alpha, i.e. the population spectrum
is the point mass at 1. The top-eigenvalue edge is (1 + 1/sqrt(alpha))^2 and
the rate function has a closed form at alpha = 1, so everything printed here
can be checked by hand.
"""

import math

import numpy as np

from rmtldp.dyson import CovarianceModel, g_bar_sigma, g_sigma
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import rate, rate_table

print("== edges across aspect ratios ==")
for alpha in (0.5, 1.0, 2.0):
    edge = CovarianceModel(SpectralMeasure.point_mass(1.0), alpha).edge
    oracle = (1.0 + 1.0 / math.sqrt(alpha)) ** 2
    print(f"alpha={alpha}: r(sigma)={edge.r_sigma:.12f}  closed form={oracle:.12f}  "
          f"theta_c={edge.theta_c:.12f}")

print()
print("== both branches of the Stieltjes transform at alpha = 1 ==")
model = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0)
for x in (4.0, 5.0, 8.0):
    g = g_sigma(model, x)
    gb = g_bar_sigma(model, x)
    print(f"x={x}: G={g:.10f}  Gbar={gb:.10f}  (quadratic roots: "
          f"{(x - math.sqrt(x * x - 4 * x)) / (2 * x):.10f}, "
          f"{(x + math.sqrt(x * x - 4 * x)) / (2 * x):.10f})")

print()
print("== rate function vs its closed form ==")


def closed_form(x):
    t = math.sqrt(1.0 - 4.0 / x)
    return 2.0 * t / (1.0 - t * t) - 2.0 * math.atanh(t)


for x in (4.5, 5.0, 6.0, 10.0):
    print(f"I({x}) = {rate(model, x):.10f}   closed form = {closed_form(x):.10f}")

complex_model = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "complex_gaussian")
print(f"complex symmetry class doubles the rate: "
      f"{rate(complex_model, 5.0):.10f} = 2 x {rate(model, 5.0):.10f}")

print()
print("== tabulated rate (first rows) ==")
table = rate_table(model, 6.0, 9)
print("x, G, Gbar, I")
for row in zip(table.x_grid, table.g_values, table.gbar_values, table.i_values):
    print(", ".join(f"{v:.8f}" for v in row))
print("convexity check: min second difference =",
      float(np.min(np.diff(table.i_values, 2))))
