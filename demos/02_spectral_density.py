"""Recover the limiting spectral density by continuing the master equation
into the complex plane, and compare with the closed-form density of the
square Wishart ensemble."""

import math

import numpy as np

from rmtldp.dyson import CovarianceModel, sigma_density, sigma_measure
from rmtldp.measures import SpectralMeasure

model = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0)


def mp1_density(x):
    return math.sqrt(max((4.0 - x) * x, 0.0)) / (2.0 * math.pi * x)


print("== pointwise density vs the closed form (eta = 1e-4) ==")
xs = np.linspace(0.2, 3.8, 10)
vals = sigma_density(model, xs, 1e-4)
for x, v in zip(xs, vals):
    print(f"x={x:6.3f}: recovered={v:.7f}  closed form={mp1_density(x):.7f}")

print()
print("== discretized limiting measure ==")
sigma = sigma_measure(model, 1500)
print("support window:", model.window)
print("raw mass defect of the grid:", sigma.raw_mass_defect)
for x in (0.5, 1.0, 2.0, 3.0):
    print(f"CDF({x}) = {sigma.cdf(x):.6f}")

print()
print("== a model with mass trapped at zero (alpha < 1) ==")
thin = CovarianceModel(SpectralMeasure.point_mass(1.0), 0.5)
sigma_thin = sigma_measure(thin, 800)
print("zero-atom mass carried by the limit:", sigma_thin.atom_mass(0.0))
print("edges of the continuous window:", sigma_thin.edges())
