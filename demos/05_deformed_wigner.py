"""Deformed Wigner ensembles: the convex function built from the inverse
Stieltjes transform of the deformation, its two branches, the rate function
(reducing to the pure Wigner closed form for a trivial deformation), the
free-convolution density, and edge capping."""

import math

import numpy as np

from rmtldp.measures import SpectralMeasure
from rmtldp.wigner import (
    DeformedWignerModel,
    dw_branches,
    dw_epsilon_cap,
    dw_h,
    dw_rate,
    dw_rate_variational,
    free_convolution_density,
    k_transform,
)

print("== trivial deformation: pure Wigner ==")
pure = DeformedWignerModel(SpectralMeasure.point_mass(0.0))
edge = pure.edge
print(f"y_c={edge.y_c:.10f}  r_edge={edge.r_edge:.10f}  x_c={edge.x_c_dw}")
g, gb = dw_branches(pure, 3.0)
print(f"branches at x=3: {g:.10f}, {gb:.10f}  "
      f"(roots of y + 1/y = 3: {(3 - math.sqrt(5)) / 2:.10f}, {(3 + math.sqrt(5)) / 2:.10f})")


def wigner_closed_form(x):
    s = math.sqrt(x * x - 4.0)
    return 0.5 * (0.5 * x * s - 2.0 * math.log(0.5 * (x + s)))


for x in (2.5, 3.0, 4.0):
    print(f"I({x}) = {dw_rate(pure, x):.10f}   closed form = {wigner_closed_form(x):.10f}")

print()
print("== semicircle deformation ==")
model = DeformedWignerModel(SpectralMeasure.semicircle(0.0, 1.0))
edge = model.edge
print(f"K(1) = {k_transform(model.mu_d, 1.0):.10f} (R-transform y/4 gives 1.25)")
print(f"free sum of semicircles has edge sqrt(5): r_edge = {edge.r_edge:.10f}")
print(f"finite threshold x_c = {edge.x_c_dw:.10f}; beyond it H is affine:")
for y in (1.5, 2.0, 2.5, 3.0):
    print(f"  H({y}) = {dw_h(model, y):.10f}")

print()
print("== variational form agrees with the primal integral ==")
two_atom = DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5]))
for x_off in (0.5, 1.5):
    x = two_atom.edge.r_edge + x_off
    primal = dw_rate(two_atom, x)
    varia = dw_rate_variational(two_atom, x)
    print(f"x={x:.4f}: primal={primal:.6f}  variational={varia:.6f}")

print()
print("== free-convolution density and edge capping ==")
xs = np.linspace(-1.5, 1.5, 7)
print("density of the pure semicircle on a grid:",
      [f"{v:.5f}" for v in free_convolution_density(pure, xs, 1e-4)])
capped = dw_epsilon_cap(model, 0.25)
print("capping the deformation moves tail mass to an atom:",
      f"atom at 1 with weight {capped.mu_d.atom_mass(1.0):.6f}")
print("capped threshold:", capped.edge.x_c_dw)
