"""Deformed Wigner ensembles: the convex function H(y) = y + K(y) built from
the inverse K of the deformation's Stieltjes transform, read on its level
curve, its two branches, the rate function (reducing to the pure Wigner
closed form for a trivial deformation), the free-convolution density, and
edge capping."""

import math

import numpy as np

from rmtldp.measures import SpectralMeasure
from rmtldp.wigner import (
    DeformedWignerModel,
    dw_branches,
    dw_epsilon_cap,
    dw_rate,
    dw_rate_variational,
    free_convolution_density,
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
mu, curve = model.mu_d, model.curve()
print("K and H at points of the level curve: y = G(lam), K(y) = lam, H(y) = lam + G(lam);")
print("the semicircle's R-transform K(y) - 1/y is y/4:")
for lam in (1.05, 1.25, 2.0, 4.0):
    y, h = mu.stieltjes(lam), curve(lam)[0]
    assert abs((lam - 1.0 / y) - y / 4.0) <= 1e-12, (lam, y)
    print(f"  lam = {lam}: y = {y:.10f}  H(y) = {h:.10f}  "
          f"lam - 1/y = {lam - 1.0 / y:.10f}  y/4 = {y / 4.0:.10f}")
print(f"free sum of semicircles has edge sqrt(5): r_edge = {edge.r_edge:.10f}")
print(f"finite threshold x_c = {edge.x_c_dw:.10f}; past it H is affine, and the second "
      f"branch is Gbar = x - r(mu_d):")
for x in (3.0, 3.5, 4.0, 5.0):
    print(f"  Gbar({x}) = {dw_branches(model, x)[1]:.10f}   x - r(mu_d) = {x - mu.right_edge:.10f}")

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
