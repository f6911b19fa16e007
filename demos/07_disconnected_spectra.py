"""Population spectra whose limits split into several bands.

Two well-separated positive population directions at a small aspect ratio
produce a limit with a large atom at zero plus two separated bands, each
carrying exactly half of the nonzero mass; the same machinery also shows
how two free components merge into one band once they are wide enough to
overlap.
"""

import numpy as np

from rmtldp.dyson import CovarianceModel, sigma_density, sigma_measure
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import sample_spectrum

print("== two bands: population atoms at 1 and 4, alpha = 0.1 ==")
rho = SpectralMeasure.from_atoms([1.0, 4.0], [0.5, 0.5])
model = CovarianceModel(rho, 0.1)
sigma = sigma_measure(model, 2000)
print(f"top edge r(sigma) = {model.edge.r_sigma:.6f}, zero-atom mass = {sigma.atom_mass(0.0)}")
for x in (8.0, 18.0, 40.0):
    print(f"density({x}) = {sigma_density(model, x, 1e-6):.6f}")
print(f"CDF at the gap midpoint 18: {sigma.cdf(18.0):.6f} "
      "(atom 0.9 plus half of the remaining 0.1)")

sample = sample_spectrum(model, 1200, seed=2)
nonzero = sample.eigenvalues[np.abs(sample.eigenvalues) > 1e-8]
below = int(np.sum(nonzero < 18.0))
print(f"one draw at n=1200: {len(nonzero)} nonzero eigenvalues, {below} below 18, "
      f"none inside (15, 21): {not np.any((nonzero > 15) & (nonzero < 21))}")

print()
print("== merged band: mixed-sign atoms at alpha = 4 ==")
wide = CovarianceModel(SpectralMeasure.from_atoms([-6.0, 2.0], [0.5, 0.5]), 4.0)
window = wide.window
print(f"window edges: [{window.left:.2f}, {window.right:.4f}] and the density "
      f"bridges the middle: density(-3) = {sigma_density(wide, -3.0, 1e-6):.6f}")

print()
print("== the top edge can be negative while the population edge is +2 ==")
for k in (3.0, 10.0, 20.0, 40.0):
    m = CovarianceModel(SpectralMeasure.from_atoms([-2.0 * k, 2.0], [0.5, 0.5]), 4.0)
    print(f"spread K={k:5}: r(sigma) = {m.edge.r_sigma:+.6f}")
