"""Host speed probe: a fixed kernel timed between the jobs of a run.

On a shared machine the speed of a core drifts as other tenants come and go:
on the 2-core reference machine the same deterministic job took up to 1.6
times as long from one half-minute to the next, in process CPU time as much
as in wall time, so no statistic taken over one run's passes removes it. The
probe measures that drift. It runs a fixed mix of the kinds of work the
library spends its time in: interpreted Python, ``scipy.integrate.quad`` on a
Python integrand, numpy updates of a complex grid and a small symmetric
eigensolve. None of it calls the library, so its time depends on the machine
alone and is the same on every commit.

``Probe.factor()`` is the mean probe time of the run divided by a typical
probe time on the reference machine. A run divides every end-to-end time by
that factor: those times are seconds at the reference machine's speed.
"""

from __future__ import annotations

import time

import numpy as np

# bound at import, before any tracer patches the module attributes, so the
# traced run's counts and spans never include the probe's calls
from numpy.linalg import eigvalsh
from scipy.integrate import quad

# a typical probe time on the reference machine (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1, one BLAS thread); it only sets the scale of reported times
REFERENCE_S = 0.006


def _integrand(x: float) -> float:
    return x * x / (1.0 + x * x)


class Probe:
    """Times the fixed kernel and keeps every sample of one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 120))
        self._matrix = a + a.T
        self._grid = np.linspace(-3.0, 3.0, 4000) + 0.01j
        self.samples: list[float] = []

    def _kernel(self) -> None:
        table: dict[int, float] = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        quad(_integrand, 0.0, 3.0, limit=200, epsabs=1e-13)
        w = self._grid.copy()
        for _ in range(20):
            w = w - (w * w - 1.0) / (2.0 * w + 0.1j)
        eigvalsh(self._matrix)

    def probe(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How many times slower than at rest the machine ran over the run."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
