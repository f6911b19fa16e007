"""The benchmark's tracer against the library it patches.

perfbench/tracing.py wraps functions of the library by module attribute
name: the names in its SPANNED lists, the ``brentq`` binding of dyson,
wigner and rate, and five SpectralMeasure methods. Deleting or renaming one
of them in the library breaks the benchmark's traced pass, so the tracer is
installed and uninstalled here on the package itself.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import scipy.integrate

import rmtldp
from rmtldp.measures import SpectralMeasure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every binding the tracer replaces, by (owner, attribute)."""
    layers = {layer: importlib.import_module(f"rmtldp.{layer}") for layer in tracing.LAYERS}
    owned = [(layers[layer], name) for layer, names in tracing.SPANNED.items()
             for name in names]
    owned += [(layers[layer], "brentq") for layer in tracing.BRENTQ_LAYERS]
    owned += [(SpectralMeasure, name) for name in tracing.MEASURE_METHODS]
    owned += [(scipy.integrate, "quad"), (np.linalg, "eigvalsh")]
    return {(owner, name): getattr(owner, name) for owner, name in owned}


def test_the_tracer_installs_on_the_package_and_uninstalls():
    """install reads every name it wraps with getattr, and raises
    AttributeError on one the library lacks; a traced call records its
    span; uninstall puts every binding back."""
    tracing = load_tracing()
    before = bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(rmtldp)
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in before.items())
        rmtldp.edge_solve(rmtldp.CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0))
    finally:
        tracer.uninstall()
    assert bindings(tracing) == before
    calls, _, _ = tracer.span_totals()
    assert calls["dyson.edge_solve"] == 1
    assert tracer.counts["dyson.brentq.calls"] == 1


def test_a_kept_edge_is_solved_in_one_traced_span():
    """The model's edge property calls edge_solve through the name the
    tracer rebinds: a fresh model's first read records one dyson.edge_solve
    span, and a second read, which returns the kept edge, records none."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    model = rmtldp.CovarianceModel(SpectralMeasure.point_mass(1.0), 2.0)
    try:
        tracer.install(rmtldp)
        first = model.edge
        spans = tracer.span_totals()[0]["dyson.edge_solve"]
        assert model.edge is first
        again = tracer.span_totals()[0]["dyson.edge_solve"]
    finally:
        tracer.uninstall()
    assert (spans, again) == (1, 1)
