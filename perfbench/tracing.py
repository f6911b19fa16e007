"""Runtime tracing of the library's layers, installed from benchmark code only.

The tracer wraps public functions of each layer module at runtime and undoes
the wrapping afterwards; the library's source is never touched. A function
imported by name into another module is a separate binding, so every module
binding of the wrapped object is rebound, or calls through the other module
would go unseen. ``SpectralMeasure`` methods are patched on the class.

Spans are kept in memory as (id, name, start, end, parent, job) and written
out when the benchmark ends. A span opened on a worker thread with no open
span of its own takes the innermost open span of the main thread as parent,
so threaded Monte Carlo work nests under the call that started it. A span's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy
import scipy.integrate

LAYERS = ("measures", "dyson", "rate", "wigner", "montecarlo", "cli")

# public functions timed as spans, by layer module
SPANNED = {
    "dyson": ("edge_solve", "g_sigma", "g_bar_sigma", "support_window",
              "sigma_density", "sigma_measure"),
    "rate": ("rate", "rate_table", "approx_sweep", "epsilon_truncate",
             "rate_variational", "j_fn", "f_fn", "_inverse_stieltjes"),
    "wigner": ("dw_edge", "dw_branches", "dw_rate", "free_convolution_density",
               "free_convolution_measure", "dw_rate_variational"),
    "montecarlo": ("build_gamma", "sample_spectrum", "edge_stats", "distance_stats"),
    "cli": ("run",),
}
MEASURE_METHODS = ("stieltjes", "stieltjes_prime", "log_moment", "cdf", "quantile")
BRENTQ_LAYERS = ("dyson", "wigner", "rate")


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job))

    def spanned(self, name: str, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self, rmtldp) -> None:
        """Patch every traced binding of the imported ``rmtldp`` package."""
        # the package re-exports rate() under the name of its rate module, so
        # layer modules are looked up by their full names
        layer_modules = {layer: importlib.import_module(f"{rmtldp.__name__}.{layer}")
                         for layer in LAYERS}
        modules = [rmtldp] + list(layer_modules.values())
        montecarlo = layer_modules["montecarlo"]
        hooks = {
            "montecarlo.sample_spectrum": self._replica_hook(montecarlo.sample_spectrum),
            "montecarlo.edge_stats": self._replica_hook(montecarlo.edge_stats),
        }
        for layer, names in SPANNED.items():
            module = layer_modules[layer]
            for name in names:
                original = getattr(module, name)
                span = f"{layer}.{name.lstrip('_')}"
                wrapped = self.spanned(span, original, hooks.get(span))
                self._rebind_everywhere(modules, original, wrapped)

        measure_cls = layer_modules["measures"].SpectralMeasure
        for name in MEASURE_METHODS:
            before = self._count_complex if name == "stieltjes" else None
            self._set(measure_cls, name,
                      self.spanned(f"measures.{name}", getattr(measure_cls, name), before))

        for layer in BRENTQ_LAYERS:
            module = layer_modules[layer]
            self._set(module, "brentq", self._counting_root_finder(layer, module.brentq))
        self._set(scipy.integrate, "quad", self._counting_quad(scipy.integrate.quad))
        self._set(numpy.linalg, "eigvalsh",
                  self.spanned("montecarlo.eigvalsh", numpy.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters fed by hooks ------------------------------------------------------

    def _count_complex(self, args, kwargs) -> None:
        z = args[1] if len(args) > 1 else kwargs["z"]
        if numpy.iscomplexobj(z):
            self.count("measures.stieltjes.complex_calls")

    def _count_replicas(self, model, n: int, replicas: int) -> None:
        # computed, not measured: the Z^T D Z product (covariance models only)
        # plus a dense symmetric eigensolve per replica
        flops = 4.0 * n**3 / 3.0
        if hasattr(model, "alpha"):
            flops += 2.0 * round(model.alpha * n) * n * n
        self.count("montecarlo.replicas", replicas)
        self.count("montecarlo.kernel_gflop_computed", replicas * flops / 1e9)

    def _replica_hook(self, fn):
        """Counter hook for a sampling function taking (model, n[, replicas])."""
        signature = inspect.signature(fn)

        def hook(args, kwargs):
            a = signature.bind(*args, **kwargs).arguments
            self._count_replicas(a["model"], a["n"], a.get("replicas", 1))

        return hook

    def _counting_root_finder(self, layer: str, brentq):
        tracer = self

        @functools.wraps(brentq)
        def counted_brentq(f, a, b, *args, **kwargs):
            def f_counted(x, *fargs):
                tracer.count(f"{layer}.brentq.evals")
                return f(x, *fargs)

            tracer.count(f"{layer}.brentq.calls")
            return brentq(f_counted, a, b, *args, **kwargs)

        return counted_brentq

    def _counting_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def counted_quad(func, a, b, *args, **kwargs):
            def func_counted(x, *fargs):
                tracer.count("rate.quad.evals")
                return func(x, *fargs)

            tracer.count("rate.quad.calls")
            return quad(func_counted, a, b, *args, **kwargs)

        return counted_quad

    # -- results -------------------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of spans, total duration and self time."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        calls, total, own = Counter(), Counter(), Counter()
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        return calls, total, own

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, start, end, parent, job in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{job}\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(tracer: Tracer, rate_points: int, cli_bytes: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by the names in
    BENCHMARK.json."""
    calls, total, own = tracer.span_totals()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": own["cli.run"],
        "cli.bytes_out": cli_bytes,
        "measures.stieltjes.calls": calls["measures.stieltjes"],
        "measures.stieltjes.complex_calls": c["measures.stieltjes.complex_calls"],
        "measures.stieltjes.self_s": own["measures.stieltjes"],
        "measures.stieltjes_prime.calls": calls["measures.stieltjes_prime"],
        "measures.log_moment.calls": calls["measures.log_moment"],
        "measures.cdf.calls": calls["measures.cdf"],
        "measures.cdf.self_s": own["measures.cdf"],
        "measures.quantile.calls": calls["measures.quantile"],
        "measures.quantile.self_s": own["measures.quantile"],
        "dyson.edge_solve.calls": calls["dyson.edge_solve"],
        "dyson.edge_solve.self_s": own["dyson.edge_solve"],
        "dyson.g_sigma.calls": calls["dyson.g_sigma"],
        "dyson.g_bar_sigma.calls": calls["dyson.g_bar_sigma"],
        "dyson.branches.self_s": own["dyson.g_sigma"] + own["dyson.g_bar_sigma"],
        "dyson.brentq.evals_per_call": ratio(c["dyson.brentq.evals"], c["dyson.brentq.calls"]),
        "dyson.support_window.self_s": own["dyson.support_window"],
        "dyson.sigma_measure.self_s": own["dyson.sigma_measure"],
        "dyson.sigma_density.self_s": own["dyson.sigma_density"],
        "rate.rate.calls": calls["rate.rate"],
        "rate.rate_table.self_s": own["rate.rate_table"],
        "rate.approx_sweep.self_s": own["rate.approx_sweep"],
        "rate.epsilon_truncate.self_s": own["rate.epsilon_truncate"],
        "rate.quad.calls": c["rate.quad.calls"],
        "rate.quad.evals": c["rate.quad.evals"],
        "rate.quad.evals_per_point": ratio(c["rate.quad.evals"], rate_points),
        "rate.rate_variational.self_s": own["rate.rate_variational"],
        "rate.j_fn.calls": calls["rate.j_fn"],
        "rate.j_fn.self_s": own["rate.j_fn"],
        "rate.f_fn.calls": calls["rate.f_fn"],
        "wigner.dw_edge.calls": calls["wigner.dw_edge"],
        "wigner.dw_branches.calls": calls["wigner.dw_branches"],
        "wigner.dw_branches.self_s": own["wigner.dw_branches"],
        "wigner.brentq.evals_per_call": ratio(c["wigner.brentq.evals"], c["wigner.brentq.calls"]),
        "wigner.dw_rate.self_s": own["wigner.dw_rate"],
        "wigner.free_convolution_measure.self_s": own["wigner.free_convolution_measure"],
        "wigner.free_convolution_density.self_s": own["wigner.free_convolution_density"],
        "wigner.dw_rate_variational.self_s": own["wigner.dw_rate_variational"],
        "montecarlo.replicas": c["montecarlo.replicas"],
        "montecarlo.build_gamma.calls": calls["montecarlo.build_gamma"],
        "montecarlo.build_gamma.self_s": own["montecarlo.build_gamma"],
        "montecarlo.build_gamma.per_replica": ratio(calls["montecarlo.build_gamma"],
                                                    c["montecarlo.replicas"]),
        "montecarlo.eigvalsh.calls": calls["montecarlo.eigvalsh"],
        "montecarlo.eigvalsh.s": total["montecarlo.eigvalsh"],
        # sampling self time: draws and the matrix product, with build_gamma
        # and eigvalsh excluded as child spans
        "montecarlo.matrix_build.s": own["montecarlo.sample_spectrum"]
        + own["montecarlo.edge_stats"],
        "montecarlo.kernel_gflop_computed": c["montecarlo.kernel_gflop_computed"],
        "montecarlo.distance_stats.self_s": own["montecarlo.distance_stats"],
        "trace.overhead_s": overhead_s,
    }
