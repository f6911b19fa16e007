"""Command-line front end: parse model files, dispatch computations, and emit
CSV/JSON artifacts with locale-independent formatting and atomic writes."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .dyson import CovarianceModel, DegenerateModelError, SolverError, sigma_density
from .measures import MeasureError, SpectralMeasure
from .montecarlo import _sample, write_samples_csv, write_spectra_sidecar
from .rate import _rates_both_ways, approx_sweep, csv_text, rate_table
from .wigner import DeformedWignerModel

__all__ = ["main", "run", "model_from_json", "model_to_json"]


class UsageError(Exception):
    """Bad input data: malformed model files, wrong model kind, bad flags."""


def _json_ready(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if isinstance(v, (np.floating, np.integer)):
        return _json_ready(float(v))
    if isinstance(v, dict):
        return {k: _json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_ready(x) for x in v]
    return v


def model_from_json(obj: dict):
    """Build a model from its JSON object; the kind tag defaults to
    "covariance" and selects which measure field is read. The fields go to
    the constructors as read, and each refuses what breaks its rules."""
    if not isinstance(obj, dict):
        raise UsageError("model file must contain a JSON object")
    kind = obj.get("kind", "covariance")
    try:
        if kind == "covariance":
            rho = SpectralMeasure.from_json(obj["rho"])
            return CovarianceModel(rho, obj["alpha"], obj.get("beta", 1),
                                   obj.get("entry_law", "gaussian"))
        if kind == "deformed-wigner":
            mu_d = SpectralMeasure.from_json(obj["deformation"])
            return DeformedWignerModel(mu_d, obj.get("beta", 1),
                                       obj.get("entry_law", "gaussian"))
    except (KeyError, TypeError, MeasureError, ValueError) as exc:
        raise UsageError(f"invalid model data: {exc}") from exc
    raise UsageError(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, CovarianceModel):
        return {"kind": "covariance", "alpha": model.alpha, "beta": model.beta,
                "entry_law": model.entry_law, "rho": model.rho.to_json()}
    if isinstance(model, DeformedWignerModel):
        return {"kind": "deformed-wigner", "beta": model.beta,
                "entry_law": model.entry_law, "deformation": model.mu_d.to_json()}
    raise TypeError(f"unsupported model type {type(model)!r}")


def _load_model(args, kinds=("covariance", "deformed-wigner")):
    """The model of ``--model``, refused unless its kind is one of ``kinds``;
    the wigner-* command names accept deformed-Wigner models only."""
    if args.command.startswith("wigner-"):
        kinds = ("deformed-wigner",)
    path = args.model
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from exc
    kind = obj.get("kind", "covariance") if isinstance(obj, dict) else None
    if kind not in kinds:
        raise UsageError(f"{args.command} needs a {' or '.join(map(repr, kinds))} model, "
                         f"file has kind {kind!r}")
    return model_from_json(obj)


def _emit(text_or_bytes, out_path: str | None) -> None:
    """Write output atomically (temp file then rename), or to stdout."""
    binary = isinstance(text_or_bytes, bytes)
    if out_path is None or out_path == "-":
        if binary:
            sys.stdout.buffer.write(text_or_bytes)
        else:
            sys.stdout.write(text_or_bytes)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            fh.write(text_or_bytes)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_threads(value) -> int | None:
    """The --threads bound, else RMTLDP_THREADS where set, held to the
    flag's rule: an integer of at least 1, else a usage error."""
    env = os.environ.get("RMTLDP_THREADS")
    if value is not None or not env:
        return value
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"RMTLDP_THREADS: {exc}") from exc


def _float_list(text: str) -> list[float]:
    """An argparse type: a comma-separated list of at least one number."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type: a finite number above 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


# -- subcommand handlers ---------------------------------------------------------

# edge fields reported under a shorter key
_REPORT_KEYS = {"x_c_dw": "x_c", "g_edge_mu_d": "g_edge"}


def _cmd_edge(args) -> None:
    edge = _load_model(args).edge
    report = {_REPORT_KEYS.get(k, k): v for k, v in dataclasses.asdict(edge).items()}
    _emit(json.dumps(_json_ready(report), indent=2) + "\n", args.out)


def _cmd_rate(args) -> None:
    model = _load_model(args)
    if model.edge.degenerate:
        raise DegenerateModelError(
            "model is degenerate; `edge` reports degenerate=true and the rate "
            "function is 0 at x=0 and infinite elsewhere"
        )
    table = rate_table(model, args.xmax, args.points)
    buf = io.StringIO()
    table.write_csv(buf)
    _emit(buf.getvalue(), args.out)


def _cmd_density(args) -> None:
    model = _load_model(args)
    if model.degenerate:
        raise DegenerateModelError("degenerate model has no continuous density")
    xmin, xmax = args.xmin, args.xmax
    if xmin is None or xmax is None:
        window = model.window
        margin = 0.05 * (window.right - window.left)
        xmin = window.left - margin if xmin is None else xmin
        xmax = window.right + margin if xmax is None else xmax
    xs = np.linspace(xmin, xmax, args.points)
    _emit(csv_text("x,density", (xs, sigma_density(model, xs, args.eta))), args.out)


def _cmd_variational(args) -> None:
    model = _load_model(args)
    if model.edge.degenerate:
        raise DegenerateModelError("degenerate model: the variational form does not apply")
    xs = np.array(args.x)
    # both columns from one solve of both branches at all points, and one
    # evaluation of the variational objective on all their theta
    primal, varia = _rates_both_ways(model, xs, model.sigma)
    _emit(csv_text("x,rate_primal,rate_variational,abs_diff",
                   (xs, primal, varia, np.abs(primal - varia))), args.out)


def _cmd_approx(args) -> None:
    model = _load_model(args, ("covariance",))
    if model.edge.degenerate:
        raise DegenerateModelError("degenerate model has no approximation sweep")
    xmin = args.xmin if args.xmin is not None else model.edge.r_sigma + 0.5
    xs = np.linspace(xmin, args.xmax, args.points)
    sweep = approx_sweep(model, args.eps, xs)
    buf = io.StringIO()
    sweep.write_csv(buf)
    _emit(buf.getvalue(), args.out)


def _cmd_mc(args) -> None:
    model = _load_model(args)
    samples = _sample(model, args.n, args.seed, range(args.replicas), args.threads)
    buf = io.StringIO()
    write_samples_csv(samples, buf)
    _emit(buf.getvalue(), args.out)
    if args.spectra:
        raw = io.BytesIO()
        write_spectra_sidecar(samples, raw)
        _emit(raw.getvalue(), args.spectra)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing only reads it, and each handler looks up the library's
    functions when it runs."""
    parser = argparse.ArgumentParser(
        prog="rmtldp",
        description="Rate functions and spectra for generalized sample covariance "
                    "and deformed Wigner ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    # the wigner-* aliases run the same handlers on deformed-Wigner models only
    p = sub.add_parser("edge", aliases=["wigner-edge"],
                       help="solve the spectral edge quantities")
    common(p)
    p.set_defaults(fn=_cmd_edge)

    p = sub.add_parser("rate", aliases=["wigner-rate"], help="tabulate the rate function")
    common(p)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=_positive_int, default=200)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("density", aliases=["wigner-density"],
                       help="limiting spectral density on a grid")
    common(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--points", type=_positive_int, default=400)
    p.add_argument("--eta", type=_positive_float, default=1e-4)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("variational", help="compare primal and variational rates",
                       description="Primal and variational rates at each x. The variational "
                                   "form reads sigma as a 64-node Chebyshev rule on each "
                                   "band of its support, built once per command; where the "
                                   "rule's mass defect exceeds 1e-12, as 2000 nodes on the "
                                   "bands, and where an edge of sigma cannot be classified "
                                   "(a cusp), as 2000 nodes on its support window.")
    common(p)
    p.add_argument("--x", type=_float_list, required=True,
                   help="comma-separated evaluation points")
    p.set_defaults(fn=_cmd_variational)

    p = sub.add_parser("approx", help="right-edge truncation sweep")
    common(p)
    p.add_argument("--eps", type=_float_list, required=True,
                   help="comma-separated, conventionally descending")
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=_positive_int, default=40)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("mc", help="Monte Carlo spectra of the finite-size ensemble")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker bound (RMTLDP_THREADS as fallback); results unaffected")
    p.add_argument("--spectra", default=None, help="optional binary sidecar of full spectra")
    p.set_defaults(fn=_cmd_mc)

    return parser


def run(argv=None) -> int:
    """Entry point returning an exit code: 0 success, 1 numeric failure,
    2 usage error.

    This is also the in-process entry point, ``run(["rate", "--model", ...])``
    as on the command line. The argument parser is built on the first call
    and reused by every later call in the process.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "threads"):
            args.threads = _resolve_threads(args.threads)
        args.fn(args)
    except UsageError as exc:
        print(f"rmtldp: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DegenerateModelError, MeasureError, ValueError) as exc:
        print(f"rmtldp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
