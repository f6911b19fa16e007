"""Command-line front end: parse model files, dispatch computations, and emit
CSV/JSON artifacts with locale-independent formatting and atomic writes."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .dyson import CovarianceModel, DegenerateModelError, SolverError, sigma_density, sigma_measure
from .measures import MeasureError, SpectralMeasure
from .montecarlo import _sample, write_samples_csv, write_spectra_sidecar
from .rate import approx_sweep, rate, rate_table, rate_variational
from .wigner import DeformedWignerModel

__all__ = ["main", "run", "model_from_json", "model_to_json"]


class UsageError(Exception):
    """Bad input data: malformed model files, wrong model kind, bad flags."""


def _fmt(v) -> str:
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


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
    "covariance" and selects which measure field is read."""
    if not isinstance(obj, dict):
        raise UsageError("model file must contain a JSON object")
    kind = obj.get("kind", "covariance")
    try:
        if kind == "covariance":
            rho = SpectralMeasure.from_json(obj["rho"])
            return CovarianceModel(rho, float(obj["alpha"]), int(obj.get("beta", 1)),
                                   obj.get("entry_law", "gaussian"))
        if kind == "deformed-wigner":
            mu_d = SpectralMeasure.from_json(obj["deformation"])
            return DeformedWignerModel(mu_d, int(obj.get("beta", 1)),
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
    if value is not None:
        return int(value)
    env = os.environ.get("RMTLDP_THREADS")
    return int(env) if env else None


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}") from exc


# -- subcommand handlers ---------------------------------------------------------

# edge fields reported under a shorter key
_REPORT_KEYS = {"x_c_dw": "x_c", "g_edge_mu_d": "g_edge"}


def _cmd_edge(args) -> None:
    edge = _load_model(args).edge()
    report = {_REPORT_KEYS.get(k, k): v for k, v in dataclasses.asdict(edge).items()}
    _emit(json.dumps(_json_ready(report), indent=2) + "\n", args.out)


def _cmd_rate(args) -> None:
    model = _load_model(args)
    edge = model.edge()
    if edge.degenerate:
        raise DegenerateModelError(
            "model is degenerate; `edge` reports degenerate=true and the rate "
            "function is 0 at x=0 and infinite elsewhere"
        )
    table = rate_table(model, args.xmax, args.points, edge)
    buf = io.StringIO()
    table.write_csv(buf)
    _emit(buf.getvalue(), args.out)


def _cmd_density(args) -> None:
    model = _load_model(args)
    edge = model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model has no continuous density")
    window = model.window(edge)
    margin = 0.05 * (window.right - window.left)
    xmin = args.xmin if args.xmin is not None else window.left - margin
    xmax = args.xmax if args.xmax is not None else window.right + margin
    xs = np.linspace(xmin, xmax, args.points)
    dens = sigma_density(model, xs, args.eta)
    lines = ["x,density"] + [f"{_fmt(x)},{_fmt(d)}" for x, d in zip(xs, dens)]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_variational(args) -> None:
    model = _load_model(args)
    edge = model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: the variational form does not apply")
    sigma = sigma_measure(model, 2000, edge)
    lines = ["x,rate_primal,rate_variational,abs_diff"]
    for x in _float_list(args.x):
        primal = rate(model, x, edge)
        varia = rate_variational(model, x, edge, sigma)
        lines.append(f"{_fmt(x)},{_fmt(primal)},{_fmt(varia)},{_fmt(abs(primal - varia))}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_approx(args) -> None:
    model = _load_model(args, ("covariance",))
    edge = model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model has no approximation sweep")
    eps_list = _float_list(args.eps)
    xmin = args.xmin if args.xmin is not None else edge.r_sigma + 0.5
    xs = np.linspace(xmin, args.xmax, args.points)
    sweep = approx_sweep(model, eps_list, xs, edge)
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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("density", aliases=["wigner-density"],
                       help="limiting spectral density on a grid")
    common(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--eta", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("variational", help="compare primal and variational rates")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated evaluation points")
    p.set_defaults(fn=_cmd_variational)

    p = sub.add_parser("approx", help="right-edge truncation sweep")
    common(p)
    p.add_argument("--eps", required=True, help="comma-separated, conventionally descending")
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("mc", help="Monte Carlo spectra of the finite-size ensemble")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="worker bound (RMTLDP_THREADS as fallback); results unaffected")
    p.add_argument("--spectra", default=None, help="optional binary sidecar of full spectra")
    p.set_defaults(fn=_cmd_mc)

    return parser


def run(argv=None) -> int:
    """Entry point returning an exit code: 0 success, 1 numeric failure,
    2 usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "threads"):
        args.threads = _resolve_threads(args.threads)
    try:
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
