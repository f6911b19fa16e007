"""The in-house brentq against scipy.optimize.brentq, kept here as the oracle.

On the function its one call site solves (x'(lam), the slope of either
model kind's level curve, in the edge solve; the branches are solved by
Newton's method, see tests/test_branch_solver.py), over the benchmark's
model files, both root finders must return the same root bit for bit after
the same sequence of evaluations. The end points that are roots, an
exhausted step budget, a bracket without a sign change and a NaN value are
checked on their own, and so is the exit code of the command line when a
root finder fails.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from scipy import optimize

from rmtldp import dyson, wigner
from rmtldp.cli import model_from_json, run
from rmtldp.dyson import _BRENTQ_KW, SolverError, brentq

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def recorded(f):
    """f and the list of the points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def test_every_call_site_matches_scipy_bit_for_bit(monkeypatch):
    """Each brentq call of dyson and wigner is run by both root finders; the
    in-house root is the one the library goes on with. Both model kinds
    solve their edges in dyson; wigner keeps its binding of brentq for
    the benchmark's tracer, and calls it nowhere."""
    seen = []

    def both(f, a, b, **kw):
        ours_f, ours_points = recorded(f)
        ref_f, ref_points = recorded(f)
        ours = brentq(ours_f, a, b, **kw)
        ref = optimize.brentq(ref_f, a, b, **kw)
        seen.append((sys._getframe(1).f_code.co_name, model_name, ours, ref,
                     ours_points, ref_points))
        return ours

    monkeypatch.setattr(dyson, "brentq", both)
    monkeypatch.setattr(wigner, "brentq", both)
    for path in sorted(MODELS.glob("*.json")):
        model_name = path.stem
        model = model_from_json(json.loads(path.read_text()))
        edge = model.edge
        if edge.degenerate:
            continue
        model.window  # the window's edge solves
        r = edge.r_sigma
        span = min(3.0, edge.x_end - r)
        for frac in (1e-9, 1e-3, 0.1, 0.5, 0.9):
            model.branches(r + frac * span)

    callers = {caller for caller, *_ in seen}
    assert callers == {"_level_edge"}
    for caller, name, ours, ref, ours_points, ref_points in seen:
        assert ours == ref, (caller, name)
        assert ours_points == ref_points, (caller, name)


KW = dict(_BRENTQ_KW, xtol=1e-14)


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
def test_an_end_point_that_is_a_root_is_returned(a, b):
    f = lambda x: x - 1.0
    ours_f, ours_points = recorded(f)
    ref_f, ref_points = recorded(f)
    assert brentq(ours_f, a, b, **KW) == optimize.brentq(ref_f, a, b, **KW) == 1.0
    assert ours_points == ref_points == [a, b]


def test_exhausted_steps_raise_solver_error_with_the_last_iterate():
    f = lambda x: math.tanh(x - 0.3) + 0.1 * x
    kw = dict(KW, maxiter=3)
    last, info = optimize.brentq(f, -5.0, 5.0, full_output=True, disp=False, **kw)
    assert not info.converged
    with pytest.raises(SolverError) as caught:
        brentq(f, -5.0, 5.0, **kw)
    message = str(caught.value)
    assert "[-5.0, 5.0]" in message
    assert f"last iterate {last!r}" in message
    assert isinstance(caught.value, RuntimeError)


def test_a_bracket_without_a_sign_change_raises_solver_error():
    f = lambda x: x * x + 1.0
    with pytest.raises(ValueError):
        optimize.brentq(f, 1.0, 2.0, **KW)
    with pytest.raises(SolverError, match=r"f\(1\.0\) = 2\.0 and f\(2\.0\) = 5\.0 have the same sign"):
        brentq(f, 1.0, 2.0, **KW)


def test_a_nan_value_raises_solver_error():
    f = lambda x: math.nan if x > 0.5 else x - 0.75
    with pytest.raises(SolverError, match=r"f\(1\.0\) is NaN in the bracket \[0\.0, 1\.0\]"):
        brentq(f, 0.0, 1.0, **KW)


def test_the_command_line_reports_a_failed_solve_with_exit_code_1(tmp_path, monkeypatch, capsys):
    """An edge solve that runs out of steps is a SolverError, which the
    command line reports as an error message and exit code 1."""
    path = tmp_path / "wishart1.json"
    path.write_text(json.dumps({
        "kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
        "rho": {"atoms": [[1.0, 1.0]], "density": None},
    }))
    monkeypatch.setitem(dyson._BRENTQ_KW, "maxiter", 1)
    assert run(["rate", "--model", str(path), "--xmax", "8", "--points", "5",
                "--out", str(tmp_path / "rate.csv")]) == 1
    assert "no convergence in 1 steps" in capsys.readouterr().err
