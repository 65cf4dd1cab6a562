"""Every name the repo benchmark's tracer wraps is still where it looks.

``perfbench/pb_layers.py`` attaches its per-layer spans by patching
solver and serving functions named by string, and ``Tracer.patch``
reads ``owner.__dict__[attr]``. A method moved out of its own class
body, or a function moved out of its module, would otherwise fail only
under ``python3 perfbench/run.py --trace 1``, with a ``KeyError``.

A caller that binds a wrapped function before the patch (a default
argument, a ``functools.partial`` built at import) fails silently
instead: its layer counts nothing.  So one traced ``packing:4`` solve
must still count every pass, one traced oracle descent must still count
its encoder build and its narrowing, and one traced portfolio solve must
still count its Eq. 3 bound.
"""

from importlib import import_module
from pathlib import Path

from repro.core.paper_matrices import figure_1b, figure_3
from repro.sat.solver import SolveStatus
from repro.smt.oracle import RankDecisionOracle
from repro.solvers.registry import make_heuristic

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pb_layers
    import pb_trace

    return pb_layers, pb_trace


def test_every_traced_layer_installs_and_restores(monkeypatch):
    pb_layers, pb_trace = _perfbench(monkeypatch)

    tracer = pb_trace.Tracer()
    try:
        pb_layers.install_solver_layers(tracer)
        pb_layers.install_serving_layers(tracer)
        patched = list(tracer._undo)
    finally:
        tracer.restore()
    assert patched
    for target, attr, original in patched:
        assert vars(target)[attr] is original


def test_traced_packing_counts_every_pass(monkeypatch):
    pb_layers, pb_trace = _perfbench(monkeypatch)
    heuristic = make_heuristic("packing:4")
    tracer = pb_trace.Tracer()
    try:
        pb_layers.install_solver_layers(tracer)
        heuristic(figure_3(), 0)
    finally:
        tracer.restore()
    # Four shuffled trials on the matrix and four on its transpose.
    assert tracer.counters["packing.passes"] == 8
    assert [span[3] for span in tracer.spans].count("packing") == 1


def test_traced_oracle_counts_the_build_and_the_narrowing(monkeypatch):
    pb_layers, pb_trace = _perfbench(monkeypatch)
    tracer = pb_trace.Tracer()
    try:
        pb_layers.install_solver_layers(tracer)
        oracle = RankDecisionOracle(figure_1b())
        assert oracle.check_at_most(6)[0] is SolveStatus.SAT
        assert oracle.check_at_most(4)[0] is SolveStatus.UNSAT
    finally:
        tracer.restore()
    names = [span[3] for span in tracer.spans]
    # make_encoder at bound 6, then DirectEncoder.narrow_to(4).
    assert names.count("encode") == 2
    assert names.count("oracle") == 2
    assert tracer.counters["encode.vars"] > 0


def test_traced_portfolio_counts_one_bound_per_solve(monkeypatch):
    pb_layers, pb_trace = _perfbench(monkeypatch)
    # Called through its module: the tracer rebinds names in repro
    # modules only, not in this one.
    portfolio = import_module("repro.service.portfolio")
    tracer = pb_trace.Tracer()
    try:
        pb_layers.install_solver_layers(tracer)
        portfolio.solve_portfolio(figure_3(), members=("trivial", "packing:4"))
    finally:
        tracer.restore()
    names = [span[3] for span in tracer.spans]
    assert names.count("portfolio") == 1
    assert names.count("bounds") == 1
