"""Every name the repo benchmark's tracer wraps is still where it looks.

``perfbench/pb_layers.py`` attaches its per-layer spans by patching
solver and serving functions named by string, and ``Tracer.patch``
reads ``owner.__dict__[attr]``. A method moved out of its own class
body, or a function moved out of its module, would otherwise fail only
under ``python3 perfbench/run.py --trace 1``, with a ``KeyError``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_every_traced_layer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pb_layers
    import pb_trace

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
