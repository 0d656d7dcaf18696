"""The benchmark's tracer (``perfbench/tracing.py``) still finds every function it wraps.

A renamed or removed target would otherwise only show up as a layer that reads
0 in ``python -m pytest perfbench`` or in a traced benchmark run.
"""

from pathlib import Path

from cascade_lab import integrators

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_layer_and_removes_its_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    driver = integrators.continue_trajectory
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert integrators.continue_trajectory is not driver
    finally:
        tracer.remove()
    assert integrators.continue_trajectory is driver
