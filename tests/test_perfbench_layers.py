"""The benchmark's tracer (``perfbench/tracing.py``) still finds every function it wraps.

A renamed or removed target would otherwise only show up as a layer that reads
0 in ``python -m pytest perfbench`` or in a traced benchmark run.
"""

import importlib
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


def test_every_tracer_target_resolves_to_a_callable(monkeypatch):
    # The tracer skips a missing target, but perfbench's own tests read each one from its owner's dict.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    unresolved = []
    for layer, (targets, _) in tracing.LAYERS.items():
        for module, dotted in targets:
            obj = importlib.import_module(module)
            for part in dotted.split("."):
                obj = vars(obj).get(part) if obj is not None else None
            if not callable(obj):
                unresolved.append(f"{layer}: {module}.{dotted}")
    assert unresolved == []
