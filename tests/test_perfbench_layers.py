"""The benchmark's tracer (``perfbench/tracing.py``) still finds every function it wraps.

A renamed or removed target would otherwise only show up as a layer that reads
0 in ``python -m pytest perfbench`` or in a traced benchmark run.  A target the
program no longer calls reads 0 the same way, so the step's transforms are
checked by their call count.
"""

import importlib
from pathlib import Path

from cascade_lab import experiments, integrators
from cascade_lab.experiments import Observable
from cascade_lab.forcing import NoiseSpec
from cascade_lab.integrators import SimParams, constrained_profile
from cascade_lab.spectral import GridSpec

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


def test_layer_map_sees_the_step_transforms(monkeypatch):
    # The phase rotation's transform pair is counted under spectral.dst, not hidden in its caller.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    grid = GridSpec(1, 16, 8)
    params = SimParams(nu=0.5, dt=0.01, T=0.2, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        experiments.ensemble_run(
            grid, NoiseSpec.band(grid, [1.0, 1.0, 1.0]), params, 2,
            lambda sid: constrained_profile(grid, 0.5), (Observable("sup_inf"),),
        )
    finally:
        tracer.remove()
    calls = tracer.summary()["calls"]
    assert calls["spectral.dst"] >= 2 * calls["integrators.phase_rotation"] > 0
