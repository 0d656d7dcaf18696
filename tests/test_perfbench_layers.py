"""The benchmark's tracer (``perfbench/tracing.py``) still finds every function it wraps.

A renamed or removed target would otherwise only show up as a layer that reads
0 in ``python -m pytest perfbench`` or in a traced benchmark run.  A target the
program no longer calls reads 0 the same way, so the step's transforms, and
the recorder's one C^m pass per record step, are checked by their call counts.
"""

import importlib
from pathlib import Path

from cascade_lab import experiments, integrators
from cascade_lab.experiments import Observable, SweepPlan
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


def test_a_sweep_batch_takes_one_recorder_pass_per_record_step(monkeypatch):
    # Three entries of a fixed-dt sweep step as one batch and leave at steps 5, 10 and 20; at every
    # step where any of them records, one C^m pass covers the rows of every entry due there.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    plan = SweepPlan(
        GridSpec(2, 8, 4), "band:1,1,1", (0.8, 0.4, 0.2), M=2, base_seed=5, dt=0.05,
        t_slow_total=0.2, window_t0_slow=0.0, record_every=2, observables=(Observable("sup_cm", 2.0),),
    )
    horizons = [plan.params_for(nu).n_steps for nu in plan.nu_grid]
    assert horizons == [5, 10, 20]
    record_steps = {k for n in horizons for k in (0, n, *range(2, n, 2))}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        plan.ensembles()
    finally:
        tracer.remove()
    calls = tracer.summary()["calls"]
    assert calls["spectral.cm_norm"] == len(record_steps) == 12
    assert calls["diagnostics.recorder"] > 0
