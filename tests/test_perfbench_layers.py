"""The benchmark's tracer (``perfbench/tracing.py``) still finds every function it wraps.

A renamed or removed target would otherwise only show up as a layer that reads
0 in ``python -m pytest perfbench`` or in a traced benchmark run.  A target the
program no longer calls reads 0 the same way, so the step's transforms, and
each recorder's C^m passes over its own pending record steps, are checked by
their call counts.
"""

import importlib
from pathlib import Path

from cascade_lab import diagnostics, experiments, integrators
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


def test_a_sweep_batch_measures_each_due_row_once_in_lattice_sized_passes(monkeypatch):
    # Three entries of a fixed-dt sweep step as one batch and leave at steps 5, 10 and 20. At each of
    # its record steps an entry's recorder is called with its rows; it keeps them until they hold
    # PASS_BYTES of lattice values or its streams are read. At n=2 N=8 a row holds 1 KiB, so each
    # entry's 8, 12 and 22 due rows are one C^m pass through diagnostics.cm_norm.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    plan = SweepPlan(
        GridSpec(2, 8, 4), "band:1,1,1", (0.8, 0.4, 0.2), M=2, base_seed=5, dt=0.05,
        t_slow_total=0.2, window_t0_slow=0.0, record_every=2, observables=(Observable("sup_cm", 2.0),),
    )
    horizons = [plan.params_for(nu).n_steps for nu in plan.nu_grid]
    assert horizons == [5, 10, 20]
    record_steps = [{0, n, *range(2, n, 2)} for n in horizons]
    due_rows = [plan.M * len(steps) for steps in record_steps]
    assert due_rows == [8, 12, 22] and sum(due_rows) == 42
    measured, cm_norm = [], diagnostics.cm_norm
    monkeypatch.setattr(diagnostics, "cm_norm", lambda u, m: measured.append(len(u.coeffs)) or cm_norm(u, m))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        plan.ensembles()
    finally:
        tracer.remove()
    calls = tracer.summary()["calls"]
    assert measured == due_rows and calls["spectral.cm_norm"] == 3
    assert calls["diagnostics.recorder"] == sum(map(len, record_steps)) == 21
