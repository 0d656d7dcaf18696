"""Tests of the benchmark itself at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKLOAD = "simulate-occupation-n1"
TINY = {"T_slow": 2.0, "M": 2}


def _current(module: str, dotted: str):
    owner, attr = tracing._owner(module, dotted)
    return vars(owner)[attr]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", WORKLOAD, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[3] for line in lines if " = " in line}
    for name, unit in {**run.END_TO_END, **expected, "failed_fraction": "1"}.items():
        assert printed.get(name) == unit, name
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["integrators.phase_rotation.calls"] == 0  # linear run
        assert metrics["integrators.ou_step.calls"] > 0


def test_forced_abort_and_nonzero_exit_raise_failed_fraction(tmp_path, monkeypatch):
    from cascade_lab import cli_io, integrators
    from cascade_lab.spectral import NonFiniteFieldError

    def rep(tag):
        return worker.run_rep(WORKLOAD, 5, str(tmp_path / tag), size=TINY)

    clean = rep("clean")
    result, _ = run.summarize([clean, clean], trace=False)
    assert result["correct"] and result["failed"] == 0

    step = integrators.strang_step

    def aborting_step(state, spec, params):
        if params.stream_id == 1 and state.step_index == 3:
            raise NonFiniteFieldError("forced")
        return step(state, spec, params)

    with monkeypatch.context() as patch:
        patch.setattr(integrators, "strang_step", aborting_step)
        aborted = rep("abort")
    assert not aborted["ok"] and aborted["failed"] == aborted["attempted"] == TINY["M"]

    command = cli_io.run_command
    with monkeypatch.context() as patch:
        patch.setattr(cli_io, "run_command", lambda argv: command(argv) or 1)
        exit_1 = rep("exit")
    assert not exit_1["ok"] and "simulate exit code 1" in exit_1["problems"]

    for bad in (aborted, exit_1):
        result, lines = run.summarize([clean, bad, clean], trace=False)
        assert not result["correct"] and result["failed"] == result["attempted"]
        assert any(line.startswith("failed_fraction = 1 ") for line in lines)


def test_install_then_remove_leaves_program_unchanged():
    import cascade_lab  # noqa: F401

    targets = [t for targets, _ in tracing.LAYERS.values() for t in targets]
    before = {t: _current(*t) for t in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(_current(*t) is not before[t] for t in targets)
    finally:
        tracer.remove()
    assert all(_current(*t) is before[t] for t in targets)

    gone = tracing.Tracer({"gone.layer": (
        (("cascade_lab.spectral", "no_such_function"), ("cascade_lab.no_such_module", "f")), None)})
    gone.install()
    gone.remove()
    assert gone.missing == ["gone.layer"]


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    reps = [worker.run_rep(WORKLOAD, 7, str(tmp_path / str(i)), trace=True, size=TINY)
            for i in range(2)]
    assert all(r["ok"] for r in reps)
    first, second = (r["trace"] for r in reps)
    assert first["calls"] == second["calls"] and first["counters"] == second["counters"]
    assert first["calls"]["integrators.ou_step"] == 2 * reps[0]["steps"]
    assert sum(first["self_s"].values()) == pytest.approx(first["total_s"]["bench.root"], rel=1e-9)


def test_timings_are_scaled_by_the_reference_kernel():
    def rep(wall_s, setup_s, reference_s):
        return {"ok": True, "traced": False, "digest": "d", "steps": 1000, "attempted": 2,
                "failed": 0, "notes": [], "problems": [], "wall_s": wall_s, "cpu_s": wall_s,
                "setup_s": setup_s, "peak_rss_mib": 60.0, "reference_s": reference_s}

    nominal = reference.NOMINAL_S
    # The same program on a host running at half speed, then at full speed.
    slow, _ = run.summarize([rep(4.0, 1.0, 2 * nominal)] * 3, trace=False)
    fast, _ = run.summarize([rep(2.0, 0.5, nominal)] * 3, trace=False)
    for result in (slow, fast):
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["wall_s"] == pytest.approx(2.0)
        assert metrics["setup_s"] == pytest.approx(0.5)
        assert metrics["traj_steps_per_s"] == pytest.approx(500.0)
