"""cascade-lab benchmark: one workload, repeated in fresh processes, checked and summarised.

Run from the repository root:

    python3 perfbench/run.py --workload balance-n1 --seed 1 --seconds 30 --trace 0

Each repetition is a fresh single process (``worker.py``) that imports
``cascade_lab`` from ``src``, builds the workload's inputs from the seed, runs
the timed region and checks the outputs.  Repetitions run one after another
until ``--seconds`` is used up (at least ``MIN_REPS``), and every timing is
the median over them.  The end-to-end timings are scaled to a nominal host
speed, gauged in each repetition by a fixed reference kernel
(``reference.py``), because the shared host's own speed drifts.  With ``--trace 1`` untraced and traced repetitions
alternate: the traced ones give the per-layer metrics and the difference of
the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("balance-n1", "simulate-occupation-n1", "sweep-n2")
MIN_REPS = 3  # per kind of repetition: untraced, and traced under --trace 1
HARD_LIMIT_S = 150.0  # start no repetition that could end past this

END_TO_END = {
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "forcing.normals.calls": "count",
    "forcing.normals.self_s": "s",
    "integrators.ou_step.calls": "count",
    "integrators.ou_step.self_s": "s",
    "integrators.phase_rotation.calls": "count",
    "integrators.phase_rotation.self_s": "s",
    "integrators.step.self_s": "s",
    "integrators.driver.self_s": "s",
    "spectral.dst.calls": "count",
    "spectral.dst.self_s": "s",
    "spectral.dst.bytes_computed": "B",
    "spectral.norms.calls": "count",
    "spectral.norms.self_s": "s",
    "spectral.cm_norm.calls": "count",
    "spectral.cm_norm.self_s": "s",
    "diagnostics.recorder.calls": "count",
    "diagnostics.recorder.self_s": "s",
    "diagnostics.csv_write.bytes": "B",
    "diagnostics.csv_write.self_s": "s",
    "diagnostics.csv_read.self_s": "s",
    "diagnostics.checks.self_s": "s",
    "experiments.ensemble.calls": "count",
    "experiments.ensemble.self_s": "s",
    "experiments.ensemble.aborted": "count",
    "experiments.sweep.self_s": "s",
    "cli_io.config.self_s": "s",
    "cli_io.write.files": "count",
    "cli_io.write.bytes": "B",
    "cli_io.write.self_s": "s",
    "cli_io.read.self_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
}


def git_rev(root: Path) -> str:
    """Commit of the checkout from ``.git`` itself (no git process, no parent directories)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def host_stamp(root: Path) -> dict:
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_rev": git_rev(root),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k, "unset") for k in threads},
    }


def spawn_rep(root: Path, request: dict, timeout: float) -> dict:
    """Run one repetition in a fresh process; a crash or timeout is a failed repetition."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    failed = {"ok": False, "traced": request["trace"], "attempted": 0, "failed": 0, "notes": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {**failed, "problems": [f"repetition exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {**failed, "problems": [f"worker exit code {proc.returncode}: {tail[0]}"]}


def collect(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            size: dict | None = None) -> list[dict]:
    """Repetitions until ``seconds`` are used, alternating untraced and traced under ``trace``."""
    work = root / ".perfbench_work"
    run_work = work / f"{workload}-{os.getpid()}"
    reps: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            need = MIN_REPS * (2 if trace else 1)
            elapsed = time.perf_counter() - start
            estimate = statistics.median(durations) if durations else 0.0
            if len(reps) >= need and elapsed + estimate > seconds:
                break
            if reps and elapsed + 1.5 * estimate > HARD_LIMIT_S:
                break
            request = {
                "workload": workload,
                "seed": seed,
                "work": str(run_work / f"rep{len(reps)}"),
                "trace": traced,
                "spans_path": str(work / f"spans-{workload}.npz") if traced else None,
                "size": size,
            }
            t = time.perf_counter()
            reps.append(spawn_rep(root, request, max(10.0, HARD_LIMIT_S + 20.0 - elapsed)))
            durations.append(time.perf_counter() - t)
            shutil.rmtree(request["work"], ignore_errors=True)
    finally:
        shutil.rmtree(run_work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # only when empty: a traced run leaves its span table there
    return reps


def _layer_value(name: str, summaries: list[dict]) -> float | int:
    layer, field = name.rsplit(".", 1)
    if field == "self_s":
        return statistics.median(s["self_s"].get(layer, 0.0) for s in summaries)
    if field in ("calls", "files"):
        return summaries[0]["calls"].get(layer, 0)
    return summaries[0]["counters"].get(name, 0)


def summarize(reps: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines that precede it."""
    lines: list[str] = []
    problems = sorted({p for r in reps for p in r.get("problems", [])})
    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if len({(r["digest"], r["steps"]) for r in good}) > 1:
        problems.append("repetitions differ in output digest or step count")
    if not plain or (trace and not traced):
        problems.append("no successful repetition to measure")
    counts = [{k: v for k, v in s.items() if k in ("calls", "counters")}
              for s in (r["trace"] for r in traced)]
    if any(c != counts[0] for c in counts):
        problems.append("traced call or byte counts differ between repetitions")
    correct = not problems
    attempted = sum(r["attempted"] for r in reps) or 1
    failed = attempted if not correct else sum(r["failed"] for r in reps)

    shown = next((r for r in reps if r["ok"]), reps[0] if reps else {})
    lines += shown.get("notes", [])
    for p in problems:
        lines.append(f"FAILED: {p}")
    if good:
        lines.append(f"digest sha256:{good[0]['digest']} ({len(good)} runs, "
                     f"{'identical' if correct else 'see failures'}); "
                     f"{good[0]['steps']} trajectory-steps per run")

    metrics: dict[str, dict] = {}
    if plain:
        # Timings are scaled to the host speed at which the reference kernel
        # takes NOMINAL_S (see reference.py); the raw medians are printed too.
        scales = [reference.NOMINAL_S / r["reference_s"] for r in plain]
        e2e = {
            "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(plain, scales)),
            "traj_steps_per_s": statistics.median(r["steps"] / (r["wall_s"] * k) for r, k in zip(plain, scales)),
            "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(plain, scales)),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        lines.append("untraced runs wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in plain)
                     + " | cpu_s: " + " ".join(f"{r['cpu_s']:.4f}" for r in plain)
                     + " | reference_s: " + " ".join(f"{r['reference_s']:.4f}" for r in plain))
        lines.append(f"raw medians: wall_s {statistics.median(r['wall_s'] for r in plain):.6g} s, "
                     f"setup_s {statistics.median(r['setup_s'] for r in plain):.6g} s; "
                     f"host speed scale median {statistics.median(scales):.6g}")
        for name, unit in END_TO_END.items():
            lines.append(f"{name} = {e2e[name]:.6g} {unit}")
        if not trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines.append(f"failed_fraction = {failed / attempted:.6g} 1 ({failed}/{attempted} trajectories)")

    if trace and traced:
        summaries = [r["trace"] for r in traced]
        values = {name: _layer_value(name, summaries) for name in PER_LAYER}
        values["bench.unattributed_s"] = statistics.median(s["self_s"]["bench.root"] for s in summaries)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["bench.trace_overhead_s"] = traced_wall - (statistics.median(r["wall_s"] for r in plain)
                                                          if plain else 0.0)
        missing = sorted({m for s in summaries for m in s["missing"]})
        if missing:
            lines.append("missing layers (reported as 0): " + ", ".join(missing))
        hook_errors = max(s["hook_errors"] for s in summaries)
        if hook_errors:
            lines.append(f"counter hooks failed {hook_errors} times (counts incomplete)")
        first = summaries[0]
        layers_s = sum(v for k, v in first["self_s"].items() if k != "bench.root")
        lines.append(
            f"accounting (first traced run): root span {first['total_s']['bench.root']:.6f} s = unattributed "
            f"{first['self_s']['bench.root']:.6f} s + layer self times {layers_s:.6f} s; "
            f"traced wall_s median {traced_wall:.6f} s over {len(traced)} runs"
        )
        per_call = {
            layer: statistics.median(s["total_s"][layer] / s["calls"][layer] for s in summaries)
            for layer in first["calls"] if layer != "bench.root" and first["calls"][layer]
        }
        lines.append("per call, inclusive of children (us): "
                     + ", ".join(f"{k} {v * 1e6:.1f}" for k, v in per_call.items()))
        for name, unit in PER_LAYER.items():
            lines.append(f"{name} = {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None, size: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cascade_lab" / "__init__.py").is_file():
        print(f"perfbench: no src/cascade_lab under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    reps = collect(root, args.workload, args.seed, args.seconds, bool(args.trace), size)
    result, lines = summarize(reps, bool(args.trace))
    error = next((r["error"] for r in reps if r.get("error")), None)
    if error:
        print(error, file=sys.stderr)
    env = next((r["env"] for r in reps if r.get("env")), {})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={len(reps)}")
    for line in lines:
        print(line)
    print("env " + json.dumps({**host_stamp(root), **env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
