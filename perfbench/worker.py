"""One benchmark repetition in a fresh process: set up, run the timed region, check.

``run.py`` starts ``python3 perfbench/worker.py '<request json>'`` once per
repetition with ``src`` first on ``PYTHONPATH``; the last line of standard
output is the repetition's result as one JSON object.

Each workload enters the program through an ensemble-level public entry point
(``experiments.ensemble_run`` or ``cli_io.run_command``), never through a
per-trajectory loop, so a batched ensemble kernel is on the measured path.
The workload's seed becomes the program's ``base_seed``; the program receives
only the generated config or inputs.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
_U64 = 2**64


class Rep:
    """Bookkeeping of one repetition; workloads fill it in."""

    def __init__(self, seed: int, work: Path, trace: bool, spans_path: str | None):
        self.seed = seed % _U64
        self.work = work
        self.trace = trace
        self.spans_path = spans_path
        self.t0 = time.perf_counter()
        self.setup_s = None
        self.wall_s = None
        self.cpu_s = None
        self.peak_rss_mib = None
        self.reference_s = None
        self.attempted = 0
        self.steps = 0
        self.digest = ""
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.trace_summary = None

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @contextmanager
    def timed(self):
        """The timed region; everything before it is set-up.

        The reference kernel runs just before and just after it, outside both
        set-up and the region, to gauge the host's speed at the time.
        """
        self.setup_s = time.perf_counter() - self.t0
        import reference  # numpy and scipy load in set-up, with cascade_lab

        before = reference.measure()
        tracer = Tracer() if self.trace else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            with tracer.root() if tracer is not None else nullcontext():
                yield
        finally:
            self.wall_s = time.perf_counter() - start
            self.cpu_s = time.process_time() - cpu
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.remove()
                self.trace_summary = tracer.summary()
                if self.spans_path:
                    tracer.save(self.spans_path)
            self.reference_s = before + reference.measure()


# --- output digests and step counts ----------------------------------------------


def _records_digest(streams) -> str:
    h = hashlib.sha256()
    for records in streams:
        for r in records:
            h.update(repr((r.t, r.tau, sorted(r.norms.items()), r.sup, r.cm, r.shells)).encode())
        h.update(b"\n")
    return h.hexdigest()


def _files_digest(run_dir: Path) -> str:
    """sha256 over every CSV stream and JSON-lines report, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.suffix in (".csv", ".jsonl")):
        h.update(str(path.relative_to(run_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_steps(run_dir: Path, dt: float) -> int:
    """Trajectory-steps completed, from the last recorded t of every stream CSV."""
    total = 0
    for path in run_dir.glob("streams/**/traj_*.csv"):
        last = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
        total += round(float(last.split(",", 1)[0]) / dt)
    return total


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _single_run_dir(out: Path) -> Path:
    dirs = [p for p in out.iterdir() if p.is_dir()]
    if len(dirs) != 1:
        raise RuntimeError(f"expected one run directory under {out}, found {len(dirs)}")
    return dirs[0]


def _aborts(reports: list[dict]) -> int:
    return sum(int(r["aborts"]) for r in reports if r.get("type") == "ensemble_summary")


# --- workloads --------------------------------------------------------------------


def balance_n1(rep: Rep, T_slow: float = 10.0, M: int = 16) -> None:
    """Criterion-4 shape through ``experiments.ensemble_run``, then ``balance_check``."""
    from cascade_lab import diagnostics, experiments, forcing, integrators, spectral

    nu, dt = 0.5, 0.01
    grid = spectral.GridSpec(1, 64, 32)
    spec = forcing.NoiseSpec.from_profile(grid, "band:1,1,1")
    b0 = forcing.bk_sum(spec, 0.0)
    params = integrators.SimParams(nu=nu, dt=dt, T=T_slow / nu, record_every=10, seed=rep.seed)
    u0 = integrators.zero_field(grid)
    rep.attempted = M
    with rep.timed():
        summary, streams = experiments.ensemble_run(grid, spec, params, M, lambda sid: u0)
        report = diagnostics.balance_check(streams, b0, nu)
    rep.steps = sum(round(s[-1].t / dt) for s in streams)
    rep.digest = _records_digest(streams)
    rep.require(summary.aborts == 0 and len(streams) == M, f"{summary.aborts} trajectories aborted")
    rep.require(report.relative_residual <= 0.10, f"balance residual {report.relative_residual:.4f} > 0.10")
    rep.require(2 * report.se <= 0.10 * b0, f"balance 2se {2 * report.se:.4f} > {0.10 * b0:.4f}")
    rep.notes.append(
        f"balance: avg ||u||_1^2 = {report.avg_h1_sq:.4f} vs B0 = {b0:g}, "
        f"residual {report.relative_residual:.4f} (<= 0.10), 2se {2 * report.se:.4f} (<= {0.10 * b0:g})"
    )


SIMULATE_CONFIG = """[grid]
n = 1
N = 64
D = 32

[noise]
profile = band:1,1,1

[sim]
nu = 0.5
dt = 0.05
T_slow = {T_slow!r}
record_every = 5
nonlinear = false

[ensemble]
M = {M}
base_seed = {seed}

[experiment]
kind = simulate
observables = sup_inf
"""


def simulate_occupation_n1(rep: Rep, T_slow: float = 100.0, M: int = 16) -> None:
    """Criterion-10 config through ``simulate``, then ``occupation`` over its run directory."""
    from cascade_lab import cli_io

    text = SIMULATE_CONFIG.format(T_slow=T_slow, M=M, seed=rep.seed)
    cli_io.parse_config(text)
    sim_ini, occ_ini, out = rep.work / "simulate.ini", rep.work / "occupation.ini", rep.work / "runs"
    sim_ini.write_text(text)
    rep.attempted = M
    with rep.timed():
        code = cli_io.run_command(["simulate", "--config", str(sim_ini), "--out", str(out)])
        run_dir = _single_run_dir(out)
        occ_ini.write_text(text + f"\n[occupation]\nrun = {run_dir}\n")
        occ_code = cli_io.run_command(["occupation", "--config", str(occ_ini)])
    rep.require(code == 0, f"simulate exit code {code}")
    rep.require(occ_code == 0, f"occupation exit code {occ_code}")
    rep.steps = _csv_steps(run_dir, 0.05)
    rep.digest = _files_digest(run_dir)
    aborts = _aborts(_jsonl(run_dir / "report.jsonl"))
    rep.require(aborts == 0, f"{aborts} trajectories aborted")
    occ = _jsonl(run_dir / "occupation_report.jsonl")
    rep.require(len(occ) == 3 and all(r["passed"] for r in occ), "occupation: not all three chi pass")
    rep.notes.append(
        "occupation: "
        + "; ".join(f"chi={r['chi']:.4g} lhs={r['lhs_mean']:.4g} <= {r['rhs_bound']:.4g}" for r in occ)
    )


SWEEP_CONFIG = """[grid]
n = 2
N = 32
D = 16

[noise]
profile = band:1,1,1

[sim]
nu_grid = 0.4,0.2,0.1
dt = 0.01
T_slow = {T_slow!r}
record_every = 10

[ensemble]
M = {M}
base_seed = {seed}

[experiment]
kind = sweep
observables = time_avg_sobolev:2,sup_sobolev:2,sup_cm:2,sup_inf
"""


def sweep_n2(rep: Rep, T_slow: float = 2.0, M: int = 2) -> None:
    """The ``sweep`` CLI on the n=2 desk grid: ``nu_sweep``, fits and verdicts."""
    from cascade_lab import cli_io

    text = SWEEP_CONFIG.format(T_slow=T_slow, M=M, seed=rep.seed)
    cli_io.parse_config(text)
    ini, out = rep.work / "sweep.ini", rep.work / "runs"
    ini.write_text(text)
    rep.attempted = 3 * M
    with rep.timed():
        code = cli_io.run_command(["sweep", "--config", str(ini), "--out", str(out)])
    run_dir = _single_run_dir(out)
    rep.steps = _csv_steps(run_dir, 0.01)
    rep.digest = _files_digest(run_dir)
    reports = _jsonl(run_dir / "report.jsonl")
    aborts = _aborts(reports)
    rep.require(aborts == 0, f"{aborts} trajectories aborted")
    verdicts = {r["observable"]: r["verdicts"] for r in reports if r.get("type") == "sweep_verdict"}
    sup_inf = verdicts.get("sup_inf", {})
    rep.require(sup_inf.get("nu_uniform") is True, "sweep: sup_inf is not nu-uniform")
    # Trend verdicts are reported, not gated: at fixed fast dt the grid entries
    # share no common random numbers, so they fail often at desk-scale M.
    trend_failures = [
        f"{obs}.{k}" for obs, v in verdicts.items() if obs != "sup_inf"
        for k, ok in v.items() if isinstance(ok, bool) and not ok
    ]
    rep.require(code == 0 or (code == 1 and trend_failures), f"sweep exit code {code}")
    rep.notes.append(
        f"sweep: sup_inf median ratio {sup_inf.get('median_ratio', float('nan')):.4g} (< 3); "
        f"trend verdicts failing (not gated): {', '.join(trend_failures) or 'none'}"
    )


WORKLOADS = {
    "balance-n1": balance_n1,
    "simulate-occupation-n1": simulate_occupation_n1,
    "sweep-n2": sweep_n2,
}


def env_stamp() -> dict:
    """Library versions and the SIMD level, on which output bits depend."""
    import numpy as np
    import scipy

    cfg = np.show_config(mode="dicts")
    simd = cfg.get("SIMD Extensions", {})
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": simd.get("baseline", []),
        "simd_found": simd.get("found", []),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_rep(workload: str, seed: int, work: str, trace: bool = False,
            spans_path: str | None = None, size: dict | None = None) -> dict:
    """Run one repetition and return its result; any exception fails the repetition."""
    work_dir = Path(work)
    work_dir.mkdir(parents=True, exist_ok=True)
    rep = Rep(seed, work_dir, trace, spans_path)
    error = None
    try:
        WORKLOADS[workload](rep, **(size or {}))
        import cascade_lab

        origin = Path(cascade_lab.__file__).resolve()
        rep.require(SRC in origin.parents, f"cascade_lab imported from {origin}, not {SRC}")
    except Exception:
        error = traceback.format_exc()
        rep.problems.append("exception: " + error.strip().splitlines()[-1])
    ok = not rep.problems
    return {
        "workload": workload,
        "traced": trace,
        "ok": ok,
        "problems": rep.problems,
        "error": error,
        "notes": rep.notes,
        "attempted": rep.attempted,
        "failed": 0 if ok else rep.attempted,
        "setup_s": rep.setup_s,
        "wall_s": rep.wall_s,
        "cpu_s": rep.cpu_s,
        "peak_rss_mib": rep.peak_rss_mib,
        "reference_s": rep.reference_s,
        "steps": rep.steps,
        "digest": rep.digest,
        "trace": rep.trace_summary,
        "env": env_stamp() if error is None else None,
    }


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    print(json.dumps(run_rep(**request)))
