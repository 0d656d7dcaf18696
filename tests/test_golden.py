"""Golden output hashes, and the check that an ensemble equals its single runs.

The golden runs cover every subcommand that writes files; their hashes pin
every byte of each run directory (manifest, config, reports and streams).

Output bytes depend on the numpy build, the BLAS build it links (the
transforms are products with sine matrices) and the CPU's SIMD level (with
FMA, a complex product rounds differently with its operands swapped).  The
golden hashes below were taken on the build named in ``GOLDEN_ENV``; on any
other build those tests skip and name the difference.  The ensemble
cross-check holds on any build: M trajectories stepped together as one array
give, bit for bit, the streams of M single-trajectory runs; so does the check
that one and two BLAS threads write the same bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cascade_lab import schema
from cascade_lab.cli_io import run_command
from cascade_lab.diagnostics import NormRecorder, stream_csv_text
from cascade_lab.experiments import Observable, ensemble_run
from cascade_lab.forcing import NoiseSpec, RngStream
from cascade_lab.integrators import (
    SimParams,
    constrained_profile,
    default_dt,
    run_trajectory,
    smooth_random_field,
)
from cascade_lab.spectral import GridSpec

GOLDEN_ENV = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd_baseline": ["X86_V2"],
    "simd_found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

# The criterion-10 configuration of test_acceptance, pinned here with its hashes.
CRITERION_10_CONFIG = """
[grid]
n = 1
N = 64
D = 32

[noise]
profile = band:1,1,1

[sim]
nu = 0.5
dt = 0.05
T_slow = 250.0
record_every = 5
nonlinear = false

[ensemble]
M = 16
base_seed = 424242

[experiment]
kind = simulate
observables = sup_inf
"""

# sha256 of streams/traj_NNNN.csv written by ``simulate`` on CRITERION_10_CONFIG
CRITERION_10_SHA256 = {
    "traj_0000.csv": "1c650686e833ef82d8778d46af2ac56445c0101ef5def53d7269b3a09ba0ac86",
    "traj_0001.csv": "c8a759f814211c70d1ea46713d5ca5d21e6ba2a8fa2166172641441a3c6cae9c",
    "traj_0002.csv": "e39861e8cbaaa5d47c778456750d3d4c5239c94be10813dd8032b7471dfdc19d",
    "traj_0003.csv": "0010065aeb6d0f64ef66684ab15cec66fdb365e40f3493fe19823bde76b02227",
    "traj_0004.csv": "4efc91d22edc4d2e10b1006a742b1e6848910902949d61b474755f31b9936019",
    "traj_0005.csv": "91429f97e36504aa93e5939df47c2c8eaee78167bda84f7e0c657402bf5aafd0",
    "traj_0006.csv": "09104e9f4d5443c3b7f41111aaaa7364a0929c0457e3cd7cc62725f5962cec0c",
    "traj_0007.csv": "8c42700c830537a2a46543157f4a3986db2da4d43064acf578e6b5247ab48ca7",
    "traj_0008.csv": "e5ac5c27109e4cfa00cbb8d98187a1261acd3ded1e5690b7f85cf03563862b9b",
    "traj_0009.csv": "3f3d276bb07b61481d76a1df9fcd7ee0ddb54412836186da6f9350b72977a7e3",
    "traj_0010.csv": "61a3e49604eae483e54e3531bba91419325156be7cdbc71bd5a518938bbb345e",
    "traj_0011.csv": "917d6b429dbccb023412cdb8f9ae1ab4d7105ec20e1bc5ab9ba4c819840a2e02",
    "traj_0012.csv": "0e4b5f02f0e9a99bdaa0a614ad6b1606574a44c22fdafb4d251d4741729cfab6",
    "traj_0013.csv": "f19d3c175febf234d7526dc5a28960070ab107cb7da25bb21cb8f5b8dd724e1a",
    "traj_0014.csv": "f61766689cb740cdeb9416e6f82ea1312d4911046886f0a32c86d724bfc369a1",
    "traj_0015.csv": "08ee9ae98d9d61982d8c9474cad1d3bb877c6f60816244285bf7715c628f7705",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "7db4892573cb3127b107fef43aebedab3dc61f519cd569619dda1694a27fc197"


def env_stamp() -> dict:
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
    }


def skip_unless_golden_build():
    here = env_stamp()
    diff = [f"{k}: {here[k]} here, {v} golden" for k, v in GOLDEN_ENV.items() if here[k] != v]
    if diff:
        pytest.skip("byte identity holds per build; " + "; ".join(diff))


def criterion_10_hashes(tmp_path) -> dict:
    cfg = tmp_path / "criterion10.ini"
    cfg.write_text(CRITERION_10_CONFIG)
    out = tmp_path / "out"
    assert run_command(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    streams = next(out.iterdir()) / "streams"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(streams.glob("*.csv"))}


# Base config of the golden runs; each run adds its viscosity, horizon and kind
# as overrides.  Every horizon is an exact integer number of steps, except that
# ``simulate-fast`` takes T = 3.0 at nu = 0.1: there T * nu / nu is
# 3.0000000000000004, one step more than T.
GOLDEN_BASE = """
[grid]
n = 1
N = 16
D = 8

[noise]
profile = band:1,1,1

[sim]
dt = 0.02
record_every = 5

[ensemble]
M = 2
base_seed = 2026

[experiment]
observables = time_avg_sobolev:1,sup_sobolev:2,sup_cm:2,sup_inf
"""

GRID_3 = "sim.nu_grid=0.5,0.4,0.25"

# name -> (subcommand, overrides)
GOLDEN_RUNS = {
    "simulate-slow": ("simulate", ["sim.nu=0.5", "sim.T_slow=1.0"]),
    "simulate-fast": (
        "simulate",
        ["sim.nu=0.1", "sim.T=3.0", "sim.dt=0.01", "experiment.observables=sup_sobolev:2,sup_inf"],
    ),
    "spectrum": ("spectrum", ["sim.nu=0.5", "sim.T_slow=1.0"]),
    "sweep-slow": ("sweep", [GRID_3, "sim.T_slow=2.0"]),
    "sweep-fast": ("sweep", [GRID_3, "sim.T=8.0"]),
    "stationary": ("stationary", [GRID_3, "sim.T_slow=13.0", "sim.dt=0.05"]),
}

# sha256 of every file of each golden run directory, by relative path;
# ``occupation`` runs over the ``simulate-slow`` directory and adds its report.
GOLDEN_RUNS_SHA256 = {
    "simulate-slow": {
        "config.ini": "a4800193562c07b5925aef81a2af9c44d78b94bba53a1f81e49c2d3bfc30e1d9",
        "manifest.json": "09b26ea12b9920c411bf3264f37a2cc39c04e0545bde56b65349395a1f958654",
        "occupation_report.jsonl": "f93500b0ff10f337856f062e7ec70f598289429d0e7f7d8c57f1738378edd401",
        "report.jsonl": "63e4096196536f18ab0f9d9337c66085185cf8e9cb9f602e75ac33ec10cfe07a",
        "streams/traj_0000.csv": "bf02edb062fb49a48b4c60d27624a38813f751bc376b0bf1806aff1fbb55a5de",
        "streams/traj_0001.csv": "4e725bd484936a9ac3a3b0888d600126372e9b24dc21f49b8cce9039ae9502f5",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "0c4bb717523f24e287f9818dabab23c7702ec6f1b8d936dec3328e39b1a155b4",
        "report.jsonl": "eca720b0285f2b298fcb7455be4a84cde6093ca00e2df0064efd9df8f7a0cbbf",
        "streams/traj_0000.csv": "1759793fa7e43ede88e55033ffcdb1293090b5fd661fd7722d384e588f4d1c57",
        "streams/traj_0001.csv": "5b26b9c36d7f21af07b1203bbbc38888fd16c9b8ac3b98d6b03f9ffdbb689720",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "dce458be6a434dae0b7f968e6de5c1aecbd127827e0655ec9c717305b6fb54eb",
        "report.jsonl": "762af1f9ed17cfd95a384e260fdcc638b3114f050da029a09ac6809bba982b94",
        "streams/traj_0000.csv": "e38899387b47b92e1369ab84e77efa790531c96c1f57803340991fee6e484975",
        "streams/traj_0001.csv": "7f3c42a616cd84b46b4133f8071eef6c44073a501a143e40c66cf21e9486b7be",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "908577db0cd3dfaa90ad00efa85b8a8de1536070e65ef70c727351c0a5b78a6a",
        "report.jsonl": "44b6b54f5df43c7c9331482541a85eb7bd2a2b0faf0978a08b9e61bc6d993433",
        "streams/nu_0.25/traj_0000.csv": "e7136426f74062d3f88d50636206a6dbe3735ab18bffb28547695e088220e675",
        "streams/nu_0.25/traj_0001.csv": "d9fd6b66eade13548bace328737bd299631ea609c7fbed6c090cd1ed11cca9f1",
        "streams/nu_0.4/traj_0000.csv": "33e0ee8bdacce0cf484d480f4f061e34150bbf59d3e185ae0740e2d9764163c0",
        "streams/nu_0.4/traj_0001.csv": "6aeb1e6dd740df9949409bc45a42332f904c92f56cedd5a8ae37300766a06492",
        "streams/nu_0.5/traj_0000.csv": "96b1a01a4a5f85fb963bbdeda020bd7ccabcfc461087b6634b57894ade0dfb7b",
        "streams/nu_0.5/traj_0001.csv": "3f008b144906e68db31cbf53b3d6a41550395e426e852a63c37ae484ac279893",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "5b716ed7a54e8ffeb7bf775be7d1ded87443060be8b16d18dfcdd9d4cfd03671",
        "report.jsonl": "44b6b54f5df43c7c9331482541a85eb7bd2a2b0faf0978a08b9e61bc6d993433",
        "streams/nu_0.25/traj_0000.csv": "e7136426f74062d3f88d50636206a6dbe3735ab18bffb28547695e088220e675",
        "streams/nu_0.25/traj_0001.csv": "d9fd6b66eade13548bace328737bd299631ea609c7fbed6c090cd1ed11cca9f1",
        "streams/nu_0.4/traj_0000.csv": "33e0ee8bdacce0cf484d480f4f061e34150bbf59d3e185ae0740e2d9764163c0",
        "streams/nu_0.4/traj_0001.csv": "6aeb1e6dd740df9949409bc45a42332f904c92f56cedd5a8ae37300766a06492",
        "streams/nu_0.5/traj_0000.csv": "96b1a01a4a5f85fb963bbdeda020bd7ccabcfc461087b6634b57894ade0dfb7b",
        "streams/nu_0.5/traj_0001.csv": "3f008b144906e68db31cbf53b3d6a41550395e426e852a63c37ae484ac279893",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "aac7bfbc66884f031d20f3ce91d46d75b1a9119cdc0676e009049d6b2b2adb9c",
        "report.jsonl": "7b84706db9177ec3f730bba4f478f27ca2f22e67547ae81f996298ea67a6f601",
        "streams/nu_0.25/traj_0000.csv": "a7246fa67de8bb781ffa0ef7811e50916218bfac114b7ff4c44d393edf82fd2f",
        "streams/nu_0.25/traj_0001.csv": "0cfecd92fd8f754f64fb933444d2aaa45e3798ca5e0022281edcb175d3634526",
        "streams/nu_0.4/traj_0000.csv": "0d3085a321ca2f2bcc7bb3e92f2eddd308f9080d4d6cc3a6d3d54413f22433cc",
        "streams/nu_0.4/traj_0001.csv": "6790587720854e1602dcb9f8928876a2bfaa7950baf226b0020fe6a8c1f13e91",
        "streams/nu_0.5/traj_0000.csv": "7a990a7910ee2f2ed978c58253e1eea3f4cbd20e9823e22906ddeb3980461bb9",
        "streams/nu_0.5/traj_0001.csv": "44efded16f7b6da988fbfede24d04c7bf4e1032f8bf5fa2e04922f8c8726e4f6",
    },
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory) -> dict:
    """Run every golden config, then ``occupation`` over ``simulate-slow``; name -> run directory."""
    tmp = tmp_path_factory.mktemp("golden")
    cfg = tmp / "golden.ini"
    cfg.write_text(GOLDEN_BASE)

    def run(command, overrides, out):
        args = [command, "--config", str(cfg), "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        return run_command(args)

    dirs = {}
    for name, (command, overrides) in GOLDEN_RUNS.items():
        assert run(command, overrides + [f"experiment.kind={command}"], tmp / name) in (0, 1), name
        (dirs[name],) = (tmp / name).iterdir()
    simulate = GOLDEN_RUNS["simulate-slow"][1]
    assert run("occupation", simulate + [f"occupation.run={dirs['simulate-slow']}"], tmp) == 0
    return dirs


def tree_hashes(run_dir) -> dict:
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def test_golden_runs_match(golden_runs):
    skip_unless_golden_build()
    assert {name: tree_hashes(d) for name, d in golden_runs.items()} == GOLDEN_RUNS_SHA256


def test_golden_occupation_lines_are_uninformative(golden_runs):
    # simulate-slow starts from the constrained profile and ||u||_0 never falls
    # to chi within the window: each line passes, and says it tests nothing.
    lines = (golden_runs["simulate-slow"] / "occupation_report.jsonl").read_text().splitlines()
    reports = [json.loads(line) for line in lines]
    assert len(reports) == 3
    for r in reports:
        assert (r["informative"], r["passed"], r["lhs_mean"], r["lhs_se"]) == (False, True, 0.0, 0.0)


def test_reports_follow_schema(golden_runs):
    # holds on any build: field names and orders do not depend on the numbers
    types = set()
    for run_dir in golden_runs.values():
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert tuple(manifest) == schema.MANIFEST_FIELDS
        for path in run_dir.glob("*.jsonl"):
            for line in path.read_text().splitlines():
                obj = json.loads(line)
                assert tuple(obj) == schema.FIELDS[obj["type"]], f"{path.name}: {obj['type']}"
                types.add(obj["type"])
    assert types == set(schema.FIELDS) - {"manifest", "stationary_check"}


def test_report_rejects_missing_or_extra_fields():
    fit = dict(observable="x", alpha=1.0, intercept=0.0, r2=1.0, points=[])
    assert tuple(schema.report("scaling_fit", **fit)) == schema.FIT_FIELDS
    with pytest.raises(ValueError, match="differ"):
        schema.report("scaling_fit", **{**fit, "extra": 1})
    with pytest.raises(ValueError, match="differ"):
        schema.report("scaling_fit", alpha=1.0)


N2_GRID = GridSpec(2, 32, 16)


def n2_ensemble():
    """A short nonlinear n=2 ensemble at M=16: its lattice batch is 256 KiB."""
    nu = 0.2
    params = SimParams(nu=nu, dt=0.01, T=0.4, record_every=5, seed=777)
    observables = (Observable("sup_sobolev", 2.0), Observable("sup_cm", 2.0), Observable("sup_inf"))
    u0 = constrained_profile(N2_GRID, nu, sup_bound=2.0)
    return ensemble_run(
        N2_GRID, NoiseSpec.from_profile(N2_GRID, "band:1,1,1"), params, 16, lambda sid: u0, observables
    )


def n2_ensemble_hash() -> str:
    summary, streams = n2_ensemble()
    h = hashlib.sha256()
    for records in streams:
        h.update(stream_csv_text(records).encode())
    h.update(json.dumps(summary.to_json_dict()).encode())
    return h.hexdigest()


def test_criterion_10_csvs_match_golden(tmp_path):
    skip_unless_golden_build()
    assert criterion_10_hashes(tmp_path) == CRITERION_10_SHA256


def test_n2_ensemble_matches_golden():
    skip_unless_golden_build()
    assert n2_ensemble_hash() == N2_ENSEMBLE_SHA256


def full_recorder(p):
    return NormRecorder(nu=p.nu, ms=(0.0, 1.0, 2.0, 3.0), cm_order=2, shells=True)


@pytest.mark.parametrize(
    "grid, scheme, nonlinear",
    [
        (GridSpec(1, 64, 32), "strang", True),
        (GridSpec(1, 32, 16), "em", True),
        (N2_GRID, "strang", True),  # M=16 lattice batch is 256 KiB: numpy's temporary-elision size
        (N2_GRID, "em", True),
        (GridSpec(1, 64, 32), "strang", False),  # the linear path of simulate-occupation
    ],
    ids=["n1-strang", "n1-em", "n2-strang", "n2-em", "n1-strang-linear"],
)
def test_ensemble_equals_single_runs(grid, scheme, nonlinear):
    nu, M = 0.5, 16
    dt = default_dt(scheme, nu, grid)
    params = SimParams(
        nu=nu, dt=dt, T=12 * dt, scheme=scheme, record_every=4, seed=99, nonlinear=nonlinear
    )
    spec = NoiseSpec.from_profile(grid, "band:1,1,1")

    def u0(sid):
        return smooth_random_field(grid, 2.0, RngStream(5, sid), amplitude=2.0)

    summary, streams = ensemble_run(grid, spec, params, M, u0, recorder_factory=full_recorder)
    assert summary.aborts == 0 and len(streams) == M
    for sid, records in enumerate(streams):
        p = replace(params, stream_id=sid)
        rec = full_recorder(p)
        run_trajectory(u0(sid), spec, p, rec)
        assert stream_csv_text(records) == stream_csv_text(rec.records), f"stream {sid} differs"


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, **env) -> str:
    full_env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run(
        [sys.executable, "-c", code], env=full_env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def test_one_and_two_blas_threads_write_the_same_bytes():
    code = "import test_golden; print(test_golden.n2_ensemble_hash())"
    tests_dir = str(Path(__file__).resolve().parent)
    hashes = {
        threads: run_python(code, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=f"{SRC}{os.pathsep}{tests_dir}")
        for threads in ("1", "2")
    }
    assert hashes["1"] == hashes["2"]


def test_package_and_selftest_do_not_load_scipy():
    code = (
        "import sys, cascade_lab\n"
        "from cascade_lab.cli_io import run_command\n"
        "code = run_command(['selftest'])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    assert run_python(code) == "0 False"
