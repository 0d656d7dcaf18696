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
    checkpoint_to_bytes,
    constrained_profile,
    continue_trajectory,
    default_dt,
    initial_state,
    smooth_random_field,
)
from cascade_lab.spectral import GridSpec, SpectralField

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
    "traj_0000.csv": "5019d534b4c0e3f95bfc64a8797b35af5c45d433464dcf36afa480fa52a2b1e2",
    "traj_0001.csv": "73ae5b64c32bb3b59d15560d30078c2d439a81d88120c341d9f34874a709b9d4",
    "traj_0002.csv": "60773e89682cc3c31ab643c2f800bb0263e596e63486b7ba17f53a7aaf8a37e7",
    "traj_0003.csv": "a66053d5ba8226b9db2d5c0c900f7d4482e0741262ac4c0a81d2868efcfa63c6",
    "traj_0004.csv": "274a7e3cfa445b0f19572e627c990a909e6170bde27c959df3690dd7b6278d5d",
    "traj_0005.csv": "b86a19c2fa207d3f4063a585ac8d02a8b3af7fd20d370ef2c8b5c50020148460",
    "traj_0006.csv": "28630af1d7db1b1b25b41d723902ef3fceea1bda7b978b01d685b8571b415d5c",
    "traj_0007.csv": "2f24f2c822ced8565813626fed84ea612cb95eb0888e3ab99220400a740aabca",
    "traj_0008.csv": "19b9edebaecfda18ea507492083d68e3fe362c3a35e26664710872b3d1b7defb",
    "traj_0009.csv": "93e50ddefaa5117b78722b593fb24d478ff887fe24a8a8a478f1e1ad91a9bd6f",
    "traj_0010.csv": "d23d83afc69a9c247c78d299ab9fb79a2bf3f0d53991ad22f7b596f7bdb6975f",
    "traj_0011.csv": "e1aab63c24cb1deeb526b18e735a396576840b8c49689315ec1a33d107151406",
    "traj_0012.csv": "c84354db84dc0cd717a9b2444ef7d6567ddc391212c56578401d68e70664b2a3",
    "traj_0013.csv": "e503ce39b59c885486a862ceaab9eda798376ae41e85d8dc315b3e0122189479",
    "traj_0014.csv": "b52f276d9a7ae73285be371769ce3d98a997665b8022afecf06bdd698edb18c6",
    "traj_0015.csv": "2b6f56d7e6d3eb5f7ea93bbbe5eb5abaa2d12d5691a3d565f141ef22d07a8b22",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "8cd5ec697ff97793bb1bb552a3a6f7439b0ca9799d071ac85f6942c0684d5cc0"

# sha256 of ``checkpoint_bytes()``
CHECKPOINT_SHA256 = "50217a9a8c3b5313568cbcffa28f5957bab6ed30c7a6420d8d1c0497db56323a"


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
        "manifest.json": "b673a174d69b5dd5ddba3f7a1d4a75d6be7f5383789e607a4923e639b122d927",
        "occupation_report.jsonl": "21eb23b2a41c918369a3bb31ba1e8a64b3f5b6c3866dfaeb101181220c049aa0",
        "report.jsonl": "c903023e81413b9493ac8e005af89f842dd10222c73d606c6c1b74aeac50396d",
        "streams/traj_0000.csv": "46e19be4f4d6268b2f159e38dee88d104f59554166be6dd3af48b9191f8842ed",
        "streams/traj_0001.csv": "be2730b2bc49518e94d0a56eb8f1b7036907bf31ee135273a7090029cd258b00",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "93f1f65d75db454b5dcf11083a6a5ae0691b3264c48f5dd2e1e23fe18c702fdb",
        "report.jsonl": "efd1c8c22dff45aa9a843ed9dbb9c8e233fc06394adcfbe038076595e6838120",
        "streams/traj_0000.csv": "fc0d51cb65020384960e0091335d2c3fd8530a75ae8bcc364803c21dc33f609f",
        "streams/traj_0001.csv": "c6d15901c9deb4a0f2c2472e66377ca479a5f162e552b200ed90df93a54f08f3",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "3456065105b91d060402ba7f0d96a7946da4c88bb43f1a93f7c81edd2c80bc75",
        "report.jsonl": "2b6a1393888f1ec06fb4f6787dc62133cd2f3f6b83332e60f7da67cc879d61e6",
        "streams/traj_0000.csv": "a91783cfb10bd9d6a555373a5b3b2f3a924b99a6215e0cd0f562e6613f298db0",
        "streams/traj_0001.csv": "f0578fe1b8b9b7e501c8330538ac6c8d23cc377fd8cc5424e95e15d080b34466",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "4d2974c58bee4d59d028729af93f07e7fbad5376745ccd826dddcde7d6be531b",
        "report.jsonl": "d76b7e2fc1968c6c8e9657b8c93f8833e838d47f9b7bcd24881f754450fc55f6",
        "streams/nu_0.25/traj_0000.csv": "2d283950406b5e0c0949f0e7bf3929dbdf107cb49356ada005f50c88a31ebac8",
        "streams/nu_0.25/traj_0001.csv": "58c11d160f27eb873671e38bbbcfba20f1a21fb3c3593ed57ae3ca05e06539c4",
        "streams/nu_0.4/traj_0000.csv": "a16feae28959ba469af3d0a924f9305986b39bf53012dd0250c95d3b1eba2de6",
        "streams/nu_0.4/traj_0001.csv": "dfe8fa14dcd740ff137160bef1ecb2f6ef86d015a60d4eb89324b8ff56cc5a01",
        "streams/nu_0.5/traj_0000.csv": "2345cabcee2406c96f580ee078aae57c023f088a1b3576382b2d5b997a65e894",
        "streams/nu_0.5/traj_0001.csv": "fece677e1acd0cf4ada41706ebcd55daa8a44ba2bbd995bc12f3855cb40be02d",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "c0ab3d43cd7228c4d34df949833b76e4e70651e9fae1f2a1272014e1f41d78eb",
        "report.jsonl": "d76b7e2fc1968c6c8e9657b8c93f8833e838d47f9b7bcd24881f754450fc55f6",
        "streams/nu_0.25/traj_0000.csv": "2d283950406b5e0c0949f0e7bf3929dbdf107cb49356ada005f50c88a31ebac8",
        "streams/nu_0.25/traj_0001.csv": "58c11d160f27eb873671e38bbbcfba20f1a21fb3c3593ed57ae3ca05e06539c4",
        "streams/nu_0.4/traj_0000.csv": "a16feae28959ba469af3d0a924f9305986b39bf53012dd0250c95d3b1eba2de6",
        "streams/nu_0.4/traj_0001.csv": "dfe8fa14dcd740ff137160bef1ecb2f6ef86d015a60d4eb89324b8ff56cc5a01",
        "streams/nu_0.5/traj_0000.csv": "2345cabcee2406c96f580ee078aae57c023f088a1b3576382b2d5b997a65e894",
        "streams/nu_0.5/traj_0001.csv": "fece677e1acd0cf4ada41706ebcd55daa8a44ba2bbd995bc12f3855cb40be02d",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "5b9a4ba0897e87111ecbccf447993ac19355059ae64e70b083a9a985f74e7788",
        "report.jsonl": "1c636f00a6b9317eb189e7bd61bd8e950fa540be2fc89f6a124c6cdadf30fad1",
        "streams/nu_0.25/traj_0000.csv": "54fd15468665a862990e1d26a98e052e0cdefd49c2c3c77fbaddd3f8d7e8a365",
        "streams/nu_0.25/traj_0001.csv": "715543a5a2ae03b8f776e5c259daba4660f80b3e37ae09c41057d3b23fe502c3",
        "streams/nu_0.4/traj_0000.csv": "25efcbc0446a3bb970dbaf6cb44c041cbf844e5dbd69aaa21efd05b55c8e4ccb",
        "streams/nu_0.4/traj_0001.csv": "d1819ed9a6fc62137dca0910a40dbd1a37af1b06725765d69cd3dc865dcbe192",
        "streams/nu_0.5/traj_0000.csv": "15d02337aa044f7cc662249df3570c528b9ddfedd9bc78392e442eea6e243015",
        "streams/nu_0.5/traj_0001.csv": "2a946f217bf653a7dcb45ffea9264ecf77c76d83b6654b39953fa8057bcd0867",
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


def checkpoint_bytes() -> bytes:
    """The checkpoint of a short n=1 run (seed 3, stream 2) from a fixed random field."""
    grid = GridSpec(1, 32, 16)
    gen = np.random.default_rng(11)
    c = gen.normal(size=grid.coeff_shape) + 1j * gen.normal(size=grid.coeff_shape)
    params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=3, stream_id=2)
    spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
    state, _ = continue_trajectory(initial_state(SpectralField(grid, 0.2 * c), params), spec, params)
    return checkpoint_to_bytes(state)


def test_checkpoint_bytes_match_golden():
    skip_unless_golden_build()
    assert hashlib.sha256(checkpoint_bytes()).hexdigest() == CHECKPOINT_SHA256


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
        continue_trajectory(initial_state(u0(sid), p), spec, p, rec)
        assert stream_csv_text(records) == stream_csv_text(rec.streams[sid]), f"stream {sid} differs"


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
