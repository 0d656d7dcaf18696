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
    zero_field,
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
    "traj_0001.csv": "ae26312e8b6da7b9a3b1a2e9f3d1d249bacd2e00fab04af36ad2bfa15c296021",
    "traj_0002.csv": "472d2b7d2201284b439c02002ac89587c5bdc8c83ec7c6834f95ec46d6eca10a",
    "traj_0003.csv": "f22e43738183da18c44d30277a8e69b4cfc838a886cca49718c19d69be03615b",
    "traj_0004.csv": "0a38b4e41fe695992ddf4242e89781337fba39aed729a89fe29d31e9fd2915fb",
    "traj_0005.csv": "86e7e95183659ae2fd1b3c9777035856119c0186b0af1298f331a2145deddacd",
    "traj_0006.csv": "28630af1d7db1b1b25b41d723902ef3fceea1bda7b978b01d685b8571b415d5c",
    "traj_0007.csv": "8fa20f92fa3800de0351c6003b8db7dbc262e1d40c30e69879950fbd74cbb814",
    "traj_0008.csv": "5363d893609445f78776a3cae8a836ecabaea6f82eece5777b8db9b6dcc1786a",
    "traj_0009.csv": "e922ce2cacfb75955e9aa9db0f11c22fe5a9238a70342377926dc59afa83edc1",
    "traj_0010.csv": "156ee5326c203dd8d7eb96c3726aecf51318b9ce63587b866952c73d17679a50",
    "traj_0011.csv": "94e0ebf7a63cd19bcf6e49aa1dca635a6fb376cec64b21e2f66568613ebfd9a1",
    "traj_0012.csv": "c84354db84dc0cd717a9b2444ef7d6567ddc391212c56578401d68e70664b2a3",
    "traj_0013.csv": "63c4963eb19fa55c20f9fb218e848a726cd4a5d840c85426782a7c7abc296998",
    "traj_0014.csv": "121197db12c70db3e45fd738f8d7076785ff9f55bdbbd08137568ea3a8e36918",
    "traj_0015.csv": "2b6f56d7e6d3eb5f7ea93bbbe5eb5abaa2d12d5691a3d565f141ef22d07a8b22",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "b7894b1a8cfd1725386a837a937b4fbd5961653f99f70709d30e69c94c6bbd95"

# sha256 of ``checkpoint_bytes()``
CHECKPOINT_SHA256 = "174980891982a1fa4c9648a5ff23e5c953a01454629872ea4e508efb157d1360"

# ``_records_digest`` of perfbench/worker.py over the streams of ``records_view_ensemble()``
RECORDS_VIEW_SHA256 = "d9a8788e1bc7938b4229f37300cae4ae25ad54ffa16a44b0481dff3476f4f900"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        "manifest.json": "92be084bd7bc0e4d4b5e35ba1972ad5a486426296ac65c9394e5bee712c787cb",
        "occupation_report.jsonl": "0cde4e608d070c2ca15e8ee3ec02d1013f44e81cdc4cecd4ef9233ce95da3e17",
        "report.jsonl": "b34fe1f1911dc985f49de4098f252a8328d60817fd0d5099ff56d87f8fca4031",
        "streams/traj_0000.csv": "a24bd716132f7f440e5aecf34ce29b87f61c8943746665fea5fb298da1a4441c",
        "streams/traj_0001.csv": "b35495685035d8df46d5852fd66a448bafd82b1af59e437439f61f3baec2aa03",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "daa9100f6020250d3b9c71db64769c80de4ba7c2f2514d47fadc38c1c12cc370",
        "report.jsonl": "b374a19399c5b0ef1586ae54cb17718e15950353207bc9a490d5df3298db7073",
        "streams/traj_0000.csv": "c6c588b21893f9200e75de34c5467b6f18eaf94645dcdcb964e8ba2afdfe71a3",
        "streams/traj_0001.csv": "222a70d0b9612459c1fe25c811f1da05746c4f01c2172535b88b530b0f7d2a4d",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "ac45b1fe7d4ce06f983e82e069e726a5706411eb2f5e17a8761d28de10918571",
        "report.jsonl": "af0aae87123922e3e1c4a44e9131f334a0ef3fdb13b00463a113c191693279f4",
        "streams/traj_0000.csv": "9c39ab776768e1dedc53ffb0e017f207eb8d1c92850177c83ccea9645d6728a4",
        "streams/traj_0001.csv": "6f92e8cc10fa049c6f5a573eb5d2343fc0571dbf70d7501b9ada745bb36dd56c",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "67a631de862538c03316c27489447a4cf5f1d28ecaf970ed86a5f2e3d561e5a9",
        "report.jsonl": "5ecf68e4106ee8587c90d86086d50a176141fc7c440d7aa55d0cd8fd8ac613ae",
        "streams/nu_0.25/traj_0000.csv": "421f869055e4bc0a49a597fb796acfc4a47c9ef2ab2de810b18f00d40fbb2a48",
        "streams/nu_0.25/traj_0001.csv": "632baa307ef5de52ad46ffe91635a27238d7eba53beea7adabe5066db380319b",
        "streams/nu_0.4/traj_0000.csv": "81b6a56741149fd3a9982c1c06981a921fab07ca28358835add7f3f6981dbf36",
        "streams/nu_0.4/traj_0001.csv": "4b28952b6eca64e88a7923098c84460ceb16afc285615945a2a029c2c04aad3d",
        "streams/nu_0.5/traj_0000.csv": "b06b3b7ede5255c89e2b19b26df171954f6d3dd8f6308ca29f74b9c69ad21d8c",
        "streams/nu_0.5/traj_0001.csv": "45f8d3044d3968e84c47716a0faa6de64dc503a8c25a336aab44b9b5f34df96a",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "ef4175dcae331ce533e6dc0ada5458df72e1e131aa6e578958cdf2d0574bb8b3",
        "report.jsonl": "5ecf68e4106ee8587c90d86086d50a176141fc7c440d7aa55d0cd8fd8ac613ae",
        "streams/nu_0.25/traj_0000.csv": "421f869055e4bc0a49a597fb796acfc4a47c9ef2ab2de810b18f00d40fbb2a48",
        "streams/nu_0.25/traj_0001.csv": "632baa307ef5de52ad46ffe91635a27238d7eba53beea7adabe5066db380319b",
        "streams/nu_0.4/traj_0000.csv": "81b6a56741149fd3a9982c1c06981a921fab07ca28358835add7f3f6981dbf36",
        "streams/nu_0.4/traj_0001.csv": "4b28952b6eca64e88a7923098c84460ceb16afc285615945a2a029c2c04aad3d",
        "streams/nu_0.5/traj_0000.csv": "b06b3b7ede5255c89e2b19b26df171954f6d3dd8f6308ca29f74b9c69ad21d8c",
        "streams/nu_0.5/traj_0001.csv": "45f8d3044d3968e84c47716a0faa6de64dc503a8c25a336aab44b9b5f34df96a",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "f5066309d5a5f680227fec06512e65fd9001873c6f285ff7d56ad6861aaa3aee",
        "report.jsonl": "cd1a94a8ad3ca6e7772967d10a365d9a7840893e528ed38ed5fa1c93314837d9",
        "streams/nu_0.25/traj_0000.csv": "87ac2b74970edad56ae96f2c747c2ec292a12449adef7792a7c56bd66463dd99",
        "streams/nu_0.25/traj_0001.csv": "384f5ef7c55c175e44a777544978388745aee03de1cc2bf15abec1dbbb5539eb",
        "streams/nu_0.4/traj_0000.csv": "38a512f4552c4b32cd916a3e49d1f48e7edb293f34a2ff4141d6bfd5bc6cc073",
        "streams/nu_0.4/traj_0001.csv": "10ee1ee2eedbe833095dc74afb22671c35301cc7049124c69c7b8d7b7c32e448",
        "streams/nu_0.5/traj_0000.csv": "f630ebfd47de69d1c9c03f7231f7e7a9a0e7ca1ab1bf520bb58732af546a1563",
        "streams/nu_0.5/traj_0001.csv": "656d4dc7614d76d914abc5961be625852509cbb67a7fb928d65b64d15d3068e9",
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
    shape = (1, *grid.coeff_shape)
    c = gen.normal(size=shape) + 1j * gen.normal(size=shape)
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


def records_view_ensemble():
    """A short linear-noise n=1 ensemble at M=4 with C^2 and shells: 200 steps per stream."""
    grid = GridSpec(1, 64, 32)
    params = SimParams(nu=0.5, dt=0.01, T=2.0, record_every=10, seed=11)
    u0 = zero_field(grid)
    _, streams = ensemble_run(
        grid, NoiseSpec.from_profile(grid, "band:1,1,1"), params, 4, lambda sid: u0,
        recorder_factory=lambda p: NormRecorder(nu=p.nu, cm_order=2, shells=True),
    )
    return params, streams


def test_benchmark_record_view_matches_golden(monkeypatch):
    # The benchmark digests and counts steps through s[i] record views of each stream.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import _records_digest

    params, streams = records_view_ensemble()
    assert sum(round(s[-1].t / params.dt) for s in streams) == 4 * params.n_steps == 800
    skip_unless_golden_build()
    assert _records_digest(streams) == RECORDS_VIEW_SHA256


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
