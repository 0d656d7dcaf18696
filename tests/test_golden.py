"""Golden output hashes, and the check that an ensemble equals its single runs.

The golden runs cover every subcommand that writes files; their hashes pin
every byte of each run directory (manifest, config, reports and streams).

Output bytes depend on the numpy build, the BLAS build it links (the
transforms are products with sine matrices), the BLAS kernel it picks at run
time and the CPU's SIMD level (with FMA, a complex product rounds differently
with its operands swapped, and the bits of ``np.tan``, which gives the phase
factor, follow numpy's SIMD dispatch).  The golden hashes below were taken on the build
named in ``GOLDEN_ENV`` and hold with either OpenBLAS kernel in
``GOLDEN_KERNELS``; on any other build or kernel those tests skip and name the
difference.  The ensemble
cross-check holds on any build: M trajectories stepped together as one array
give, bit for bit, the streams of M single-trajectory runs; so does the check
that one and two BLAS threads write the same bytes, and so does the check
that the default and the Haswell OpenBLAS kernels do, wherever both run.
"""

import ctypes
import glob
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
from cascade_lab.spectral import GridSpec, SpectralField, to_physical, to_spectral
from oracles import run_em_on_path, run_strang_on_path, sample_coupled_path

GOLDEN_ENV = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd_baseline": ["X86_V2"],
    "simd_found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

# OpenBLAS kernels under which every golden hash holds (both have FMA; with
# OPENBLAS_CORETYPE=Sandybridge, which has none, four golden tests differ).
GOLDEN_KERNELS = ("SkylakeX", "Haswell")

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
N2_ENSEMBLE_SHA256 = "0cac30b3a78ab68601d384f40160576ec8a0f238acf01fe3e08d0ac808e897bb"

# sha256 of ``checkpoint_bytes()``
CHECKPOINT_SHA256 = "e106575cb5e04534521e7cbf480cc9c79337fa7bb136435f3a010dca2a9a165d"

# sha256 over the final coefficients of every chain in ``coupled_path_chains()``
COUPLED_PATH_SHA256 = "51d1d1f9ee1f5496c6c2b198c2d38e96c7a9989e64cc8353e41c35160e93601f"

# ``_records_digest`` of perfbench/worker.py over the streams of ``records_view_ensemble()``
RECORDS_VIEW_SHA256 = "de910cf65adcd365e7b7efbd603e26de44c37589ad580f698538e3896bb8b6cf"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked at run time (e.g. SkylakeX), or "?" if it cannot say."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*.so*")
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "?"


def env_stamp() -> dict:
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_kernel": blas_kernel(),
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
    }


def skip_unless_golden_build():
    here = env_stamp()
    diff = [f"{k}: {here[k]} here, {v} golden" for k, v in GOLDEN_ENV.items() if here[k] != v]
    if here["blas_kernel"] not in GOLDEN_KERNELS:
        diff.append(f"blas_kernel: {here['blas_kernel']} here, one of {', '.join(GOLDEN_KERNELS)} golden")
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
# as overrides.  Every horizon is an exact integer number of steps.
# ``simulate-fast`` takes T = 3.0 at nu = 0.1, where T * nu / nu is
# 3.0000000000000004; ``SimParams.n_steps`` rounds both to the same 150 steps.
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
        "manifest.json": "a5a30ec70512c3cabac1edffc432f265bc291590115f80b18d1c5036b9e4738a",
        "occupation_report.jsonl": "4b810b13429e80da6e1a9813115ca1869c8d1b6b597968b8ca4f2b85bfb382d4",
        "report.jsonl": "8d267c282be91381f5dc8f46bc48883b25b18517b73a9960898020d113da1496",
        "streams/traj_0000.csv": "115d9d8b27161673418df7e9e8de7d49aff194b4cf4c35629cd739396e8ca143",
        "streams/traj_0001.csv": "f69548ebd4e8ca47fd3e04ee41ef0fe52e88c396a53e4958c827b887ee48afb7",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "baa18439cdf04a403f0d64eef5c9d88dc01d020257722fa5a526df57bccab413",
        "report.jsonl": "a44573405bf7b9095b4fc2cfcf63b4c5233b240618eb2ada47f60c11ef83120d",
        "streams/traj_0000.csv": "c0aa26fafe0e4e9380773d67999c6c7886fe9f4d86d1b2552b31a09b88b08f2a",
        "streams/traj_0001.csv": "477f66339b31084c062f86f5fc95c739ac3630389a7151e846ad90a0cec01f86",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "3f455df51197b926b7c11154c9f6d9bd44ae2681010f0549c88aa7d854041fa0",
        "report.jsonl": "d16a760ae3b03f3b2b6ce51ad284bbd935da4aefb8af8bb7af6adfacc93a9c38",
        "streams/traj_0000.csv": "e20f3bf1ffc9d44ebe72ad19c68e6c53be22c61ac088e430fe4e6a5114d2013a",
        "streams/traj_0001.csv": "361dd1823c313c8efad4a629d2f3b61bd71eef386e59702d053dcfaabcf8459c",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "f8a13ec3602b41a2f4f28577a3964eba6f6abee391d61578921c1d47a0e3f2ef",
        "report.jsonl": "e24647ee89dfc24e3b9989168cf6b9b7a3b08643b7f732b0ca32c332fc683a4a",
        "streams/nu_0.25/traj_0000.csv": "e6a3301f2e2b21310dc8dcedd6c94555976f3b7928d98622594795ddf752d7ff",
        "streams/nu_0.25/traj_0001.csv": "17bc4f7cbb7f77f80a9da1686ae1dae67f9cd600d5614fc41ac10527e02368b9",
        "streams/nu_0.4/traj_0000.csv": "e6f77b73a46048444b3355a6880c16f09b76f3c9c7b4c61d49b6a72e8025494a",
        "streams/nu_0.4/traj_0001.csv": "215f5a0fee9be7535968a53e090b0d39e9c8f57bebae5a51382a7ae691969377",
        "streams/nu_0.5/traj_0000.csv": "b1d6bdde274fc25041833f6bae620519f29f9829b1305b215c6198cc98af6298",
        "streams/nu_0.5/traj_0001.csv": "90f9ccfbf35a7b608723d60e4a1e63a9355218c05f7c95e97435aac7c4ee902c",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "0f148c6da63980eba8a6ef7b924223795eb1514ca705a50da573785d34417a03",
        "report.jsonl": "e24647ee89dfc24e3b9989168cf6b9b7a3b08643b7f732b0ca32c332fc683a4a",
        "streams/nu_0.25/traj_0000.csv": "e6a3301f2e2b21310dc8dcedd6c94555976f3b7928d98622594795ddf752d7ff",
        "streams/nu_0.25/traj_0001.csv": "17bc4f7cbb7f77f80a9da1686ae1dae67f9cd600d5614fc41ac10527e02368b9",
        "streams/nu_0.4/traj_0000.csv": "e6f77b73a46048444b3355a6880c16f09b76f3c9c7b4c61d49b6a72e8025494a",
        "streams/nu_0.4/traj_0001.csv": "215f5a0fee9be7535968a53e090b0d39e9c8f57bebae5a51382a7ae691969377",
        "streams/nu_0.5/traj_0000.csv": "b1d6bdde274fc25041833f6bae620519f29f9829b1305b215c6198cc98af6298",
        "streams/nu_0.5/traj_0001.csv": "90f9ccfbf35a7b608723d60e4a1e63a9355218c05f7c95e97435aac7c4ee902c",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "b0bcf9d7f6121dc142f615479d813c19a68819b0d2b8fd6d9d034b959f834150",
        "report.jsonl": "e0e81d1d7ac3cd9e465019bbe1ab8663cc3e256e8459755eedd5cf72313885c2",
        "streams/nu_0.25/traj_0000.csv": "d2093076f40ef4804bea4de554ae58ef51b4b53290bbb4e7261a6e67b25b6da2",
        "streams/nu_0.25/traj_0001.csv": "4e777382b695eba45aed35ea22d6e30578a89a88140d96426f8ad24e7d41f4d7",
        "streams/nu_0.4/traj_0000.csv": "9d83f01d3f6b708aabaaf9dbbb9e6f54d7d1aaf1be70fe04c8b46500f61308c3",
        "streams/nu_0.4/traj_0001.csv": "4fd50de20772e652c74558476571b56cdbf6361bcb90f603f85c005b7ab230a3",
        "streams/nu_0.5/traj_0000.csv": "0762372a3857069f46a40336bf81aae79b29e9cda3a33f7973deb880415416fa",
        "streams/nu_0.5/traj_0001.csv": "b87d2a6a1e07236cdd61f617fe6bc6eaa46c3568bc4396a86760f1d28850bec7",
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


def n2_ensemble(grid=N2_GRID):
    """A short nonlinear n=2 ensemble at M=16: on ``N2_GRID`` its lattice batch is 256 KiB."""
    nu = 0.2
    params = SimParams(nu=nu, dt=0.01, T=0.4, record_every=5, seed=777)
    observables = (Observable("sup_sobolev", 2.0), Observable("sup_cm", 2.0), Observable("sup_inf"))
    u0 = constrained_profile(grid, nu, sup_bound=2.0)
    return ensemble_run(grid, NoiseSpec.from_profile(grid, "band:1,1,1"), params, 16, lambda sid: u0, observables)


def n2_ensemble_hash(grid=N2_GRID) -> str:
    summary, streams = n2_ensemble(grid)
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


def coupled_path_chains():
    """Strang and EM chains on criterion 5's grid, linear and not, and an n=2 Strang ladder, on coupled paths."""
    grid = GridSpec(1, 32, 16)
    u0 = constrained_profile(grid, 0.2)
    path = sample_coupled_path(NoiseSpec.band(grid, [1.0, 1.0, 1.0]), 0.2, 0.00125, 800, RngStream(1000, 0))
    for dt in (0.01, 0.005, 0.0025):
        for nonlinear in (True, False):
            yield run_strang_on_path(u0, path, dt, nonlinear)
            yield run_em_on_path(u0, path, dt, nonlinear)
    grid = GridSpec(2, 16, 8)
    u0 = constrained_profile(grid, 0.2)
    path = sample_coupled_path(NoiseSpec.band(grid, [1.0, 1.0, 1.0]), 0.2, 0.0025, 400, RngStream(1000, 1))
    for dt in (0.02, 0.01, 0.005):
        yield run_strang_on_path(u0, path, dt)


def test_coupled_path_chains_match_golden():
    skip_unless_golden_build()
    h = hashlib.sha256()
    for u in coupled_path_chains():
        h.update(u.coeffs.tobytes())
    assert h.hexdigest() == COUPLED_PATH_SHA256


def records_view_ensemble():
    """A short linear-noise n=1 ensemble at M=4 with C^2 and shells: 200 steps per stream."""
    grid = GridSpec(1, 64, 32)
    params = SimParams(nu=0.5, dt=0.01, T=2.0, record_every=10, seed=11)
    u0 = zero_field(grid)
    _, streams = ensemble_run(
        grid, NoiseSpec.from_profile(grid, "band:1,1,1"), params, 4, lambda sid: u0,
        recorder_factory=lambda p: NormRecorder(nu=p.nu, cm_orders=(2,), shells=True),
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
    return NormRecorder(nu=p.nu, ms=(0.0, 1.0, 2.0, 3.0), cm_orders=(2,), shells=True)


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


CROSS_KERNEL_GRIDS = (GridSpec(1, 12, 6), GridSpec(1, 20, 10), GridSpec(2, 24, 12), GridSpec(2, 40, 20))


def transform_pair_hashes() -> list[str]:
    """Per cross-kernel grid, a hash of to_physical and then to_spectral on one fixed M = 3 random block."""
    hashes = []
    for grid in CROSS_KERNEL_GRIDS:
        gen = np.random.default_rng(23)
        shape = (3, *grid.coeff_shape)
        values = to_physical(grid, gen.normal(size=shape) + 1j * gen.normal(size=shape))
        hashes.append(hashlib.sha256(values.tobytes() + to_spectral(grid, values).tobytes()).hexdigest())
    return hashes


def test_haswell_and_default_kernels_write_the_same_bytes():
    # At n=2 N=12 D=6 the projection's last-axis product has 12 columns unpadded, where the
    # SkylakeX and Haswell dgemm kernels round differently; padded to 16 they agree.  The
    # transform pair must also agree on the other grids the README names.
    code = (
        "import test_golden as g\n"
        "print(g.blas_kernel(), g.n2_ensemble_hash(g.GridSpec(2, 12, 6)), *g.transform_pair_hashes())"
    )
    tests_dir = str(Path(__file__).resolve().parent)
    (default, default_hash, *default_pairs), (haswell, haswell_hash, *haswell_pairs) = (
        run_python(code, OPENBLAS_CORETYPE=coretype, PYTHONPATH=f"{SRC}{os.pathsep}{tests_dir}").split()
        for coretype in ("", "Haswell")
    )
    if haswell != "Haswell":
        pytest.skip(f"the Haswell kernel cannot run here (OpenBLAS picked {haswell})")
    if default == "Haswell":
        pytest.skip("the default kernel is Haswell: no second FMA kernel to compare")
    assert default_hash == haswell_hash, f"{default} and Haswell kernels write different bytes"
    differ = [str(grid) for grid, a, b in zip(CROSS_KERNEL_GRIDS, default_pairs, haswell_pairs) if a != b]
    assert len(default_pairs) == len(haswell_pairs) == len(CROSS_KERNEL_GRIDS)
    assert differ == [], f"{default} and Haswell kernels transform differently on {differ}"


def test_package_and_selftest_do_not_load_scipy():
    code = (
        "import sys, cascade_lab\n"
        "from cascade_lab.cli_io import run_command\n"
        "code = run_command(['selftest'])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    assert run_python(code) == "0 False"
