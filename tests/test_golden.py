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
    "traj_0000.csv": "d7adc17d3fc2c295d56a4b42088da44da7c3e0489d7709d03288a5f6023fb651",
    "traj_0001.csv": "56165ebd0d3f8dcc6f6d348655076f60faa451f50e28a67b0d24afb1539b0f77",
    "traj_0002.csv": "1f989d8fdff607db5bbcc4e39dd6b53529d00b81f807e0ac50b187f8cbbd5035",
    "traj_0003.csv": "4b47d9dfcee5faa3422c719a204a9b2e7f86f8b5c9639fe621a023211b2325fd",
    "traj_0004.csv": "53c5e271d4baf7b85a5147eb2de9d1eb74b8f5ed8b5d2cc7546d57af4e679143",
    "traj_0005.csv": "88c7c321f66c97f1386cbaaea765300e4fc9f12eac326422504db345edd1d3e7",
    "traj_0006.csv": "db3814734e511727764de80b590a34b6bc01a23ebc55bbddf5c93e23f22e3f94",
    "traj_0007.csv": "fe307e48148e162d020e804a51e21828f5aa1bccb7f76c44e9294d62983097be",
    "traj_0008.csv": "9ede18198103b0f1d16b7ee371568dfb0867c0cb14f5dee56a836e275fb51ba3",
    "traj_0009.csv": "de9a95bbb9df4dd12d00b746d0ca265529630ec5e3089f4d3f565db725d0565d",
    "traj_0010.csv": "b1af10e965d7c4af239d396d910ac427fd2f3ba15e31cd9c0db9fbace009e8b8",
    "traj_0011.csv": "a8399a035d365154b395a4a1dcc7caf1f581e64c6b1e222b9598e4c81e9fe965",
    "traj_0012.csv": "fa4f4ff4019b3172839d270fb04111c28a73a85f8739bfd8f04bdcc7acaf21d2",
    "traj_0013.csv": "eadcf825adb4332daa8378a9e2c98cf7fc337c548f13e858e6077b7e820a2cc0",
    "traj_0014.csv": "2cb9acb8b039327889cf617735416ed0b6b562a8f33738936e75ba361cc90827",
    "traj_0015.csv": "e7bf59fbc0c6291bf55e9472941b64518f80dbc5b90fa69a1d73bf0f62867718",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "5fbc013cd9395a4c7e4a932fffdf6dfceff38313ccbc4d17b382d47895939f7a"


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
        "manifest.json": "95ca99d92cd90c434273dbb677775853f039ac9f0fc4c43964f83dbbe79b99e8",
        "occupation_report.jsonl": "3788866970fb511a4d4f1176f22ea381b5fa24a0cc3651d8fdd646aaecc8bfd4",
        "report.jsonl": "f2ed069486d50c5d5ec3c605af60c51a293cb86ae7522c251afdfc184cd71533",
        "streams/traj_0000.csv": "03d8d18d15eb369a798357c554443aa7e5bad017aaefc7d15254b4d27045ac4e",
        "streams/traj_0001.csv": "1fbbef1a4b9f566bc8e74e413eebd709ae05d334f13640d3b4809728bc0ec9e3",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "289c52104d6d500ad19c134f66e59485733921bb05b5a71b9a7fb47f95e910cc",
        "report.jsonl": "5f5ef8554da7341a5141d458b91ce630f69ce4ed996259fba0d67f499e9d3a17",
        "streams/traj_0000.csv": "6908e47443e7f9d19fab74d2016163aa9c87cfb095d278da802244413fda0f2b",
        "streams/traj_0001.csv": "7164111ab78af810118d3c29a280293b68f99beb26612c6d9485c849b94d3a3c",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "1d8a75723583f89986b352e70a32a6556991b7f46741b54f954be1f78c1861b8",
        "report.jsonl": "f8b6f5fa56a65a4c8d92118217dd8a1d0d76d371f418dc576592eb2c4367dd94",
        "streams/traj_0000.csv": "82570ed1be700968711923fdfc27d3bf49cc4294e51bb507ff61ae1e42bfbacc",
        "streams/traj_0001.csv": "97973ed00f64dbd94b7426d9bec1574cd0f945633e9fe429a73a2337decd66f3",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "7a29ddab0a40378cd8f9477bd519520c2b0cb663517fbf9ebe6e724c8380a168",
        "report.jsonl": "45479ac15e41c5ea750bc09d273e7732b58299b935d465005e51bdd0efaca14e",
        "streams/nu_0.25/traj_0000.csv": "05a5c75f345953c61879c0cebbdcb2192306865dca6d73b2aff4ccc6c6d151cd",
        "streams/nu_0.25/traj_0001.csv": "73db37bbf527421a753396683837b8c378331c1c94380c9d59d293ab2554fcc4",
        "streams/nu_0.4/traj_0000.csv": "83df4bf8c2f153e026c576b59fe1292fa091726ee0a89d0f6b1c7c35d4e3125a",
        "streams/nu_0.4/traj_0001.csv": "356443e9005bc35205498f979fa975bb265dc3cafdf71d5b05c84f76e6a64be3",
        "streams/nu_0.5/traj_0000.csv": "2a87c3d7d9dc192db5cde7ea91cf7c17c2a8311330a3a92812de737d11cd2ff2",
        "streams/nu_0.5/traj_0001.csv": "9e2d8334a3a42b25e52a13b2e7185c2b11850b2c4db73a03e249040456e7904c",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "ab163b4abd3936a6c309dab024a6fed36aad0378cf2619094447950b34a45d15",
        "report.jsonl": "45479ac15e41c5ea750bc09d273e7732b58299b935d465005e51bdd0efaca14e",
        "streams/nu_0.25/traj_0000.csv": "05a5c75f345953c61879c0cebbdcb2192306865dca6d73b2aff4ccc6c6d151cd",
        "streams/nu_0.25/traj_0001.csv": "73db37bbf527421a753396683837b8c378331c1c94380c9d59d293ab2554fcc4",
        "streams/nu_0.4/traj_0000.csv": "83df4bf8c2f153e026c576b59fe1292fa091726ee0a89d0f6b1c7c35d4e3125a",
        "streams/nu_0.4/traj_0001.csv": "356443e9005bc35205498f979fa975bb265dc3cafdf71d5b05c84f76e6a64be3",
        "streams/nu_0.5/traj_0000.csv": "2a87c3d7d9dc192db5cde7ea91cf7c17c2a8311330a3a92812de737d11cd2ff2",
        "streams/nu_0.5/traj_0001.csv": "9e2d8334a3a42b25e52a13b2e7185c2b11850b2c4db73a03e249040456e7904c",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "e9480dfd2d31bd47d1e5d9424c8378a1f8646610ec9a63aa3466e8737a6f6fcc",
        "report.jsonl": "ac494900447b10bf08d95d622c81e1979b7911fff0566bfc3196b8b7dc54039d",
        "streams/nu_0.25/traj_0000.csv": "02fa08aa5689f2454864e0a91266d7bb977f6f5b76074d65a34a1621aa6fa9b3",
        "streams/nu_0.25/traj_0001.csv": "542f8a302a45b5700f165821e5aca59329b7282142dcdd5fbafee206406eacea",
        "streams/nu_0.4/traj_0000.csv": "0811eaa080117443d5b16470952c3768c24622e8a0c134d3b5bf72436c77688e",
        "streams/nu_0.4/traj_0001.csv": "f84fde0b8c56b0f1726024def6a4fe4248d6fbdd9ee25a31c2ad97806208a902",
        "streams/nu_0.5/traj_0000.csv": "c385d48d98c3ba3a052327f9e488868c9c65f3801f37834c52c4733ce9042d37",
        "streams/nu_0.5/traj_0001.csv": "5ddddb351ae9c5ac81599da46927bd01789aa02a579c2494f4633a58696211af",
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
