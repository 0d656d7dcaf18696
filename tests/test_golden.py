"""Golden output hashes, and the check that an ensemble equals its single runs.

The golden runs cover every subcommand that writes files; their hashes pin
every byte of each run directory (manifest, config, reports and streams).

Output bytes depend on the numpy and scipy builds and on the CPU's SIMD level
(with FMA, a complex product rounds differently with its operands swapped).
The golden hashes below were taken on the build named in ``GOLDEN_ENV``; on
any other build those tests skip and name the difference.  The ensemble
cross-check holds on any build: M trajectories stepped together as one array
give, bit for bit, the streams of M single-trajectory runs.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy

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
    "scipy": "1.17.1",
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
    "traj_0000.csv": "0a3a38d4564c3c49842e5b323d4a485d4f0cdfffdcfce5b20ecf99d8692d77f0",
    "traj_0001.csv": "ebfa7ec204089a8d2f3e79c5db4e2ee12f32ec19209f7e0ae49e021be44d1a72",
    "traj_0002.csv": "b286c9d20d45090c8883aa055b134a2f027a08c3b82a01335a53c7a112308a45",
    "traj_0003.csv": "f1fc86fe9e82b0940068d03542fe3abf07fbe25c8e99aa95b12906558762ac5e",
    "traj_0004.csv": "ac29baa2dcff29ce6a406ee1b647b02194eb4711d6ec19b75edad4c26708aeea",
    "traj_0005.csv": "61cc68c7f78355985e032a0c76f32597148bc2c73f468b4a5c2f556d27c040e5",
    "traj_0006.csv": "e2147d6e0c820076657ce7ec697d0fa277667ede9ce814057a519bff7a92af1f",
    "traj_0007.csv": "364e65a9f0ece2fe5d44e0c2a889f146b8386dba6ff43d3513ca9fa94e71e88e",
    "traj_0008.csv": "a34cd812c2867c8b4231d92bfb0b4f0bb26b700212d13239c895cb84d9287c0a",
    "traj_0009.csv": "9e9e69742635c6b287a6af89a7758431664f7c399f826e4cb70a554b2091cb7d",
    "traj_0010.csv": "28dd702f1ac7ec235290ef4c0b66aaa6e3ccf54703480119a85ad08e802403a9",
    "traj_0011.csv": "e93f0e1b4349aed390fbeaa4016252aac2028f35aa4ffd5d6b0a8ddfd51487e6",
    "traj_0012.csv": "f1d0d2127f351278662033c6ff8e0bb73598b6c2c999784a4e58b44a5e76346a",
    "traj_0013.csv": "c541d1299d03d9417c55bdbd9e1865f92c7fb30520bb19712056c39ff599b2d9",
    "traj_0014.csv": "9dea081863391f0e7e9f75e6fbeb24ae6242e0a4e1ea60df31c0bcf056c82c7c",
    "traj_0015.csv": "b2595424882edee5008743529b9ec1d3529c197d252d885f604d5ea4b4e9df59",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "e6c529fec2ac0866375927ed2d0e4f684a38b8aeed4d37e7f41e287edfeb13e0"


def env_stamp() -> dict:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
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
        "manifest.json": "74cf9fdd5c99aacf696e719f2aa54f64723763930e67201fd8ff99e6278a2b42",
        "occupation_report.jsonl": "60f323fbe9fccd71d2d803e7482e4617e62e7d4b9495b6e351cf1dc114e851b1",
        "report.jsonl": "c29db4b219a3b8d17e6c6c2f02c779ab385af96390843f28764d370b47a96e7d",
        "streams/traj_0000.csv": "f6f29db4739e424208df588e703b91be8abfe9852202ede320a995ef70a1b07e",
        "streams/traj_0001.csv": "81837d5902a7e6d1823d4bf4ab6751fbdffa30648f7b401aefd9fef333621c4e",
    },
    "simulate-fast": {
        "config.ini": "a7f1ba2cefa99d3c01dbd3db1f227bbd51994bc140d2db497e5edfbc1c640112",
        "manifest.json": "d22ee7a3a08b8a6da15b6bc432bfcf6d417ef69d8d40f2a068117f45726cfb14",
        "report.jsonl": "592aac23a278545c1ce667ab12cca7d0af1a14620bd04fa74fd557c056f5a75c",
        "streams/traj_0000.csv": "fab7346a82cfa4f7b733b36269c4d2362fc8bb1c4938b6d9cf26ddf7c14b45d6",
        "streams/traj_0001.csv": "8e5c84795d6b1b6a62c1e21380bb9ab638c847bae91b8da4bba658026a52294e",
    },
    "spectrum": {
        "config.ini": "cce74964518b9418d7653a39ed7445742afb0099234a3a0dd795c23d3fcf35c0",
        "manifest.json": "235a40c6b37ded2502185b676754e64fe6b9db4e2f2dbd380a32f6051e893f84",
        "report.jsonl": "64b2eb8908fbb50b290c0e70b0f087c485eba829432ba148d2ccd0967ab5828c",
        "streams/traj_0000.csv": "2ce7fa6b73aab8428925eb64a444d5ea7cdc0adff64043d448fea13cfb2d4f86",
        "streams/traj_0001.csv": "54b0554de48099dc55dbf2f3cfa7bf94defefddb871356995b85ae54b95c5e46",
    },
    "sweep-slow": {
        "config.ini": "c88e843ebf461471f57903e49538d6257692c5849a3a5fb9ee2475cba18e58c1",
        "manifest.json": "a48d0540246fd2392d50e8fa0770516a4262ad9653154bdc785c75f9442446bd",
        "report.jsonl": "43f64e5c23d805fed033113cb38171cb4e9409332c410f21e6840703603576f7",
        "streams/nu_0.25/traj_0000.csv": "aa4965eee8c0ad1f22ef9a47102d315dcd4d0b8c954178cb3de574fcfe4ae518",
        "streams/nu_0.25/traj_0001.csv": "399672de52b080411e8c9c5218d5991fae62926b0f7bff24258eeef6790b8db4",
        "streams/nu_0.4/traj_0000.csv": "2b6cdceda10899baea13878cc487fd7e2014aea76caa5be688cb1085c542a9ce",
        "streams/nu_0.4/traj_0001.csv": "656d8e44aa8d74d7f48ba8ae6d062466ae033b866688de5fa1163b503759f165",
        "streams/nu_0.5/traj_0000.csv": "52c75d3a0fee110d54d5a524bdd1f1ecdf2f18d5fdb3579b7e55f5795714af23",
        "streams/nu_0.5/traj_0001.csv": "a19853792515a85aaa34648a53074e99f54b199b86e0386fd4f0581aa8b77787",
    },
    "sweep-fast": {
        "config.ini": "ea929485771aa343f4520296c4716117284cff5cc870af66f91ccb11b1cb4746",
        "manifest.json": "ee35e5fb665e934be2872197f060e471db6ffc40b76b08317d171b052fc830b5",
        "report.jsonl": "43f64e5c23d805fed033113cb38171cb4e9409332c410f21e6840703603576f7",
        "streams/nu_0.25/traj_0000.csv": "aa4965eee8c0ad1f22ef9a47102d315dcd4d0b8c954178cb3de574fcfe4ae518",
        "streams/nu_0.25/traj_0001.csv": "399672de52b080411e8c9c5218d5991fae62926b0f7bff24258eeef6790b8db4",
        "streams/nu_0.4/traj_0000.csv": "2b6cdceda10899baea13878cc487fd7e2014aea76caa5be688cb1085c542a9ce",
        "streams/nu_0.4/traj_0001.csv": "656d8e44aa8d74d7f48ba8ae6d062466ae033b866688de5fa1163b503759f165",
        "streams/nu_0.5/traj_0000.csv": "52c75d3a0fee110d54d5a524bdd1f1ecdf2f18d5fdb3579b7e55f5795714af23",
        "streams/nu_0.5/traj_0001.csv": "a19853792515a85aaa34648a53074e99f54b199b86e0386fd4f0581aa8b77787",
    },
    "stationary": {
        "config.ini": "ac2b2d30290eb5486c97b2dcbab0c4672cb6eda33075b1626c1a98e8147fbc71",
        "manifest.json": "b094e34741e37b131a67bd718118db78b8c9c5e6eb67fc3bf197ccf9de071089",
        "report.jsonl": "2238dd20bd634b5aeb7392b5edaf874706a75660167f8d0068e6afd8e19baf35",
        "streams/nu_0.25/traj_0000.csv": "8e0ec61aa6fcf43fde863dd32f59e8d572aa93d8fd615de46f26ac37e0f549de",
        "streams/nu_0.25/traj_0001.csv": "18661dc0d78985d696556cd8129acbccb063bf2278f45342fdf397a42d2f9604",
        "streams/nu_0.4/traj_0000.csv": "56c35e0e967791ad239251a292812e7185604474df33d9033e6cf9adbf39055f",
        "streams/nu_0.4/traj_0001.csv": "8edde8c21e009496590340d851a74d9a9d924c42705d5dbdd065869b325dbbfa",
        "streams/nu_0.5/traj_0000.csv": "100fecdd7ec2968d11db4b57e54723a9d71b6c18228d1a42738a14d817d48836",
        "streams/nu_0.5/traj_0001.csv": "fd59162fc2ea7e482b0eb9fdb67ad91077a8811e99dade54949673ceb11a0821",
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
    "grid, scheme",
    [
        (GridSpec(1, 64, 32), "strang"),
        (GridSpec(1, 32, 16), "em"),
        (N2_GRID, "strang"),  # M=16 lattice batch is 256 KiB: numpy's temporary-elision size
        (N2_GRID, "em"),
    ],
    ids=["n1-strang", "n1-em", "n2-strang", "n2-em"],
)
def test_ensemble_equals_single_runs(grid, scheme):
    nu, M = 0.5, 16
    dt = default_dt(scheme, nu, grid)
    params = SimParams(nu=nu, dt=dt, T=12 * dt, scheme=scheme, record_every=4, seed=99)
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
