"""Golden output hashes, and the check that an ensemble equals its single runs.

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
