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
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from cascade_lab import cli_io, schema
from cascade_lab.cli_io import run_command
from cascade_lab.diagnostics import (
    BalanceReport,
    NormRecorder,
    OccupationReport,
    StationaryCheckReport,
    stream_csv_text,
)
from cascade_lab.experiments import (
    EnsembleSummary,
    Observable,
    ObservableStats,
    ScalingFit,
    SweepPlan,
    ensemble_run,
    nu_sweep,
)
from cascade_lab.forcing import NoiseSpec, RngStream
from cascade_lab.integrators import (
    SimParams,
    State,
    checkpoint_to_bytes,
    constrained_profile,
    continue_trajectory,
    initial_state,
    smooth_random_field,
    strang_step,
    zero_field,
)
from cascade_lab.spectral import GridSpec, SpectralField, to_physical, to_planes, to_spectral
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
    "traj_0000.csv": "b0fae864726ad29696ddef6e932396ca049f5946a0e2fb5e61aa36ee6fd366a6",
    "traj_0001.csv": "1bc6a34cc332ae87189f78e1c28658a617f9d3a6e5ae8da96707774a73e7955a",
    "traj_0002.csv": "60dc5bfdec495384c5c74f2a324ce753431cb8dcb293288cf07d826389235186",
    "traj_0003.csv": "76526049a514fbddd246d5f15875765160a7bd2f4edcf3484db9e6fd00d0ac7e",
    "traj_0004.csv": "6c020b8377df07f159952d8c8935dbd37323215f2e25237cf14c93b52d4839bb",
    "traj_0005.csv": "f3511399a709244f96c9709c63638a799944daadce954213f8092c45eb4c241a",
    "traj_0006.csv": "f10aa9f9fbee10147d12c1c1baef9a58a05a2cdaef9d88775b99c1ede29dd90e",
    "traj_0007.csv": "d372da82aaa78aa319aca8447a0c8478742a174abd4c8377840afeabcae85096",
    "traj_0008.csv": "abf1794a46172cb306470a8c9f66c29263ee1cfe29113a4f70560b0088330762",
    "traj_0009.csv": "56a981350ed1c4a587f31f0f468c1a72b16eb648fe85904ed6c705cb4186d876",
    "traj_0010.csv": "bf7540760948d49df702116b2203a7950281cb41018306136aafe85ed3fd5cc7",
    "traj_0011.csv": "a34cdb2dbf5b8de242de6cee8f824b113ca808f06ccccecec4fffb5626c50e95",
    "traj_0012.csv": "b9b299e09168eb671c6e276cf9dba3f50dec05cdd4c47cb7c9d477218439e5f5",
    "traj_0013.csv": "d925931d899b8e9fcb4327ad3cf01a535f623a4e10cad832e00a1907ea21bc24",
    "traj_0014.csv": "3c80b317b767ef31f1e0d943d49320acd864a19da65203c93a94d65ba89c6323",
    "traj_0015.csv": "c961a57c14ccfc7d3544c248872317e7bb2a20c9e92825d63d16a475adcdb653",
}

# sha256 over the CSV streams and the summary of ``n2_ensemble``
N2_ENSEMBLE_SHA256 = "6432072332511a7f3dcf945db431abc298b559d18e1a4661bb186f7572cd7a39"

# sha256 over the CSV streams and the summaries of ``n2_sweep``
N2_SWEEP_SHA256 = "a108cf26d4a06e1d9e996f7b754b6fa94fb16b9b79316c0210f631aeceb4cae5"

# sha256 over the CSV streams and the summaries of ``coupled_sweep_hash(n)``, per n
COUPLED_SWEEP_SHA256 = {
    1: "1e6d1140c1eff54a3a41f4cdfefb232788da604bd082deaad5d9a0f39e53bf3c",
    2: "c174d74d25d2427ea201be2ead37f41c99cfc5c3aee8fb269c59eb3e6783283b",
}

# sha256 of ``checkpoint_bytes()``
CHECKPOINT_SHA256 = "05a251b5d6fbab2c30d663bea57d4dfa5561b12d58737c71e9a8d85815dc6fff"

# sha256 over the final coefficients of every chain in ``coupled_path_chains()``
COUPLED_PATH_SHA256 = "9e026bbc0dc33060a1b2464fa599cd085a7629e1d5142588e92500a2c9b75455"

# ``_records_digest`` of perfbench/worker.py over the streams of ``records_view_ensemble()``
RECORDS_VIEW_SHA256 = "06201861bfdf78652d6656945a808e58dad1ebcad55ae524d3d46ac046351dca"

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
        "config.ini": "896e10a2a6486e31f69e808d1266d7016fbe1d4e464dde7e1020fb262286a391",
        "manifest.json": "833d008a91266b99211249a2ec49dda632a19d8ddacbfe961679ab2c3386486d",
        "occupation_report.jsonl": "0a0a9eec85dcd2f3761f1f12247220b658628ba6271d35534dd2f4b980f52cbb",
        "report.jsonl": "5abe468d928ba1b7b5f4b498c11a0afeafed7e7bf288641ca53a341d7a6f3f6b",
        "streams/traj_0000.csv": "93e304460655031031442b5414fbee66401bc742c6ef5a893a49742cf71710c6",
        "streams/traj_0001.csv": "2f4b11db07d4bd6ddc96c81e7332201f2692c832bdf91c283e51351f9a9b0bc1",
    },
    "simulate-fast": {
        "config.ini": "8ff7543601b89f7c98e9e0c56fd8acd348c66efe42ecb8808cf7fc8fcba71107",
        "manifest.json": "b5263675190a9a6cb0b88956feafd008bbb33b83a2b37f6ae6be046d57193ca5",
        "report.jsonl": "6e19e90a1dfa8ce4a80b41ee15d9555297662235ecfbe97bb32d8a449c018040",
        "streams/traj_0000.csv": "f0795b8216dc10082d4378372b5ab769e7acdea9838ccde033b995cb696543f8",
        "streams/traj_0001.csv": "722af744426c37be5a65d1b3afed90690d45696643afa6219bb7f3f050199355",
    },
    "spectrum": {
        "config.ini": "2b6de225e18c81c7dfab981921357b40dd31c66a5159e0a06a3051a3d78ee466",
        "manifest.json": "90ecab445ded2a9c24557f4e61c9561ec5adb1024309784c02a5845a2124888f",
        "report.jsonl": "b4ac5eb105119a7b936b61dcafa6e5da6de03f0b56dca0e381c2db26d53551c3",
        "streams/traj_0000.csv": "74b8e509c83aa3980b293da887d6f50675d7fbffc2eb9a3dffc3dc69695c8a89",
        "streams/traj_0001.csv": "2f4508200addf3eefbfb6cc98e3c4e3740c77b85f61f80ca37a5f8c83d430992",
    },
    "sweep-slow": {
        "config.ini": "5aba1c0a83973e4cf118e01c2423409d3bc891d2da94920cb0d2c894380b04ba",
        "manifest.json": "9208d2df7347c871610ed9ea61494625ff5d5141b213be7f93f0db0758592f7a",
        "report.jsonl": "ee181e68db9ae921d8b1fe5a7ca29655cdc95dda6c89e890a65aec423d146465",
        "streams/nu_0.25/traj_0000.csv": "3feddfccb77ffd66d7ff5e0ab0af0d17303187754ab30eeea69bfa02bfc49c2d",
        "streams/nu_0.25/traj_0001.csv": "1728fcc6b69cc7a205cfe0cc9bfe7cf794b765b7bf00f54355a9b05e70d06cb2",
        "streams/nu_0.4/traj_0000.csv": "dc6f990386a260abc626cc87a5c9a2e1794374efe94d30500f90f1880cf375a4",
        "streams/nu_0.4/traj_0001.csv": "492eba4904edb6009682eaf9f5cebfacba54814e944c9f826fb901a42ea3ba11",
        "streams/nu_0.5/traj_0000.csv": "2f56acbfcb9661236c6ea5f00572ce23ae7a4e7024c66938f92da782d8c80b59",
        "streams/nu_0.5/traj_0001.csv": "631692ad2c5473d31e443415d2f2d994eb23af3131344ad74dbabff7796a6bd4",
    },
    "sweep-fast": {
        "config.ini": "508439e255748ac1cd622834c62904f7151e08f8c9c10e5fd75d1bd368b73b4b",
        "manifest.json": "ec6ba7b3aa4a3a9d014b20e1518f515a8cdb8cc950a1de4622afbb32917e8f93",
        "report.jsonl": "ee181e68db9ae921d8b1fe5a7ca29655cdc95dda6c89e890a65aec423d146465",
        "streams/nu_0.25/traj_0000.csv": "3feddfccb77ffd66d7ff5e0ab0af0d17303187754ab30eeea69bfa02bfc49c2d",
        "streams/nu_0.25/traj_0001.csv": "1728fcc6b69cc7a205cfe0cc9bfe7cf794b765b7bf00f54355a9b05e70d06cb2",
        "streams/nu_0.4/traj_0000.csv": "dc6f990386a260abc626cc87a5c9a2e1794374efe94d30500f90f1880cf375a4",
        "streams/nu_0.4/traj_0001.csv": "492eba4904edb6009682eaf9f5cebfacba54814e944c9f826fb901a42ea3ba11",
        "streams/nu_0.5/traj_0000.csv": "2f56acbfcb9661236c6ea5f00572ce23ae7a4e7024c66938f92da782d8c80b59",
        "streams/nu_0.5/traj_0001.csv": "631692ad2c5473d31e443415d2f2d994eb23af3131344ad74dbabff7796a6bd4",
    },
    "stationary": {
        "config.ini": "ef0bddd6d86eea013200b385099afbd00485da531789ee011f2ee566f3aec575",
        "manifest.json": "2852b6921952b0248d90edf24757fc5298635de9a1a92cea648893d7689d7040",
        "report.jsonl": "de6d73d188bde9ba95e8041b76fec30804104d58f86b484d9ca2149ac763c991",
        "streams/nu_0.25/traj_0000.csv": "44c914d99474cd68ea9cbc19fde370113f85c82d5ec52138425a4460457de93b",
        "streams/nu_0.25/traj_0001.csv": "d75120a303b27981b69405ae27fa396cfeeddddcba9ea5b18f2241d615b209fe",
        "streams/nu_0.4/traj_0000.csv": "51cd2ec443ac52f70426105379059c25a5f6ae4a96f5f806dd1aca9b99dde55b",
        "streams/nu_0.4/traj_0001.csv": "e277de83217862bef6be212ecd4104718f69d7f7da2c275d88a86533ec548687",
        "streams/nu_0.5/traj_0000.csv": "17c54cc46eed6ad7d774b8e9506a3bf5f113441fb362c2b619da293f3da98466",
        "streams/nu_0.5/traj_0001.csv": "1accc59684a51c81f31a7ce366d5867a12612c99bc895ffc013b4ea1e0f35320",
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


RECORDS = {
    rec.type: rec
    for rec in (
        OccupationReport,
        StationaryCheckReport,
        BalanceReport,
        ScalingFit,
        EnsembleSummary,
        cli_io.SweepVerdict,
        cli_io.Spectrum,
        cli_io.Manifest,
    )
}


@pytest.mark.parametrize("kind", schema.FIELDS)
def test_record_takes_exactly_the_fields_of_its_kind(kind):
    rec = RECORDS[kind]
    values = dict.fromkeys((f for f in schema.FIELDS[kind] if f not in schema.REPORT_COMMON), 0)
    assert tuple(schema.report(rec(**values))) == schema.FIELDS[kind]
    with pytest.raises(TypeError, match="unexpected keyword"):
        rec(**values, extra=1)
    for f in fields(rec):
        if f.default is MISSING:
            with pytest.raises(TypeError, match="missing"):
                rec(**{k: v for k, v in values.items() if k != f.name})


def test_summary_and_fit_lines_keep_their_layout():
    # the two reports whose JSON is not a flat copy of the record's fields
    stats = ObservableStats(mean=2.0, variance=0.5, se=0.25, quantiles={5: 1.0, 50: 2.0, 95: 3.5})
    summary = EnsembleSummary(nu=0.1, M=2, aborts=1, observables={"sup_inf": stats})
    assert cli_io._json_line(summary) == (
        f'{{"schema_version": {schema.SCHEMA_VERSION}, "type": "ensemble_summary", "nu": 0.1, "M": 2, '
        '"aborts": 1, "observables": {"sup_inf": {"mean": 2.0, "variance": 0.5, "se": 0.25, '
        '"quantiles": {"5": 1.0, "50": 2.0, "95": 3.5}}}}\n'
    )
    fit = ScalingFit(points=((0.4, 1.0), (0.2, 2.0)), alpha=1.0, intercept=0.5, r2=0.75)
    assert schema.report(fit)["observable"] == ""
    assert cli_io._json_line(replace(fit, observable="sup_inf")) == (
        f'{{"schema_version": {schema.SCHEMA_VERSION}, "type": "scaling_fit", "observable": "sup_inf", '
        '"alpha": 1.0, "intercept": 0.5, "r2": 0.75, "points": [[0.4, 1.0], [0.2, 2.0]]}\n'
    )


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
    h.update(json.dumps(schema.report(summary)).encode())
    return h.hexdigest()


def n2_sweep_hash() -> str:
    """A fixed-dt n=2 sweep of three entries of M=2 with C^2 columns, on a grid where both golden
    kernels agree: its entries step as one batch of rows that leave at three horizons."""
    plan = SweepPlan(
        GridSpec(2, 12, 6), "band:1,1,1", (0.4, 0.2, 0.1), M=2, base_seed=31,
        observables=(Observable("sup_cm", 2.0), Observable("sup_inf")),
    )
    h = hashlib.sha256()
    for summary, streams in plan.ensembles():
        for records in streams:
            h.update(stream_csv_text(records).encode())
        h.update(json.dumps(schema.report(summary)).encode())
    return h.hexdigest()


def test_n2_sweep_matches_golden():
    skip_unless_golden_build()
    assert n2_sweep_hash() == N2_SWEEP_SHA256


def coupled_sweep_hash(n: int) -> str:
    """The three-entry sweep of test_experiments at n = 1 or 2, coupled at dt_slow = 0.004: its
    entries share step count and draws, and step at fast dt 0.008, 0.01 and 0.016."""
    from test_experiments import sweep_plan

    result = nu_sweep(sweep_plan(n, dt_slow=0.004))
    h = hashlib.sha256()
    for summary, streams in zip(result.summaries, result.streams):
        for records in streams:
            h.update(stream_csv_text(records).encode())
        h.update(json.dumps(schema.report(summary)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", [1, 2])
def test_coupled_sweep_matches_golden(n):
    skip_unless_golden_build()
    assert coupled_sweep_hash(n) == COUPLED_SWEEP_SHA256[n]


def checkpoint_bytes() -> bytes:
    """The checkpoint of a short n=1 run (seed 3, stream 2) from a fixed random field."""
    grid = GridSpec(1, 32, 16)
    gen = np.random.default_rng(11)
    shape = (1, *grid.coeff_shape)
    c = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=3, stream_id=2)
    spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
    state, _ = continue_trajectory(initial_state(SpectralField(grid, 0.2 * c), params), spec, params)
    return checkpoint_to_bytes(state, params.dt)


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
        recorder_factory=lambda p: NormRecorder(cm_orders=(2,), shells=True),
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
    return NormRecorder(ms=(0.0, 1.0, 2.0, 3.0), cm_orders=(2,), shells=True)


@pytest.mark.parametrize(
    "grid, nonlinear",
    [
        (GridSpec(1, 64, 32), True),
        (N2_GRID, True),  # M=16 lattice batch is 256 KiB: numpy's temporary-elision size
        (GridSpec(1, 64, 32), False),  # the linear path of simulate-occupation
    ],
    ids=["n1-strang", "n2-strang", "n1-strang-linear"],
)
def test_ensemble_equals_single_runs(grid, nonlinear):
    nu, M, dt = 0.5, 16, 0.01
    params = SimParams(nu=nu, dt=dt, T=12 * dt, record_every=4, seed=99, nonlinear=nonlinear)
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


# The README grids: the desk grids and the two off-golden grids at each of n = 1 and n = 2.
CROSS_KERNEL_GRIDS = (
    GridSpec(1, 64, 32), GridSpec(1, 12, 6), GridSpec(1, 20, 10),
    GridSpec(2, 32, 16), GridSpec(2, 24, 12), GridSpec(2, 40, 20),
)


def strang_step_hashes() -> list[str]:
    """Per cross-kernel grid, a hash of the transform pair and of one Strang step on a fixed M = 3 block.

    The step starts open at step 1, so it takes the merged OU(dt) and then the plane rotation.
    """
    hashes = []
    for grid in CROSS_KERNEL_GRIDS:
        gen = np.random.default_rng(23)
        shape = (3, *grid.coeff_shape)
        u = SpectralField(grid, gen.normal(size=shape) + 1j * gen.normal(size=shape))
        values = to_physical(grid, to_planes(u.coeffs))
        params = SimParams(nu=0.5, dt=0.01, T=1.0, seed=29)
        state = State.of(u, tuple(RngStream(29, i) for i in range(3)), 1)
        stepped = strang_step(state, NoiseSpec.band(grid, [1.0, 1.0, 1.0]), params)
        data = values.tobytes() + to_spectral(grid, values).tobytes() + stepped.c.tobytes()
        hashes.append(hashlib.sha256(data).hexdigest())
    return hashes


def test_haswell_and_default_kernels_write_the_same_bytes():
    # Every product of a transform has a multiple of 8 columns (see spectral._axis_table): the
    # SkylakeX and Haswell dgemm kernels round 12 or 20 columns differently.  An n=2 N=12 D=6
    # ensemble, and the transform pair and one merged Strang step on each README grid, must agree.
    code = (
        "import test_golden as g\n"
        "print(g.blas_kernel(), g.n2_ensemble_hash(g.GridSpec(2, 12, 6)), *g.strang_step_hashes())"
    )
    tests_dir = str(Path(__file__).resolve().parent)
    (default, default_hash, *default_steps), (haswell, haswell_hash, *haswell_steps) = (
        run_python(code, OPENBLAS_CORETYPE=coretype, PYTHONPATH=f"{SRC}{os.pathsep}{tests_dir}").split()
        for coretype in ("", "Haswell")
    )
    if haswell != "Haswell":
        pytest.skip(f"the Haswell kernel cannot run here (OpenBLAS picked {haswell})")
    if default == "Haswell":
        pytest.skip("the default kernel is Haswell: no second FMA kernel to compare")
    assert default_hash == haswell_hash, f"{default} and Haswell kernels write different bytes"
    differ = [str(grid) for grid, a, b in zip(CROSS_KERNEL_GRIDS, default_steps, haswell_steps) if a != b]
    assert len(default_steps) == len(haswell_steps) == len(CROSS_KERNEL_GRIDS)
    assert differ == [], f"{default} and Haswell kernels step differently on {differ}"


def test_package_and_selftest_do_not_load_scipy():
    code = (
        "import sys, cascade_lab\n"
        "from cascade_lab.cli_io import run_command\n"
        "code = run_command(['selftest'])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    assert run_python(code) == "0 False"
