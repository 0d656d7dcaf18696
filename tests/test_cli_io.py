"""Config grammar, CLI subcommands, exit codes, and run-directory reproducibility."""

import json
from pathlib import Path

import pytest

from cascade_lab.cli_io import (
    ConfigError,
    atomic_write_text,
    config_hash,
    emit_config,
    parse_config,
    read_run_streams,
    run_command,
)
from cascade_lab.experiments import SweepPlan
from cascade_lab.integrators import SimParams, single_mode

MINIMAL = """
[grid]
n = 1
N = 64
D = 32

[noise]
profile = band:1,1,1

[sim]
nu = 0.1
T_slow = 1.0

[ensemble]
base_seed = 12345
"""

SMALL_RUN = """
[grid]
n = 1
N = 16
D = 8

[noise]
profile = band:1,1,1

[sim]
nu = 0.5
dt = 0.02
T_slow = 1.0
record_every = 5

[ensemble]
M = 3
base_seed = 777

[experiment]
kind = simulate
observables = sup_inf
"""

EVERY_KEY = """
[grid]
n = 2
N = 20
D = 10

[noise]
profile = power:p=1.5

[sim]
nu_grid = 0.4, 0.2,0.1
dt = 5e-3
T = 40
record_every = 4
nonlinear = no

[ensemble]
M = 3
base_seed = 2024

[experiment]
kind = sweep
observables = sup_sobolev:3, sup_cm:2,sup_cm:3 ,sup_inf
out = results
window_t0_slow = 0.5

[occupation]
run = runs/simulate-0123456789ab
chi_fracs = 0.1,0.3
gamma_factor = 1.5
tau0 = 0.25
tau = 2
"""

EVERY_KEY_EMITTED = """\
[grid]
n = 2
N = 20
D = 10

[noise]
profile = power:p=1.5

[sim]
nu_grid = 0.4,0.2,0.1
dt = 0.005
T = 40.0
record_every = 4
nonlinear = false

[ensemble]
M = 3
base_seed = 2024

[experiment]
kind = sweep
observables = sup_sobolev:3,sup_cm:2,sup_cm:3,sup_inf
out = results
window_t0_slow = 0.5

[occupation]
run = runs/simulate-0123456789ab
chi_fracs = 0.1,0.3
gamma_factor = 1.5
tau0 = 0.25
tau = 2.0
"""


class TestPlan:
    def test_fast_horizon_is_taken_as_given(self):
        # T * nu / nu = 3.0000000000000004 at nu = 0.1; n_steps rounds it to the same 300 steps
        text = MINIMAL.replace("T_slow = 1.0", "T = 3.0")
        params = parse_config(text, overrides={"experiment.kind": "simulate"}).plan().params_for(0.1)
        assert params.T == 3.0 and params.n_steps == 300
        assert SimParams(nu=0.1, dt=0.01, T=3.0 * 0.1 / 0.1).n_steps == 300
        sweep = parse_config(text.replace("nu = 0.1", "nu_grid = 0.1"), overrides={"experiment.kind": "sweep"})
        assert sweep.plan().t_slow_total == 3.0 * 0.1

    def test_single_kinds_run_the_first_viscosity(self):
        text = MINIMAL.replace("nu = 0.1", "nu_grid = 0.4,0.2,0.1")
        spectrum, sweep = (
            parse_config(text, overrides={"experiment.kind": kind}).plan() for kind in ("spectrum", "sweep")
        )
        assert spectrum.nu_grid == (0.4,) and spectrum.T == 1.0 / 0.4
        assert sweep.nu_grid == (0.4, 0.2, 0.1) and sweep.T is None
        assert parse_config(text).plan().nu_grid == spectrum.nu_grid  # experiment.kind defaults to simulate


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert (cfg.n, cfg.N, cfg.D) == (1, 64, 32)
        assert cfg.profile == "band:1,1,1"
        assert cfg.nu == 0.1
        assert "dt" not in MINIMAL and cfg.dt == 0.01  # the grammar's default
        assert cfg.record_every == 10
        assert cfg.M == 2
        assert cfg.kind == "simulate"
        assert cfg.out == "runs"

    def test_n_default_is_twice_d(self):
        cfg = parse_config(MINIMAL.replace("N = 64\n", ""))
        assert cfg.N == 64

    def test_d_exceeding_n_rejected_with_named_constraint(self):
        bad = MINIMAL.replace("D = 32", "D = 80")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert any("D" in v and "N" in v and "exceeds" in v for v in info.value.violations)

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace("nu = 0.1", "nu = 0.1\nwibble = 3"))
        assert any("unknown key 'wibble'" in v for v in info.value.violations)

    def test_scheme_is_an_unknown_key(self, tmp_path, capsys):
        # Strang is the only integrator, so a config that still names one fails like any stray key
        text = MINIMAL.replace("nu = 0.1", "nu = 0.1\nscheme = strang")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == ["unknown key 'scheme' in section [sim]"]
        assert run_command(["simulate", "--config", write_cfg(tmp_path, text)]) == 2
        assert "config error: unknown key 'scheme' in section [sim]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("T_slow = 1.0", "T = inf", "[sim] T = 'inf'"),
            ("T_slow = 1.0", "T_slow = nan", "[sim] T_slow = 'nan'"),
            ("nu = 0.1", "nu = 0.1\ndt = -inf", "[sim] dt = '-inf'"),
            ("[ensemble]", "[experiment]\nobservables = sup_cm:inf\n\n[ensemble]", "experiment.observables entry 'sup_cm:inf'"),
            ("[ensemble]", "[experiment]\nobservables = sup_sobolev:nan\n\n[ensemble]", "experiment.observables entry 'sup_sobolev:nan'"),
            ("[ensemble]", "[experiment]\nwindow_t0_slow = nan\n\n[ensemble]", "[experiment] window_t0_slow = 'nan'"),
            ("[ensemble]", "[occupation]\nchi_fracs = 0.1,inf\n\n[ensemble]", "[occupation] chi_fracs = '0.1,inf'"),
            ("[ensemble]", "[occupation]\ngamma_factor = inf\n\n[ensemble]", "[occupation] gamma_factor = 'inf'"),
        ],
        ids=["T", "T_slow", "dt", "sup_cm", "sup_sobolev", "window_t0_slow", "chi_fracs", "gamma_factor"],
    )
    def test_non_finite_values_are_config_errors(self, old, new, named, tmp_path, capsys):
        text = MINIMAL.replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any(named in v for v in info.value.violations)
        assert run_command(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_all_violations_reported_at_once(self):
        bad = """
[grid]
n = 0
N = 2
D = 5

[noise]
profile = gauss:a=1

[sim]
nu = 3.0

[ensemble]
base_seed = -4
"""
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        text = "\n".join(info.value.violations)
        assert "grid.n" in text
        assert "nu" in text
        assert "base_seed" in text
        assert "T" in text  # missing horizon
        assert len(info.value.violations) >= 4

    def test_occupation_keys_are_validated_with_the_rest(self):
        bad = MINIMAL.replace("nu = 0.1", "nu = 3.0") + (
            "\n[occupation]\nchi_fracs = 0,-0.1\ngamma_factor = -2\ntau0 = 1.0\ntau = 0.5\n"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        text = "\n".join(info.value.violations)
        for key in ("sim.nu", "occupation.chi_fracs", "occupation.gamma_factor", "occupation.tau"):
            assert key in text
        assert len(info.value.violations) == 4
        with pytest.raises(ConfigError, match="chi_fracs"):  # no chi would be checked, and the run would pass
            parse_config(MINIMAL, overrides={"occupation.chi_fracs": ""})

    def test_missing_seed_is_error(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace("base_seed = 12345", ""))
        assert any("base_seed" in v for v in info.value.violations)

    def test_nu_and_grid_mutually_exclusive(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace("nu = 0.1", "nu = 0.1\nnu_grid = 0.4,0.2"))
        assert any("mutually exclusive" in v for v in info.value.violations)

    def test_several_cm_orders_are_accepted(self):
        text = MINIMAL + "\n[experiment]\nobservables = sup_cm:2,sup_cm:3\n"
        cfg = parse_config(text)
        assert cfg.observables == ("sup_cm:2", "sup_cm:3")
        assert parse_config(emit_config(cfg)) == cfg

    def test_sweep_requires_nu_grid_and_m2(self):
        text = MINIMAL + "\n[experiment]\nkind = sweep\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("nu_grid" in v for v in info.value.violations)

    def test_round_trip(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_emitted_text_of_every_key_is_pinned(self):
        # the keys no golden config.ini sets (nu_grid, T, nonlinear = false, a non-default dt,
        # occupation.run), each value in its canonical format
        cfg = parse_config(EVERY_KEY)
        assert emit_config(cfg) == EVERY_KEY_EMITTED
        assert parse_config(emit_config(cfg)) == cfg

    def test_overrides(self):
        cfg = parse_config(MINIMAL, overrides={"sim.nu": "0.25", "ensemble.M": "7"})
        assert cfg.nu == 0.25
        assert cfg.M == 7

    def test_bad_override_target(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL, overrides={"sim.nope": "1"})


class TestAtomicWrites:
    def test_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in (tmp_path / "sub").iterdir() if p.name != "file.txt"]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        target = tmp_path / "f.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"


def write_cfg(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_no_subcommand_exits_2(self):
        assert run_command([]) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_command(["simulate"]) == 2
        assert "config" in capsys.readouterr().err

    def test_config_violations_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL.replace("D = 32", "D = 80"))
        assert run_command(["simulate", "--config", path]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_aborted_ensemble_exits_2(self, tmp_path, capsys, monkeypatch):
        # Every trajectory starts at 1e160 in mode 1 and overflows in its first phase rotation: a run
        # error rather than a verdict.
        monkeypatch.setattr(SweepPlan, "u0_factory", lambda plan, nu: lambda sid: single_mode(plan.grid, 1, 1e160))
        path = write_cfg(tmp_path, SMALL_RUN.replace("M = 3", "M = 2"))
        code = run_command(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: 2/2 trajectories aborted" in capsys.readouterr().err

    def test_fit_exact_power_law(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("nu,q\n0.4,6.25\n0.2,25.0\n0.1,100.0\n")
        assert run_command(["fit", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "alpha = 2" in out

    def test_fit_rejects_bad_input(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("nu,q\n0.4,6.25\n0.2,-25.0\n0.1,100.0\n")
        assert run_command(["fit", str(csv)]) == 2

    def test_fit_on_one_viscosity_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("0.1,1\n0.1,2\n0.1,3\n")
        assert run_command(["fit", str(csv)]) == 2
        captured = capsys.readouterr()
        assert "fit error" in captured.err and "alpha" not in captured.out

    def test_selftest_passes(self, capsys):
        assert run_command(["selftest"]) == 0
        assert "selftest" in capsys.readouterr().out

    def test_simulate_writes_run_dir(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", path, "--out", str(out)]) == 0
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "config.ini").exists()
        assert (run_dir / "report.jsonl").exists()
        streams = sorted((run_dir / "streams").glob("traj_*.csv"))
        assert len(streams) == 3
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == 9
        assert manifest["base_seed"] == 777
        assert manifest["config_hash"] in run_dir.name

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_RUN)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_command(["simulate", "--config", path, "--out", str(out)]) == 0
            outs.append(out)
        dirs = [next(o.iterdir()) for o in outs]
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()

    def test_run_dir_rederivable_from_manifest(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "first"
        assert run_command(["simulate", "--config", path, "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        replay_cfg = tmp_path / "replay.ini"
        replay_cfg.write_text(manifest["config"])
        out2 = tmp_path / "second"
        assert run_command(["simulate", "--config", str(replay_cfg), "--out", str(out2)]) == 0
        run_dir2 = next(out2.iterdir())
        for rel in ["config.ini", "manifest.json"] + [
            f"streams/traj_{i:04d}.csv" for i in range(3)
        ]:
            assert (run_dir / rel).read_bytes() == (run_dir2 / rel).read_bytes()

    def test_override_changes_hash(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_RUN)
        cfg0 = parse_config(Path(path).read_text())
        cfg1 = parse_config(Path(path).read_text(), overrides={"ensemble.base_seed": "778"})
        assert config_hash(cfg0) != config_hash(cfg1)

    def test_occupation_over_run_dir(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", path, "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        code = run_command(
            [
                "occupation",
                "--config",
                path,
                "--override",
                f"occupation.run={run_dir}",
                "--override",
                "occupation.tau=0.4",
            ]
        )
        assert code == 0
        assert (run_dir / "occupation_report.jsonl").exists()
        report = (run_dir / "occupation_report.jsonl").read_text().splitlines()
        assert len(report) == 3  # one line per chi fraction
        assert all(json.loads(line)["type"] == "occupation" for line in report)

    def test_spectrum_report(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_RUN.replace("kind = simulate", "kind = spectrum"))
        out = tmp_path / "out"
        assert run_command(["spectrum", "--config", path, "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        line = json.loads((run_dir / "report.jsonl").read_text())
        assert line["type"] == "spectrum"
        assert line["shells"][0][0] == 1

    def test_sweep_cli_small(self, tmp_path, capsys):
        text = SMALL_RUN.replace("nu = 0.5\n", "nu_grid = 0.5,0.4\n").replace(
            "kind = simulate", "kind = sweep"
        ).replace("M = 3", "M = 2").replace("T_slow = 1.0", "T_slow = 2.0").replace(
            "observables = sup_inf", "observables = sup_inf,time_avg_sobolev:1"
        )
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = run_command(["sweep", "--config", path, "--out", str(out)])
        assert code in (0, 1)  # tiny smoke sweep: verdicts may fail, must not crash
        run_dir = next(out.iterdir())
        lines = [json.loads(l) for l in (run_dir / "report.jsonl").read_text().splitlines()]
        types = {l["type"] for l in lines}
        assert "ensemble_summary" in types
        assert "sweep_verdict" in types
        # per-trajectory streams persisted per grid entry
        assert len(list((run_dir / "streams" / "nu_0.5").glob("traj_*.csv"))) == 2
        assert len(list((run_dir / "streams" / "nu_0.4").glob("traj_*.csv"))) == 2

    def test_run_dir_and_manifest_name_the_subcommand(self, tmp_path, capsys):
        text = SMALL_RUN.replace("nu = 0.5\n", "nu_grid = 0.5,0.4\n").replace(
            "kind = simulate", "kind = sweep"
        ).replace("M = 3", "M = 2").replace("T_slow = 1.0", "T_slow = 2.0")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", path, "--out", str(out)]) == 0
        assert run_command(["sweep", "--config", path, "--out", str(out)]) in (0, 1)
        run_dirs = {d.name.split("-")[0]: d for d in out.iterdir()}
        assert sorted(run_dirs) == ["simulate", "sweep"]
        for kind, run_dir in run_dirs.items():
            assert json.loads((run_dir / "manifest.json").read_text())["kind"] == kind
        assert len(list((run_dirs["simulate"] / "streams").glob("traj_*.csv"))) == 2
        assert not list((run_dirs["sweep"] / "streams").glob("traj_*.csv"))

    def test_sweep_with_two_cm_orders_reports_each_order(self, tmp_path):
        # sup_cm_2 of a sweep that also asks for sup_cm:3 equals, value for value, that of sup_cm:2 alone.
        text = SMALL_RUN.replace("nu = 0.5\n", "nu_grid = 0.5,0.4\n").replace(
            "kind = simulate", "kind = sweep"
        ).replace("M = 3", "M = 2").replace("T_slow = 1.0", "T_slow = 2.0")
        runs = {}
        for observables in ("sup_cm:2", "sup_cm:2,sup_cm:3"):
            path = write_cfg(tmp_path, text.replace("observables = sup_inf", f"observables = {observables}"))
            out = tmp_path / observables.replace(":", "").replace(",", "_")
            assert run_command(["sweep", "--config", path, "--out", str(out)]) in (0, 1)
            run_dir = next(out.iterdir())
            reports = [json.loads(l) for l in (run_dir / "report.jsonl").read_text().splitlines()]
            runs[observables] = (
                [r["observables"] for r in reports if r["type"] == "ensemble_summary"],
                (run_dir / "streams" / "nu_0.5" / "traj_0000.csv").read_text().splitlines()[0],
            )
        (alone, alone_header), (both, both_header) = runs.values()
        assert [s["sup_cm_2"] for s in both] == [s["sup_cm_2"] for s in alone]
        assert all(s["sup_cm_3"]["mean"] > s["sup_cm_2"]["mean"] for s in both)
        assert alone_header.endswith(",sup,cm_2") and both_header.endswith(",sup,cm_2,cm_3")

    def test_sweep_without_nu_grid_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_RUN.replace("M = 3", "M = 2"))
        assert run_command(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "needs sim.nu_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stationary_cli_small(self, tmp_path, capsys):
        text = SMALL_RUN.replace("nu = 0.5\n", "nu_grid = 0.5,0.4\n").replace(
            "kind = simulate", "kind = stationary"
        ).replace("M = 3", "M = 2").replace("T_slow = 1.0", "T_slow = 13.0").replace(
            "dt = 0.02", "dt = 0.05"
        )
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = run_command(["stationary", "--config", path, "--out", str(out)])
        assert code in (0, 1)
        run_dir = next(out.iterdir())
        lines = [json.loads(l) for l in (run_dir / "report.jsonl").read_text().splitlines()]
        assert any(l["type"] == "balance" for l in lines)
        assert (run_dir / "streams" / "nu_0.5").exists()

    def test_read_run_streams_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        run_command(["simulate", "--config", path, "--out", str(out)])
        streams = read_run_streams(next(out.iterdir()))
        assert len(streams) == 3
        assert streams[0][0].t == 0.0
