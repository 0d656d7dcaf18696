"""Command-line surface, configuration grammar, and run-directory persistence.

Config files are INI-style ``[section]`` blocks of ``key = value`` lines.  The
grammar is one table, ``GRAMMAR``: one row per key, in file order, naming its
section, its parser and its default (or that it is required).  The
:class:`RunConfig` field is the key, prefixed ``occupation_`` in the
[occupation] section.  Parsing, the unknown-key check and :func:`emit_config`
all read the table; the README's reference config shows every key.

Unknown sections or keys are errors, validation reports every violation at
once, and ``base_seed`` has no entropy default: every run is replayable from
its config alone.  Run directories are named by the config hash; all files
are written atomically (temp + rename), so an interrupted run never leaves a
partial manifest.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, schema
from .diagnostics import (
    NormRecorder,
    occupation_check,
    occupation_columns,
    read_stream_csv,
    stream_csv_text,
)
from .experiments import (  # ensemble_run stays importable here for perfbench's tracer
    Observable,
    SweepPlan,
    ensemble_run,  # noqa: F401
    fit_exponent,
    nu_sweep,
    stationary_sweep,
)
from .forcing import NoiseSpec, ProfileError, bk_sum
from .integrators import default_dt
from .spectral import GridSpec


class ConfigError(ValueError):
    """All config violations, collected; not just the first one."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


KINDS = ("simulate", "sweep", "stationary", "spectrum")


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _str_list(text))


REQUIRED = object()  # the default of a key that every config must set

# The config grammar, in file order: (section, key, parser, default).  A key whose value is None
# is not emitted; an absent N is 2 D and an absent dt the scheme's default.
GRAMMAR = (
    ("grid", "n", int, REQUIRED),
    ("grid", "N", int, None),
    ("grid", "D", int, REQUIRED),
    ("noise", "profile", str, REQUIRED),
    ("sim", "nu", float, None),
    ("sim", "nu_grid", _float_list, None),
    ("sim", "dt", float, None),
    ("sim", "T", float, None),
    ("sim", "T_slow", float, None),
    ("sim", "record_every", int, 10),
    ("sim", "scheme", str, "strang"),
    ("sim", "nonlinear", _bool, True),
    ("ensemble", "M", int, 2),
    ("ensemble", "base_seed", int, REQUIRED),
    ("experiment", "kind", str, "simulate"),
    ("experiment", "observables", _str_list,
     ("time_avg_sobolev:2", "sup_sobolev:2", "sup_cm:2", "sup_inf")),
    ("experiment", "out", str, "runs"),
    ("experiment", "window_t0_slow", float, 1.0),
    ("occupation", "run", str, None),
    ("occupation", "chi_fracs", _float_list, (0.05, 0.1, 0.2)),
    ("occupation", "gamma_factor", float, 2.0),
    ("occupation", "tau0", float, 0.0),
    ("occupation", "tau", float, 1.0),
)

_SCHEMA = {section: {k for s, k, *_ in GRAMMAR if s == section} for section, *_ in GRAMMAR}


def _field(section: str, key: str) -> str:
    """The RunConfig field of a grammar key: the key, prefixed ``occupation_`` in that section."""
    return f"occupation_{key}" if section == "occupation" else key


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved, validated run description; emit/parse round-trips to equality."""

    n: int
    N: int
    D: int
    profile: str
    nu: float | None
    nu_grid: tuple[float, ...] | None
    dt: float
    T_slow: float | None
    T: float | None
    record_every: int
    scheme: str
    nonlinear: bool
    M: int
    base_seed: int
    kind: str
    observables: tuple[str, ...]
    out: str
    window_t0_slow: float
    occupation_run: str | None
    occupation_chi_fracs: tuple[float, ...]
    occupation_gamma_factor: float
    occupation_tau0: float
    occupation_tau: float

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.N, self.D)

    def noise(self) -> NoiseSpec:
        return NoiseSpec.from_profile(self.grid(), self.profile)

    def plan(self) -> SweepPlan:
        """The ensembles that experiment.kind runs.

        ``simulate`` and ``spectrum`` run the first viscosity alone, to the
        fast horizon T (or T_slow / nu).  ``sweep`` and ``stationary`` run the
        whole grid to the slow horizon T_slow (or T * min(nu_grid)).
        """
        nus = self.nu_grid or (self.nu,)
        T = None
        if self.kind in ("simulate", "spectrum"):
            nus = nus[:1]
            T = self.T if self.T is not None else self.T_slow / nus[0]
        return SweepPlan(
            grid=self.grid(),
            noise_profile=self.profile,
            nu_grid=nus,
            M=self.M,
            base_seed=self.base_seed,
            dt=self.dt,
            t_slow_total=self.T_slow if self.T_slow is not None else self.T * min(nus),
            T=T,
            window_t0_slow=self.window_t0_slow,
            record_every=self.record_every,
            scheme=self.scheme,
            nonlinear=self.nonlinear,
            observables=tuple(Observable.parse(o) for o in self.observables),
        )


def _parse_sections(text: str, errors: list[str]) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (grid.n vs grid.N)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        errors.append(f"config syntax: {exc}")
        return {}
    raw: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        raw[section] = {}
        for key, value in cp.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {key!r} in section [{section}]")
            else:
                raw[section][key] = value.strip()
    return raw


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every violation found."""
    errors: list[str] = []
    raw = _parse_sections(text, errors)
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if key not in _SCHEMA.get(section, ()):
            errors.append(f"unknown override target {dotted!r}")
        else:
            raw.setdefault(section, {})[key] = value

    c = SimpleNamespace()
    for section, key, parse, default in GRAMMAR:
        field, value = _field(section, key), raw.get(section, {}).get(key)
        fallback = None if default is REQUIRED else default
        if value is None and default is REQUIRED:
            errors.append(f"missing required key {key!r} in section [{section}]")
        try:
            setattr(c, field, fallback if value is None else parse(value))
        except (ValueError, TypeError) as exc:
            errors.append(f"[{section}] {key} = {value!r}: {exc}")
            setattr(c, field, fallback)
    if c.N is None and c.D is not None:
        c.N = 2 * c.D  # documented default: anti-alias margin

    # range validation (collect everything before failing)
    if c.n is not None and c.n < 1:
        errors.append(f"grid.n must be >= 1, got {c.n}")
    if c.D is not None and c.D < 1:
        errors.append(f"grid.D must be >= 1, got {c.D}")
    if None not in (c.N, c.D) and c.D > c.N:
        errors.append(f"grid.D = {c.D} exceeds grid.N = {c.N} (need D <= N)")
    if c.N is not None and c.N < 4:
        errors.append(f"grid.N must be >= 4, got {c.N}")
    if c.nu is not None and not 0 < c.nu <= 1:
        errors.append(f"sim.nu must lie in (0, 1], got {c.nu}")
    if c.nu_grid is not None:
        if any(not 0 < v <= 1 for v in c.nu_grid):
            errors.append(f"sim.nu_grid entries must lie in (0, 1], got {c.nu_grid}")
        if any(a <= b for a, b in zip(c.nu_grid, c.nu_grid[1:])):
            errors.append("sim.nu_grid must be strictly decreasing")
    if c.nu is None and c.nu_grid is None:
        errors.append("one of sim.nu or sim.nu_grid is required")
    if c.nu is not None and c.nu_grid is not None:
        errors.append("sim.nu and sim.nu_grid are mutually exclusive")
    if c.T is None and c.T_slow is None:
        errors.append("one of sim.T or sim.T_slow is required")
    if c.T is not None and c.T_slow is not None:
        errors.append("sim.T and sim.T_slow are mutually exclusive")
    if c.T is not None and c.T <= 0:
        errors.append(f"sim.T must be positive, got {c.T}")
    if c.T_slow is not None and c.T_slow <= 0:
        errors.append(f"sim.T_slow must be positive, got {c.T_slow}")
    if c.dt is not None and c.dt <= 0:
        errors.append(f"sim.dt must be positive, got {c.dt}")
    if c.record_every < 1:
        errors.append(f"sim.record_every must be >= 1, got {c.record_every}")
    if c.scheme not in ("strang", "em"):
        errors.append(f"sim.scheme must be strang or em, got {c.scheme!r}")
    if c.M < 1:
        errors.append(f"ensemble.M must be >= 1, got {c.M}")
    if c.base_seed is not None and not 0 <= c.base_seed < 2**64:
        errors.append(f"ensemble.base_seed must be a uint64, got {c.base_seed}")
    if c.kind not in KINDS:
        errors.append(f"experiment.kind must be one of {KINDS}, got {c.kind!r}")
    if c.kind in ("sweep", "stationary"):
        if c.nu_grid is None and c.nu is not None:
            errors.append(f"experiment.kind = {c.kind} needs sim.nu_grid")
        if c.M < 2:
            errors.append(f"experiment.kind = {c.kind} needs ensemble.M >= 2")
    for obs in c.observables:
        try:
            Observable.parse(obs)
        except ValueError as exc:
            errors.append(f"experiment.observables entry {obs!r}: {exc}")
    if c.profile is not None and c.n is not None and c.D is not None and not errors:
        try:
            NoiseSpec.from_profile(GridSpec(c.n, c.N, c.D), c.profile)
        except (ProfileError, ValueError) as exc:
            errors.append(f"noise.profile {c.profile!r}: {exc}")
    if errors:
        raise ConfigError(errors)

    if c.dt is None:
        c.dt = default_dt(c.scheme, c.nu if c.nu is not None else min(c.nu_grid), GridSpec(c.n, c.N, c.D))
    return RunConfig(**vars(c))


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_format, value))
    return value if isinstance(value, str) else repr(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical config text, every set key of ``GRAMMAR`` in its order; parse(emit(cfg)) == cfg."""
    lines, section = [], None
    for s, key, *_ in GRAMMAR:
        if s != section:
            lines += ["", f"[{s}]"]
            section = s
        value = getattr(cfg, _field(s, key))
        if value is not None:
            lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines[1:]) + "\n"


# --- atomic persistence ---------------------------------------------------------


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:12]


def _json_line(d: dict) -> str:
    return json.dumps(d, separators=(", ", ": ")) + "\n"


def write_manifest(run_dir: Path, cfg: RunConfig) -> None:
    manifest = schema.report(
        "manifest",
        code_version=__version__,
        kind=cfg.kind,
        config_hash=config_hash(cfg),
        base_seed=cfg.base_seed,
        noise_profile=cfg.profile,
        config=emit_config(cfg),
    )
    atomic_write_text(run_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def prepare_run_dir(cfg: RunConfig, out_override: str | None = None) -> Path:
    out = Path(out_override or cfg.out)
    run_dir = out / f"{cfg.kind}-{config_hash(cfg)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(run_dir, cfg)
    atomic_write_text(run_dir / "config.ini", emit_config(cfg))
    return run_dir


def write_streams(run_dir: Path, streams, label: str = "") -> None:
    sub = run_dir / "streams" / label if label else run_dir / "streams"
    for i, stream in enumerate(streams):
        atomic_write_text(sub / f"traj_{i:04d}.csv", stream_csv_text(stream))


def read_run_streams(run_dir: Path, label: str = "") -> list:
    sub = Path(run_dir) / "streams" / label if label else Path(run_dir) / "streams"
    streams = []
    for path in sorted(sub.glob("traj_*.csv")):
        with open(path, newline="") as fh:
            streams.append(read_stream_csv(fh))
    if not streams:
        raise FileNotFoundError(f"no trajectory streams under {sub}")
    return streams


# --- subcommand implementations ----------------------------------------------------


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError(["--config PATH is required for this subcommand"])
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    overrides = {}
    for item in args.override or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError([f"override {item!r} is not of the form section.key=value"])
        overrides[key.strip()] = value.strip()
    if args.command in KINDS:  # the run directory and manifest name the subcommand that ran
        overrides["experiment.kind"] = args.command
    return parse_config(text, overrides)


def _write_run(
    cfg: RunConfig, out: str | None, streams: dict[str, list], reports: list[dict]
) -> Path:
    """Write a run directory: manifest, config, report, and each ensemble under streams/<label>."""
    run_dir = prepare_run_dir(cfg, out)
    for label, ensemble in streams.items():
        write_streams(run_dir, ensemble, label)
    atomic_write_text(run_dir / "report.jsonl", "".join(_json_line(r) for r in reports))
    return run_dir


def _per_nu(plan: SweepPlan, streams) -> dict[str, list]:
    return {f"nu_{nu:g}": ensemble for nu, ensemble in zip(plan.nu_grid, streams)}


def _cmd_simulate(cfg: RunConfig, out: str | None) -> int:
    plan = cfg.plan()
    (nu,) = plan.nu_grid
    ((summary, streams),) = plan.ensembles()
    run_dir = _write_run(cfg, out, {"": streams}, [summary.to_json_dict()])
    print(f"simulate: {cfg.M} trajectories at nu={nu} -> {run_dir}")
    return 0


def _cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    plan = cfg.plan()
    result = nu_sweep(plan)
    reports = [summary.to_json_dict() for summary in result.summaries]
    reports += [fit.to_json_dict(observable=name) for name, fit in result.fits.items() if fit is not None]
    reports += [
        schema.report("sweep_verdict", observable=name, verdicts=verdicts)
        for name, verdicts in result.verdicts.items()
    ]
    run_dir = _write_run(cfg, out, _per_nu(plan, result.streams), reports)
    for name, verdicts in result.verdicts.items():
        print(f"sweep {name}: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()))
    print(f"sweep report -> {run_dir}")
    return 0 if result.all_verdicts_pass else 1


def _cmd_stationary(cfg: RunConfig, out: str | None) -> int:
    plan = cfg.plan()
    result = stationary_sweep(plan)
    reports = [rep.to_json_dict() for rep in result.balance]
    reports += [
        fit.to_json_dict(observable=f"stationary_sobolev_{m:g}")
        for m, fit in result.moment_fits.items()
        if fit is not None
    ]
    run_dir = _write_run(cfg, out, _per_nu(plan, result.streams), reports)
    ok = True
    for rep in result.balance:
        status = "degenerate" if rep.degenerate else f"residual={rep.relative_residual:.3g}"
        print(f"stationary nu={rep.nu}: avg ||u||_1^2 = {rep.avg_h1_sq:.4g} vs B0={rep.b0:.4g} ({status})")
    for m, good in result.exponent_consistent.items():
        lo, hi = result.exponent_window[m]
        fit = result.moment_fits[m]
        alpha = fit.alpha if fit else float("nan")
        print(f"stationary moment m={m:g}: alpha={alpha:.3g} window [{lo:.3g}, {hi:.3g}] consistent={good}")
        ok = ok and good
    print(f"stationary report -> {run_dir}")
    return 0 if ok else 1


def _cmd_occupation(cfg: RunConfig, out: str | None) -> int:
    if not cfg.occupation_run:
        raise ConfigError(["occupation.run (an existing run directory) is required"])
    run_dir = Path(cfg.occupation_run)
    streams = read_run_streams(run_dir)
    (_, n0, n2), columns = occupation_columns(streams)
    gamma = cfg.occupation_gamma_factor * float(np.median(n2))
    b0 = bk_sum(cfg.noise(), 0.0)
    lines = []
    ok = True
    for frac in cfg.occupation_chi_fracs:
        chi = frac * float(np.median(n0))
        report = occupation_check(
            streams, chi, gamma, cfg.occupation_tau0, cfg.occupation_tau, b0, columns
        )
        lines.append(_json_line(report.to_json_dict()))
        ok = ok and report.passed
        print(
            f"occupation chi={chi:.4g}: lhs = {report.lhs_mean:.4g} (se {report.lhs_se:.2g}) "
            f"<= bound {report.rhs_bound:.4g} -> {'pass' if report.passed else 'FAIL'}"
            + ("" if report.informative else " (uninformative: never at or below chi)")
        )
    atomic_write_text(run_dir / "occupation_report.jsonl", "".join(lines))
    return 0 if ok else 1


def _cmd_spectrum(cfg: RunConfig, out: str | None) -> int:
    plan = cfg.plan()
    (nu,) = plan.nu_grid

    def recorder_factory(p):
        return NormRecorder(nu=p.nu, ms=(0.0, 1.0, 2.0), shells=True)

    ((_, streams),) = plan.ensembles(recorder_factory)
    burn = 0.2 * plan.T
    first = streams[0].columns.index("shell_1")
    mean_shells = np.concatenate([s.data[s.column("t") >= burn, first:] for s in streams]).mean(axis=0)
    report = schema.report(
        "spectrum", nu=nu, M=cfg.M, shells=[[k + 1, float(e)] for k, e in enumerate(mean_shells)]
    )
    run_dir = _write_run(cfg, out, {"": streams}, [report])
    head = ", ".join(f"E_{k + 1}={e:.4g}" for k, e in enumerate(mean_shells[:6]))
    print(f"spectrum nu={nu}: {head} ... -> {run_dir}")
    return 0


def _cmd_fit(args) -> int:
    path = Path(args.csv)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    points = []
    for line in text.splitlines():
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            continue
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            continue  # header or comment line
    try:
        fit = fit_exponent(points)
    except ValueError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    print(f"alpha = {fit.alpha:.6g}")
    print(f"intercept = {fit.intercept:.6g}")
    print(f"r2 = {fit.r2:.6g}")
    return 0


def _cmd_selftest() -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-lab",
        description="Sine-spectral Monte Carlo lab for the damped/driven cubic Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an INI run config")
    common.add_argument("--out", help="output directory (overrides experiment.out)")
    common.add_argument(
        "--override",
        action="append",
        metavar="section.key=value",
        help="override a config entry (repeatable)",
    )
    for name, doc in [
        ("simulate", "run a single ensemble"),
        ("sweep", "run the viscosity sweep with trend verdicts"),
        ("stationary", "long-run stationary averages per viscosity"),
        ("occupation", "occupation-time check over an existing run directory"),
        ("spectrum", "shell-energy report"),
    ]:
        sub.add_parser(name, parents=[common], help=doc)
    fit_p = sub.add_parser("fit", parents=[common], help="fit a power law to a (nu, q) CSV")
    fit_p.add_argument("csv", help="CSV with nu in column 1 and the observable in column 2")
    sub.add_parser("selftest", parents=[common], help="run the invariant self-test suite")
    return parser


def run_command(argv: list[str]) -> int:
    """Dispatch a CLI invocation; exit codes: 0 ok, 1 verdict failure, 2 usage/config error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "selftest":
            return _cmd_selftest()
        cfg = _load_config(args)
        dispatch = {
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "stationary": _cmd_stationary,
            "occupation": _cmd_occupation,
            "spectrum": _cmd_spectrum,
        }
        return dispatch[args.command](cfg, args.out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
