"""Frozen output schema: CSV column orders and JSON report field orders.

Acceptance checks diff outputs byte-for-byte, so any change to a column
order, a field order, or a number format is a schema bump.  JSON lines and
manifests carry ``SCHEMA_VERSION`` inline; trajectory CSVs stay plain
RFC-4180 (header row only) and are versioned through the manifest of the run
directory that contains them.

``FIELDS`` is the one place a report's fields are named: :func:`record` builds
each report's record type from its tuple, and :func:`report` writes a record
back in that order.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, field, make_dataclass

# 2: sine-matrix transforms; occupation reports say ``informative``.
# 3: the noise is drawn on the forced modes only, at one address per stream per
#    Strang step, so every stochastic output number changes.
# 4: each stream draws the Strang noise of K consecutive steps at one address
#    (forcing.ou_block_steps), so every Strang output number changes again.
# 5: transforms, sup and C^m are real products on float64 views, rounding unlike the complex
#    products on some shapes (n=1 N=64 D=32: up to 4e-16 relative); fits are closed-form.
# 6: the phase factor is taken from one half-angle tangent instead of a cosine and a sine, so
#    every nonlinear output number changes; the last-axis product at n >= 2 is padded to a
#    multiple of 8 columns, which changes SkylakeX bits on grids such as n=2 N=12 D=6.
# 7: a C^m column always names its order (``cm_2`` for one order too, not ``cm``), so a
#    stream with one ``sup_cm`` order changes its header; every number is unchanged.
# 8: real planes for every transform, merged OU halves, d^k in C^m tables: Strang numbers change.
# 9: the config names no integrator (the driver steps only with Strang), so ``config.ini`` and
#    the manifest's config lose a line and config hashes move; every number is unchanged.
SCHEMA_VERSION = 9

# Per-trajectory stream, in memory a (records x columns) float64 array and on disk a CSV:
# t, tau, one column per configured Sobolev order, then the lattice sup, then one C^m
# column per order (``cm_2``, ``cm_3``, ...) and the shell columns.
STREAM_FIXED_COLUMNS = ("t", "tau")


def norm_column(m: float) -> str:
    mf = float(m)
    return f"norm_{int(mf)}" if mf == int(mf) else f"norm_{mf:g}"


def stream_columns(ms: tuple[float, ...], cm_orders: tuple[int, ...] = (), n_shells: int = 0) -> list[str]:
    cols = [*STREAM_FIXED_COLUMNS, *map(norm_column, ms), "sup", *(f"cm_{k}" for k in cm_orders)]
    return cols + [f"shell_{k}" for k in range(1, n_shells + 1)]


# JSON-lines report field orders (first two fields are always the same).
REPORT_COMMON = ("schema_version", "type")

OCCUPATION_FIELDS = REPORT_COMMON + (
    "chi",
    "gamma",
    "tau0",
    "tau",
    "n_traj",
    "lhs_mean",
    "lhs_se",
    "rhs_bound",
    "informative",
    "passed",
    "note",
)

STATIONARY_FIELDS = REPORT_COMMON + (
    "chi",
    "gamma",
    "n_samples",
    "frequency",
    "wilson_low",
    "wilson_high",
    "bound",
    "applicable",
    "passed",
)

BALANCE_FIELDS = REPORT_COMMON + (
    "nu",
    "window_start",
    "window_end",
    "avg_h1_sq",
    "b0",
    "relative_residual",
    "se",
    "n_batches",
    "degenerate",
)

FIT_FIELDS = REPORT_COMMON + ("observable", "alpha", "intercept", "r2", "points")

SUMMARY_FIELDS = REPORT_COMMON + ("nu", "M", "aborts", "observables")

SWEEP_VERDICT_FIELDS = REPORT_COMMON + ("observable", "verdicts")

SPECTRUM_FIELDS = REPORT_COMMON + ("nu", "M", "shells")

MANIFEST_FIELDS = (
    "schema_version",
    "code_version",
    "kind",
    "config_hash",
    "base_seed",
    "noise_profile",
    "config",
)

# Field order of every JSON object by its ``type`` (the manifest has no type field).
FIELDS = {
    "occupation": OCCUPATION_FIELDS,
    "stationary_check": STATIONARY_FIELDS,
    "balance": BALANCE_FIELDS,
    "scaling_fit": FIT_FIELDS,
    "ensemble_summary": SUMMARY_FIELDS,
    "sweep_verdict": SWEEP_VERDICT_FIELDS,
    "spectrum": SPECTRUM_FIELDS,
    "manifest": MANIFEST_FIELDS,
}


def record(name: str, kind: str, **defaults) -> type:
    """The frozen, keyword-only record type of ``kind``: the fields of ``FIELDS[kind]`` after ``REPORT_COMMON``.

    ``defaults`` gives some of those fields a default value; the class attribute ``type`` is ``kind``.
    """
    fields = [(f, object, field(default=defaults.get(f, MISSING))) for f in FIELDS[kind] if f not in REPORT_COMMON]
    namespace = {"type": kind, "__module__": __name__}
    return make_dataclass(name, fields, namespace=namespace, frozen=True, kw_only=True)


def report(rec) -> dict:
    """The JSON object of a :func:`record` instance, in the frozen field order of its ``type``.

    ``schema_version`` and ``type`` are filled in, and nested dataclasses become
    dicts in their own field order (``dataclasses.asdict``).
    """
    values = {"schema_version": SCHEMA_VERSION, "type": rec.type, **asdict(rec)}
    return {name: values[name] for name in FIELDS[rec.type]}
