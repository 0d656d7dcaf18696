"""Measurement functionals on trajectories.

A trajectory is observed through a stream of records (norms, lattice sup,
optional C^m norm and shell spectrum at the record cadence); every check here
is a pure function of such streams, so recomputation gives identical values.

The headline checks:

* ``balance_check``   -- the stationary identity E||u||_1^2 = B_0, estimated
  by a time-and-ensemble average with batch-means error bars;
* ``occupation_check`` -- the capped occupation-time inequality
  E int_{tau0}^{tau ^ tau_Gamma} 1[||u||_0 <= chi] ds <= 2(1+tau) chi Gamma / B_0,
  with tau_Gamma the first sample time at which ||u||_2 >= Gamma;
* ``stationary_check`` -- the stationary small-norm bound
  P(||u||_0 <= chi) <= 2 chi Gamma / B_0;
* ``time_avg_sobolev`` -- the slow-time unit-window average
  nu * int_{t0}^{t0 + 1/nu} ||u||_m^2 ds;
* ``exp_moment``      -- E exp(c x^2) over sup-norm maxima, with a half-sample
  stability flag.

Integrals use the left-rectangle rule at the recorded cadence; the cadence is
part of the experiment record, so discretization error stays auditable.
Sample-time stopping can only overestimate tau_Gamma, which weakens (never
invalidates) the occupation bound check; reports carry that note.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, fields
from math import exp, sqrt

import numpy as np

from . import schema
from .integrators import State
from .spectral import SpectralField, cm_norm, sobolev_norm, spectrum_shells, sup_norm

DISCRETIZATION_NOTE = (
    "tau_Gamma discretized to the first sample time; one-sample-interval bias, "
    "bound check weakened, never invalidated"
)


@dataclass(frozen=True, slots=True, init=False)
class DiagnosticsRecord:
    """Norms and optional extras at one sample time (fast time t, slow time tau)."""

    t: float
    tau: float
    norms: dict[float, float]
    sup: float
    cm: float | None = None
    shells: tuple[float, ...] | None = None

    def __init__(self, t, tau, norms, sup, cm=None, shells=None):
        # Sets each slot through its descriptor, past the frozen __setattr__ as the
        # generated __init__ does, at about half the cost of its object.__setattr__ calls.
        _set_t(self, t)
        _set_tau(self, tau)
        _set_norms(self, norms)
        _set_sup(self, sup)
        _set_cm(self, cm)
        _set_shells(self, shells)

    def norm(self, m: float) -> float:
        return self.norms[float(m)]


_set_t, _set_tau, _set_norms, _set_sup, _set_cm, _set_shells = (
    vars(DiagnosticsRecord)[f.name].__set__ for f in fields(DiagnosticsRecord)
)


class NormRecorder:
    """Trajectory sink computing a DiagnosticsRecord at each recorded step.

    It keeps each row's records under its stream id in ``streams``.  Sobolev
    norms, the lattice sup and the C^m norm are computed for all rows at once,
    the shells row by row.
    """

    def __init__(
        self,
        nu: float,
        ms: tuple[float, ...] = (0.0, 1.0, 2.0),
        cm_order: int | None = None,
        shells: bool = False,
    ):
        self.nu = nu
        self.ms = tuple(float(m) for m in ms)
        self.cm_order = cm_order
        self.shells = shells
        self.streams: dict[int, list[DiagnosticsRecord]] = {}

    def __call__(self, state: State) -> None:
        u, t, tau = state.u, state.t, self.nu * state.t
        norms = zip(*(sobolev_norm(u, m).tolist() for m in self.ms))
        sups = sup_norm(u).tolist()
        cms = cm_norm(u, self.cm_order).tolist() if self.cm_order is not None else None
        for rng, c, row_norms, sup, cm in zip(state.rngs, u.coeffs, norms, sups, cms or [None] * len(sups)):
            shells = tuple(e for _, e in spectrum_shells(SpectralField(u.grid, c))) if self.shells else None
            rec = DiagnosticsRecord(t, tau, dict(zip(self.ms, row_norms)), sup, cm, shells)
            self.streams.setdefault(rng.stream_id, []).append(rec)


# --- stream serialization ----------------------------------------------------


def write_stream_csv(records: list[DiagnosticsRecord], fh) -> None:
    """RFC-4180 CSV with the frozen column order; floats as shortest round-trip repr."""
    if not records:
        raise ValueError("cannot serialize an empty stream")
    first = records[0]
    cols = schema.stream_columns(
        tuple(first.norms.keys()),
        with_sup=True,
        cm_order=0 if first.cm is not None else None,
        n_shells=len(first.shells) if first.shells is not None else 0,
    )
    # No column name or float repr holds a comma, quote or line break: csv.writer would write the same.
    lines = [",".join(cols)]
    for rec in records:
        row = [rec.t, rec.tau, *rec.norms.values(), rec.sup]
        if rec.cm is not None:
            row.append(rec.cm)
        if rec.shells is not None:
            row += rec.shells
        lines.append(",".join(map(repr, row)))
    fh.write("\n".join(lines) + "\n")


def stream_csv_text(records: list[DiagnosticsRecord]) -> str:
    buf = io.StringIO()
    write_stream_csv(records, buf)
    return buf.getvalue()


def read_stream_csv(fh) -> list[DiagnosticsRecord]:
    """Records of a stream CSV in the frozen column order; every float reads back to its bits."""
    cols = fh.readline().rstrip("\r\n").split(",")
    ms = tuple(float(c[len("norm_") :]) for c in cols if c.startswith("norm_"))
    has_cm = "cm" in cols
    n_shells = sum(c.startswith("shell_") for c in cols)
    expected = schema.stream_columns(ms, with_sup=True, cm_order=0 if has_cm else None, n_shells=n_shells)
    if cols != expected:
        raise ValueError(f"stream columns {cols} are not in the frozen order {expected}")
    sup_i = 2 + len(ms)
    records = []
    for line in fh:  # row by row, so only one row's field strings are alive at a time
        v = list(map(float, line.split(",")))
        if len(v) != len(cols):
            raise ValueError(f"a stream row does not have {len(cols)} fields")
        records.append(
            DiagnosticsRecord(
                v[0],
                v[1],
                dict(zip(ms, v[2:sup_i])),
                v[sup_i],
                v[sup_i + 1] if has_cm else None,
                tuple(v[sup_i + 1 + has_cm :]) if n_shells else None,
            )
        )
    return records


# --- integration helpers -------------------------------------------------------


def _left_rectangle(times: np.ndarray, values: np.ndarray, a: float, b: float) -> float:
    """Integral of the piecewise-constant (left-value) interpolant over [a, b].

    Requires the samples to cover the window: times[0] <= a and times[-1] >= b.
    """
    if times[0] > a + 1e-12 or times[-1] < b - 1e-12:
        raise ValueError(
            f"stream covers [{times[0]:.6g}, {times[-1]:.6g}], window [{a:.6g}, {b:.6g}] not contained"
        )
    starts = np.maximum(times[:-1], a)
    ends = np.minimum(times[1:], b)
    overlap = np.clip(ends - starts, 0.0, None)
    return float(np.sum(values[:-1] * overlap))


def _column(records: list[DiagnosticsRecord], m: float) -> np.ndarray:
    return np.array([r.norm(m) for r in records])


def _taus(records: list[DiagnosticsRecord]) -> np.ndarray:
    return np.array([r.tau for r in records])


# --- occupation time -------------------------------------------------------------


@dataclass(frozen=True)
class OccupationReport:
    """Monte Carlo estimate of the capped small-norm occupation time vs its bound."""

    chi: float
    gamma: float
    tau0: float
    tau: float
    n_traj: int
    lhs_mean: float
    lhs_se: float
    rhs_bound: float
    informative: bool  # false if no stream spent sampled time at ||u||_0 <= chi: lhs 0, se 0, vacuous pass
    passed: bool
    note: str = DISCRETIZATION_NOTE

    def to_json_dict(self) -> dict:
        return schema.report("occupation", **vars(self))


def occupation_columns(streams: list[list[DiagnosticsRecord]]) -> tuple[tuple, list[tuple]]:
    """tau, ||u||_0 and ||u||_2 over all records in stream order, and each stream's three columns.

    The per-stream columns are views into the arrays over all records, so both
    are built once to serve medians and several occupation checks.
    """
    flat = (
        np.array([r.tau for records in streams for r in records]),
        np.array([r.norms[0.0] for records in streams for r in records]),
        np.array([r.norms[2.0] for records in streams for r in records]),
    )
    cuts = np.cumsum([len(records) for records in streams])[:-1]
    return flat, list(zip(*(np.split(a, cuts) for a in flat)))


def occupation_check(
    streams: list[list[DiagnosticsRecord]],
    chi: float,
    gamma: float,
    tau0: float,
    tau: float,
    b0: float,
    columns: list[tuple] | None = None,
) -> OccupationReport:
    """Check E int_{tau0}^{tau ^ tau_Gamma} 1[||u||_0 <= chi] ds <= 2 (1+tau) chi Gamma / B0.

    Per trajectory, tau_Gamma is the first sample time >= tau0 with
    ||u||_2 >= Gamma, and the indicator integral uses the left-rectangle rule
    in slow time.  Pass/fail is judged at a two-standard-error margin.
    ``columns``, each stream's columns from ``occupation_columns(streams)``,
    saves rebuilding them for every chi.
    """
    if not streams:
        raise ValueError("empty ensemble")
    if chi <= 0 or gamma <= 0 or tau <= tau0:
        raise ValueError("need chi > 0, gamma > 0 and tau > tau0")
    if b0 <= 0:
        raise ValueError("occupation bound is vacuous for degenerate noise (B0 = 0)")
    integrals = []
    for taus, n0, n2 in occupation_columns(streams)[1] if columns is None else columns:
        hit = np.flatnonzero((taus >= tau0 - 1e-12) & (n2 >= gamma))
        tau_gamma = taus[hit[0]] if hit.size else np.inf
        end = min(tau, tau_gamma)
        if end <= tau0:
            integrals.append(0.0)
            continue
        indicator = (n0 <= chi).astype(float)
        integrals.append(_left_rectangle(taus, indicator, tau0, end))
    integrals = np.array(integrals)
    mean = float(integrals.mean())
    se = float(integrals.std(ddof=1) / sqrt(len(integrals))) if len(integrals) > 1 else 0.0
    rhs = 2.0 * (1.0 + tau) * chi * gamma / b0
    return OccupationReport(
        chi=chi,
        gamma=gamma,
        tau0=tau0,
        tau=tau,
        n_traj=len(streams),
        lhs_mean=mean,
        lhs_se=se,
        rhs_bound=rhs,
        informative=bool(integrals.any()),
        passed=mean <= rhs + 2.0 * se,
    )


# --- stationary small-norm probability --------------------------------------------


@dataclass(frozen=True)
class StationaryCheckReport:
    chi: float
    gamma: float
    n_samples: int
    frequency: float
    wilson_low: float
    wilson_high: float
    bound: float
    applicable: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return schema.report("stationary_check", **vars(self))


def _wilson(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        raise ValueError("empty sample")
    phat = successes / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return center - half, center + half


def stationary_check(
    streams: list[list[DiagnosticsRecord]],
    chi: float,
    b0: float,
    gamma: float | None = None,
    burn_in_fraction: float = 0.2,
) -> StationaryCheckReport:
    """Empirical frequency of {||u||_0 <= chi} against the bound 2 chi Gamma / B0.

    Samples are pooled across trajectories after the burn-in window (a
    stationarity surrogate).  Gamma defaults to the empirical mean of
    ||u||_2.  A bound >= 1 is flagged inapplicable (it constrains nothing).
    """
    if not streams:
        raise ValueError("empty sample")
    n0, n2 = [], []
    for records in streams:
        t_end = records[-1].t
        cut = burn_in_fraction * t_end
        for r in records:
            if r.t >= cut:
                n0.append(r.norm(0.0))
                n2.append(r.norm(2.0))
    n0 = np.array(n0)
    n2 = np.array(n2)
    if n0.size == 0:
        raise ValueError("empty sample after burn-in")
    if gamma is None:
        gamma = float(n2.mean())
    successes = int(np.sum(n0 <= chi))
    freq = successes / n0.size
    low, high = _wilson(successes, n0.size)
    bound = 2.0 * chi * gamma / b0 if b0 > 0 else float("inf")
    applicable = bound < 1.0
    return StationaryCheckReport(
        chi=chi,
        gamma=gamma,
        n_samples=int(n0.size),
        frequency=freq,
        wilson_low=low,
        wilson_high=high,
        bound=bound,
        applicable=applicable,
        passed=low <= bound,
    )


# --- balance relation ---------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Time-ensemble average of ||u||_1^2 against the injection rate B_0."""

    window: tuple[float, float]
    avg_h1_sq: float
    b0: float
    relative_residual: float
    se: float
    n_batches: int
    degenerate: bool
    nu: float

    def to_json_dict(self) -> dict:
        return schema.report(
            "balance",
            nu=self.nu,
            window_start=self.window[0],
            window_end=self.window[1],
            avg_h1_sq=self.avg_h1_sq,
            b0=self.b0,
            relative_residual=self.relative_residual,
            se=self.se,
            n_batches=self.n_batches,
            degenerate=self.degenerate,
        )


def balance_check(
    streams: list[list[DiagnosticsRecord]],
    b0: float,
    nu: float,
    burn_in_fraction: float = 0.2,
    n_batches: int = 20,
    min_t_slow: float = 5.0,
) -> BalanceReport:
    """Average ||u||_1^2 over the post-burn-in window; batch-means standard error.

    Batches are contiguous in time and averaged across the ensemble first, so
    the error bar respects temporal autocorrelation.  Degenerate noise
    (B_0 = 0) is flagged and the relative residual reported as nan.
    """
    if not streams:
        raise ValueError("empty ensemble")
    t_end = streams[0][-1].t
    cut = burn_in_fraction * t_end
    kept_idx = [i for i, r in enumerate(streams[0]) if r.t >= cut]
    if len(kept_idx) < 2 * n_batches:
        raise ValueError(
            f"window too short: {len(kept_idx)} samples for {n_batches} batches (< 2 per batch)"
        )
    if nu * (t_end - cut) < min_t_slow:
        warnings.warn(
            f"balance window is only {nu * (t_end - cut):.3g} slow-time units "
            f"(heuristic minimum {min_t_slow})",
            RuntimeWarning,
            stacklevel=2,
        )
    # per-time ensemble means of ||u||_1^2 over the kept samples
    series = np.array([[s[i].norm(1.0) ** 2 for i in kept_idx] for s in streams])
    ens_mean = series.mean(axis=0)
    avg = float(ens_mean.mean())
    batches = np.array_split(ens_mean, n_batches)
    batch_means = np.array([b.mean() for b in batches])
    se = float(batch_means.std(ddof=1) / sqrt(n_batches))
    degenerate = b0 <= 0
    residual = float("nan") if degenerate else abs(avg - b0) / b0
    return BalanceReport(
        window=(cut, t_end),
        avg_h1_sq=avg,
        b0=b0,
        relative_residual=residual,
        se=se,
        n_batches=n_batches,
        degenerate=degenerate,
        nu=nu,
    )


# --- time-averaged Sobolev energy ------------------------------------------------------


def time_avg_sobolev(records: list[DiagnosticsRecord], m: float, t0: float, nu: float) -> float:
    """nu * int_{t0}^{t0 + 1/nu} ||u(s)||_m^2 ds by the left-rectangle rule.

    Equals the unit-window slow-time average of ||u||_m^2; errors if the
    stream does not cover the window.
    """
    taus = _taus(records)
    vals = _column(records, m) ** 2
    tau0 = nu * t0
    return _left_rectangle(taus, vals, tau0, tau0 + 1.0)


# --- exponential moments -----------------------------------------------------------------


@dataclass(frozen=True)
class ExpMomentReport:
    c: float
    value: float
    half_value: float
    stable: bool


def exp_moment(samples, c: float, stability_rtol: float = 0.25) -> ExpMomentReport:
    """Sample mean of exp(c x^2) with a half-sample heavy-tail stability flag.

    ``stable`` is False when the first-half estimate differs from the full
    estimate by more than ``stability_rtol`` relatively; a heavy tail makes
    the estimate jumpy under subsampling.
    """
    if c < 0:
        raise ValueError("exponential-moment coefficient must be >= 0")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    vals = np.exp(c * x**2)
    full = float(vals.mean())
    half = float(vals[: max(1, x.size // 2)].mean())
    stable = abs(half - full) <= stability_rtol * full
    return ExpMomentReport(c=c, value=full, half_value=half, stable=stable)
