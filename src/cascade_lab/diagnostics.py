"""Measurement functionals on trajectories.

A trajectory is observed through a :class:`Stream`: a read-only float64 array
with one row per recorded step and one named column per quantity (t, tau, the
Sobolev norms, the lattice sup, optional C^m norms and shell spectrum).  Every
check here slices columns and is a pure function of streams, so recomputation
gives identical values.

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
from dataclasses import dataclass
from itertools import chain
from math import sqrt

import numpy as np

from . import schema
from .integrators import State
from .spectral import cm_norm, shell_energies, sobolev_norm, sup_norm

DISCRETIZATION_NOTE = (
    "tau_Gamma discretized to the first sample time; one-sample-interval bias, "
    "bound check weakened, never invalidated"
)


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """Norms and optional extras at one sample time (fast time t, slow time tau).

    ``cm`` is the one C^m value, or order -> value when several orders were recorded.
    """

    t: float
    tau: float
    norms: dict[float, float]
    sup: float
    cm: float | dict[int, float] | None = None
    shells: tuple[float, ...] | None = None

    def norm(self, m: float) -> float:
        return self.norms[float(m)]


class Stream:
    """One trajectory's records: a read-only float64 array of shape (records, columns).

    ``columns`` are named and ordered by ``schema.stream_columns``; ``column(name)``
    is a view of one column, and ``s[i]`` builds row i as a DiagnosticsRecord.
    """

    __slots__ = ("data", "columns", "_index")

    def __init__(self, data, columns):
        data = np.asarray(data, dtype=np.float64).view()
        columns = tuple(columns)
        if data.ndim != 2 or data.shape[1] != len(columns):
            raise ValueError(f"stream data of shape {data.shape} does not have {len(columns)} columns")
        data.flags.writeable = False
        self.data, self.columns = data, columns
        self._index = {name: j for j, name in enumerate(columns)}

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self._index[name]]

    def norm(self, m: float) -> np.ndarray:
        return self.column(schema.norm_column(m))

    def cm(self, order: int) -> np.ndarray:
        """The C^order column: ``cm_<order>`` when several orders were recorded, else the one ``cm``."""
        name = f"cm_{int(order)}"
        return self.column(name if name in self._index else "cm")

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> DiagnosticsRecord:  # also iterates, until data[i] raises IndexError
        row = dict(zip(self.columns, self.data[i].tolist()))
        norms = {float(name[len("norm_") :]): v for name, v in row.items() if name.startswith("norm_")}
        cms = {int(name[len("cm_") :]): v for name, v in row.items() if name.startswith("cm_")}
        shells = tuple(v for name, v in row.items() if name.startswith("shell_"))
        return DiagnosticsRecord(row["t"], row["tau"], norms, row["sup"], row.get("cm", cms or None), shells or None)

    def __eq__(self, other) -> bool:  # bit for bit, so NaNs compare equal and -0.0 differs from 0.0
        if not isinstance(other, Stream):
            return NotImplemented
        key = (self.columns, self.data.shape, self.data.tobytes())
        return key == (other.columns, other.data.shape, other.data.tobytes())


class NormRecorder:
    """Trajectory sink recording each row's norms at each recorded step.

    A call appends one (rows, columns) block, computed for all rows at once,
    and the stream ids of its rows; ``streams`` holds each stream id's rows as
    a :class:`Stream`.
    """

    def __init__(
        self,
        nu: float,
        ms: tuple[float, ...] = (0.0, 1.0, 2.0),
        cm_order: int | tuple[int, ...] | None = None,
        shells: bool = False,
    ):
        self.nu = nu
        self.ms = tuple(float(m) for m in ms)
        orders = () if cm_order is None else (cm_order,) if isinstance(cm_order, int) else cm_order
        self.cm_orders = tuple(sorted({int(k) for k in orders}))
        self.shells = shells
        self.columns: tuple[str, ...] | None = None
        self._blocks: list[np.ndarray] = []
        self._ids: list[list[int]] = []
        self._streams: dict[int, Stream] | None = None

    def __call__(self, state: State) -> None:
        u, rows = state.u, len(state.rngs)
        times = np.full(rows, state.t), np.full(rows, self.nu * state.t)
        parts = [*times, sobolev_norm(u, self.ms).T, sup_norm(u)]
        if self.cm_orders:
            parts.append(cm_norm(u, self.cm_orders).T)
        if self.shells:
            parts.append(shell_energies(u.grid, u.coeffs))
        block = np.column_stack(parts)
        if self.columns is None:
            n_shells = block.shape[1] - 3 - len(self.ms) - len(self.cm_orders)
            self.columns = tuple(schema.stream_columns(self.ms, self.cm_orders, n_shells))
        self._blocks.append(block)
        self._ids.append([rng.stream_id for rng in state.rngs])
        self._streams = None

    @property
    def streams(self) -> dict[int, Stream]:
        """Each stream id's rows, in step order."""
        if self._streams is None:
            self._streams = {}
            if self._blocks:
                data, ids = np.concatenate(self._blocks), np.concatenate(self._ids)
                self._streams = {sid: Stream(data[ids == sid], self.columns) for sid in dict.fromkeys(ids.tolist())}
        return self._streams


# --- stream serialization ----------------------------------------------------


def write_stream_csv(stream: Stream, fh) -> None:
    """RFC-4180 CSV with the frozen column order; floats as shortest round-trip repr."""
    if not len(stream):
        raise ValueError("cannot serialize an empty stream")
    # No column name or float repr holds a comma, quote or line break: csv.writer would write the same.
    cells = [map(repr, col) for col in stream.data.T.tolist()]
    fh.write(",".join(stream.columns) + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n")


def stream_csv_text(stream: Stream) -> str:
    buf = io.StringIO()
    write_stream_csv(stream, buf)
    return buf.getvalue()


def read_stream_csv(fh) -> Stream:
    """The stream of a CSV in the frozen column order; every float reads back to its bits."""
    cols = fh.readline().rstrip("\r\n").split(",")
    ms = tuple(float(c[len("norm_") :]) for c in cols if c.startswith("norm_"))
    cm_orders = tuple(int(c[len("cm_") :]) for c in cols if c.startswith("cm_")) or (0,) * ("cm" in cols)
    n_shells = sum(c.startswith("shell_") for c in cols)
    expected = schema.stream_columns(ms, cm_orders, n_shells)
    if cols != expected:
        raise ValueError(f"stream columns {cols} are not in the frozen order {expected}")
    first = fh.readline()
    if not first:  # header only (np.loadtxt would warn on no data)
        return Stream(np.empty((0, len(cols))), cols)
    data = np.loadtxt(chain([first], fh), delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != len(cols):
        raise ValueError(f"a stream row does not have {len(cols)} fields")
    return Stream(data, cols)


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


def occupation_columns(streams: list[Stream]) -> tuple[tuple, list[tuple]]:
    """tau, ||u||_0 and ||u||_2 over all records in stream order, and each stream's three columns.

    The arrays over all records are built once to serve medians and several
    occupation checks; the per-stream columns are views of the streams.
    """
    per_stream = [(s.column("tau"), s.norm(0.0), s.norm(2.0)) for s in streams]
    return tuple(map(np.concatenate, zip(*per_stream))), per_stream


def occupation_check(
    streams: list[Stream],
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
    streams: list[Stream],
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
    kept = [s.column("t") >= burn_in_fraction * s.column("t")[-1] for s in streams]
    n0 = np.concatenate([s.norm(0.0)[k] for s, k in zip(streams, kept)])
    n2 = np.concatenate([s.norm(2.0)[k] for s, k in zip(streams, kept)])
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
    """Time-ensemble average of ||u||_1^2 over [window_start, window_end] against the injection rate B_0."""

    window_start: float
    window_end: float
    avg_h1_sq: float
    b0: float
    relative_residual: float
    se: float
    n_batches: int
    degenerate: bool
    nu: float

    def to_json_dict(self) -> dict:
        return schema.report("balance", **vars(self))


def batch_means(series: np.ndarray, n_batches: int) -> tuple[float, float]:
    """Mean of an (ensemble, time) series and its batch-means standard error.

    The series is averaged across the ensemble first, then split into
    ``n_batches`` contiguous time batches, so the error bar respects temporal
    autocorrelation.
    """
    ens_mean = series.mean(axis=0)
    means = np.array([b.mean() for b in np.array_split(ens_mean, n_batches)])
    return float(ens_mean.mean()), float(means.std(ddof=1) / sqrt(n_batches))


def balance_check(
    streams: list[Stream],
    b0: float,
    nu: float,
    burn_in_fraction: float = 0.2,
    n_batches: int = 20,
    min_t_slow: float = 5.0,
) -> BalanceReport:
    """Average ||u||_1^2 over the post-burn-in window; batch-means standard error (:func:`batch_means`).

    Degenerate noise (B_0 = 0) is flagged and the relative residual reported as nan.
    """
    if not streams:
        raise ValueError("empty ensemble")
    t = streams[0].column("t")
    t_end = float(t[-1])
    cut = burn_in_fraction * t_end
    kept = t >= cut
    if (n_kept := np.count_nonzero(kept)) < 2 * n_batches:
        raise ValueError(f"window too short: {n_kept} samples for {n_batches} batches (< 2 per batch)")
    if nu * (t_end - cut) < min_t_slow:
        warnings.warn(
            f"balance window is only {nu * (t_end - cut):.3g} slow-time units "
            f"(heuristic minimum {min_t_slow})",
            RuntimeWarning,
            stacklevel=2,
        )
    avg, se = batch_means(np.array([s.norm(1.0)[kept] ** 2 for s in streams]), n_batches)
    degenerate = b0 <= 0
    residual = float("nan") if degenerate else abs(avg - b0) / b0
    return BalanceReport(
        window_start=cut,
        window_end=t_end,
        avg_h1_sq=avg,
        b0=b0,
        relative_residual=residual,
        se=se,
        n_batches=n_batches,
        degenerate=degenerate,
        nu=nu,
    )


# --- time-averaged Sobolev energy ------------------------------------------------------


def time_avg_sobolev(stream: Stream, m: float, t0: float, nu: float) -> float:
    """nu * int_{t0}^{t0 + 1/nu} ||u(s)||_m^2 ds by the left-rectangle rule.

    Equals the unit-window slow-time average of ||u||_m^2; errors if the
    stream does not cover the window.
    """
    tau0 = nu * t0
    return _left_rectangle(stream.column("tau"), stream.norm(m) ** 2, tau0, tau0 + 1.0)


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
