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
  nu * int_{t0}^{t0 + 1/nu} ||u||_m^2 ds.

Integrals use the left-rectangle rule at the recorded cadence; the cadence is
part of the experiment record, so discretization error stays auditable.
Sample-time stopping can only overestimate tau_Gamma, which weakens (never
invalidates) the occupation bound check; reports carry that note.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, groupby
from math import sqrt

import numpy as np

from . import schema
from .integrators import State
from .spectral import cm_norm, shell_energies, sobolev_norm, sup_norm

DISCRETIZATION_NOTE = (
    "tau_Gamma discretized to the first sample time; one-sample-interval bias, "
    "bound check weakened, never invalidated"
)

BURN_IN_FRACTION = 0.2  # leading share of a stationary run left out of its averages
N_BATCHES = 20  # contiguous time batches of a batch-means error bar
MIN_T_SLOW = 5.0  # slow-time units below which a balance window draws a warning


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """Norms and optional extras at one sample time (fast time t, slow time tau).

    ``cm`` maps each recorded C^m order to its value.
    """

    t: float
    tau: float
    norms: dict[float, float]
    sup: float
    cm: dict[int, float] | None = None
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
        """The C^order column ``cm_<order>``; KeyError for an order that was not recorded."""
        return self.column(f"cm_{int(order)}")

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> DiagnosticsRecord:  # also iterates, until data[i] raises IndexError
        row = dict(zip(self.columns, self.data[i].tolist()))
        norms = {float(name[len("norm_") :]): v for name, v in row.items() if name.startswith("norm_")}
        cms = {int(name[len("cm_") :]): v for name, v in row.items() if name.startswith("cm_")}
        shells = tuple(v for name, v in row.items() if name.startswith("shell_"))
        return DiagnosticsRecord(row["t"], row["tau"], norms, row["sup"], cms or None, shells or None)

    def __eq__(self, other) -> bool:  # bit for bit, so NaNs compare equal and -0.0 differs from 0.0
        if not isinstance(other, Stream):
            return NotImplemented
        key = (self.columns, self.data.shape, self.data.tobytes())
        return key == (other.columns, other.data.shape, other.data.tobytes())


class NormRecorder:
    """Trajectory sink recording each row's norms at each recorded step.

    A call computes the columns of all its rows in one pass and appends them as one
    (rows, columns) block, with the stream ids of its rows; ``streams`` holds each stream
    id's rows as a :class:`Stream`.  A :meth:`joint` sink serves the rows of several
    recorders: its call computes, in one pass over every row, the union of the columns
    that the recorders of those rows ask for, and appends each recorder's rows and
    columns of it.  Rows are independent in every product, and the sup and C^m are exact
    maxima, so a row's columns have the same bits in any pass.
    """

    def __init__(
        self,
        nu: float,
        ms: tuple[float, ...] = (0.0, 1.0, 2.0),
        cm_orders: tuple[int, ...] = (),
        shells: bool = False,
    ):
        self.nu = nu
        self.ms = tuple(float(m) for m in ms)
        self.cm_orders = tuple(sorted({int(k) for k in cm_orders}))
        self.shells = shells
        self.columns: tuple[str, ...] | None = None
        self._blocks: list[np.ndarray] = []
        self._ids: list[list[int]] = []
        self._streams: dict[int, Stream] | None = None
        self._owners: dict[int, NormRecorder] | None = None  # a joint sink's: id(RngStream) -> recorder

    @classmethod
    def joint(cls, recorders, rngs) -> "NormRecorder":
        """One sink for the rows of several recorders, which records nothing itself.

        ``rngs[j]`` holds the RngStream objects of ``recorders[j]``'s rows.  Stream ids
        repeat across recorders, so a row's recorder is that of its stream object.
        """
        sink = cls(nu=0.0, ms=())
        sink._owners = {id(rng): rec for rec, rows in zip(recorders, rngs) for rng in rows}
        return sink

    def __call__(self, state: State) -> None:
        u, t, rngs = state.u, state.t, state.rngs
        if self._owners is None:
            runs, ms, orders, with_shells = [(self, slice(None))], self.ms, self.cm_orders, self.shells
        else:
            runs, ms, orders, with_shells = self._union(rngs)
        norms = sobolev_norm(u, ms).T
        if orders:  # the sup is C^0: one pass gives both, with the sup's own bits
            both = cm_norm(u, (0, *orders))
            sup, cms = both[0], both[1:].T
        else:
            sup = sup_norm(u)
        shells = shell_energies(u.grid, u.coeffs) if with_shells else None
        for rec, rows in runs:
            parts = [_pick(norms[rows], ms, rec.ms), sup[rows]]
            if rec.cm_orders:
                parts.append(_pick(cms[rows], orders, rec.cm_orders))
            if rec.shells:
                parts.append(shells[rows])
            rec._append(t, rngs[rows], parts)

    def _union(self, rngs) -> tuple[list, tuple[float, ...], tuple[int, ...], bool]:
        """A joint sink's (recorder, rows) for each run of consecutive rows that share a recorder, and
        the union of those recorders' Sobolev orders, C^m orders and shells."""
        runs, start = [], 0
        for rec, rows in groupby(self._owners[id(rng)] for rng in rngs):
            stop = start + len(tuple(rows))
            runs.append((rec, slice(start, stop)))
            start = stop
        recs = [rec for rec, _ in runs]
        ms = tuple(dict.fromkeys(m for rec in recs for m in rec.ms))
        orders = tuple(sorted({k for rec in recs for k in rec.cm_orders}))
        return runs, ms, orders, any(rec.shells for rec in recs)

    def _append(self, t: float, rngs, parts: list[np.ndarray]) -> None:
        """Append the block of ``rngs``' rows at time ``t``: t, tau and ``parts``, this recorder's columns of a pass."""
        rows = len(rngs)
        block = np.column_stack([np.full(rows, t), np.full(rows, self.nu * t), *parts])
        if self.columns is None:
            n_shells = block.shape[1] - 3 - len(self.ms) - len(self.cm_orders)
            self.columns = tuple(schema.stream_columns(self.ms, self.cm_orders, n_shells))
        self._blocks.append(block)
        self._ids.append([rng.stream_id for rng in rngs])
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


def _pick(values: np.ndarray, have: tuple, want: tuple) -> np.ndarray:
    """The columns of ``values`` (one per entry of ``have``) for the entries ``want``, in that order."""
    return values if want == have else values[:, [have.index(x) for x in want]]


# --- stream serialization ----------------------------------------------------


def stream_csv_text(stream: Stream) -> str:
    """RFC-4180 CSV with the frozen column order; floats as shortest round-trip repr."""
    if not len(stream):
        raise ValueError("cannot serialize an empty stream")
    # No column name or float repr holds a comma, quote or line break: csv.writer would write the same.
    cells = [map(repr, col) for col in stream.data.T.tolist()]
    return ",".join(stream.columns) + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n"


def read_stream_csv(fh) -> Stream:
    """The stream of a CSV in the frozen column order; every float reads back to its bits."""
    cols = fh.readline().rstrip("\r\n").split(",")
    ms = tuple(float(c[len("norm_") :]) for c in cols if c.startswith("norm_"))
    cm_orders = tuple(int(c[len("cm_") :]) for c in cols if c.startswith("cm_"))
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


# ``informative`` is false if no stream spent sampled time at ||u||_0 <= chi: lhs 0, se 0, vacuous pass.
OccupationReport = schema.record("OccupationReport", "occupation", note=DISCRETIZATION_NOTE)


def occupation_check(
    streams: list[Stream], chi: float, gamma: float, tau0: float, tau: float, b0: float
) -> OccupationReport:
    """Check E int_{tau0}^{tau ^ tau_Gamma} 1[||u||_0 <= chi] ds <= 2 (1+tau) chi Gamma / B0.

    Per trajectory, tau_Gamma is the first sample time >= tau0 with
    ||u||_2 >= Gamma, and the indicator integral uses the left-rectangle rule
    in slow time.  Pass/fail is judged at a two-standard-error margin.
    """
    if not streams:
        raise ValueError("empty ensemble")
    if chi <= 0 or gamma <= 0 or tau <= tau0:
        raise ValueError("need chi > 0, gamma > 0 and tau > tau0")
    if b0 <= 0:
        raise ValueError("occupation bound is vacuous for degenerate noise (B0 = 0)")
    integrals = []
    for s in streams:
        taus, n0, n2 = s.column("tau"), s.norm(0.0), s.norm(2.0)
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


StationaryCheckReport = schema.record("StationaryCheckReport", "stationary_check")


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
    burn_in_fraction: float = BURN_IN_FRACTION,
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


# Time-ensemble average of ||u||_1^2 over [window_start, window_end] against the injection rate B_0.
BalanceReport = schema.record("BalanceReport", "balance")


def batch_means(series: np.ndarray) -> tuple[float, float]:
    """Mean of an (ensemble, time) series and its batch-means standard error.

    The series is averaged across the ensemble first, then split into
    ``N_BATCHES`` contiguous time batches, so the error bar respects temporal
    autocorrelation.
    """
    ens_mean = series.mean(axis=0)
    means = np.array([b.mean() for b in np.array_split(ens_mean, N_BATCHES)])
    return float(ens_mean.mean()), float(means.std(ddof=1) / sqrt(N_BATCHES))


def balance_check(streams: list[Stream], b0: float, nu: float) -> BalanceReport:
    """Average ||u||_1^2 after the burn-in ``BURN_IN_FRACTION``; batch-means standard error (:func:`batch_means`).

    Degenerate noise (B_0 = 0) is flagged and the relative residual reported as nan.
    """
    if not streams:
        raise ValueError("empty ensemble")
    t = streams[0].column("t")
    t_end = float(t[-1])
    cut = BURN_IN_FRACTION * t_end
    kept = t >= cut
    if (n_kept := np.count_nonzero(kept)) < 2 * N_BATCHES:
        raise ValueError(f"window too short: {n_kept} samples for {N_BATCHES} batches (< 2 per batch)")
    if nu * (t_end - cut) < MIN_T_SLOW:
        warnings.warn(
            f"balance window is only {nu * (t_end - cut):.3g} slow-time units "
            f"(heuristic minimum {MIN_T_SLOW})",
            RuntimeWarning,
            stacklevel=2,
        )
    avg, se = batch_means(np.array([s.norm(1.0)[kept] ** 2 for s in streams]))
    degenerate = b0 <= 0
    residual = float("nan") if degenerate else abs(avg - b0) / b0
    return BalanceReport(
        window_start=cut,
        window_end=t_end,
        avg_h1_sq=avg,
        b0=b0,
        relative_residual=residual,
        se=se,
        n_batches=N_BATCHES,
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
