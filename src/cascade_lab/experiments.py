"""Monte Carlo orchestration: ensembles, viscosity sweeps, and power-law fits.

A sweep runs an ensemble of M independent trajectories per viscosity value
(stream ids 0..M-1 under one base seed, so sweeps share their driving noise
across viscosities), evaluates windowed observables per trajectory, and fits
the scaling exponent alpha of log(observable) against log(1/nu).

Entries that share a fast dt step as one batch of rows (``run_ensembles``):
each row steps with its own entry's viscosity, and an entry's rows leave the
batch at its horizon.  A step's fixed cost is then paid once per step instead
of once per entry per step.  The bytes do not change: every matrix product is
taken per row, and every per-row table (OU decay, convolution scale, EM
drift) multiplies elementwise, so each entry's streams and summary are those
of its ensemble run alone.

Desk-scale honesty: the asymptotic statements behind these experiments hold
for nu below an unknown threshold, so sweep verdicts are reported as trends
(monotonicity plus an exponent window), never as confirmations of sharp
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from math import sqrt
from typing import Callable

import numpy as np

from . import integrators, schema
from .diagnostics import (
    BalanceReport,
    NormRecorder,
    Stream,
    balance_check,
    batch_means,
    time_avg_sobolev,
)
from .forcing import NoiseSpec, RngStream, bk_sum
from .integrators import KAPPA, SimParams, State, constrained_profile
from .spectral import GridSpec, SpectralField

QUANTILES = (5, 25, 50, 75, 95)

BURN_IN_FRACTION = 0.2  # leading share of a stationary run left out of its averages

OBSERVABLE_KINDS = ("sup_sobolev", "time_avg_sobolev", "sup_cm", "sup_inf")


class EnsembleAbortError(RuntimeError):
    """More than the tolerated fraction of trajectories aborted."""


@dataclass(frozen=True)
class Observable:
    """A windowed scalar functional of one trajectory's diagnostics stream."""

    kind: str
    m: float | None = None

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "sup_inf":
            if self.m is not None:
                raise ValueError("sup_inf takes no order")
        elif self.m is None or self.m < 0:
            raise ValueError(f"observable {self.kind} needs an order m >= 0")
        if self.kind == "sup_cm" and self.m != int(self.m):
            raise ValueError("sup_cm needs an integer order")

    @classmethod
    def parse(cls, text: str) -> "Observable":
        kind, sep, arg = text.strip().partition(":")
        return cls(kind, float(arg)) if sep else cls(kind)

    @property
    def name(self) -> str:
        if self.m is None:
            return self.kind
        return f"{self.kind}_{self.m:g}"

    def evaluate(self, stream: Stream, t0: float, nu: float) -> float:
        if self.kind == "time_avg_sobolev":
            return time_avg_sobolev(stream, self.m, t0, nu)
        t1 = t0 + 1.0 / nu
        t = stream.column("t")
        window = (t0 - 1e-12 <= t) & (t <= t1 + 1e-12)
        if not window.any():
            raise ValueError(f"no samples in the window [{t0:.6g}, {t1:.6g}]")
        if self.kind == "sup_sobolev":
            values = stream.norm(self.m)
        elif self.kind == "sup_cm":
            values = stream.cm(int(self.m))
        else:
            values = stream.column("sup")
        return float(values[window].max())


@dataclass(frozen=True)
class ObservableStats:
    mean: float
    variance: float
    se: float
    quantiles: dict[int, float]

    @property
    def median(self) -> float:
        return self.quantiles[50]


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-observable statistics of one ensemble, plus abort bookkeeping."""

    nu: float
    M: int
    aborts: int
    observables: dict[str, ObservableStats]

    def to_json_dict(self) -> dict:
        return schema.report(
            "ensemble_summary",
            nu=self.nu,
            M=self.M,
            aborts=self.aborts,
            observables={
                name: {
                    "mean": st.mean,
                    "variance": st.variance,
                    "se": st.se,
                    "quantiles": {str(q): v for q, v in st.quantiles.items()},
                }
                for name, st in self.observables.items()
            },
        )


def _stats(values: np.ndarray) -> ObservableStats:
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return ObservableStats(
        mean=float(values.mean()),
        variance=var,
        se=sqrt(var / values.size) if values.size > 1 else 0.0,
        quantiles={q: float(np.percentile(values, q)) for q in QUANTILES},
    )


def cm_orders(observables) -> list[int]:
    """The distinct C^m orders that ``sup_cm`` observables ask for, ascending."""
    return sorted({int(obs.m) for obs in observables if obs.kind == "sup_cm"})


def _needed_recorder(observables: tuple[Observable, ...], nu: float) -> NormRecorder:
    ms = {0.0, 1.0, 2.0}
    for obs in observables:
        if obs.kind in ("sup_sobolev", "time_avg_sobolev"):
            ms.add(float(obs.m))
    return NormRecorder(nu=nu, ms=tuple(sorted(ms)), cm_order=tuple(cm_orders(observables)))


@dataclass(frozen=True)
class Ensemble:
    """The settings of one ensemble: every argument of :func:`ensemble_run` after the grid and spec."""

    params: SimParams
    M: int
    u0_factory: Callable[[int], SpectralField]
    observables: tuple[Observable, ...] = ()
    window_t0: float | None = None
    max_abort_fraction: float = 0.01
    recorder_factory: Callable[[SimParams], NormRecorder] | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("ensemble size must be >= 1")
        if self.observables and self.recorder_factory is not None:
            raise ValueError("a recorder_factory takes no observables: they read the default recorder's columns")

    def summarize(self, rec: NormRecorder, lost: set[int]) -> tuple[EnsembleSummary, list[Stream]]:
        """The summary and kept streams of a run that recorded into ``rec`` and lost stream ids ``lost``."""
        p = self.params
        streams = [rec.streams[sid] for sid in range(p.stream_id, p.stream_id + self.M) if sid not in lost]
        if len(lost) > self.max_abort_fraction * self.M:
            raise EnsembleAbortError(
                f"{len(lost)}/{self.M} trajectories aborted (tolerated fraction {self.max_abort_fraction})"
            )
        t0 = max(0.0, p.T - 1.0 / p.nu) if self.window_t0 is None else self.window_t0
        per_obs = {
            obs.name: _stats(np.array([obs.evaluate(stream, t0, p.nu) for stream in streams]))
            for obs in self.observables
        }
        return EnsembleSummary(nu=p.nu, M=self.M, aborts=len(lost), observables=per_obs), streams


def run_ensembles(
    grid: GridSpec, spec: NoiseSpec, ensembles
) -> list[tuple[EnsembleSummary, list[Stream]]]:
    """Run ensembles that share dt, scheme and nonlinearity as one batch of rows; each one's (summary, streams).

    The batch holds each ensemble's M rows in turn, each row at its own ensemble's
    viscosity, and an ensemble's rows leave at its horizon.  Each ensemble keeps its own
    recorder, observable window, abort count and tolerated fraction, checked in order;
    stream ids repeat across ensembles, so an abort goes to the ensemble whose stream
    object its row carries.  Each result is bit for bit that of :func:`ensemble_run`.
    """
    recorders, rngs = [], []
    for e in ensembles:
        p = e.params
        recorders.append(_needed_recorder(e.observables, p.nu) if e.recorder_factory is None else e.recorder_factory(p))
        rngs.append(tuple(RngStream(p.seed, sid) for sid in range(p.stream_id, p.stream_id + e.M)))
    u0 = np.concatenate([e.u0_factory(rng.stream_id).coeffs for e, rows in zip(ensembles, rngs) for rng in rows])
    state = State(0.0, SpectralField(grid, u0), tuple(chain.from_iterable(rngs)), 0)
    row_params = tuple(chain.from_iterable((e.params,) * e.M for e in ensembles))
    row_sinks = tuple(chain.from_iterable((rec,) * e.M for e, rec in zip(ensembles, recorders)))
    # Resolved at call time, so a wrapper installed on the integrators module sees the call.
    _, aborted = integrators.continue_trajectory(state, spec, row_params, row_sinks)
    owner = {id(rng): j for j, rows in enumerate(rngs) for rng in rows}
    lost: list[set[int]] = [set() for _ in ensembles]
    for exc in aborted:
        (rng,) = exc.last_state.rngs
        lost[owner[id(rng)]].add(rng.stream_id)
    return [e.summarize(rec, gone) for e, rec, gone in zip(ensembles, recorders, lost)]


def ensemble_run(
    grid: GridSpec,
    spec: NoiseSpec,
    params: SimParams,
    M: int,
    u0_factory,
    observables: tuple[Observable, ...] = (),
    window_t0: float | None = None,
    max_abort_fraction: float = 0.01,
    recorder_factory=None,
) -> tuple[EnsembleSummary, list[Stream]]:
    """Run M trajectories as one batch and summarize observables; also return each kept stream.

    Row i runs on stream id ``params.stream_id + i`` (0..M-1 by default), from
    the one-row field ``u0_factory(stream_id)``.  ``recorder_factory(params)``,
    if given, supplies the recorder that observes every trajectory; it need not
    record what observables read, so it takes no observables.  Observables are
    evaluated on the window [window_t0, window_t0 + 1/nu] (default: the second
    half of a two-slow-unit run, i.e. t0 = T - 1/nu).  A trajectory that turns
    non-finite is dropped at that step and excluded from statistics; more than
    ``max_abort_fraction`` aborts raises.  The streams, one :class:`Stream` per
    kept trajectory in stream-id order, are the recorder's; each is a pure
    function of (seed, stream_id), for any M.  This is :func:`run_ensembles` with
    one ensemble.
    """
    ensemble = Ensemble(params, M, u0_factory, observables, window_t0, max_abort_fraction, recorder_factory)
    (result,) = run_ensembles(grid, spec, (ensemble,))
    return result


# --- power-law fits -----------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log q against log(1/nu); alpha > 0 means growth as nu -> 0."""

    points: tuple[tuple[float, float], ...]
    alpha: float
    intercept: float
    r2: float

    def to_json_dict(self, observable: str = "") -> dict:
        return schema.report(
            "scaling_fit",
            observable=observable,
            alpha=self.alpha,
            intercept=self.intercept,
            r2=self.r2,
            points=[[nu, q] for nu, q in self.points],
        )


def fit_exponent(points) -> ScalingFit:
    """Fit q ~ C * nu^(-alpha) over a (nu, q) table; needs >= 3 points with q > 0."""
    pts = tuple((float(nu), float(q)) for nu, q in points)
    if len(pts) < 3:
        raise ValueError(f"exponent fit needs at least 3 points, got {len(pts)}")
    for nu, q in pts:
        if nu <= 0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        if q <= 0:
            raise ValueError(f"observable values must be positive for a log fit, got {q}")
    x = np.log([1.0 / nu for nu, _ in pts])
    y = np.log([q for _, q in pts])
    dx = x - x.mean()  # least squares in closed form: no LAPACK call, so no BLAS-kernel dependence
    slope = np.sum(dx * (y - y.mean())) / np.sum(dx * dx)
    intercept = y.mean() - slope * x.mean()
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(points=pts, alpha=float(slope), intercept=float(intercept), r2=r2)


# --- sweeps ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPlan:
    """A viscosity grid with per-entry ensemble settings; one entry is a single ensemble.

    The fast-time horizon per entry is ``t_slow_total / nu`` and observables
    are evaluated on the unit slow-time window starting at
    ``window_t0_slow / nu``.  With a fast-time horizon ``T``, every entry runs
    to ``T`` instead and observables use its last slow unit [T - 1/nu, T]
    (clipped at 0).  Initial data follow the constrained smooth profile
    (lattice sup 1, ||u||_3 <= nu^(-3 KAPPA)).

    With ``dt_slow`` set, every entry steps at the same slow-time increment
    (fast dt = dt_slow / nu).  Draws are addressed by step index, so all
    entries then consume identical noise and their linear updates coincide
    exactly; the entries differ only through the phase-rotation strength
    1/nu.  That common-random-number coupling makes trend comparisons across
    the grid far less noisy than independent runs at a fixed fast dt.

    Entries that share a fast dt (every entry, unless ``dt_slow`` is set) run
    as one batch of rows, each row at its own entry's viscosity, and each
    entry's rows leave at its horizon; with ``dt_slow`` each entry is a batch
    of its own.  Either way every entry's streams and summary are bit for bit
    those of running it alone, since every product is taken per row and every
    per-row table multiplies elementwise.
    """

    grid: GridSpec
    noise_profile: str
    nu_grid: tuple[float, ...]
    M: int
    base_seed: int
    dt: float = 0.01
    dt_slow: float | None = None
    t_slow_total: float = 2.0
    T: float | None = None
    window_t0_slow: float = 1.0
    record_every: int = 10
    scheme: str = "strang"
    nonlinear: bool = True
    observables: tuple[Observable, ...] = (
        Observable("time_avg_sobolev", 2.0),
        Observable("sup_sobolev", 2.0),
        Observable("sup_cm", 2.0),
        Observable("sup_inf"),
    )

    def __post_init__(self):
        nus = self.nu_grid
        if len(nus) < 1 or any(not 0 < nu <= 1 for nu in nus):
            raise ValueError("nu_grid entries must lie in (0, 1]")
        if any(a <= b for a, b in zip(nus, nus[1:])):
            raise ValueError("nu_grid must be strictly decreasing")
        if self.dt_slow is not None and self.dt_slow <= 0:
            raise ValueError(f"dt_slow must be positive, got {self.dt_slow}")

    def spec(self) -> NoiseSpec:
        return NoiseSpec.from_profile(self.grid, self.noise_profile)

    def params_for(self, nu: float) -> SimParams:
        return SimParams(
            nu=nu,
            dt=self.dt if self.dt_slow is None else self.dt_slow / nu,
            T=self.T if self.T is not None else self.t_slow_total / nu,
            scheme=self.scheme,
            record_every=self.record_every,
            seed=self.base_seed,
            nonlinear=self.nonlinear,
        )

    def u0_factory(self, nu: float):
        u0 = constrained_profile(self.grid, nu)
        return lambda stream_id: u0

    def ensembles(self, recorder_factory=None) -> list[tuple[EnsembleSummary, list[Stream]]]:
        """Every grid entry's (summary, streams), in grid order; entries that share a fast dt
        run as one batch through :func:`run_ensembles`.

        Each entry evaluates the plan's observables, or, with ``recorder_factory``, none:
        the caller reads the streams that recorder writes.
        """
        spec, results = self.spec(), []
        entries = [
            Ensemble(
                self.params_for(nu),
                self.M,
                self.u0_factory(nu),
                observables=self.observables if recorder_factory is None else (),
                window_t0=None if self.T is not None else self.window_t0_slow / nu,
                recorder_factory=recorder_factory,
            )
            for nu in self.nu_grid
        ]
        for _, batch in groupby(entries, key=lambda e: e.params.dt):
            results += run_ensembles(self.grid, spec, tuple(batch))
        return results


def _check_sweep(plan: SweepPlan) -> None:
    if plan.M < 2:
        raise ValueError("sweeps need ensembles of M >= 2")
    if plan.window_t0_slow + 1.0 > plan.t_slow_total + 1e-12:
        raise ValueError(
            "observable window extends past the horizon: need window_t0_slow + 1 <= t_slow_total"
        )


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    summaries: tuple[EnsembleSummary, ...]
    streams: tuple[list[Stream], ...]  # per nu entry: the per-trajectory streams
    fits: dict[str, ScalingFit | None]
    verdicts: dict[str, dict[str, bool | float]]

    @property
    def all_verdicts_pass(self) -> bool:
        return all(
            bool(v) for per_obs in self.verdicts.values() for v in per_obs.values()
            if isinstance(v, (bool, np.bool_))
        )


def _strictly_increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def nu_sweep(plan: SweepPlan) -> SweepResult:
    """Run the viscosity sweep and judge trend verdicts per observable.

    For Sobolev-type observables of order m the verdicts are: fitted alpha
    positive (energy moves to high modes as nu shrinks), alpha <= m + 0.5
    (the a-priori upper scaling with a desk-scale slack), and ensemble means
    strictly increasing along the decreasing nu grid.  For C^m observables the
    median trend is judged; for the lattice sup the max/min median ratio
    across the grid must stay below 3 (the sup-norm moments are nu-uniform).
    """
    _check_sweep(plan)
    summaries, streams_per_nu = zip(*plan.ensembles())

    fits: dict[str, ScalingFit | None] = {}
    verdicts: dict[str, dict] = {}
    for obs in plan.observables:
        name = obs.name
        means = [s.observables[name].mean for s in summaries]
        medians = [s.observables[name].median for s in summaries]
        fit = None
        if len(plan.nu_grid) >= 3 and all(v > 0 for v in means):
            fit = fit_exponent(list(zip(plan.nu_grid, means)))
        fits[name] = fit
        v: dict[str, bool | float] = {}
        if obs.kind in ("sup_sobolev", "time_avg_sobolev"):
            # a-priori envelope of E||u||_m^2 is nu^(-m); slack covers desk-scale noise
            upper = float(obs.m) + 0.5
            v["means_strictly_increasing"] = _strictly_increasing(means)
            if fit is not None:
                v["alpha_positive"] = fit.alpha > 0
                v["alpha_below_upper"] = fit.alpha <= upper
                v["alpha"] = fit.alpha
        elif obs.kind == "sup_cm":
            v["medians_strictly_increasing"] = _strictly_increasing(medians)
            if fit is not None:
                v["alpha"] = fit.alpha
        elif obs.kind == "sup_inf":
            ratio = max(medians) / min(medians) if min(medians) > 0 else float("inf")
            v["median_ratio"] = ratio
            v["nu_uniform"] = ratio < 3.0
        verdicts[name] = v
    return SweepResult(
        plan=plan,
        summaries=summaries,
        streams=streams_per_nu,
        fits=fits,
        verdicts=verdicts,
    )


# --- stationary sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class MomentRow:
    m: float
    mean_sq: float
    se: float


@dataclass(frozen=True)
class StationarySweepResult:
    plan: SweepPlan
    balance: tuple[BalanceReport, ...]
    streams: tuple[list[Stream], ...]
    moments: dict[float, tuple[MomentRow, ...]]  # m -> one row per nu
    exponent_window: dict[float, tuple[float, float]]
    moment_fits: dict[float, ScalingFit | None]
    exponent_consistent: dict[float, bool]


def stationary_sweep(
    plan: SweepPlan, ms: tuple[float, ...] = (1.0, 2.0, 3.0)
) -> StationarySweepResult:
    """Long-run averages per nu as stationary-measure surrogates.

    Per viscosity: the balance report for E||u||_1^2 = B_0 and the moment
    table E||u||_m^2 with batch-means error bars, both after the burn-in
    ``BURN_IN_FRACTION``, which must leave at least 10 slow units.  Across the
    grid, the fitted exponent of each moment is compared against the window
    [2 m KAPPA - 1, m]; constants are free, only exponent consistency is
    judged.
    """
    _check_sweep(plan)
    post_burn = plan.t_slow_total * (1.0 - BURN_IN_FRACTION)
    if post_burn < 10.0:
        raise ValueError(
            f"insufficient run length: {post_burn:.3g} slow units after burn-in, need 10.0"
        )
    b0 = bk_sum(plan.spec(), 0.0)
    rec_ms = tuple(sorted({0.0, 1.0, 2.0} | {float(m) for m in ms}))

    def recorder_factory(p):
        return NormRecorder(nu=p.nu, ms=rec_ms)

    balance_reports = []
    streams_per_nu = []
    rows: dict[float, list[MomentRow]] = {m: [] for m in ms}
    for nu, (_, streams) in zip(plan.nu_grid, plan.ensembles(recorder_factory)):
        balance_reports.append(
            balance_check(streams, b0, nu, burn_in_fraction=BURN_IN_FRACTION)
        )
        streams_per_nu.append(streams)
        t = streams[0].column("t")
        kept = t >= BURN_IN_FRACTION * t[-1]
        for m in ms:
            mean_sq, se = batch_means(np.array([s.norm(m)[kept] ** 2 for s in streams]), 20)
            rows[m].append(MomentRow(m=m, mean_sq=mean_sq, se=se))
    window = {m: (2.0 * m * KAPPA - 1.0, float(m)) for m in ms}
    fits: dict[float, ScalingFit | None] = {}
    consistent: dict[float, bool] = {}
    for m in ms:
        vals = [(nu, row.mean_sq) for nu, row in zip(plan.nu_grid, rows[m])]
        fit = None
        if len(vals) >= 3 and all(q > 0 for _, q in vals):
            fit = fit_exponent(vals)
        fits[m] = fit
        lo, hi = window[m]
        consistent[m] = fit is not None and lo <= fit.alpha <= hi
    return StationarySweepResult(
        plan=plan,
        balance=tuple(balance_reports),
        streams=tuple(streams_per_nu),
        moments={m: tuple(rows[m]) for m in ms},
        exponent_window=window,
        moment_fits=fits,
        exponent_consistent=consistent,
    )
