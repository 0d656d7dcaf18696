"""Time stepping for u_t - nu*Lap(u) + i|u|^2 u = sqrt(nu) * eta.

In mode space the linear/stochastic part is a family of decoupled complex
Ornstein-Uhlenbeck equations du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d,
solved exactly, while u_t = -i|u|^2 u is an exact pointwise phase rotation on
the collocation lattice.  The driver steps only with the Strang composition
OU(dt/2) o phase(dt) o OU(dt/2).  An explicit Euler-Maruyama step over the full
drift (:func:`em_step`) stays outside the driver, as the tests' independent
oracle.

There is one state type, :class:`State`: rows of coefficient planes
(``spectral.to_planes``, (2, M, *grid) for every n) with one stream per row, and
the draws of the block its last step came from.  A Strang step is one kernel on
the planes: one OU update, the rotation (a sine-matrix pair around a cosine and
a sine from one tangent), and a flush of subnormal parts.  Adjacent OU halves
merge: the running state is open, its last closing OU(dt/2) pending, and the
next step applies it with its own opening half as one OU(dt) (without the
rotation, a step's own halves are one OU(dt)).  :func:`_merged_noise` builds the
noise of each step's one OU update for a stack of steps: once per draw block in
the driver, once per path in the coupled-path harness.  The step loop
(:func:`_steps`) takes that noise as input, the step's new array its one
finiteness check; the driver feeds it from one record step to the next, and
:func:`strang_step` is the driver run for one step.  Only an observed state gets
a closed copy, so a row's bits do not depend on when it is recorded.  Row i is
bit for bit the one-row run on its stream, also when rows carry their own
viscosities and horizons; so when a step turns non-finite, its array already
holds the next state of every finite row, and only the non-finite rows leave.

Only the s forced modes (b_d > 0) are driven, from draws addressed by
(step_index // K, SUB_OU) (``forcing.ou_normals``), never consumed
sequentially: a trajectory is a pure function of (seed, stream_id) and resumes
from a checkpoint at any step bit-exactly.  A state without draws (a fresh
start, a checkpoint) draws only the blocks it reads.  Schema 8 marks the planes
and the merged halves, which round differently from two halves and a complex
product.  A fast chain at (nu, dt) performs, number for number, the updates of
a unit-viscosity chain at dtau = nu*dt with the phase angle rescaled by 1/nu.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from math import ceil, isfinite, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .forcing import (
    SUB_INIT,
    NoiseSpec,
    RngStream,
    complex_normals,
    forced_increments,
    ou_block_steps,
    ou_convolutions,
    ou_normals,
)
from . import spectral
from .spectral import (
    GridMismatchError,
    GridSpec,
    NonFiniteFieldError,
    SpectralField,
    field_from_bytes,
    field_to_bytes,
    from_planes,
    mode_abs_sq,
    sobolev_norm,
    sup_norm,
    to_physical,
    to_spectral,
)


class TrajectoryAbortError(RuntimeError):
    """A trajectory produced non-finite values; carries its last good state, one row."""

    def __init__(self, message: str, last_state: "State"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class SimParams:
    """One trajectory's contract: viscosity, step, horizon, record cadence, and seed.

    ``nu`` may also be a tuple of one viscosity per row: the step parameters of a
    batch whose rows come from several entries (see :func:`continue_trajectory`).
    """

    nu: float | tuple[float, ...]
    dt: float
    T: float
    record_every: int = 1
    seed: int = 0
    stream_id: int = 0
    nonlinear: bool = True

    def __post_init__(self):
        if not all(0 < nu <= 1 for nu in (self.nu if isinstance(self.nu, tuple) else (self.nu,))):
            raise ValueError(f"viscosity must satisfy 0 < nu <= 1, got {self.nu}")
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.T < self.dt:
            raise ValueError(f"horizon T={self.T} is shorter than one step dt={self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    @property
    def n_steps(self) -> int:
        """T / dt rounded up, or to the nearest integer when within a relative 1e-9 of it.

        A horizon that is a whole number of steps up to float rounding (e.g.
        T = 1/0.4, dt = 0.01/0.4, T / dt = 100.00000000000001) takes exactly
        that number of steps.
        """
        ratio = self.T / self.dt
        nearest = round(ratio)
        return nearest if abs(ratio - nearest) <= 1e-9 * ratio else ceil(ratio)


class Draws(NamedTuple):
    """Draw block ``index`` of a state's rows: each step's OU-update noise and scaled closing half, (K, M, 2, s),
    made under ``key``, (spec, dt, nonlinear, each row's viscosity)."""

    key: tuple
    index: int
    steps: np.ndarray
    closing: np.ndarray


@dataclass
class State:
    """M trajectories at a common step, one stream per row; a single trajectory is one row.

    ``c`` holds the coefficient planes: the start data at step 0, later, in a nonlinear Strang run,
    the open state, whose last closing OU(dt/2) is pending.  ``u`` is the closed field, set at step
    0 and where the driver hands the state on (sinks, aborts, the final state).  ``draws`` are those
    of the block the last Strang step came from, used only under the params they were made with
    (:func:`_held`); None for a fresh start and a checkpoint.
    """

    t: float
    grid: GridSpec
    c: np.ndarray
    rngs: tuple[RngStream, ...]
    step_index: int
    u: SpectralField | None = None
    draws: Draws | None = None

    @classmethod
    def of(cls, u: SpectralField, rngs: tuple[RngStream, ...], t: float = 0.0, step_index: int = 0) -> "State":
        """The state with ``u``'s planes, taken as open at a step >= 1."""
        return cls(t, u.grid, u.planes, rngs, step_index, None if step_index else u)


# --- elementary flows --------------------------------------------------------


@lru_cache(maxsize=64)
def _ou_tables(spec: NoiseSpec, nu, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached decay over all modes, and conv standard deviation and sqrt(nu) b_d over the forced modes.

    For one viscosity per row, the rows' own tables stacked in row order.
    """
    if isinstance(nu, tuple):
        tables = tuple(np.stack(rows) for rows in zip(*(_ou_tables(spec, v, dt) for v in nu)))
    else:
        lam = nu * mode_abs_sq(spec.grid)  # > 0, since nu > 0 and |d|^2 >= 1
        tables = (
            np.exp(-lam * dt),
            np.sqrt(-np.expm1(-2.0 * lam * dt) / (2.0 * lam)).reshape(-1)[spec.forced],
            sqrt(nu) * spec.amplitudes.reshape(-1)[spec.forced],
        )
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def _forced_index(spec: NoiseSpec, rows: int) -> np.ndarray:
    """Flat indices of the forced modes in ``rows`` rows of planes, in the order of noise laid out (rows, 2, s)."""
    row, part, mode = np.ix_(np.arange(rows), np.arange(2), spec.forced)
    index = ((part * rows + row) * spec.grid.n_modes + mode).ravel()  # (part, row) plane, then mode
    index.flags.writeable = False
    return index


def ou_exact_step(
    c: np.ndarray, spec: NoiseSpec, nu: float | tuple[float, ...], dt: float, noise: np.ndarray
) -> np.ndarray:
    """Exact one-step solve of du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d, on coefficient planes.

    u_d <- exp(-nu |d|^2 dt) u_d + sqrt(nu) b_d gamma_d, gamma_d the stochastic convolution with
    per-component variance (1 - exp(-2 nu |d|^2 dt)) / (2 nu |d|^2): exact in distribution for any
    dt.  The result is a new array, unchecked.  ``noise`` is (M, 2, s), each of the M plane rows'
    real, then imaginary parts over the s forced modes; every other mode is exactly u_d * decay.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay = _ou_tables(spec, nu, dt)[0]
    if c.shape[2:] != spec.grid.coeff_shape:
        raise GridMismatchError(f"planes {c.shape} are not rows of the noise grid {spec.grid.coeff_shape}")
    if noise.shape != (c.shape[1], 2, spec.forced.size):
        raise ValueError(f"noise {noise.shape} is not (rows, 2, s) = {(c.shape[1], 2, spec.forced.size)}")
    new = np.ascontiguousarray(c * decay)  # so that its reshape is a view
    new.reshape(-1)[_forced_index(spec, len(noise))] += noise.reshape(-1)  # one 1-D index: cheaper than slices
    return new


def _cos_sin(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2 * ``half`` from t = tan(half): ((1 - t^2), 2t) / (1 + t^2), as (r - 1, t r), r = 2 / (1 + t^2).

    One ``np.tan`` costs less than a cosine and a sine.  Both are within about 4e-16 of ``np.cos``/
    ``np.sin``, with bits that follow numpy's SIMD dispatch of ``tan``; a non-finite angle gives NaN.
    """
    t = np.tan(half, out=half)
    r = np.square(t)
    r += 1.0
    np.divide(2.0, r, out=r)
    t *= r
    r -= 1.0
    return r, t


def phase_rotation_step(grid: GridSpec, c: np.ndarray, dt: float) -> np.ndarray:
    """Exact flow of u_t = -i |u|^2 u: pointwise u <- u * exp(-i |u|^2 dt) on the lattice.

    ``c`` holds rows of coefficient planes; the result is a new array, unchecked (``c`` itself when
    dt = 0).  The pointwise modulus is preserved exactly before the closing Galerkin truncation.  A
    non-finite lattice value or an overflowing |u|^2 turns into NaN, without warnings.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return c
    with np.errstate(over="ignore", invalid="ignore"):
        v = to_physical(grid, c)
        sq = np.square(v)
        half = np.add(sq[0], sq[1])  # indexed: unpacking an array costs more
        half *= 0.5 * dt
        cos, sin = _cos_sin(half)
        # (re + i im)(cos - i sin) = (re cos + im sin) + i (im cos - re sin), plane by plane
        re, im = v[0], v[1]
        re_sin = re * sin
        re *= cos
        sin *= im
        re += sin
        im *= cos
        im -= re_sin
        return to_spectral(grid, v)


_TINY = np.finfo(np.float64).tiny


def _flush(c: np.ndarray) -> np.ndarray:
    """``c`` with parts below the smallest normal float set to 0.0, in place (x * decay can round a subnormal to x)."""
    np.copyto(c, 0.0, where=np.abs(c) < _TINY)
    return c


def _merged_noise(spec: NoiseSpec, nu, dt: float, nonlinear: bool, n0, n1, pending=None) -> np.ndarray:
    """The noise of each step's one OU update, (steps, M, 2, s), from the steps' scaled halves n0, n1 (alike).

    A nonlinear step merges the closing half before it into its opening one: step j's update is
    n1[j - 1] decay + n0[j], step 0's ``pending`` decay + n0[0], or n0[0] alone, an OU(dt/2), when
    nothing is pending.  A linear step's own halves are one OU(dt): n0 decay + n1.  ``decay`` is
    the forced modes' OU(dt/2) decay; each step's noise is contiguous.
    """
    decay = _ou_tables(spec, nu, dt / 2.0)[0].reshape(-1, spec.grid.n_modes)[:, spec.forced][:, None]  # (1 or M, 1, s)
    noise = np.empty(n0.shape)
    if nonlinear:
        np.multiply(n1[:-1], decay, out=noise[1:])
        noise[0] = -0.0 if pending is None else pending * decay  # -0.0 + x is x for every x
        noise += n0
    else:
        np.multiply(n0, decay, out=noise)
        noise += n1
    return noise


def _strang(c: np.ndarray, spec: NoiseSpec, nu, dt: float, nonlinear: bool, noise: np.ndarray, first=False):
    """One Strang step's work on planes, noise given, unchecked: OU(dt) (OU(dt/2) if ``first``), rotation, flush."""
    c = ou_exact_step(c, spec, nu, dt / 2.0 if first else dt, noise)
    if nonlinear:
        c = phase_rotation_step(spec.grid, c, dt)
    return _flush(c)


def _steps(c: np.ndarray, spec: NoiseSpec, nu, dt: float, nonlinear: bool, noise: np.ndarray, first=False):
    """Strang steps on planes ``c``, one per step of ``noise`` (:func:`_merged_noise`): (the planes
    reached, the steps taken, None), or, when a step turns non-finite, (the last good planes, the
    steps taken before it, that step's planes, unchecked).  ``first`` makes the first step a run's
    step 0, OU(dt/2)."""
    for j, step_noise in enumerate(noise):
        new = _strang(c, spec, nu, dt, nonlinear, step_noise, first=first and not j)
        try:
            spectral._check_finite(new, "spectral field")
        except NonFiniteFieldError:
            return c, j, new
        c = new
    return c, len(noise), None


def _key(spec: NoiseSpec, params: SimParams, rows: int) -> tuple:
    """What the draws of ``rows`` rows under ``spec`` and ``params`` are made under (:class:`Draws`)."""
    return spec, params.dt, params.nonlinear, params.nu if isinstance(params.nu, tuple) else (params.nu,) * rows


def _held(state: State, spec: NoiseSpec, params: SimParams) -> Draws | None:
    """The state's draws if they were made under ``spec`` and ``params``, else None."""
    draws = state.draws
    return draws if draws is not None and draws.key == _key(spec, params, len(state.rngs)) else None


def _pending(rngs, draws: Draws | None, spec: NoiseSpec, params: SimParams, k: int) -> np.ndarray:
    """Step k - 1's scaled closing half, (M, 2, s): from held ``draws`` if they are its block's, else drawn."""
    index, slot = divmod(k - 1, ou_block_steps(spec.forced.size))
    if draws is not None and draws.index == index:
        return draws.closing[slot]
    _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2.0)
    return ou_convolutions(rngs, k - 1, sd, scale)[1]


def _block_draws(rngs, spec: NoiseSpec, params: SimParams, index: int, pending) -> Draws:
    """Draw block ``index`` of the rows ``rngs``: its normals scaled once, and each step's merged noise."""
    _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2.0)
    z = np.moveaxis(ou_normals(rngs, index, sd.shape[-1]), 0, 2) * sd[..., None, :]  # (K, 2, M, 2, s)
    z *= scale[..., None, :]
    steps = _merged_noise(spec, params.nu, params.dt, params.nonlinear, z[:, 0], z[:, 1], pending)
    return Draws(_key(spec, params, len(rngs)), index, steps, z[:, 1])


def _advance(state: State, spec: NoiseSpec, params: SimParams, stop: int) -> tuple[State, State | None]:
    """Strang steps from ``state`` up to step ``stop``: (the state reached, None), or, when step k
    turns non-finite, (the last good state, closed, at step k; the unchecked state at step k + 1).

    Each block's draws come from the state when it holds them (:func:`_held`), else are made once
    (:func:`_block_draws`), its first step merging the closing half of the block before when it steps
    from there; the step loop (:func:`_steps`) runs on the block's noise.  The state reached, and the
    state at step k + 1, hold the block of their last step, also when that step was taken before this
    call.  The last good state closes with step k - 1's closing half from that block, or from the
    merge when step k is a block's first, so a failing step draws nothing again.
    """
    k, nu, dt, nonlinear = state.step_index, params.nu, params.dt, params.nonlinear
    K = ou_block_steps(spec.forced.size)
    c, draws, pending = state.c, _held(state, spec, params), None
    while k < stop:
        index, slot = divmod(k, K)
        if draws is None or draws.index != index:
            pending = _pending(state.rngs, draws, spec, params, k) if nonlinear and k and not slot else None
            draws = _block_draws(state.rngs, spec, params, index, pending)
        c, taken, failed = _steps(c, spec, nu, dt, nonlinear, draws.steps[slot : slot + stop - k], nonlinear and not k)
        k += taken
        if failed is not None:
            last = state if k == state.step_index else State(k * dt, state.grid, c, state.rngs, k)
            pending = draws.closing[slot + taken - 1] if slot + taken else pending
            return _closed(last, spec, params, pending), State((k + 1) * dt, state.grid, failed, state.rngs, k + 1, None, draws)
    return State(k * dt, state.grid, c, state.rngs, k, None, draws), None


def strang_step(state: State, spec: NoiseSpec, params: SimParams) -> State:
    """Symmetric composition OU(dt/2) o phase(dt) o OU(dt/2), with the closing half left open.

    Step k's halves take slot k mod K of each row's block at (k // K, SUB_OU); its opening half
    merges with step k - 1's closing one, and step 0 opens with OU(dt/2).  Without the rotation the
    step's own halves are one OU(dt).  The new array is the step's one finiteness check.  This is
    the driver's loop (:func:`_advance`) run for one step, raising on a non-finite array; the new
    state holds its block's draws, so a loop of calls draws each block once.
    """
    state, failed = _advance(state, spec, params, state.step_index + 1)
    if failed is not None:
        raise NonFiniteFieldError(f"spectral field turned non-finite at step {failed.step_index}")
    return state


def _closed(state: State, spec: NoiseSpec, params: SimParams, pending=None) -> State:
    """``state`` with its closed field ``u``: an open state's pending OU(dt/2) applied to a copy,
    flushed, from step k - 1's closing half ``pending`` when the caller holds it (else :func:`_pending`)."""
    if state.u is not None:
        return state
    c = state.c
    if state.step_index and params.nonlinear:
        if pending is None:
            pending = _pending(state.rngs, _held(state, spec, params), spec, params, state.step_index)
        c = _flush(ou_exact_step(c, spec, params.nu, params.dt / 2.0, pending))
    u = SpectralField(state.grid, from_planes(c), c)
    return State(state.t, state.grid, state.c, state.rngs, state.step_index, u, state.draws)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is left to the caller's check, unwarned
def _euler_maruyama(u: SpectralField, nu: float, dt: float, nonlinear: bool, increment: np.ndarray) -> np.ndarray:
    """u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu)*increment (Pi = evaluate-then-truncate, on planes), as
    coefficients, unchecked."""
    grid = u.grid
    drift = -nu * mode_abs_sq(grid) * u.coeffs
    if nonlinear:
        v = to_physical(grid, u.planes)
        re, im = v[0], v[1]
        v *= re**2 + im**2
        drift = drift - 1j * from_planes(to_spectral(grid, v))
    return u.coeffs + dt * drift + np.sqrt(nu) * increment


def em_step(state: State, spec: NoiseSpec, params: SimParams) -> State:
    """Explicit Euler-Maruyama step over the full drift: the tests' oracle, which the driver never runs.

    u <- u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu) dxi, with the increments of step k drawn at
    (k, SUB_INCREMENT) (``forcing.forced_increments``); its states are never open.  Warns when the
    stiffness guard nu |d_max|^2 dt < 1 is violated, and raises on a non-finite result.
    """
    grid, nu, dt, k = state.grid, params.nu, params.dt, state.step_index
    stiffness = nu * grid.n * grid.D**2 * dt
    if stiffness >= 1.0:
        message = f"em stability guard violated: nu*|d_max|^2*dt = {stiffness:.3g} >= 1"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    u = state.u if state.u is not None else SpectralField(grid, from_planes(state.c))
    u = SpectralField(grid, _euler_maruyama(u, nu, dt, params.nonlinear, forced_increments(spec, dt, state.rngs, k)))
    return State((k + 1) * dt, grid, u.planes, state.rngs, k + 1, u)


# --- trajectory driver --------------------------------------------------------

# A sink is called at each record step, once, with the closed rows of every entry it serves that is due there.
Sink = Callable[[State], None]


def initial_state(u0: SpectralField, params: SimParams) -> State:
    """The rows of ``u0`` at t = 0, row i on stream ``params.stream_id + i``."""
    return State.of(u0, tuple(RngStream(params.seed, params.stream_id + i) for i in range(len(u0.coeffs))))


def _take(state: State, keep: list[int] | slice) -> State:
    """Rows ``keep`` of ``state``, in that order, with their draws, its closed field's rows not checked
    again; a slice keeps views."""
    pick = (lambda seq: seq[keep]) if isinstance(keep, slice) else (lambda seq: tuple(seq[i] for i in keep))
    u, draws = state.u, state.draws
    if u is not None:
        u = u.rows(keep)
    if draws is not None:  # a list's rows copied C-contiguous, so that each step's noise is
        steps = draws.steps[:, keep] if isinstance(keep, slice) else np.ascontiguousarray(draws.steps[:, keep])
        draws = Draws((*draws.key[:3], pick(draws.key[3])), draws.index, steps, draws.closing[:, keep])
    return State(state.t, state.grid, state.c[:, keep], pick(state.rngs), state.step_index, u, draws)


class _Batch:
    """What one set of rows steps with: the step params, each entry's row range, the nearest horizon."""

    def __init__(self, row_params: tuple[SimParams, ...], row_sinks: tuple[Sink | None, ...]):
        self.row_params, self.row_sinks = row_params, row_sinks
        nus = tuple(p.nu for p in row_params)
        first = row_params[0]
        self.params = first if len(set(nus)) == 1 else replace(first, nu=nus)
        self.horizon = min(p.n_steps for p in row_params)
        self.entries = []  # (start, stop, params, sink) of each run of consecutive rows that share both
        start = 0
        for (p, sink), run in groupby(zip(row_params, row_sinks)):
            stop = start + len(tuple(run))
            self.entries.append((start, stop, p, sink))
            start = stop
        self.cadences = {p.record_every for _, _, p, sink in self.entries if sink is not None}

    def next_stop(self, k: int) -> int:
        """The first step after ``k`` at which a sink may be due, or the horizon if that comes first.

        An entry's final step is at or past the horizon, where the batch stops anyway.
        """
        return min((self.horizon, *((k // every + 1) * every for every in self.cadences)))

    def record(self, state: State, spec: NoiseSpec, fresh: bool = False) -> State:
        """Call each sink due at this step once, with the closed rows of all its due entries (a slice
        of the state when they are adjacent); returns the state closed if any sink was due."""
        k, rows = state.step_index, len(self.row_params)
        due: dict[int, tuple[Sink, list[int]]] = {}
        for start, stop, p, sink in self.entries:
            if sink is not None and (fresh or k % p.record_every == 0 or k == p.n_steps):
                due.setdefault(id(sink), (sink, []))[1].extend(range(start, stop))
        if due:
            state = _closed(state, spec, self.params)
        for sink, keep in due.values():
            if len(keep) == rows:
                sink(state)
            else:
                sink(_take(state, slice(keep[0], keep[-1] + 1) if keep[-1] - keep[0] < len(keep) else keep))
        return state

    def keep(self, rows: list[int]) -> "_Batch":
        return _Batch(tuple(self.row_params[i] for i in rows), tuple(self.row_sinks[i] for i in rows))


def continue_trajectory(
    state: State, spec: NoiseSpec, params: SimParams | tuple[SimParams, ...],
    sink: Sink | None | tuple[Sink | None, ...] = None,
) -> tuple[State | None, list[TrajectoryAbortError]]:
    """Step every row of ``state`` to its horizon; returns (final state, aborts).

    ``params`` and ``sink`` serve every row, or are tuples with one per row.  Consecutive
    rows that share both are one entry; entries may differ in viscosity and horizon but
    share dt and nonlinearity, and each row steps with its own viscosity.  An entry
    is due at step 0 (fresh starts only), after every record_every-th step, and at its final
    step; at each step where any is due, each sink is called once, with the rows of all its
    due entries as one closed state.  The batch steps from one such
    record step to the next in one loop (:func:`_advance`) up to the nearest horizon, and the
    rows that reach it leave.  A step that turns non-finite ends the loop.  Rows are independent,
    so that step's array already holds each finite row's next state: those rows go on from it,
    and each non-finite row is dropped with its abort, in row order, which carries its row of
    the last good state, closed.  The final state holds the rows that finish last, closed (None
    if none is left).
    """
    if spec.grid != state.grid:
        raise GridMismatchError("state and noise spec live on different grids")
    rows = len(state.rngs)
    row_params = params if isinstance(params, tuple) else (params,) * rows
    row_sinks = sink if isinstance(sink, tuple) else (sink,) * rows
    if len(row_params) != rows or len(row_sinks) != rows:
        raise ValueError(f"{len(row_params)} params and {len(row_sinks)} sinks for {rows} rows")
    if len({(p.dt, p.nonlinear) for p in row_params}) > 1:
        raise ValueError("the rows of one batch must share dt and nonlinearity")
    batch = _Batch(row_params, row_sinks)
    aborts: list[TrajectoryAbortError] = []
    if state.step_index == 0:
        state = batch.record(state, spec, fresh=True)
    while True:
        while state.step_index < batch.horizon:
            state, failed = _advance(state, spec, batch.params, batch.next_stop(state.step_index))
            if failed is not None:
                finite = np.isfinite(failed.c).all(axis=(0, *range(2, failed.c.ndim)))
                message = f"non-finite field at step {failed.step_index} (last good t = {state.t:.6g})"
                aborts += [TrajectoryAbortError(message, _take(state, [i])) for i in np.flatnonzero(~finite)]
                going = np.flatnonzero(finite).tolist()
                if not going:
                    return None, aborts
                state, batch = _take(failed, going), batch.keep(going)
            state = batch.record(state, spec)
        going_on = [i for i, p in enumerate(batch.row_params) if p.n_steps > state.step_index]
        if not going_on:
            return _closed(state, spec, batch.params), aborts
        state, batch = _take(state, going_on), batch.keep(going_on)


# --- initial data library -----------------------------------------------------
#
# Each builder returns a one-row field.


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros((1, *grid.coeff_shape), dtype=np.complex128))


def single_mode(grid: GridSpec, d, c: complex = 1.0) -> SpectralField:
    d = np.atleast_1d(np.asarray(d, dtype=int))
    if d.size != grid.n or np.any(d < 1) or np.any(d > grid.D):
        raise ValueError(f"mode index {tuple(d)} outside retained range of {grid}")
    coeffs = np.zeros((1, *grid.coeff_shape), dtype=np.complex128)
    coeffs[(0, *(d - 1))] = c
    return SpectralField(grid, coeffs)


def smooth_random_field(
    grid: GridSpec, q: float, rng: RngStream, amplitude: float = 1.0
) -> SpectralField:
    """Random field with coefficients ~ |d|^(-q) * complex Gaussian (substream-addressed)."""
    g = complex_normals((rng,), 0, SUB_INIT, (1, *grid.coeff_shape))
    coeffs = amplitude * np.sqrt(mode_abs_sq(grid)) ** (-q) * g
    return SpectralField(grid, coeffs)


# Growth exponent of the start-data cap ||u0||_3 <= nu^(-3 KAPPA); the
# stationary sweep's exponent window [2 m KAPPA - 1, m] uses the same value.
KAPPA = 0.02


def constrained_profile(grid: GridSpec, nu: float, sup_bound: float = 1.0) -> SpectralField:
    """Fixed smooth profile rescaled per nu to satisfy the sweep's start constraints.

    Coefficients proportional to |d|^(-3) are scaled so that the lattice
    sup equals ``sup_bound``, then scaled down further if needed so that
    ||u||_3 <= nu^(-3 KAPPA).  Deterministic in (grid, nu).
    """
    coeffs = np.sqrt(mode_abs_sq(grid)) ** (-3.0)
    u = SpectralField(grid, coeffs.astype(np.complex128).reshape(1, *grid.coeff_shape))
    (s,) = sup_norm(u)
    u = SpectralField(grid, u.coeffs * (sup_bound / s))
    cap = nu ** (-KAPPA * 3.0)
    (norm_3,) = sobolev_norm(u, 3.0)
    if norm_3 > cap:
        u = SpectralField(grid, u.coeffs * (cap / norm_3))
    return u


# --- checkpoints ----------------------------------------------------------------
#
# A checkpoint holds one row.  Layout: 8-byte magic, uint32 length of a JSON
# metadata blob, the blob, then the row's field snapshot: the state's planes as
# coefficients, so at a Strang step >= 1 the open state (see State).  The
# metadata carries the time, the step index, and the rng key (base seed, stream
# id), which is all that is needed to resume bit-exactly; the ``counter`` key of
# older checkpoints is ignored.

CHECKPOINT_MAGIC = b"CLABCKP1"


def checkpoint_to_bytes(state: State) -> bytes:
    if len(state.rngs) != 1:
        raise ValueError(f"a checkpoint holds one row, got {len(state.rngs)}")
    (rng,) = state.rngs
    meta = json.dumps(
        {
            "t": state.t,
            "step_index": state.step_index,
            "base_seed": rng.base_seed,
            "stream_id": rng.stream_id,
        },
        sort_keys=True,
    ).encode()
    u = SpectralField(state.grid, from_planes(state.c), state.c)
    return CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta + field_to_bytes(u)


def checkpoint_from_bytes(buf: bytes) -> State:
    if len(buf) < 12 or buf[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint (bad magic)")
    (meta_len,) = struct.unpack("<I", buf[8:12])
    meta = json.loads(buf[12 : 12 + meta_len].decode())
    keys = ("t", "step_index", "base_seed", "stream_id")
    if not isinstance(meta, dict) or not all(key in meta for key in keys):
        raise ValueError(f"checkpoint metadata lacks one of {keys}")
    t, step_index, base_seed, stream_id = (meta[key] for key in keys)
    if type(t) not in (int, float) or not isfinite(t):
        raise ValueError(f"checkpoint t must be a finite number, got {t!r}")
    if type(step_index) is not int or step_index < 0:
        raise ValueError(f"checkpoint step_index must be an integer >= 0, got {step_index!r}")
    if type(base_seed) is not int or type(stream_id) is not int:
        raise ValueError(f"checkpoint rng key must be integers, got {(base_seed, stream_id)!r}")
    u = field_from_bytes(buf[12 + meta_len :])
    return State.of(u, (RngStream(base_seed, stream_id),), t, step_index)


def save_checkpoint(state: State, path) -> None:
    from .cli_io import atomic_write_bytes

    atomic_write_bytes(path, checkpoint_to_bytes(state))


def load_checkpoint(path) -> State:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
