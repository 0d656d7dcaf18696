"""Time stepping for u_t - nu*Lap(u) + i|u|^2 u = sqrt(nu) * eta.

In mode space the linear/stochastic part is a family of decoupled complex
Ornstein-Uhlenbeck equations

    du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d,

solved exactly per step, while the nonlinear part u_t = -i|u|^2 u is an exact
pointwise phase rotation on the collocation lattice (the modulus is an
integral of motion of that flow).  The production scheme is the Strang
composition  OU(dt/2) o phase(dt) o OU(dt/2);  an explicit Euler-Maruyama
step over the full drift serves as an independent oracle.

There is one state type, :class:`State`: a field with a leading row axis and
one stream per row, so an ensemble advances as one (M, D, ..., D) array and a
single trajectory is one row.  A Strang step is one kernel on that coefficient
array: two OU halves around a phase rotation (one sine-matrix pair), then a
flush of subnormal components to 0.0, with no field built on the way.  The
step's new field is its one finiteness check; inf and NaN survive every stage,
so that check fails at the same step as a check after each stage would.  Row i
keeps its own stream and is bit for bit the one-row run on that stream.  Rows
may also carry their own viscosities and horizons (the entries of a sweep that
share a fast dt): the OU tables and the EM drift are then stacked per row and
multiply elementwise, so each row is still bit for bit its own one-row run.

Only the s forced modes (b_d > 0) are driven: a Strang step takes 4s normals
that hold both half-steps' noise (``forcing.ou_convolutions``), and each OU half
adds it on those modes only, through a basic slice when they are contiguous; an
unforced mode is exactly u_d * decay.  Each stream draws the 4s*K normals of K
consecutive steps at once, at (step_index // K, SUB_OU), K = max(1,
OU_BLOCK_NORMALS // 4s), and step k takes slot k mod K of that block, scaled
once when drawn.  Output schema 4 starts here: schema 3 drew one address per
stream per Strang step, and earlier versions every retained mode at two
addresses.  An exact OU step with its own draw and the Euler-Maruyama
increments keep one address per step.

The slow-time description tau = nu * t needs no separate integrator: a fast
chain with parameters (nu, dt) performs, number for number, the same updates
as a unit-viscosity chain at step dtau = nu*dt with the phase angle rescaled
by 1/nu.

Noise draws are addressed by (step_index, substream), or by the block that holds
step_index, never consumed sequentially, so a trajectory is a pure function of
(seed, stream_id) and can be resumed from a checkpoint at any step bit-exactly.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from math import ceil, sqrt
from typing import Callable

import numpy as np

from .forcing import (
    SUB_INIT,
    SUB_OU,
    SUB_PATH,
    NoiseSpec,
    RngStream,
    complex_normals,
    forced_increments,
    ou_convolutions,
)
from .spectral import (
    GridMismatchError,
    GridSpec,
    NonFiniteFieldError,
    PhysicalField,
    SpectralField,
    field_from_bytes,
    field_to_bytes,
    lattice_values,
    mode_abs_sq,
    mode_coeffs,
    sobolev_norm,
    sup_norm,
    to_physical,
    to_spectral,
)

SCHEMES = ("strang", "em")


class TrajectoryAbortError(RuntimeError):
    """A trajectory produced non-finite values; carries its last good state, one row."""

    def __init__(self, message: str, last_state: "State"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class SimParams:
    """One trajectory's contract: viscosity, step, horizon, scheme, and seed.

    ``nu`` may also be a tuple of one viscosity per row: the step parameters of a
    batch whose rows come from several entries (see :func:`continue_trajectory`).
    """

    nu: float | tuple[float, ...]
    dt: float
    T: float
    scheme: str = "strang"
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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
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


@dataclass
class State:
    """M trajectories at a common step: a field with a leading row axis, one stream per row.

    A single trajectory is one row.
    """

    t: float
    u: SpectralField
    rngs: tuple[RngStream, ...]
    step_index: int


def default_dt(scheme: str, nu: float, grid: GridSpec, safety: float = 0.5) -> float:
    """Scheme defaults: accuracy-limited 0.01 for strang, stability-limited for em."""
    if scheme == "strang":
        return 0.01
    if scheme == "em":
        return safety * min(0.01, 0.5 / (nu * grid.n * grid.D**2))
    raise ValueError(f"unknown scheme {scheme!r}")


# --- elementary flows --------------------------------------------------------


def _conv_variance(lam: np.ndarray, dt: float) -> np.ndarray:
    """Per-component variance of the OU stochastic convolution over one step.

    (1 - exp(-2 lam dt)) / (2 lam), continued by its limit dt at lam = 0.
    """
    out = np.full_like(lam, dt, dtype=float)
    mask = lam > 0
    lm = lam[mask]
    out[mask] = -np.expm1(-2.0 * lm * dt) / (2.0 * lm)
    return out


@lru_cache(maxsize=64)
def _ou_tables(spec: NoiseSpec, nu, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached decay over all modes, and conv standard deviation and sqrt(nu) b_d over the forced modes.

    For a tuple of one viscosity per row, each table is the rows' own tables stacked in row order,
    so a row's products are those of its own viscosity's tables, elementwise.
    """
    if isinstance(nu, tuple):
        tables = tuple(np.stack(rows) for rows in zip(*(_ou_tables(spec, v, dt) for v in nu)))
    else:
        lam = nu * mode_abs_sq(spec.grid)
        tables = (
            np.exp(-lam * dt),
            np.sqrt(_conv_variance(lam, dt)).reshape(-1)[spec.forced],
            sqrt(nu) * spec.amplitudes.reshape(-1)[spec.forced],
        )
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def _forced_where(spec: NoiseSpec) -> slice | np.ndarray:
    """The forced modes of one flattened row: a basic slice when they are contiguous, else their flat indices."""
    f = spec.forced
    if f.size and f[-1] - f[0] + 1 == f.size:
        return slice(int(f[0]), int(f[-1]) + 1)
    return f


def ou_exact_step(
    c: np.ndarray,
    spec: NoiseSpec,
    nu: float | tuple[float, ...],
    dt: float,
    rng: RngStream | None = None,
    step_index: int = 0,
    substream: int = SUB_OU,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Exact one-step solve of du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d, on coefficients.

    u_d <- exp(-nu |d|^2 dt) u_d + sqrt(nu) b_d gamma_d, where gamma_d is the
    stochastic convolution with per-component variance
    (1 - exp(-2 nu |d|^2 dt)) / (2 nu |d|^2); exact in distribution for any dt.
    ``c`` has shape (M, *coeff_shape), one trajectory per row, and ``nu`` is one
    viscosity or a tuple of one per row; the result is a new array of that shape,
    unchecked.  The noise lives on the s forced modes
    only (``spec.forced``); every other mode is exactly u_d * decay.  Pass
    ``noise`` = sqrt(nu) b_d gamma_d, shape (M, s), to supply it, else gamma_d
    is drawn from ``rng`` at (step_index, substream), 2Ms normals.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay, conv_sd, scale = _ou_tables(spec, nu, dt)
    if c.shape[1:] != spec.grid.coeff_shape:
        raise GridMismatchError(f"coefficients {c.shape} are not rows of the noise grid {spec.grid.coeff_shape}")
    if noise is None:
        if rng is None:
            raise ValueError("either an RngStream or an explicit noise draw is required")
        noise = scale * (conv_sd * complex_normals((rng,), step_index, substream, (len(c), conv_sd.size)))
    new = c * decay  # C-contiguous like its input: the reshape below is a view
    flat = new if new.ndim == 2 else new.reshape(len(new), -1)
    flat[:, _forced_where(spec)] += noise
    return new


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(-i phase) as cos and -sin filled into one complex array: the bits of ``np.exp(-1j * phase)``."""
    e = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=e.real)
    np.negative(np.sin(phase, out=e.imag), out=e.imag)
    return e


def phase_rotation_step(grid: GridSpec, c: np.ndarray, dt: float) -> np.ndarray:
    """Exact flow of u_t = -i |u|^2 u: pointwise u <- u * exp(-i |u|^2 dt) on the lattice.

    ``c`` holds rows of ``grid``'s mode coefficients; the result is a new array, unchecked
    (``c`` itself when dt = 0).  The pointwise modulus is preserved exactly before the closing
    Galerkin truncation.  A non-finite lattice value or an overflowing |u|^2 turns into NaN,
    without warnings, through the phase factor and the transform.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return c
    with np.errstate(over="ignore", invalid="ignore"):
        v = lattice_values(grid, c)
        phase = np.square(v.real)
        phase += np.square(v.imag)
        phase *= dt
        # With FMA, v*e and e*v round differently: keep the operand order fixed.
        rotated = np.multiply(v, _phase_factor(phase), out=v)
        return mode_coeffs(grid, rotated, grid.D)


_TINY = np.finfo(np.float64).tiny


def _strang(
    c: np.ndarray, spec: NoiseSpec, nu: float | tuple[float, ...], dt: float, nonlinear: bool,
    noise0: np.ndarray, noise1: np.ndarray,
) -> np.ndarray:
    """OU(dt/2) o phase(dt) o OU(dt/2) on rows of coefficients with both halves' noise given, unchecked.

    Ends by setting parts below the smallest normal float to 0.0 in its new array (a subnormal
    x * decay can round back to x).  Inf and NaN survive every stage, so one check of the
    result sees any non-finite value the step made.
    """
    c = ou_exact_step(c, spec, nu, dt / 2.0, noise=noise0)
    if nonlinear:
        c = phase_rotation_step(spec.grid, c, dt)
    c = ou_exact_step(c, spec, nu, dt / 2.0, noise=noise1)
    parts = c.view(np.float64)  # a new array: flushing it in place leaves the input intact
    np.copyto(parts, 0.0, where=np.abs(parts) < _TINY)
    return c


def strang_step(state: State, spec: NoiseSpec, params: SimParams) -> State:
    """Symmetric composition OU(dt/2) o phase(dt) o OU(dt/2).

    Both half-steps' noise over the forced modes comes from slot step_index
    mod K of each row's scaled block at (step_index // K, SUB_OU).  The new
    state's field is the step's one finiteness check: NonFiniteFieldError if
    any row turned non-finite.
    """
    _, conv_sd, scale = _ou_tables(spec, params.nu, params.dt / 2.0)
    noise0, noise1 = ou_convolutions(state.rngs, state.step_index, conv_sd, scale)
    c = _strang(state.u.coeffs, spec, params.nu, params.dt, params.nonlinear, noise0, noise1)
    k = state.step_index + 1
    return State(k * params.dt, SpectralField(state.u.grid, c), state.rngs, k)


def _euler_maruyama(
    u: SpectralField, nu: float | tuple[float, ...], dt: float, nonlinear: bool, increment: np.ndarray
) -> SpectralField:
    """u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu)*increment (Pi = evaluate-then-truncate).

    A tuple ``nu`` holds one viscosity per row, applied as an (M, 1, ..., 1) column.
    """
    if isinstance(nu, tuple):
        nu = np.array(nu).reshape(-1, *(1,) * u.grid.n)
    drift = -nu * mode_abs_sq(u.grid) * u.coeffs
    if nonlinear:
        p = to_physical(u)
        cubic = (p.values.real**2 + p.values.imag**2) * p.values
        drift = drift - 1j * to_spectral(PhysicalField(u.grid, cubic), u.grid.D).coeffs
    return SpectralField(u.grid, u.coeffs + dt * drift + np.sqrt(nu) * increment)


def em_step(
    state: State, spec: NoiseSpec, params: SimParams, increment: np.ndarray | None = None
) -> State:
    """Explicit Euler-Maruyama step over the full drift (oracle scheme).

    u <- u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu) dxi.  Warns when the
    stiffness guard nu |d_max|^2 dt < 1 is violated.  Non-finite output raises
    through the field constructor and is turned into a trajectory abort by the
    driver.
    """
    grid = state.u.grid
    nu_max = max(params.nu) if isinstance(params.nu, tuple) else params.nu
    stiffness = nu_max * grid.n * grid.D**2 * params.dt
    if stiffness >= 1.0:
        warnings.warn(
            f"em stability guard violated: nu*|d_max|^2*dt = {stiffness:.3g} >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
    if increment is None:
        increment = forced_increments(spec, params.dt, state.rngs, state.step_index)
    u = _euler_maruyama(state.u, params.nu, params.dt, params.nonlinear, increment)
    k = state.step_index + 1
    return State(k * params.dt, u, state.rngs, k)


# --- trajectory driver --------------------------------------------------------

Sink = Callable[[State], None]


def initial_state(u0: SpectralField, params: SimParams) -> State:
    """The rows of ``u0`` at t = 0, row i on stream ``params.stream_id + i``."""
    rngs = tuple(RngStream(params.seed, params.stream_id + i) for i in range(len(u0.coeffs)))
    return State(0.0, u0, rngs, 0)


def _checked_step(step, state: State, spec: NoiseSpec, params: SimParams) -> State:
    try:
        return step(state, spec, params)
    except NonFiniteFieldError as exc:
        raise TrajectoryAbortError(
            f"non-finite field at step {state.step_index + 1} "
            f"(last good t = {state.t:.6g}): {exc}",
            state,
        ) from exc


def _take(state: State, keep: list[int] | slice) -> State:
    """Rows ``keep`` of ``state``, in that order; a slice keeps a view of the coefficients."""
    rngs = tuple(state.rngs[i] for i in np.arange(len(state.rngs))[keep])
    return State(state.t, SpectralField(state.u.grid, state.u.coeffs[keep]), rngs, state.step_index)


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

    def record(self, state: State, fresh: bool = False) -> None:
        k, rows = state.step_index, len(self.row_params)
        for start, stop, p, sink in self.entries:
            if sink is not None and (fresh or k % p.record_every == 0 or k == p.n_steps):
                sink(state if stop - start == rows else _take(state, slice(start, stop)))

    def keep(self, rows: list[int]) -> "_Batch":
        return _Batch(tuple(self.row_params[i] for i in rows), tuple(self.row_sinks[i] for i in rows))


def continue_trajectory(
    state: State, spec: NoiseSpec, params: SimParams | tuple[SimParams, ...],
    sink: Sink | None | tuple[Sink | None, ...] = None,
) -> tuple[State | None, list[TrajectoryAbortError]]:
    """Step every row of ``state`` to its horizon; returns (final state, aborts).

    ``params`` and ``sink`` serve every row, or are tuples with one per row.  Consecutive
    rows that share both are one entry; entries may differ in viscosity and horizon but
    share dt, scheme and nonlinearity, and each row steps with its own viscosity.  A sink
    sees its entry's rows as one state at step 0 (fresh starts only), after every
    record_every-th step, and at the entry's final step.  The batch steps to the nearest
    horizon, and the rows that reach it leave; the others go on from the same state.  A
    step that turns non-finite is redone row by row, each row with its own params: each
    failing row is dropped with its abort, which carries its last good one-row state (and
    so its stream), and the others go on.  The final state holds the rows that finish last
    (None if no row is left).
    """
    if spec.grid != state.u.grid:
        raise GridMismatchError("state and noise spec live on different grids")
    rows = len(state.rngs)
    row_params = params if isinstance(params, tuple) else (params,) * rows
    row_sinks = sink if isinstance(sink, tuple) else (sink,) * rows
    if len(row_params) != rows or len(row_sinks) != rows:
        raise ValueError(f"{len(row_params)} params and {len(row_sinks)} sinks for {rows} rows")
    if len({(p.dt, p.scheme, p.nonlinear) for p in row_params}) > 1:
        raise ValueError("the rows of one batch must share dt, scheme and nonlinearity")
    step = strang_step if row_params[0].scheme == "strang" else em_step
    batch = _Batch(row_params, row_sinks)
    aborts: list[TrajectoryAbortError] = []
    if state.step_index == 0:
        batch.record(state, fresh=True)
    while True:
        while state.step_index < batch.horizon:
            try:
                state = _checked_step(step, state, spec, batch.params)
            except TrajectoryAbortError:
                kept = []
                for i, p in enumerate(batch.row_params):
                    try:
                        kept.append((i, _checked_step(step, _take(state, [i]), spec, p)))
                    except TrajectoryAbortError as exc:
                        aborts.append(exc)
                if not kept:
                    return None, aborts
                u = SpectralField(state.u.grid, np.concatenate([s.u.coeffs for _, s in kept]))
                state = State(kept[0][1].t, u, tuple(s.rngs[0] for _, s in kept), kept[0][1].step_index)
                batch = batch.keep([i for i, _ in kept])
            batch.record(state)
        going_on = [i for i, p in enumerate(batch.row_params) if p.n_steps > state.step_index]
        if not going_on:
            return state, aborts
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


# Growth exponent of the start-data cap ||u0||_m <= nu^(-KAPPA m); the
# stationary sweep's exponent window [2 m KAPPA - 1, m] uses the same value.
KAPPA = 0.02


def constrained_profile(
    grid: GridSpec,
    nu: float,
    sup_bound: float = 1.0,
    kappa: float = KAPPA,
    m: float = 3.0,
    decay: float = 3.0,
) -> SpectralField:
    """Fixed smooth profile rescaled per nu to satisfy the sweep's start constraints.

    Coefficients proportional to |d|^(-decay) are scaled so that the lattice
    sup equals ``sup_bound``, then scaled down further if needed so that
    ||u||_m <= nu^(-kappa*m).  Deterministic in (grid, nu).
    """
    coeffs = np.sqrt(mode_abs_sq(grid)) ** (-decay)
    u = SpectralField(grid, coeffs.astype(np.complex128).reshape(1, *grid.coeff_shape))
    (s,) = sup_norm(u)
    if s > 0:
        u = SpectralField(grid, u.coeffs * (sup_bound / s))
    cap = nu ** (-kappa * m)
    (norm_m,) = sobolev_norm(u, m)
    if norm_m > cap:
        u = SpectralField(grid, u.coeffs * (cap / norm_m))
    return u


# --- closed forms for the linear system ---------------------------------------


def linear_l2_mean(u0: SpectralField, spec: NoiseSpec, nu: float, t: float) -> np.ndarray:
    """E||u(t)||_0^2 for the linear system (nonlinearity off) from each row of ``u0``, any t >= 0.

    Per mode: exp(-2 nu |d|^2 t) |u0_d|^2 + b_d^2 (1 - exp(-2 nu |d|^2 t)) / |d|^2.
    """
    if spec.grid != u0.grid:
        raise GridMismatchError("field and noise spec live on different grids")
    abs2 = mode_abs_sq(u0.grid)
    fade = np.exp(-2.0 * nu * abs2 * t)
    init = u0.coeffs.real**2 + u0.coeffs.imag**2
    return (fade * init + spec.amplitudes**2 * (1.0 - fade) / abs2).reshape(len(init), -1).sum(axis=1)


def linear_stationary_mode_energy(spec: NoiseSpec) -> np.ndarray:
    """Stationary E|u_d|^2 = b_d^2 / |d|^2 of the linear system, per mode."""
    return spec.amplitudes**2 / mode_abs_sq(spec.grid)


# --- coupled-path harness ------------------------------------------------------
#
# For strong scheme comparisons both integrators must consume the same
# underlying Brownian path.  Per fine step of length h and per mode, the
# increment and the OU convolution are jointly Gaussian per component:
#
#   dbeta ~ N(0, h),   conv = int_0^h exp(-lam (h-s)) dbeta(s),
#   Cov(dbeta, conv) = (1 - exp(-lam h)) / lam,
#   Var(conv) = (1 - exp(-2 lam h)) / (2 lam),
#
# realized as conv = a*g1 + c*g2 with dbeta = sqrt(h)*g1.  Increments sum
# exactly across fine steps and convolutions compound exactly under
# conv([t0,t2]) = exp(-lam (t2-t1)) conv([t0,t1]) + conv([t1,t2]), so every
# coarser level is an exact functional of the same fine path.


@dataclass(frozen=True, eq=False)
class CoupledPath:
    """Fine-resolution joint draws (Brownian increments + OU convolutions)."""

    spec: NoiseSpec
    nu: float
    dt_fine: float
    dbeta: np.ndarray  # (n_fine, *coeff_shape) complex, per-component var dt_fine
    conv: np.ndarray  # (n_fine, *coeff_shape) complex, unit-amplitude convolution

    @property
    def n_fine(self) -> int:
        return self.dbeta.shape[0]


def sample_coupled_path(
    spec: NoiseSpec, nu: float, dt_fine: float, n_fine: int, rng: RngStream
) -> CoupledPath:
    if dt_fine <= 0:
        raise ValueError("fine step must be positive")
    grid = spec.grid
    lam = nu * mode_abs_sq(grid)
    h = dt_fine
    var = _conv_variance(lam, h)
    cov = np.full_like(lam, h)
    mask = lam > 0
    cov[mask] = -np.expm1(-lam[mask] * h) / lam[mask]
    a = cov / sqrt(h)
    c = np.sqrt(np.maximum(var - a**2, 0.0))
    k = grid.n_modes
    dbeta = np.empty((n_fine, *grid.coeff_shape), dtype=np.complex128)
    conv = np.empty_like(dbeta)
    for j in range(n_fine):
        z = rng.normals(j, SUB_PATH, 4 * k)
        g1 = (z[:k] + 1j * z[2 * k : 3 * k]).reshape(grid.coeff_shape)
        g2 = (z[k : 2 * k] + 1j * z[3 * k :]).reshape(grid.coeff_shape)
        dbeta[j] = sqrt(h) * g1
        conv[j] = a * g1 + c * g2
    return CoupledPath(spec, nu, dt_fine, dbeta, conv)


def _window_conv(conv: np.ndarray, fine_decay: np.ndarray, i0: int, i1: int) -> np.ndarray:
    acc = np.zeros_like(conv[0])
    for j in range(i0, i1):
        acc = acc * fine_decay + conv[j]
    return acc


def run_strang_on_path(
    u0: SpectralField, path: CoupledPath, dt: float, nonlinear: bool = True
) -> SpectralField:
    """Strang chain at step dt driven by the coupled path (dt/2 a multiple of dt_fine)."""
    r = round(dt / 2.0 / path.dt_fine)
    if r < 1 or abs(r * path.dt_fine * 2.0 - dt) > 1e-12 * dt:
        raise ValueError(f"dt/2 = {dt / 2} is not a multiple of the fine step {path.dt_fine}")
    if path.n_fine % (2 * r) != 0:
        raise ValueError(
            f"path length {path.n_fine} fine steps is not a whole number of dt = {dt} steps"
        )
    n_steps = path.n_fine // (2 * r)
    forced = path.spec.forced  # the Strang kernel takes its noise on the forced modes
    lam = path.nu * mode_abs_sq(u0.grid)
    fine_decay = np.exp(-lam * path.dt_fine).reshape(-1)[forced]
    conv = path.conv.reshape(path.n_fine, -1)[:, forced]
    _, _, scale = _ou_tables(path.spec, path.nu, dt / 2.0)
    c = u0.coeffs
    for k in range(n_steps):
        g1 = _window_conv(conv, fine_decay, 2 * k * r, (2 * k + 1) * r)
        g2 = _window_conv(conv, fine_decay, (2 * k + 1) * r, (2 * k + 2) * r)
        c = _strang(c, path.spec, path.nu, dt, nonlinear, scale * g1, scale * g2)
    return SpectralField(u0.grid, c)


def run_em_on_path(
    u0: SpectralField, path: CoupledPath, dt: float, nonlinear: bool = True
) -> SpectralField:
    """Euler-Maruyama chain at step dt driven by the same coupled path."""
    r = round(dt / path.dt_fine)
    if r < 1 or abs(r * path.dt_fine - dt) > 1e-12 * dt:
        raise ValueError(f"dt = {dt} is not a multiple of the fine step {path.dt_fine}")
    if path.n_fine % r != 0:
        raise ValueError(
            f"path length {path.n_fine} fine steps is not a whole number of dt = {dt} steps"
        )
    n_steps = path.n_fine // r
    u = u0
    for k in range(n_steps):
        incr = path.spec.amplitudes * path.dbeta[k * r : (k + 1) * r].sum(axis=0)
        u = _euler_maruyama(u, path.nu, dt, nonlinear, incr)
    return u


# --- checkpoints ----------------------------------------------------------------
#
# A checkpoint holds one row.  Layout: 8-byte magic, uint32 length of a JSON
# metadata blob, the blob, then the row's field snapshot.  The metadata carries
# the time, the step index, and the rng key (base seed, stream id), which is all
# that is needed to resume bit-exactly; the ``counter`` key of older checkpoints
# is ignored.

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
    return CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta + field_to_bytes(state.u)


def checkpoint_from_bytes(buf: bytes) -> State:
    if len(buf) < 12 or buf[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint (bad magic)")
    (meta_len,) = struct.unpack("<I", buf[8:12])
    meta = json.loads(buf[12 : 12 + meta_len].decode())
    u = field_from_bytes(buf[12 + meta_len :])
    rng = RngStream(meta["base_seed"], meta["stream_id"])
    return State(meta["t"], u, (rng,), meta["step_index"])


def save_checkpoint(state: State, path) -> None:
    from .cli_io import atomic_write_bytes

    atomic_write_bytes(path, checkpoint_to_bytes(state))


def load_checkpoint(path) -> State:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
