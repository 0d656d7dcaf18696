"""Time stepping for u_t - nu*Lap(u) + i|u|^2 u = sqrt(nu) * eta.

In mode space the linear/stochastic part is a family of decoupled complex
Ornstein-Uhlenbeck equations

    du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d,

solved exactly per step, while the nonlinear part u_t = -i|u|^2 u is an exact
pointwise phase rotation on the collocation lattice (the modulus is an
integral of motion of that flow).  The production scheme is the Strang
composition  OU(dt/2) o phase(dt) o OU(dt/2);  an explicit Euler-Maruyama
step over the full drift serves as an independent oracle.

Both step kernels act on a field with an optional leading row axis, so an
ensemble advances as one (M, D, ..., D) array.  A Strang step is two OU halves
around a phase rotation (one sine-matrix pair), three validated fields, then a
flush of subnormal components to 0.0.  Row i keeps its own stream and is bit for
bit the single trajectory with stream id i (the same kernel, no row axis).

The slow-time description tau = nu * t needs no separate integrator: a fast
chain with parameters (nu, dt) performs, number for number, the same updates
as a unit-viscosity chain at step dtau = nu*dt with the phase angle rescaled
by 1/nu.  ``tau`` conversions live on :class:`SimParams`.

Noise draws are addressed by (step_index, substream), never consumed
sequentially, so a trajectory is a pure function of (seed, stream_id) and can
be resumed from a checkpoint bit-exactly.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, sqrt
from typing import Callable

import numpy as np

from .forcing import (
    SUB_INCREMENT,
    SUB_INIT,
    SUB_OU_HALF0,
    SUB_OU_HALF1,
    SUB_PATH,
    NoiseSpec,
    RngStream,
    complex_normals,
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
    """A trajectory produced non-finite values; carries the last good state."""

    def __init__(self, message: str, last_state: "TrajectoryState"):
        super().__init__(message)
        self.last_state = last_state

    @property
    def last_good_time(self) -> float:
        return self.last_state.t


@dataclass(frozen=True)
class SimParams:
    """One trajectory's contract: viscosity, step, horizon, scheme, and seed."""

    nu: float
    dt: float
    T: float
    scheme: str = "strang"
    record_every: int = 1
    seed: int = 0
    stream_id: int = 0
    nonlinear: bool = True

    def __post_init__(self):
        if not 0 < self.nu <= 1:
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

    def tau(self, t: float) -> float:
        """Slow time tau = nu * t."""
        return self.nu * t

    def t_of_tau(self, tau: float) -> float:
        return tau / self.nu


@dataclass
class TrajectoryState:
    """Current time, field, stream, and step counter of one trajectory."""

    t: float
    u: SpectralField
    rng: RngStream
    step_index: int

    @property
    def rngs(self) -> tuple[RngStream, ...]:
        return (self.rng,)


@dataclass
class EnsembleState:
    """M trajectories at a common step: a field with a leading row axis, one stream per row."""

    t: float
    u: SpectralField
    rngs: tuple[RngStream, ...]
    step_index: int

    def rows(self) -> list[TrajectoryState]:
        grid = self.u.grid
        return [
            TrajectoryState(self.t, SpectralField(grid, c), rng, self.step_index)
            for c, rng in zip(self.u.coeffs, self.rngs)
        ]

    @classmethod
    def stack(cls, states: list[TrajectoryState]) -> "EnsembleState":
        first = states[0]
        u = SpectralField(first.u.grid, np.stack([s.u.coeffs for s in states]))
        return cls(first.t, u, tuple(s.rng for s in states), first.step_index)


State = TrajectoryState | EnsembleState


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
def _ou_tables(spec: NoiseSpec, nu: float, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (decay, conv standard deviation, sqrt(nu) b_d) arrays for one OU step size."""
    lam = nu * mode_abs_sq(spec.grid)
    decay = np.exp(-lam * dt)
    sd = np.sqrt(_conv_variance(lam, dt))
    scale = sqrt(nu) * spec.amplitudes
    for table in (decay, sd, scale):
        table.flags.writeable = False
    return decay, sd, scale


def ou_exact_step(
    u: SpectralField,
    spec: NoiseSpec,
    nu: float,
    dt: float,
    rng: RngStream | None = None,
    step_index: int = 0,
    substream: int = SUB_OU_HALF0,
    conv: np.ndarray | None = None,
) -> SpectralField:
    """Exact one-step solve of du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d.

    u_d <- exp(-nu |d|^2 dt) u_d + sqrt(nu) b_d gamma_d, where gamma_d is the
    stochastic convolution with per-component variance
    (1 - exp(-2 nu |d|^2 dt)) / (2 nu |d|^2); exact in distribution for any dt.
    Pass ``conv`` to supply gamma_d explicitly (one row per row of ``u``), else
    it is drawn from ``rng`` at (step_index, substream).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if spec.grid != u.grid:
        raise GridMismatchError("field and noise spec live on different grids")
    decay, conv_sd, scale = _ou_tables(spec, nu, dt)
    if conv is None:
        if rng is None:
            raise ValueError("either an RngStream or an explicit conv draw is required")
        conv = conv_sd * complex_normals((rng,), step_index, substream, u.coeffs.shape)
    new = u.coeffs * decay
    new += scale * conv
    return SpectralField(u.grid, new)


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(-i phase) as cos and -sin filled into one complex array: the bits of ``np.exp(-1j * phase)``."""
    e = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=e.real)
    np.negative(np.sin(phase, out=e.imag), out=e.imag)
    return e


def phase_rotation_step(u: SpectralField, dt: float) -> SpectralField:
    """Exact flow of u_t = -i |u|^2 u: pointwise u <- u * exp(-i |u|^2 dt) on the lattice.

    The pointwise modulus is preserved exactly before the closing Galerkin
    truncation to the retained modes.  Only the returned field is validated:
    a non-finite lattice value (or an overflowing |u|^2) turns into NaN, without
    warnings, through the phase factor and the transform, so that check still
    raises NonFiniteFieldError.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return u
    with np.errstate(over="ignore", invalid="ignore"):
        v = lattice_values(u.grid, u.coeffs)
        phase = np.square(v.real)
        phase += np.square(v.imag)
        phase *= dt
        # With FMA, v*e and e*v round differently: keep the operand order fixed.
        rotated = np.multiply(v, _phase_factor(phase), out=v)
        return SpectralField(u.grid, mode_coeffs(u.grid, rotated, u.grid.D))


def _strang(
    u: SpectralField, spec: NoiseSpec, nu: float, dt: float, nonlinear: bool,
    conv0: np.ndarray, conv1: np.ndarray,
) -> SpectralField:
    """OU(dt/2) o phase(dt) o OU(dt/2) with the two half-step convolutions given, subnormals set to 0.0."""
    u = ou_exact_step(u, spec, nu, dt / 2.0, conv=conv0)
    if nonlinear:
        u = phase_rotation_step(u, dt)
    u = ou_exact_step(u, spec, nu, dt / 2.0, conv=conv1)
    parts = u.coeffs.view(np.float64)  # a new array: flushing it in place leaves the input intact
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0  # subnormal x * decay can round back to x
    return u


def _advanced(state: State, u: SpectralField, dt: float) -> State:
    k = state.step_index + 1
    return type(state)(k * dt, u, state.rng if isinstance(state, TrajectoryState) else state.rngs, k)


def strang_step(state: State, spec: NoiseSpec, params: SimParams) -> State:
    """Symmetric composition OU(dt/2) o phase(dt) o OU(dt/2).

    Takes a TrajectoryState or an EnsembleState and returns the same kind.
    Uses exactly two convolution draws per stream, addressed by (step_index, half).
    """
    k = state.step_index
    _, conv_sd, _ = _ou_tables(spec, params.nu, params.dt / 2.0)
    shape = state.u.coeffs.shape
    conv0, conv1 = (complex_normals(state.rngs, k, sub, shape) for sub in (SUB_OU_HALF0, SUB_OU_HALF1))
    conv0 *= conv_sd
    conv1 *= conv_sd
    u = _strang(state.u, spec, params.nu, params.dt, params.nonlinear, conv0, conv1)
    return _advanced(state, u, params.dt)


def _euler_maruyama(
    u: SpectralField, nu: float, dt: float, nonlinear: bool, increment: np.ndarray
) -> SpectralField:
    """u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu)*increment (Pi = evaluate-then-truncate)."""
    drift = -nu * mode_abs_sq(u.grid) * u.coeffs
    if nonlinear:
        p = to_physical(u)
        cubic = (p.values.real**2 + p.values.imag**2) * p.values
        drift = drift - 1j * to_spectral(PhysicalField(u.grid, cubic), u.grid.D).coeffs
    return SpectralField(u.grid, u.coeffs + dt * drift + sqrt(nu) * increment)


def em_step(
    state: State, spec: NoiseSpec, params: SimParams, increment: np.ndarray | None = None
) -> State:
    """Explicit Euler-Maruyama step over the full drift (oracle scheme).

    u <- u + dt*(nu Lap u - i Pi(|u|^2 u)) + sqrt(nu) dxi.  Takes a
    TrajectoryState or an EnsembleState and returns the same kind.  Warns when
    the stiffness guard nu |d_max|^2 dt < 1 is violated.  Non-finite output
    raises through the field constructor and is turned into a trajectory abort
    by the run loop.
    """
    grid = state.u.grid
    if params.nu * grid.n * grid.D**2 * params.dt >= 1.0:
        warnings.warn(
            f"em stability guard violated: nu*|d_max|^2*dt = "
            f"{params.nu * grid.n * grid.D**2 * params.dt:.3g} >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
    if increment is None:
        g = complex_normals(state.rngs, state.step_index, SUB_INCREMENT, state.u.coeffs.shape)
        increment = spec.amplitudes * (sqrt(params.dt) * g)
    u = _euler_maruyama(state.u, params.nu, params.dt, params.nonlinear, increment)
    return _advanced(state, u, params.dt)


# --- trajectory driver --------------------------------------------------------

Sink = Callable[[State], None]


def initial_state(u0: SpectralField, params: SimParams) -> TrajectoryState:
    return TrajectoryState(t=0.0, u=u0, rng=RngStream(params.seed, params.stream_id), step_index=0)


def _checked_step(step, state: State, spec: NoiseSpec, params: SimParams) -> State:
    try:
        return step(state, spec, params)
    except NonFiniteFieldError as exc:
        raise TrajectoryAbortError(
            f"non-finite field at step {state.step_index + 1} "
            f"(last good t = {state.t:.6g}): {exc}",
            state,
        ) from exc


def _advance(
    state: State, spec: NoiseSpec, params: SimParams, sink: Sink | None
) -> tuple[State | None, list[TrajectoryAbortError]]:
    """Step a trajectory or an ensemble to ``params.n_steps``; returns (final state, aborts).

    The sink sees the state at step 0 (fresh starts only), after every
    record_every-th step, and at the final step.  A single trajectory that
    turns non-finite raises TrajectoryAbortError with the last good state.  An
    ensemble redoes a non-finite step row by row: failing rows are dropped,
    each with its abort, and the others go on (final state None if none is left).
    """
    if spec.grid != state.u.grid:
        raise GridMismatchError("state and noise spec live on different grids")
    step = strang_step if params.scheme == "strang" else em_step
    n_steps = params.n_steps
    aborts: list[TrajectoryAbortError] = []
    if sink is not None and state.step_index == 0:
        sink(state)
    while state.step_index < n_steps:
        try:
            state = _checked_step(step, state, spec, params)
        except TrajectoryAbortError:
            if isinstance(state, TrajectoryState):
                raise
            kept = []
            for row in state.rows():
                try:
                    kept.append(_checked_step(step, row, spec, params))
                except TrajectoryAbortError as exc:
                    aborts.append(exc)
            if not kept:
                return None, aborts
            state = EnsembleState.stack(kept)
        if sink is not None and (
            state.step_index % params.record_every == 0 or state.step_index == n_steps
        ):
            sink(state)
    return state, aborts


def continue_trajectory(
    state: TrajectoryState,
    spec: NoiseSpec,
    params: SimParams,
    sink: Sink | None = None,
) -> TrajectoryState:
    """Advance a trajectory to ``params.n_steps``, invoking the sink at the record cadence.

    Non-finite fields abort with the last good state attached.
    """
    return _advance(state, spec, params, sink)[0]


def run_trajectory(
    u0: SpectralField,
    spec: NoiseSpec,
    params: SimParams,
    sink: Sink | None = None,
) -> TrajectoryState:
    """Run one trajectory from t = 0; deterministic given (seed, stream_id)."""
    return continue_trajectory(initial_state(u0, params), spec, params, sink)


def run_ensemble(
    u0: SpectralField,
    spec: NoiseSpec,
    params: SimParams,
    sink: Sink | None = None,
) -> tuple[EnsembleState | None, list[TrajectoryAbortError]]:
    """Run the M rows of ``u0`` together from t = 0 as stream ids 0..M-1.

    Row i follows, bit for bit, ``run_trajectory`` of that row with stream id
    i (``params.stream_id`` is not used).  Returns the final state of the rows
    that stayed finite (None if none did) and one abort per dropped row.
    """
    rngs = tuple(RngStream(params.seed, sid) for sid in range(len(u0.coeffs)))
    return _advance(EnsembleState(0.0, u0, rngs, 0), spec, params, sink)


# --- initial data library -----------------------------------------------------


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField.zeros(grid)


def single_mode(grid: GridSpec, d, c: complex = 1.0) -> SpectralField:
    d = np.atleast_1d(np.asarray(d, dtype=int))
    if d.size != grid.n or np.any(d < 1) or np.any(d > grid.D):
        raise ValueError(f"mode index {tuple(d)} outside retained range of {grid}")
    coeffs = np.zeros(grid.coeff_shape, dtype=np.complex128)
    coeffs[tuple(d - 1)] = c
    return SpectralField(grid, coeffs)


def smooth_random_field(
    grid: GridSpec, q: float, rng: RngStream, amplitude: float = 1.0
) -> SpectralField:
    """Random field with coefficients ~ |d|^(-q) * complex Gaussian (substream-addressed)."""
    g = complex_normals((rng,), 0, SUB_INIT, grid.coeff_shape)
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
    u = SpectralField(grid, coeffs.astype(np.complex128))
    s = sup_norm(u)
    if s > 0:
        u = SpectralField(grid, u.coeffs * (sup_bound / s))
    cap = nu ** (-kappa * m)
    norm_m = sobolev_norm(u, m)
    if norm_m > cap:
        u = SpectralField(grid, u.coeffs * (cap / norm_m))
    return u


# --- closed forms for the linear system ---------------------------------------


def linear_l2_mean(u0: SpectralField, spec: NoiseSpec, nu: float, t: float) -> float:
    """E||u(t)||_0^2 for the linear system (nonlinearity off), any t >= 0.

    Per mode: exp(-2 nu |d|^2 t) |u0_d|^2 + b_d^2 (1 - exp(-2 nu |d|^2 t)) / |d|^2.
    """
    if spec.grid != u0.grid:
        raise GridMismatchError("field and noise spec live on different grids")
    abs2 = mode_abs_sq(u0.grid)
    fade = np.exp(-2.0 * nu * abs2 * t)
    init = u0.coeffs.real**2 + u0.coeffs.imag**2
    return float(np.sum(fade * init + spec.amplitudes**2 * (1.0 - fade) / abs2))


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


def _window_conv(path: CoupledPath, fine_decay: np.ndarray, i0: int, i1: int) -> np.ndarray:
    acc = np.zeros_like(path.conv[0])
    for j in range(i0, i1):
        acc = acc * fine_decay + path.conv[j]
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
    lam = path.nu * mode_abs_sq(u0.grid)
    fine_decay = np.exp(-lam * path.dt_fine)
    u = u0
    for k in range(n_steps):
        g1 = _window_conv(path, fine_decay, 2 * k * r, (2 * k + 1) * r)
        g2 = _window_conv(path, fine_decay, (2 * k + 1) * r, (2 * k + 2) * r)
        u = _strang(u, path.spec, path.nu, dt, nonlinear, g1, g2)
    return u


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
# Layout: 8-byte magic, uint32 length of a JSON metadata blob, the blob, then a
# field snapshot.  The metadata carries the time, the step index, and the rng
# key (base seed, stream id), which is all that is needed to resume bit-exactly;
# the ``counter`` key of older checkpoints is ignored.

CHECKPOINT_MAGIC = b"CLABCKP1"


def checkpoint_to_bytes(state: TrajectoryState) -> bytes:
    meta = json.dumps(
        {
            "t": state.t,
            "step_index": state.step_index,
            "base_seed": state.rng.base_seed,
            "stream_id": state.rng.stream_id,
        },
        sort_keys=True,
    ).encode()
    return CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta + field_to_bytes(state.u)


def checkpoint_from_bytes(buf: bytes) -> TrajectoryState:
    if len(buf) < 12 or buf[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint (bad magic)")
    (meta_len,) = struct.unpack("<I", buf[8:12])
    meta = json.loads(buf[12 : 12 + meta_len].decode())
    u = field_from_bytes(buf[12 + meta_len :])
    rng = RngStream(meta["base_seed"], meta["stream_id"])
    return TrajectoryState(t=meta["t"], u=u, rng=rng, step_index=meta["step_index"])


def save_checkpoint(state: TrajectoryState, path) -> None:
    from .cli_io import atomic_write_bytes

    atomic_write_bytes(path, checkpoint_to_bytes(state))


def load_checkpoint(path) -> TrajectoryState:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
