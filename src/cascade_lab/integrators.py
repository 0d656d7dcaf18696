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
addresses.  The Euler-Maruyama increments keep one address per step.

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
    SpectralField,
    field_from_bytes,
    field_to_bytes,
    mode_abs_sq,
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


def default_dt(scheme: str, nu: float, grid: GridSpec) -> float:
    """Scheme defaults: accuracy-limited 0.01 for strang, stability-limited (half the limit) for em."""
    if scheme == "strang":
        return 0.01
    if scheme == "em":
        return 0.5 * min(0.01, 0.5 / (nu * grid.n * grid.D**2))
    raise ValueError(f"unknown scheme {scheme!r}")


# --- elementary flows --------------------------------------------------------


@lru_cache(maxsize=64)
def _ou_tables(spec: NoiseSpec, nu, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached decay over all modes, and conv standard deviation and sqrt(nu) b_d over the forced modes.

    For a tuple of one viscosity per row, each table is the rows' own tables stacked in row order,
    so a row's products are those of its own viscosity's tables, elementwise.
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
    noise: np.ndarray,
) -> np.ndarray:
    """Exact one-step solve of du_d = -nu |d|^2 u_d dt + sqrt(nu) b_d dbeta_d, on coefficients.

    u_d <- exp(-nu |d|^2 dt) u_d + sqrt(nu) b_d gamma_d, where gamma_d is the
    stochastic convolution with per-component variance
    (1 - exp(-2 nu |d|^2 dt)) / (2 nu |d|^2); exact in distribution for any dt.
    ``c`` has shape (M, *coeff_shape), one trajectory per row, and ``nu`` is one
    viscosity or a tuple of one per row; the result is a new array of that shape,
    unchecked.  The noise lives on the s forced modes
    only (``spec.forced``); every other mode is exactly u_d * decay.  ``noise``
    is sqrt(nu) b_d gamma_d, shape (M, s), drawn by the caller.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay = _ou_tables(spec, nu, dt)[0]
    if c.shape[1:] != spec.grid.coeff_shape:
        raise GridMismatchError(f"coefficients {c.shape} are not rows of the noise grid {spec.grid.coeff_shape}")
    new = c * decay  # C-contiguous like its input: the reshape below is a view
    flat = new if new.ndim == 2 else new.reshape(len(new), -1)
    flat[:, _forced_where(spec)] += noise
    return new


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(-i phase) from one half-angle tangent t = tan(phase / 2): ((1 - t^2) - 2it) / (1 + t^2).

    One ``np.tan`` costs less than a cosine and a sine, which also slow down as the phase grows.
    The result is within about 3e-16 of ``np.exp(-1j * phase)``; its bits follow numpy's SIMD
    dispatch of ``tan`` and depend only on each value, not on the array's length or layout.  An
    infinite or NaN phase gives NaN.
    """
    t = np.multiply(phase, 0.5)  # exact: a power-of-two scale
    np.tan(t, out=t)
    w = np.square(t)
    e = np.empty(phase.shape, dtype=np.complex128)
    np.subtract(1.0, w, out=e.real)
    w += 1.0
    np.divide(e.real, w, out=e.real)
    t *= -2.0
    np.divide(t, w, out=e.imag)
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
        v = to_physical(grid, c)
        phase = np.square(v.real)
        phase += np.square(v.imag)
        phase *= dt
        # With FMA, v*e and e*v round differently: keep the operand order fixed.
        rotated = np.multiply(v, _phase_factor(phase), out=v)
        return to_spectral(grid, rotated)


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
    c = ou_exact_step(c, spec, nu, dt / 2.0, noise0)
    if nonlinear:
        c = phase_rotation_step(spec.grid, c, dt)
    c = ou_exact_step(c, spec, nu, dt / 2.0, noise1)
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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises through the new field, unwarned
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
        v = to_physical(u.grid, u.coeffs)
        drift = drift - 1j * to_spectral(u.grid, (v.real**2 + v.imag**2) * v)
    return SpectralField(u.grid, u.coeffs + dt * drift + np.sqrt(nu) * increment)


def em_step(state: State, spec: NoiseSpec, params: SimParams) -> State:
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
