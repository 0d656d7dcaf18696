"""Random forcing law: mode amplitudes, weighted sums, reproducible draws.

The driving noise is xi(t, x) = sum_d b_d beta_d(t) phi_d(x) with independent
complex Brownian motions beta_d and nonnegative amplitudes b_d supported on
the retained modes {1..D}^n.  The weighted sums

    B_k = sum_d |d|^(2k) b_d^2

control every moment bound downstream; B_0 is the energy injection rate that
appears in the stationary balance identity E||u||_1^2 = B_0.

Draws are counter-addressed: any (trajectory, step, substream) batch of
Gaussians is reachable from (base_seed, stream_id, step_index, substream)
without replay, so trajectories are bit-reproducible and checkpoints resume.
Gaussians come from numpy's ziggurat sampler on the Philox4x64 counter
generator, fixed because bit-exact replay is part of the output contract.

Only the forced modes (b_d > 0, ``NoiseSpec.forced``) carry a Brownian motion,
so only they are drawn.  A Strang step takes 4s normals for s forced modes,
re_0 | im_0 | re_1 | im_1 in C order: its two half-steps' convolutions, each a
row's real and imaginary parts.  K = max(1, OU_BLOCK_NORMALS // 4s) consecutive
steps share the address (step_index // K, SUB_OU), and step k takes slice
k mod K.  One block is cached, keyed by its rows' streams and s, with its scaled
halves (``ou_convolutions``) and the merged noise of each of its steps' one
OU update (``ou_step_noise``), each made once.  An Euler-Maruyama increment
draws 2s normals (re | im) at (step_index, SUB_INCREMENT), and random initial
data (SUB_INIT) every mode.  A degenerate spec draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np
from numpy.random import Generator, Philox

from .spectral import GridSpec, mode_abs_sq

# Substream tags for counter addressing.  One 256-bit Philox counter block per
# (substream, step_index) pair; numpy fills the low 128 bits while drawing.
SUB_OU = 0  # OU convolution draws: both halves of a Strang step
SUB_INCREMENT = 2  # raw Brownian increments (Euler-Maruyama)
SUB_PATH = 3  # fine-level joint path draws for coupled-integrator studies
SUB_INIT = 5  # random initial data

# Normals per Strang OU draw address: K = max(1, OU_BLOCK_NORMALS // 4s) steps share one.
OU_BLOCK_NORMALS = 1024

_U64 = 2**64


class ProfileError(ValueError):
    """Malformed noise profile string."""


@dataclass
class RngStream:
    """Counter-addressed Gaussian stream for one trajectory.

    ``normals(step_index, substream, count)`` is pure: it returns the same
    draws as a freshly constructed ``Generator(Philox(counter, key))`` with
    counter ``[0, 0, substream, step_index]`` and key ``[base_seed,
    stream_id]``.

    Single-owner: one stream per trajectory.  Distinct (base_seed, stream_id)
    pairs are independent Philox keys.
    """

    base_seed: int
    stream_id: int

    def __post_init__(self):
        if not 0 <= self.base_seed < _U64:
            raise ValueError(f"base_seed must be a uint64, got {self.base_seed}")
        if not 0 <= self.stream_id < _U64:
            raise ValueError(f"stream_id must be a uint64, got {self.stream_id}")
        bitgen = Philox(key=[self.base_seed, self.stream_id])
        object.__setattr__(self, "_bitgen", bitgen)
        object.__setattr__(self, "_gen", Generator(bitgen))
        # A fresh generator's state: counter 0, empty buffer, no cached uint32.
        # Only the counter's two high words change from one address to the next.
        # Kept as ints and lists, which the state setter reads faster than arrays.
        state = bitgen.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        object.__setattr__(self, "_state", state)

    def normals(self, step_index: int, substream: int, count=None, out=None) -> np.ndarray:
        """Standard normals at the addressed counter (no stream state), into ``out`` if given."""
        if step_index < 0 or substream < 0:
            raise ValueError("step_index and substream must be nonnegative")
        counter = self._state["state"]["counter"]
        counter[2] = substream
        counter[3] = step_index
        self._bitgen.state = self._state
        return self._gen.standard_normal(count if out is None else None, out=out)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Amplitude array b_d >= 0 over the retained modes, plus its provenance string.

    An all-zero amplitude array is legal (it is how noise-free runs are
    configured) but flagged ``degenerate``; every bound involving 1/B_0 is
    vacuous for such a spec.
    """

    grid: GridSpec
    amplitudes: np.ndarray
    profile: str = "custom"

    def __post_init__(self):
        b = np.ascontiguousarray(self.amplitudes, dtype=float)
        if b.shape != self.grid.coeff_shape:
            raise ValueError(
                f"amplitude shape {b.shape} does not match grid {self.grid.coeff_shape}"
            )
        if not np.isfinite(b).all():
            raise ValueError("amplitudes must be finite")
        if np.any(b < 0):
            raise ValueError("amplitudes must be nonnegative")
        b.flags.writeable = False
        object.__setattr__(self, "amplitudes", b)
        forced = np.flatnonzero(b > 0)
        forced.flags.writeable = False
        object.__setattr__(self, "forced", forced)  # flat C-order indices of the modes with b_d > 0

    @property
    def degenerate(self) -> bool:
        return not self.forced.size

    @classmethod
    def power(cls, grid: GridSpec, p: float) -> "NoiseSpec":
        b = np.sqrt(mode_abs_sq(grid)) ** (-p)
        return cls(grid, b, profile=f"power:p={p:g}")

    @classmethod
    def exponential(cls, grid: GridSpec, a: float) -> "NoiseSpec":
        b = np.exp(-a * np.sqrt(mode_abs_sq(grid)))
        return cls(grid, b, profile=f"exp:a={a:g}")

    @classmethod
    def band(cls, grid: GridSpec, values) -> "NoiseSpec":
        """b_d = values[k-1] for modes in the shell k <= |d| < k+1, zero beyond the list.

        For n = 1 this is simply b_1, b_2, ... = values.
        """
        values = [float(v) for v in values]
        if not values:
            raise ProfileError("band profile needs at least one value")
        shell = np.floor(np.sqrt(mode_abs_sq(grid))).astype(int)
        table = np.zeros(shell.max() + 1)
        upto = min(len(values), shell.max())
        table[1 : upto + 1] = values[:upto]
        b = table[shell]
        return cls(grid, b, profile="band:" + ",".join(f"{v:g}" for v in values))

    @classmethod
    def single(cls, grid: GridSpec, d) -> "NoiseSpec":
        d = np.atleast_1d(np.asarray(d, dtype=int))
        if d.size != grid.n:
            raise ProfileError(f"single-mode index needs {grid.n} components, got {d.size}")
        if np.any(d < 1) or np.any(d > grid.D):
            raise ProfileError(f"single-mode index {tuple(d)} outside retained range 1..{grid.D}")
        b = np.zeros(grid.coeff_shape)
        b[tuple(d - 1)] = 1.0
        return cls(grid, b, profile="single:d=" + ",".join(str(int(v)) for v in d))

    @classmethod
    def from_profile(cls, grid: GridSpec, text: str) -> "NoiseSpec":
        """Parse a profile string: power:p=1.5 | exp:a=0.7 | band:1,1,0.5 | single:d=2."""
        kind, sep, arg = text.strip().partition(":")
        if not sep:
            raise ProfileError(f"profile {text!r} is missing its ':' argument separator")
        try:
            if kind == "power":
                return cls.power(grid, _keyed_float(arg, "p"))
            if kind == "exp":
                return cls.exponential(grid, _keyed_float(arg, "a"))
            if kind == "band":
                return cls.band(grid, [v for v in arg.split(",") if v.strip() != ""])
            if kind == "single":
                key, _, val = arg.partition("=")
                if key.strip() != "d":
                    raise ProfileError(f"single profile takes d=..., got {arg!r}")
                return cls.single(grid, [int(v) for v in val.split(",")])
        except ProfileError:
            raise
        except ValueError as exc:
            raise ProfileError(f"bad profile argument in {text!r}: {exc}") from exc
        raise ProfileError(f"unknown profile kind {kind!r} (power, exp, band, single)")


def _keyed_float(arg: str, key: str) -> float:
    k, _, v = arg.partition("=")
    if k.strip() != key:
        raise ProfileError(f"expected {key}=<value>, got {arg!r}")
    return float(v)


def bk_sum(spec: NoiseSpec, k: float) -> float:
    """B_k = sum_d |d|^(2k) b_d^2 over the retained modes (always finite)."""
    b2 = spec.amplitudes**2
    if k == 0:
        return float(np.sum(b2))
    return float(np.sum(mode_abs_sq(spec.grid) ** k * b2))


def _draws(rngs, step_index: int, substream: int, count: int) -> np.ndarray:
    """Standard normals of shape (len(rngs), count), row i drawn by stream i at (step_index, substream).

    No stream is addressed when count is 0.  Streams with the same (base_seed, stream_id), as in
    the entries of a sweep, draw the same normals: each such key is drawn once, by its first row,
    and copied to the others.
    """
    z = np.empty((len(rngs), count))
    if count:
        first = {}
        for i, rng in enumerate(rngs):
            j = first.setdefault((rng.base_seed, rng.stream_id), i)
            if j == i:
                rng.normals(step_index, substream, out=z[i])
            else:
                z[i] = z[j]
    return z


def complex_normals(rngs, step_index: int, substream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussians z_re + i z_im, one row per stream, reshaped to ``shape``.

    Each stream draws 2k normals at (step_index, substream), k = size / len(rngs):
    the real parts of its row first, then the imaginary parts, in C order.
    """
    k = prod(shape) // len(rngs)
    z = _draws(rngs, step_index, substream, 2 * k).reshape(len(rngs), 2, k)
    out = np.empty((len(rngs), k), dtype=np.complex128)
    out.real, out.imag = z[:, 0], z[:, 1]
    return out.reshape(shape)


def ou_block_steps(s: int) -> int:
    """K, the number of consecutive Strang steps whose OU draws share one address, for s forced modes."""
    return max(1, OU_BLOCK_NORMALS // (4 * s)) if s else 1


class _Block:
    """One drawn Strang OU block and what the last request derived from it.

    ``normals`` holds the rows' standard normals, (rows, K + 1, 2, 2, s): slot j + 1 is step
    bK + j's, and slot 0 the last step of the block before (NaN before block 0), since a nonlinear
    step at the block's first slot merges that step's closing half.  ``rngs`` are the streams the
    rows were drawn for.
    """

    def __init__(self, index: int, rngs, normals: np.ndarray):
        self.index, self.rngs, self.normals = index, rngs, normals
        self.scaled = self.steps = None  # (sd, scale, block) and (decay, block, nonlinear, noise)


# The last Strang OU block drawn.
_ou_block: _Block | None = None


def _block(rngs, index: int, s: int) -> _Block:
    """Block ``index`` of the rows ``rngs`` for s forced modes: the cached block if drawn for these
    rows, its rows if every row is one of its streams (as when rows leave a batch), drawn otherwise,
    with slot 0 taken from the cached block when that is the one before, else drawn from it."""
    global _ou_block
    cached = _ou_block if _ou_block is not None and _ou_block.normals.shape[-1] == s else None
    if cached is not None and cached.index == index and cached.rngs is rngs:
        return cached
    rows = None  # each row's row in the cached block, if every row has one
    if cached is not None:
        where = {id(rng): i for i, rng in enumerate(cached.rngs)}
        rows = [where.get(id(rng)) for rng in rngs]
        if None in rows:
            rows = None
    if rows is not None and cached.index == index:
        _ou_block = _Block(index, rngs, cached.normals[rows])
        return _ou_block
    K = ou_block_steps(s)
    normals = np.full((len(rngs), K + 1, 2, 2, s), np.nan)
    normals[:, 1:] = _draws(rngs, index, SUB_OU, 4 * s * K).reshape(len(rngs), K, 2, 2, s)
    if rows is not None and cached.index == index - 1:
        normals[:, 0] = cached.normals[rows, K]
    elif index:
        normals[:, 0] = _draws(rngs, index - 1, SUB_OU, 4 * s * K).reshape(len(rngs), K, 2, 2, s)[:, -1]
    _ou_block = _Block(index, rngs, normals)
    return _ou_block


def _scaled(block: _Block, sd: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``block``'s normals scaled by ``sd`` and then ``scale``, (s,) tables or (rows, s) ones; made once per tables."""
    got = block.scaled
    if got is None or got[0] is not sd or got[1] is not scale:
        per_row = (slice(None), None, None, None) if sd.ndim == 2 else ()
        z = block.normals * sd[per_row]
        z *= scale[per_row]
        z.flags.writeable = False
        got = block.scaled = (sd, scale, z)
    return got[2]


def ou_convolutions(rngs, step_index: int, sd: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noise sqrt(nu) b_d gamma_d of both OU half-steps of one Strang step, each (len(rngs), 2, s).

    Step k is slot k mod K of the block at (k // K, SUB_OU), K = ``ou_block_steps(s)``, slot j
    holding re_0 | im_0 | re_1 | im_1 over the s forced modes, scaled by ``sd`` and then ``scale``,
    (s,) tables or (len(rngs), s) tables with one row per stream.  One block is cached, keyed by
    its rows' streams: rows that stay in a batch when others leave take their rows of it, and a
    new run's streams draw their own.  Both results are read-only views into the block.
    """
    s = sd.shape[-1]
    index, slot = divmod(step_index, ou_block_steps(s))
    noise = _scaled(_block(rngs, index, s), sd, scale)[:, slot + 1]
    return noise[:, 0], noise[:, 1]


def ou_step_noise(
    rngs, step_index: int, sd: np.ndarray, scale: np.ndarray, decay: np.ndarray, nonlinear: bool
) -> np.ndarray:
    """The noise of the one OU update of every step in ``step_index``'s block, (K, len(rngs), 2, s).

    Slot k mod K is step k's, read-only and contiguous.  A nonlinear step merges the previous
    step's closing half into its opening one, n_1 of step k - 1 times ``decay`` plus n_0 of step k
    (step 0 opens with n_0 alone); a linear step's update is its own halves, n_0 ``decay`` + n_1.
    ``decay`` is the forced modes' OU(dt/2) decay, (1 or len(rngs), 1, s).  Built once per block
    and tables in the cache of :func:`ou_convolutions`, with the multiply-then-add of one merge.
    """
    s = sd.shape[-1]
    K = ou_block_steps(s)
    index = step_index // K
    block = _block(rngs, index, s)
    z = _scaled(block, sd, scale)
    got = block.steps
    if got is None or got[0] is not decay or got[1] is not z or got[2] != nonlinear:
        n0, n1 = z[:, :, 0].swapaxes(0, 1), z[:, :, 1].swapaxes(0, 1)  # (K + 1, rows, 2, s)
        steps = np.empty((K, len(rngs), 2, s))  # slot by slot, so that each slot is contiguous
        if nonlinear:
            np.multiply(n1[:-1], decay, out=steps)
            steps += n0[1:]
            if not index:
                steps[0] = n0[1]
        else:
            np.multiply(n0[1:], decay, out=steps)
            steps += n1[1:]
        steps.flags.writeable = False
        got = block.steps = (decay, z, nonlinear, steps)
    return got[3]


def forced_increments(spec: NoiseSpec, dt: float, rngs, step_index: int) -> np.ndarray:
    """Per-mode complex increments b_d * (g^R + i g^I), g ~ N(0, dt), one row per stream.

    Each stream draws 2s normals at (step_index, SUB_INCREMENT) over the s forced
    modes (real parts, then imaginary parts, in C order); unforced modes get 0.
    Shape (len(rngs), *coeff_shape).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    forced = spec.forced
    g = complex_normals(rngs, step_index, SUB_INCREMENT, (len(rngs), forced.size))
    out = np.zeros((len(rngs), spec.grid.n_modes), dtype=np.complex128)
    out[:, forced] = spec.amplitudes.reshape(-1)[forced] * (sqrt(dt) * g)
    return out.reshape(len(rngs), *spec.grid.coeff_shape)
