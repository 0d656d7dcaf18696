"""Random forcing law: mode amplitudes, weighted sums, reproducible draws.

The driving noise is xi(t, x) = sum_d b_d beta_d(t) phi_d(x) with independent
complex Brownian motions beta_d and nonnegative amplitudes b_d supported on
the retained modes {1..D}^n.  The weighted sums

    B_k = sum_d |d|^(2k) b_d^2

control every moment bound downstream; B_0 is the energy injection rate that
appears in the stationary balance identity E||u||_1^2 = B_0.

Draws are counter-addressed: any (trajectory, step, substream) batch of
Gaussians is reachable directly from (base_seed, stream_id, step_index,
substream) without replaying the stream.  That is what makes trajectories
bit-reproducible, checkpoints resumable, and coupled-path integrator
comparisons possible.  Gaussians come from numpy's ziggurat sampler on top of
the Philox4x64 counter generator; the choice is fixed because bit-exact
replay is part of the output contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np
from numpy.random import Generator, Philox

from .spectral import GridSpec, mode_abs_sq

# Substream tags for counter addressing.  One 256-bit Philox counter block per
# (substream, step_index) pair; numpy fills the low 128 bits while drawing.
SUB_OU_HALF0 = 0  # convolution draw, first half of a split step
SUB_OU_HALF1 = 1  # convolution draw, second half of a split step
SUB_INCREMENT = 2  # raw Brownian increments (Euler-Maruyama)
SUB_PATH = 3  # fine-level joint path draws for coupled-integrator studies
SUB_INIT = 5  # random initial data

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

    @property
    def degenerate(self) -> bool:
        return not bool(np.any(self.amplitudes > 0))

    @property
    def b_star(self) -> float:
        """sum_d b_d (controls sup-norm moment bounds)."""
        return float(np.sum(self.amplitudes))

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


def m_star(n: int) -> int:
    """Smallest integer m with m > n/2; the minimal smoothness order for the noise."""
    return n // 2 + 1


def bk_sum(spec: NoiseSpec, k: float) -> float:
    """B_k = sum_d |d|^(2k) b_d^2 over the retained modes (always finite)."""
    b2 = spec.amplitudes**2
    if k == 0:
        return float(np.sum(b2))
    return float(np.sum(mode_abs_sq(spec.grid) ** k * b2))


def complex_normals(rngs, step_index: int, substream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussians z_re + i z_im, one row per stream, reshaped to ``shape``.

    Each stream draws 2k normals at (step_index, substream), k = size / len(rngs):
    the real parts of its row first, then the imaginary parts, in C order.
    """
    k = prod(shape) // len(rngs)
    z = np.empty((len(rngs), 2 * k))
    for rng, row in zip(rngs, z):
        rng.normals(step_index, substream, out=row)
    out = np.empty((len(rngs), k), dtype=np.complex128)
    out.real, out.imag = z[:, :k], z[:, k:]
    return out.reshape(shape)


def sample_increments(
    spec: NoiseSpec,
    dt: float,
    rng: RngStream,
    step_index: int,
    substream: int = SUB_INCREMENT,
) -> np.ndarray:
    """Per-mode complex increments b_d * (g^R + i g^I) with g ~ N(0, dt).

    Drawing order over d is lexicographic (C order of the coefficient array):
    all real parts first, then all imaginary parts.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = complex_normals((rng,), step_index, substream, spec.grid.coeff_shape)
    return spec.amplitudes * (sqrt(dt) * g)
