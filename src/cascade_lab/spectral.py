"""Sine-spectral core: grids, transforms, and norm functionals.

Everything lives on the half-period cube [0, pi]^n with homogeneous Dirichlet
walls.  Odd 2pi-periodic extension selects the product sine basis

    phi_d(x) = (2/pi)^(n/2) * sin(d_1 x_1) * ... * sin(d_n x_n),  d_j >= 1,

which is orthonormal for the plain L2 inner product on the cube and satisfies
-Laplace(phi_d) = |d|^2 phi_d.  Collocation uses the interior lattice
x_j = j*pi/(N+1), j = 1..N per axis; a product with the per-axis sine matrix
(a type-I discrete sine transform) maps between mode coefficients and lattice
values, and the quadrature weight (pi/(N+1))^n makes the retained basis
exactly orthonormal on the lattice.

Fields are immutable value objects and all operations are pure functions, so
concurrent use on distinct fields gives the same results as serial execution.
A field may carry a leading row axis, one row per trajectory of an ensemble:
the transforms act on the last n axes, and ``sobolev_norm``/``sup_norm``/
``cm_norm`` return one value per row.  Every matrix product is taken per row,
never across rows, so row results are bit-identical to single-field results.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, pi, sqrt

import numpy as np


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


class NonFiniteFieldError(ValueError):
    """A field contains NaN or infinite entries."""


@dataclass(frozen=True)
class GridSpec:
    """Cube discretization: dimension n, N interior points and D modes per axis.

    The recommended anti-alias margin N >= 2D is reported by ``anti_aliased``
    but not enforced; D = N is legal and makes the transforms square.
    """

    n: int
    N: int
    D: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"spatial dimension must be >= 1, got n={self.n}")
        if self.N < 4:
            raise ValueError(f"need at least 4 collocation points per axis, got N={self.N}")
        if not 1 <= self.D <= self.N:
            raise ValueError(f"mode truncation requires 1 <= D <= N, got D={self.D}, N={self.N}")

    @property
    def anti_aliased(self) -> bool:
        return self.N >= 2 * self.D

    @property
    def points(self) -> np.ndarray:
        """Interior collocation points x_j = j*pi/(N+1), j = 1..N (one axis)."""
        return np.arange(1, self.N + 1) * (pi / (self.N + 1))

    @property
    def coeff_shape(self) -> tuple[int, ...]:
        return (self.D,) * self.n

    @property
    def values_shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def quadrature_weight(self) -> float:
        return (pi / (self.N + 1)) ** self.n

    @property
    def n_modes(self) -> int:
        return self.D**self.n


@lru_cache(maxsize=None)
def mode_abs_sq(grid: GridSpec) -> np.ndarray:
    """|d|^2 over the retained index set {1..D}^n, shaped like a coefficient array."""
    axis = np.arange(1, grid.D + 1, dtype=float) ** 2
    out = np.zeros(grid.coeff_shape)
    for ax in range(grid.n):
        shape = [1] * grid.n
        shape[ax] = grid.D
        out = out + axis.reshape(shape)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _sine_matrices(grid: GridSpec, D: int) -> tuple[np.ndarray, ...]:
    """Read-only complex matrices of one axis, modes 1..D: the (N x D) sine matrix, its transpose,
    the (D x N) projection (sine transposed times the quadrature weight pi/(N+1)), its transpose,
    and the (N x D) cosine matrix; rows of sine and cosine are lattice points, (2/pi)^(1/2) folded in."""
    angle = grid.points[:, None] * np.arange(1, D + 1)[None, :]
    sin_m, cos_m = sqrt(2.0 / pi) * np.sin(angle), sqrt(2.0 / pi) * np.cos(angle)
    proj = (pi / (grid.N + 1)) * sin_m.T
    out = tuple(np.array(a, dtype=np.complex128, order="C") for a in (sin_m, sin_m.T, proj, proj.T, cos_m))
    for mat in out:
        mat.flags.writeable = False
    return out


def _eval_matrices(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The per-axis (N x D) sine and cosine evaluation matrices of ``grid``."""
    sin_m, *_, cos_m = _sine_matrices(grid, grid.D)
    return sin_m, cos_m


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"{what} contains non-finite entries")


def _check_shape(shape: tuple[int, ...], grid_shape: tuple[int, ...], what: str) -> None:
    """Accept the grid's shape, optionally behind one leading row axis."""
    if shape[-len(grid_shape) :] != grid_shape or len(shape) - len(grid_shape) not in (0, 1):
        raise ValueError(f"{what} shape {shape} does not match grid {grid_shape}")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Mode coefficients u_d over {1..D}^n; represents u(x) = sum_d u_d phi_d(x).

    ``coeffs`` has the grid's coefficient shape, or (M, *coeff_shape) for M rows.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        _check_shape(c.shape, self.grid.coeff_shape, "coefficient")
        _check_finite(c, "spectral field")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, np.zeros(grid.coeff_shape, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Complex lattice values over the N^n interior collocation points (optionally per row)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        _check_shape(v.shape, self.grid.values_shape, "value")
        _check_finite(v, "physical field")
        object.__setattr__(self, "values", v)


def basis_eval(d, x) -> float:
    """Evaluate phi_d(x) = (2/pi)^(n/2) * prod_j sin(d_j x_j) at a single point."""
    d = np.atleast_1d(np.asarray(d, dtype=int))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d.shape != x.shape:
        raise ValueError(f"mode index and point have different lengths: {d.shape} vs {x.shape}")
    if np.any(d < 1):
        raise ValueError("mode indices must satisfy d_j >= 1")
    n = d.size
    return float((2.0 / pi) ** (n / 2.0) * np.prod(np.sin(d * x)))


def _per_axis(grid: GridSpec, a: np.ndarray, mat: np.ndarray, mat_t: np.ndarray) -> np.ndarray:
    """Apply ``mat`` along each of the last n axes of ``a``, one stacked product per row.

    For n >= 3 each step multiplies the front grid axis and rotates it to the back.
    One 2-D product across rows would make a row's bits depend on M."""
    if grid.n == 1:
        return (a[..., None, :] @ mat_t)[..., 0, :]
    if grid.n == 2:
        return mat @ a @ mat_t
    lead = a.shape[: a.ndim - grid.n]
    for _ in range(grid.n):
        a = (mat @ a.reshape(*lead, mat.shape[1], -1)).swapaxes(-1, -2)
    return a.reshape(lead + (mat.shape[0],) * grid.n)


def lattice_values(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Lattice values of mode coefficients over the last n axes (the math of :func:`to_physical`)."""
    return _per_axis(grid, coeffs, *_sine_matrices(grid, grid.D)[:2])


def mode_coeffs(grid: GridSpec, values: np.ndarray, D: int) -> np.ndarray:
    """Modes {1..D}^n of lattice values over the last n axes (the math of :func:`to_spectral`)."""
    return _per_axis(grid, values, *_sine_matrices(grid, D)[2:4])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing product raises below, unwarned
def to_physical(u: SpectralField) -> PhysicalField:
    """Evaluate the field on the collocation lattice (the sine matrix per axis)."""
    return PhysicalField(u.grid, lattice_values(u.grid, u.coeffs))


@np.errstate(over="ignore", invalid="ignore")
def to_spectral(p: PhysicalField, D: int | None = None) -> SpectralField:
    """Project lattice values onto the retained modes {1..D}^n.

    Exact inverse of :func:`to_physical` on the span of retained modes; lattice
    content in modes above D is discarded (Galerkin truncation).
    """
    grid = p.grid
    D = grid.D if D is None else D
    if not 1 <= D <= grid.N:
        raise GridMismatchError(f"requested truncation D={D} outside 1..N={grid.N}")
    out_grid = grid if D == grid.D else GridSpec(grid.n, grid.N, D)
    return SpectralField(out_grid, mode_coeffs(grid, p.values, D))


def lattice_inner(p: PhysicalField, q: PhysicalField) -> float:
    """Discrete inner product (pi/(N+1))^n * sum_j Re(p_j * conj(q_j)).

    Makes the retained basis orthonormal on the lattice; for fields supported
    on retained modes it agrees with the coefficient sum (discrete Parseval).
    """
    if p.grid != q.grid:
        raise GridMismatchError("inner product requires matching grids")
    return p.grid.quadrature_weight * float(np.sum((p.values * np.conj(q.values)).real))


@lru_cache(maxsize=None)
def _sobolev_weights(grid: GridSpec, m: float) -> np.ndarray:
    weights = mode_abs_sq(grid) ** m  # |d|^(2m)
    weights.flags.writeable = False
    return weights


@np.errstate(over="ignore", invalid="ignore")  # an overflowing field has norm inf, unwarned
def sobolev_norm(u: SpectralField, m: float) -> float | np.ndarray:
    """Homogeneous Sobolev norm: ||u||_m^2 = sum_d |d|^(2m) |u_d|^2 (m >= 0, fractional ok).

    A float for a single field, one value per row for a field with a row axis.
    """
    if m < 0:
        raise ValueError(f"Sobolev order must be >= 0, got m={m}")
    c = u.coeffs
    energy = c.real**2 + c.imag**2
    if m != 0:
        energy = _sobolev_weights(u.grid, m) * energy
    if c.ndim == u.grid.n:
        return sqrt(float(np.sum(energy)))
    return np.sqrt(energy.reshape(len(c), -1).sum(axis=1))


def sup_norm(u: SpectralField) -> float | np.ndarray:
    """Max of |u| over the collocation lattice (a lower approximation of the true sup).

    A float for a single field, one value per row for a field with a row axis.
    """
    mod = np.abs(to_physical(u).values)
    if u.coeffs.ndim == u.grid.n:
        return float(mod.max())
    return mod.reshape(len(mod), -1).max(axis=1)


def cm_norm(u: SpectralField, m: int) -> float | np.ndarray:
    """Discrete C^m norm: max over |beta| <= m of the lattice sup of |d^beta u|.

    Each partial derivative is computed spectrally; differentiating sin(d x)
    k times gives d^k times sin or cos by the parity of k, with a sign that is
    common to every mode and therefore drops out of the modulus.  Axes are
    evaluated in order, depth first, so the stage after axes 0..k is shared by
    every beta with the same beta_0..beta_k; each stage is one matrix product
    per row on the operands ``tensordot`` would build.  A float for a single
    field, one value per row for a field with a row axis.
    """
    if m != int(m) or m < 0:
        raise ValueError(f"C^m order must be a nonnegative integer, got {m}")
    grid, n = u.grid, u.grid.n
    sin_m, cos_m = _eval_matrices(grid)
    d_axis = np.arange(1, grid.D + 1, dtype=float)
    lead = u.coeffs.shape[: u.coeffs.ndim - n]
    k = len(lead)

    def sup_from(vals: np.ndarray, ax: int, budget: int) -> np.ndarray:
        # axes 0..ax-1 are done; max over beta_ax.. with sum <= budget
        if ax == n:
            return np.abs(vals).reshape(*lead, -1).max(axis=-1)
        perm = (*range(k), k + ax, *(k + i for i in range(n) if i != ax))  # grid axis ax to the front
        inv = tuple(perm.index(i) for i in range(k + n))
        best = np.zeros(lead)
        for b in range(budget + 1):
            moved = (vals * (d_axis**b).reshape((-1,) + (1,) * (n - 1 - ax)) if b else vals).transpose(perm)
            out = (sin_m if b % 2 == 0 else cos_m) @ moved.reshape(*lead, grid.D, -1)
            out = out.reshape(lead + (grid.N,) + moved.shape[k + 1 :]).transpose(inv)
            best = np.maximum(best, sup_from(out, ax + 1, budget - b))
        return best

    best = sup_from(u.coeffs, 0, int(m))
    return best if lead else float(best)


@np.errstate(over="ignore", invalid="ignore")
def spectrum_shells(u: SpectralField) -> list[tuple[int, float]]:
    """Shell energies E_k = sum over k <= |d| < k+1 of |u_d|^2, k = 1..ceil(sqrt(n) D).

    Every retained mode lands in exactly one shell, so the shell energies sum
    to ||u||_0^2.
    """
    grid = u.grid
    k_of_mode = np.floor(np.sqrt(mode_abs_sq(grid))).astype(int)
    energy = (u.coeffs.real**2 + u.coeffs.imag**2).ravel()
    n_shells = ceil(sqrt(grid.n) * grid.D)
    sums = np.bincount(k_of_mode.ravel(), weights=energy, minlength=n_shells + 1)
    return [(k, float(sums[k])) for k in range(1, n_shells + 1)]


# --- snapshot serialization -------------------------------------------------
#
# 32-byte header: 8-byte magic, then little-endian uint32 n, N, D, dtype tag,
# then 8 reserved zero bytes; the payload is the flat C-order coefficient
# array in little-endian complex64 (tag 1) or complex128 (tag 2).

FIELD_MAGIC = b"CLABFLD1"
_TAG_OF_DTYPE = {np.dtype(np.complex64): 1, np.dtype(np.complex128): 2}
_DTYPE_OF_TAG = {1: np.dtype("<c8"), 2: np.dtype("<c16")}


def field_to_bytes(u: SpectralField, dtype=np.complex128) -> bytes:
    tag = _TAG_OF_DTYPE.get(np.dtype(dtype))
    if tag is None:
        raise ValueError(f"unsupported snapshot dtype {dtype!r}; use complex64 or complex128")
    grid = u.grid
    header = FIELD_MAGIC + struct.pack("<IIII8x", grid.n, grid.N, grid.D, tag)
    payload = np.ascontiguousarray(u.coeffs.astype(_DTYPE_OF_TAG[tag])).tobytes()
    return header + payload


def field_from_bytes(buf: bytes) -> SpectralField:
    if len(buf) < 32 or buf[:8] != FIELD_MAGIC:
        raise ValueError("not a field snapshot (bad magic or truncated header)")
    n, N, D, tag = struct.unpack("<IIII8x", buf[8:32])
    if tag not in _DTYPE_OF_TAG:
        raise ValueError(f"unknown snapshot dtype tag {tag}")
    grid = GridSpec(n, N, D)
    count = grid.n_modes
    dtype = _DTYPE_OF_TAG[tag]
    expected = 32 + count * dtype.itemsize
    if len(buf) != expected:
        raise ValueError(f"snapshot payload has {len(buf) - 32} bytes, expected {expected - 32}")
    coeffs = np.frombuffer(buf, dtype=dtype, count=count, offset=32).reshape(grid.coeff_shape)
    return SpectralField(grid, coeffs.astype(np.complex128))
