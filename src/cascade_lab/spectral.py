"""Sine-spectral core: grids, transforms, and norm functionals.

Everything lives on the half-period cube [0, pi]^n with homogeneous Dirichlet
walls.  Odd 2pi-periodic extension selects the product sine basis

    phi_d(x) = (2/pi)^(n/2) * sin(d_1 x_1) * ... * sin(d_n x_n),  d_j >= 1,

which is orthonormal for the plain L2 inner product on the cube and satisfies
-Laplace(phi_d) = |d|^2 phi_d.  Collocation uses the interior lattice
x_j = j*pi/(N+1), j = 1..N per axis; a product with the per-axis sine matrix
(a type-I discrete sine transform) maps between mode coefficients and lattice
values, and the quadrature weight (pi/(N+1))^n makes the retained basis
exactly orthonormal on the lattice.  The matrices are real, applied to the
float64 views of complex arrays (see :func:`_along`).

Fields are immutable value objects and all operations are pure functions, so
concurrent use on distinct fields gives the same results as serial execution.
Every field has a leading row axis, one row per trajectory of an ensemble, so
its arrays are (M, *grid shape) and a single field is M = 1: the transforms
act on the last n axes, and ``sobolev_norm``/``sup_norm``/``cm_norm`` return
one value per row.  Every matrix product is taken per row, never across rows,
so row results are bit-identical to one-row results.
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

    The recommended anti-alias margin N >= 2D is not enforced; D = N is legal
    and makes the transforms square.
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
    out = sum(np.ix_(*(np.arange(1, grid.D + 1, dtype=float) ** 2,) * grid.n))  # d_1^2 + ... + d_n^2
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _axis_table(grid: GridSpec, D: int, kind: str) -> tuple[np.ndarray | None, np.ndarray]:
    """Read-only float64 (left, right) of one axis's real (J x K) matrix for modes 1..D: "sin"/"cos" is
    the (N x D) sine/cosine matrix (rows at lattice points, (2/pi)^(1/2) folded in), "proj" the (D x N)
    sine transpose times pi/(N+1).  At n >= 2 left is the matrix and right its (2K x 2J) interleaved
    transpose W, W[0::2, 0::2] = W[1::2, 1::2] = matrix^T; at n = 1 left is None, right the transpose."""
    angle = grid.points[:, None] * np.arange(1, D + 1)[None, :]
    mat = sqrt(2.0 / pi) * (np.cos(angle) if kind == "cos" else np.sin(angle))
    if kind == "proj":
        mat = (pi / (grid.N + 1)) * mat.T
    if grid.n == 1:
        left, right = None, np.ascontiguousarray(mat.T)
    else:
        left, right = np.ascontiguousarray(mat), np.zeros((2 * mat.shape[1], 2 * mat.shape[0]))
        right[0::2, 0::2] = right[1::2, 1::2] = mat.T
        left.flags.writeable = False
    right.flags.writeable = False
    return left, right


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"{what} contains non-finite entries")


def _check_shape(shape: tuple[int, ...], grid_shape: tuple[int, ...], what: str) -> None:
    """Accept the grid's shape behind one leading row axis."""
    if shape[1:] != grid_shape:
        raise ValueError(f"{what} shape {shape} is not rows of grid {grid_shape}")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Mode coefficients u_d over {1..D}^n, one row per field; row i is u_i(x) = sum_d u_id phi_d(x).

    ``coeffs`` has shape (M, *coeff_shape); a single field is one row.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        _check_shape(c.shape, self.grid.coeff_shape, "coefficient")
        _check_finite(c, "spectral field")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Complex lattice values over the N^n interior collocation points, shape (M, *values_shape)."""

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


def _along(a: np.ndarray, ax: int, n: int, table: tuple[np.ndarray | None, np.ndarray]) -> np.ndarray:
    """Apply a table's real (J x K) matrix along grid axis ``ax`` (of the last n) of complex ``a``.

    Float64 products on ``a``'s float64 view, never across rows (that would make a row's bits depend
    on M): from the left on every axis but the last, real and imaginary parts riding along as
    interleaved columns; rows times W on the last axis at n >= 2; at n = 1, each row's (2 x K) parts
    times the transpose, since AVX-512 and AVX2 dgemm round a (J x K) @ (K x 2) product differently."""
    left, right = table
    if ax < n - 1:
        head = a.shape[: a.ndim - n + ax]
        out = left @ a.reshape(*head, left.shape[1], -1).view(np.float64)
        return out.view(np.complex128).reshape(*head, left.shape[0], *a.shape[len(head) + 1 :])
    if n > 1:
        return (a.view(np.float64) @ right).view(np.complex128)
    parts = a.view(np.float64).reshape(*a.shape, 2).swapaxes(-1, -2) @ right
    out = np.empty(a.shape[:-1] + right.shape[1:], dtype=np.complex128)
    out.real, out.imag = parts[..., 0, :], parts[..., 1, :]
    return out


def lattice_values(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Lattice values of mode coefficients over the last n axes (the math of :func:`to_physical`)."""
    table = _axis_table(grid, grid.D, "sin")
    for ax in range(grid.n):
        coeffs = _along(coeffs, ax, grid.n, table)
    return coeffs


def mode_coeffs(grid: GridSpec, values: np.ndarray, D: int) -> np.ndarray:
    """Modes {1..D}^n of lattice values over the last n axes (the math of :func:`to_spectral`)."""
    table = _axis_table(grid, D, "proj")
    for ax in range(grid.n):
        values = _along(values, ax, grid.n, table)
    return values


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
def sobolev_norm(u: SpectralField, m: float | tuple[float, ...]) -> np.ndarray:
    """Homogeneous Sobolev norm: ||u||_m^2 = sum_d |d|^(2m) |u_d|^2 (m >= 0, fractional ok).

    One value per row, shape (M,).  For a tuple of orders, shape (orders, M), all from one |u_d|^2.
    """
    ms = m if isinstance(m, tuple) else (m,)
    if min(ms) < 0:
        raise ValueError(f"Sobolev order must be >= 0, got m={m}")
    c = u.coeffs
    energy = c.real**2 + c.imag**2
    sums = [(_sobolev_weights(u.grid, k) * energy if k else energy).reshape(len(c), -1).sum(axis=1) for k in ms]
    return np.sqrt(np.stack(sums)) if isinstance(m, tuple) else np.sqrt(sums[0])


@np.errstate(over="ignore", invalid="ignore")
def sup_norm(u: SpectralField) -> np.ndarray:
    """Max of |u| over the collocation lattice (a lower approximation of the true sup), one value per row."""
    mod = np.abs(lattice_values(u.grid, u.coeffs))
    return mod.reshape(len(mod), -1).max(axis=1)


def cm_norm(u: SpectralField, m: int | tuple[int, ...]) -> np.ndarray:
    """Discrete C^m norm: max over |beta| <= m of the lattice sup of |d^beta u|, one value per row.

    Each partial derivative is computed spectrally; differentiating sin(d x) k times gives d^k
    times sin or cos by the parity of k, with a sign that is common to every mode and therefore
    drops out of the modulus.  Axes are evaluated in order, depth first, so the stage after axes
    0..k (one :func:`_along` product) is shared by every beta with the same beta_0..beta_k.
    Shape (M,); for a tuple of orders, one pass up to the highest gives shape (orders, M).
    """
    orders = m if isinstance(m, tuple) else (m,)
    if not orders or any(k != int(k) or k < 0 for k in orders):
        raise ValueError(f"C^m order must be a nonnegative integer, got {m}")
    grid, n = u.grid, u.grid.n
    tables = _axis_table(grid, grid.D, "sin"), _axis_table(grid, grid.D, "cos")
    d_axis = np.arange(1, grid.D + 1, dtype=float)
    rows = len(u.coeffs)
    top = int(max(orders))
    best = [np.zeros(rows) for _ in orders]

    def visit(vals: np.ndarray, ax: int, used: int) -> None:
        # axes 0..ax-1 are done with |beta_0..beta_ax-1| = used; fold each leaf's sup into the orders >= |beta|
        if ax == n:
            sup = np.abs(vals).reshape(rows, -1).max(axis=-1)
            for j, k in enumerate(orders):
                if used <= k:
                    best[j] = np.maximum(best[j], sup)
            return
        for b in range(top - used + 1):
            scaled = vals * (d_axis**b).reshape((-1,) + (1,) * (n - 1 - ax)) if b else vals
            visit(_along(scaled, ax, n, tables[b % 2]), ax + 1, used + b)

    visit(u.coeffs, 0, 0)
    return np.stack(best) if isinstance(m, tuple) else best[0]


@np.errstate(over="ignore", invalid="ignore")
def shell_energies(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Shell energies E_k = sum over k <= |d| < k+1 of |u_d|^2, k = 1..ceil(sqrt(n) D), over the last n axes.

    Every retained mode lands in exactly one shell, so a row's shell energies sum to ||u||_0^2.
    One ``np.bincount`` over every row, each row's bins offset past the previous row's, so
    each bin sums the same weights in the same order as a one-row count.
    """
    lead = coeffs.shape[: coeffs.ndim - grid.n]
    rows, width = int(np.prod(lead)), ceil(sqrt(grid.n) * grid.D) + 1
    energy = coeffs.real**2 + coeffs.imag**2
    shell_of_mode = np.floor(np.sqrt(mode_abs_sq(grid))).astype(int).ravel()
    bins = (shell_of_mode + width * np.arange(rows)[:, None]).ravel()
    sums = np.bincount(bins, weights=energy.ravel(), minlength=rows * width)
    return sums.reshape(*lead, width)[..., 1:]


# --- snapshot serialization -------------------------------------------------
#
# 32-byte header: 8-byte magic, then little-endian uint32 n, N, D, dtype tag,
# then 8 reserved zero bytes; the payload is the flat C-order coefficient
# array of one row in little-endian complex64 (tag 1) or complex128 (tag 2).

FIELD_MAGIC = b"CLABFLD1"
_TAG_OF_DTYPE = {np.dtype(np.complex64): 1, np.dtype(np.complex128): 2}
_DTYPE_OF_TAG = {1: np.dtype("<c8"), 2: np.dtype("<c16")}


def field_to_bytes(u: SpectralField, dtype=np.complex128) -> bytes:
    if len(u.coeffs) != 1:
        raise ValueError(f"a snapshot holds one row, got {len(u.coeffs)}")
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
    coeffs = np.frombuffer(buf, dtype=dtype, count=count, offset=32).reshape(1, *grid.coeff_shape)
    return SpectralField(grid, coeffs.astype(np.complex128))
