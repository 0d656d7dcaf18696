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

There is one field type, :class:`SpectralField`: an immutable, checked block
of complex mode coefficients with a leading row axis, one row per trajectory of
an ensemble, so its coefficients are (M, *coeff_shape) and a single field is
M = 1.  ``sobolev_norm``/``sup_norm``/``cm_norm`` take a field and return one
value per row.  Products with a sine matrix run on float64 planes (real, then
imaginary part; :func:`to_planes`), laid out (2, M, D, ..., D) for every n, so
each part is one contiguous plane.  The transforms :func:`to_physical` and
:func:`to_spectral` act on the last n axes, unchecked, one product per grid
axis: the last axis folds every leading axis into the rows of one matrix
product, whose row results are bit-identical to one-row results (see
:func:`_along`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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
def _axis_table(grid: GridSpec, kind: str, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (left, right) of one axis's (J x K) matrix: "sin"/"cos" the (N x D) sine/cosine matrix
    ((2/pi)^(1/2) folded in), column d times d^power, "proj" the sine transpose times pi/(N+1).  Left is the
    matrix; right its transpose zero-padded to a multiple of 8 columns, for the last axis, which a transform
    takes first and whose zero columns it keeps: SkylakeX and Haswell dgemm round 12 or 20 columns apart."""
    angle = grid.points[:, None] * np.arange(1, grid.D + 1)[None, :]
    mat = sqrt(2.0 / pi) * (np.cos(angle) if kind == "cos" else np.sin(angle))
    if power:
        mat *= np.arange(1, grid.D + 1, dtype=float) ** power
    if kind == "proj":
        mat = (pi / (grid.N + 1)) * mat.T
    J, K = mat.shape
    left, right = np.ascontiguousarray(mat), np.zeros((K, -(-J // 8) * 8))
    right[:, :J] = mat.T
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"{what} contains non-finite entries")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Mode coefficients u_d over {1..D}^n, one row per field; row i is u_i(x) = sum_d u_id phi_d(x).

    ``coeffs`` has shape (M, *coeff_shape).  ``planes`` are the same coefficients as planes
    (:func:`to_planes`), made here unless the caller passes them, unchecked.
    """

    grid: GridSpec
    coeffs: np.ndarray
    planes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape[1:] != self.grid.coeff_shape:  # the grid's shape behind one leading row axis
            raise ValueError(f"coefficient shape {c.shape} is not rows of grid {self.grid.coeff_shape}")
        _check_finite(c, "spectral field")
        object.__setattr__(self, "coeffs", c)
        if self.planes is None:
            planes = to_planes(c)
            planes.flags.writeable = False
            object.__setattr__(self, "planes", planes)

    def rows(self, keep: list[int] | slice) -> "SpectralField":
        """A copy of rows ``keep`` of this field, in that order, with their planes, read-only; not checked
        again, since this field's rows are finite.  A kept copy keeps no other row's memory alive."""
        return SpectralField.of_planes(self.grid, self.planes[:, keep].copy(), self.coeffs[keep].copy())

    @classmethod
    def of_planes(cls, grid: GridSpec, planes: np.ndarray, coeffs: np.ndarray) -> "SpectralField":
        """The field of finite ``planes``, made read-only, and their ``coeffs``; not checked again."""
        planes.flags.writeable = False
        out = object.__new__(cls)
        vars(out).update(grid=grid, coeffs=coeffs, planes=planes)
        return out


def to_planes(coeffs: np.ndarray) -> np.ndarray:
    """The planes of complex ``coeffs`` (*rows, *grid axes), the parts axis first."""
    return np.stack((coeffs.real, coeffs.imag))


def from_planes(planes: np.ndarray) -> np.ndarray:
    """The complex array of ``planes``: the inverse of :func:`to_planes`."""
    re, im = planes[0], planes[1]
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _along(a: np.ndarray, ax: int, n: int, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply a table's (J x K) matrix along grid axis ``ax`` (of the last n) of ``a``: one product.

    The last axis is ``a.reshape(-1, K) @ right``, zero columns kept: every leading axis (parts,
    rows, other grid axes) folds into the rows of one matrix product, whose rows have the bits of
    a one-row product.  Stacked products would not: numpy hands a one-row (1 x K) matrix to a
    matrix-vector routine that rounds differently.  Any other axis is ``left @ a`` over the axes
    behind it, one product per (part, row)."""
    left, right = table
    if ax == n - 1:
        return (a.reshape(-1, a.shape[-1]) @ right).reshape(*a.shape[:-1], right.shape[1])
    head = a.shape[: a.ndim - n + ax]
    out = left @ a.reshape(*head, left.shape[1], -1)
    return out.reshape(*head, left.shape[0], *a.shape[len(head) + 1 :])


def _transform(grid: GridSpec, a: np.ndarray, kind: str) -> np.ndarray:
    table = _axis_table(grid, kind, 0)
    a = _along(a, grid.n - 1, grid.n, table)  # the last axis first: see _axis_table
    for ax in range(grid.n - 1):
        a = _along(a, ax, grid.n, table)
    J = table[0].shape[0]
    return a if a.shape[-1] == J else a[..., :J]


def to_physical(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Lattice values of mode coefficients over the last n axes (the sine matrix per axis)."""
    return _transform(grid, coeffs, "sin")


def to_spectral(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Modes {1..D}^n of lattice values over the last n axes.

    Exact inverse of :func:`to_physical` on the span of retained modes; lattice
    content in modes above D is discarded (Galerkin truncation).
    """
    return _transform(grid, values, "proj")


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


def _max_modulus_sq(values: np.ndarray) -> np.ndarray:
    """Each row's max of |v|^2 over lattice planes ``values``; NaN for a row that holds a NaN."""
    sq = np.square(values)
    sq = np.add(sq[0], sq[1])
    return sq.reshape(len(sq), -1).max(axis=1)


def _sup(max_sq: np.ndarray) -> np.ndarray:
    """Sups from squared maxima (sqrt is monotone), inf where a NaN shows an overflow (inf - inf)."""
    return np.where(np.isnan(max_sq), np.inf, np.sqrt(max_sq))


@np.errstate(over="ignore", invalid="ignore")
def sup_norm(u: SpectralField) -> np.ndarray:
    """Max of |u| over the collocation lattice (a lower approximation of the true sup), one value per row."""
    return _sup(_max_modulus_sq(to_physical(u.grid, u.planes)))


@np.errstate(over="ignore", invalid="ignore")
def cm_norm(u: SpectralField, m: int | tuple[int, ...]) -> np.ndarray:
    """Discrete C^m norm: max over |beta| <= m of the lattice sup of |d^beta u|, one value per row.

    Differentiating sin(d x) k times gives d^k times sin or cos by the parity of k (the sign drops
    out of the modulus): each axis takes one product with d^k folded into its table, in the
    transforms' axis order, depth first, so each stage serves every beta that agrees so far.
    Shape (M,); for a tuple of orders, one pass up to the highest gives shape (orders, M).
    """
    orders = m if isinstance(m, tuple) else (m,)
    if not orders or any(k != int(k) or k < 0 for k in orders):
        raise ValueError(f"C^m order must be a nonnegative integer, got {m}")
    grid, n = u.grid, u.grid.n
    top = int(max(orders))
    tables = [_axis_table(grid, "cos" if b % 2 else "sin", b) for b in range(top + 1)]
    axes = (n - 1, *range(n - 1))
    best = [np.zeros(len(u.coeffs)) for _ in orders]  # squared

    def visit(vals: np.ndarray, i: int, used: int) -> None:
        # axes[:i] are done with |beta| = used over them; fold each leaf's max into the orders >= |beta|
        if i == n:
            max_sq = _max_modulus_sq(vals[..., : grid.N])
            for j, k in enumerate(orders):
                if used <= k:
                    best[j] = np.maximum(best[j], max_sq)
            return
        for b in range(top - used + 1):
            visit(_along(vals, axes[i], n, tables[b]), i + 1, used + b)

    visit(u.planes, 0, 0)
    return np.stack([_sup(b) for b in best]) if isinstance(m, tuple) else _sup(best[0])


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
# array of one row in little-endian complex128, tag 2.

FIELD_MAGIC = b"CLABFLD1"
_TAG = 2
_DTYPE = np.dtype("<c16")


def field_to_bytes(u: SpectralField) -> bytes:
    if len(u.coeffs) != 1:
        raise ValueError(f"a snapshot holds one row, got {len(u.coeffs)}")
    grid = u.grid
    header = FIELD_MAGIC + struct.pack("<IIII8x", grid.n, grid.N, grid.D, _TAG)
    return header + u.coeffs.astype(_DTYPE).tobytes()


def field_from_bytes(buf: bytes) -> SpectralField:
    if len(buf) < 32 or buf[:8] != FIELD_MAGIC:
        raise ValueError("not a field snapshot (bad magic or truncated header)")
    n, N, D, tag = struct.unpack("<IIII8x", buf[8:32])
    if tag != _TAG:
        raise ValueError(f"snapshot dtype tag {tag} is not {_TAG} (complex128)")
    grid = GridSpec(n, N, D)
    count = grid.n_modes
    expected = 32 + count * _DTYPE.itemsize
    if len(buf) != expected:
        raise ValueError(f"snapshot payload has {len(buf) - 32} bytes, expected {expected - 32}")
    coeffs = np.frombuffer(buf, dtype=_DTYPE, count=count, offset=32).reshape(1, *grid.coeff_shape)
    return SpectralField(grid, coeffs.astype(np.complex128))
