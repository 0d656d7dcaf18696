"""Reference solutions the tests hold the program to: the basis, the lattice inner product, and more.

The closed forms of the linear system (nonlinearity off), and a coupled-path
harness: a Strang chain and an Euler-Maruyama chain at any multiple of a fine
step, both driven by one fine Brownian path, so their gap is a strong error.

Per fine step of length h and per forced mode, the increment and the OU
convolution are jointly Gaussian per component:

  dbeta ~ N(0, h),   conv = int_0^h exp(-lam (h-s)) dbeta(s),
  Cov(dbeta, conv) = (1 - exp(-lam h)) / lam,
  Var(conv) = (1 - exp(-2 lam h)) / (2 lam),

realized as conv = a*g1 + c*g2 with dbeta = sqrt(h)*g1.  Increments sum
exactly across fine steps and convolutions compound exactly under
conv([t0,t2]) = exp(-lam (t2-t1)) conv([t0,t1]) + conv([t1,t2]), so every
coarser level is an exact functional of the same fine path.  Only the forced
modes (b_d > 0) are stored, since neither chain reads any other.
"""

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from cascade_lab.forcing import NoiseSpec, RngStream
from cascade_lab.integrators import _euler_maruyama, _flush, _merged_noise, _ou_tables, _steps, ou_exact_step
from cascade_lab.spectral import GridMismatchError, NonFiniteFieldError, SpectralField, from_planes, mode_abs_sq

SUB_PATH = 3  # the substream of the fine-level joint path draws; no draw of the package uses it


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


def lattice_inner(grid, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Discrete inner product (pi/(N+1))^n * sum_j Re(p_j * conj(q_j)) of complex lattice values, one value per row.

    Makes the retained basis orthonormal on the lattice; for fields supported
    on retained modes it agrees with the coefficient sum (discrete Parseval).
    """
    products = (p * np.conj(q)).real
    return grid.quadrature_weight * products.reshape(len(products), -1).sum(axis=1)


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


@dataclass(frozen=True, eq=False)
class CoupledPath:
    """Fine-resolution joint draws (Brownian increments + OU convolutions) on the forced modes."""

    spec: NoiseSpec
    nu: float
    dt_fine: float
    dbeta: np.ndarray  # (n_fine, s) complex, per-component var dt_fine
    conv: np.ndarray  # (n_fine, s) complex, unit-amplitude convolution

    @property
    def n_fine(self) -> int:
        return self.dbeta.shape[0]


def sample_coupled_path(
    spec: NoiseSpec, nu: float, dt_fine: float, n_fine: int, rng: RngStream
) -> CoupledPath:
    """Fine step j draws 4 * n_modes normals at (j, SUB_PATH): re g1 | re g2 | im g1 | im g2 over every mode."""
    if dt_fine <= 0:
        raise ValueError("fine step must be positive")
    h = dt_fine
    k, forced = spec.grid.n_modes, spec.forced
    lam = nu * mode_abs_sq(spec.grid).reshape(-1)[forced]
    var = -np.expm1(-2.0 * lam * h) / (2.0 * lam)
    a = -np.expm1(-lam * h) / lam / sqrt(h)
    c = np.sqrt(np.maximum(var - a**2, 0.0))
    dbeta = np.empty((n_fine, forced.size), dtype=np.complex128)
    conv = np.empty_like(dbeta)
    for j in range(n_fine):
        z = rng.normals(j, SUB_PATH, 4 * k).reshape(4, k)[:, forced]
        g1 = z[0] + 1j * z[2]
        g2 = z[1] + 1j * z[3]
        dbeta[j] = sqrt(h) * g1
        conv[j] = a * g1 + c * g2
    return CoupledPath(spec, nu, dt_fine, dbeta, conv)


def _fine_steps(path: CoupledPath, dt: float, parts: int) -> int:
    """r, the fine steps in each of a step's ``parts`` equal parts; the path must hold whole steps."""
    r = round(dt / parts / path.dt_fine)
    if r < 1 or abs(r * path.dt_fine * parts - dt) > 1e-12 * dt:
        raise ValueError(f"dt/{parts} = {dt / parts} is not a multiple of the fine step {path.dt_fine}")
    if path.n_fine % (parts * r) != 0:
        raise ValueError(f"path length {path.n_fine} fine steps is not a whole number of dt = {dt} steps")
    return r


def _window_conv(conv: np.ndarray, fine_decay: np.ndarray, i0: int, i1: int) -> np.ndarray:
    acc = np.zeros_like(conv[0])
    for j in range(i0, i1):
        acc = acc * fine_decay + conv[j]
    return acc


def _parts(g: np.ndarray) -> np.ndarray:
    """One row's complex forced-mode noise as the kernel takes it: (1, 2, s), real then imaginary parts."""
    return np.stack((g.real, g.imag))[None]


def run_strang_on_path(
    u0: SpectralField, path: CoupledPath, dt: float, nonlinear: bool = True
) -> SpectralField:
    """Strang chain at step dt driven by the coupled path (dt/2 a multiple of dt_fine).

    The driver's step loop on the path's halves, merged as the driver merges a draw block's: each
    step's closing half merges with the next step's opening one, and the last step's closing half
    closes the chain; without the rotation a step's halves merge.
    """
    r = _fine_steps(path, dt, 2)
    lam = path.nu * mode_abs_sq(u0.grid)
    fine_decay = np.exp(-lam * path.dt_fine).reshape(-1)[path.spec.forced]
    _, _, scale = _ou_tables(path.spec, path.nu, dt / 2.0)
    halves = np.stack([_parts(scale * _window_conv(path.conv, fine_decay, i, i + r)) for i in range(0, path.n_fine, r)])
    n0, n1 = halves[0::2], halves[1::2]  # each step's opening and closing half, (steps, 1, 2, s)
    noise = _merged_noise(path.spec, path.nu, dt, nonlinear, n0, n1)
    c, taken, failed = _steps(u0.planes, path.spec, path.nu, dt, nonlinear, noise, first=nonlinear)
    if failed is not None:
        raise NonFiniteFieldError(f"spectral field turned non-finite at step {taken + 1}")
    if nonlinear:
        c = _flush(ou_exact_step(c, path.spec, path.nu, dt / 2.0, n1[-1]))
    return SpectralField(u0.grid, from_planes(c))


def run_em_on_path(
    u0: SpectralField, path: CoupledPath, dt: float, nonlinear: bool = True
) -> SpectralField:
    """Euler-Maruyama chain at step dt driven by the same coupled path."""
    r = _fine_steps(path, dt, 1)
    forced = path.spec.forced
    b = path.spec.amplitudes.reshape(-1)[forced]
    u = u0
    for i in range(0, path.n_fine, r):
        incr = np.zeros(u0.grid.n_modes, dtype=np.complex128)
        incr[forced] = b * path.dbeta[i : i + r].sum(axis=0)
        u = SpectralField(u0.grid, _euler_maruyama(u, path.nu, dt, nonlinear, incr.reshape(u0.grid.coeff_shape)))
    return u


@dataclass(frozen=True)
class ExpMomentReport:
    c: float
    value: float
    half_value: float
    stable: bool


def exp_moment(samples, c: float) -> ExpMomentReport:
    """Sample mean of exp(c x^2) with a half-sample heavy-tail stability flag (criterion 9).

    ``stable`` is False when the first-half estimate differs from the full
    estimate by more than 25 % relatively; a heavy tail makes the estimate
    jumpy under subsampling.
    """
    if c < 0:
        raise ValueError("exponential-moment coefficient must be >= 0")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    vals = np.exp(c * x**2)
    full = float(vals.mean())
    half = float(vals[: max(1, x.size // 2)].mean())
    stable = abs(half - full) <= 0.25 * full
    return ExpMomentReport(c=c, value=full, half_value=half, stable=stable)
