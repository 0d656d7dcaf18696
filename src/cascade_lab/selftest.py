"""Fast invariant self-test: exact identities every healthy checkout must satisfy.

Covers the transform round trip and discrete Parseval identity, the transforms
row by row and against direct sums of the basis, coefficient interpolation, norm
homogeneity, the pure-decay and stationary limits of the exact linear step,
phase-rotation isometry, the phase factor against exp(-i phi), addressed draws,
the batched ensemble step against one-row steps, the Strang step's
block-addressed forced-mode draw, and the power-law fit oracle.  Runs in a few seconds; the CLI exposes it as ``selftest``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
from numpy.random import Generator, Philox

from .experiments import fit_exponent
from .forcing import SUB_OU, NoiseSpec, RngStream, complex_normals, ou_block_steps
from .integrators import (
    SimParams,
    State,
    _ou_tables,
    _phase_factor,
    _strang,
    initial_state,
    ou_exact_step,
    phase_rotation_step,
    single_mode,
    strang_step,
)
from .spectral import (
    GridSpec,
    SpectralField,
    basis_eval,
    lattice_inner,
    sobolev_norm,
    to_physical,
    to_spectral,
)


def _random_field(grid: GridSpec, seed: int) -> SpectralField:
    """One row of standard complex Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    shape = (1, *grid.coeff_shape)
    return SpectralField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def run_selftest() -> bool:
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
        u = _random_field(grid, 7)
        p = to_physical(grid, u.coeffs)
        err = float(np.abs(to_spectral(grid, p) - u.coeffs).max())
        check(f"round trip n={grid.n} (max err {err:.2e})", err <= 1e-12)
        (quad,) = lattice_inner(grid, p, p)
        coeff = float(np.sum(np.abs(u.coeffs) ** 2))
        rel = abs(quad - coeff) / coeff
        check(f"discrete Parseval n={grid.n} (rel err {rel:.2e})", rel <= 1e-12)

    same = True
    for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16), GridSpec(3, 10, 5)):
        rows = np.concatenate([_random_field(grid, 30 + i).coeffs for i in range(3)])
        lattice = to_physical(grid, rows)
        modes = to_spectral(grid, lattice)
        for i in range(3):
            row = slice(i, i + 1)
            same = same and lattice[row].tobytes() == to_physical(grid, rows[row]).tobytes()
            same = same and modes[row].tobytes() == to_spectral(grid, lattice[row]).tobytes()
    check("sine-matrix transforms: 3 rows equal 3 one-row fields (n = 1, 2, 3)", same)

    grid = GridSpec(2, 12, 6)  # direct sums of u_d phi_d(x_j), and their quadrature inverse
    u = _random_field(grid, 17)
    d_all = list(product(range(1, grid.D + 1), repeat=grid.n))
    basis = np.array([[basis_eval(d, x) for d in d_all] for x in product(grid.points, repeat=grid.n)])
    lattice = to_physical(grid, u.coeffs).ravel()
    modes = to_spectral(grid, lattice.reshape(1, *grid.values_shape)).ravel()
    pairs = ((lattice, basis @ u.coeffs.ravel()), (modes, grid.quadrature_weight * (basis.T @ lattice)))
    err = max(float(np.abs(a - b).max() / np.abs(b).max()) for a, b in pairs)
    check(f"sine-matrix transforms equal direct sums of phi_d (n=2, rel err {err:.1e})", err <= 1e-13)

    grid = GridSpec(1, 64, 32)
    u = SpectralField(grid, np.concatenate([_random_field(grid, seed).coeffs for seed in range(200)]))
    sq = sobolev_norm(u, (0, 1, 2, 3)) ** 2  # one row per order, one column per field
    ok = True
    for l, m in ((1, 2), (1, 3), (2, 3)):
        rhs = sq[0] ** (1 - l / m) * sq[m] ** (l / m)
        ok = ok and bool(np.all(sq[l] - rhs <= 1e-12 * rhs))
    check("coefficient interpolation (200 random fields)", ok)

    u = _random_field(grid, 11)
    c = 0.3 - 1.7j
    (norm,), (scaled,) = sobolev_norm(u, 1.5), sobolev_norm(SpectralField(grid, c * u.coeffs), 1.5)
    check("norm homogeneity", abs(scaled - abs(c) * norm) <= 1e-9 * norm)
    l2, h1 = sobolev_norm(u, (0, 1))[:, 0]
    check("Poincare ||u||_1 >= ||u||_0", h1 >= l2)

    spec = NoiseSpec.band(grid, [0.0])
    u1 = single_mode(grid, 1)
    noise = complex_normals((RngStream(0, 0),), 0, SUB_OU, (1, spec.forced.size))  # no forced mode: empty
    stepped = ou_exact_step(u1.coeffs, spec, nu=1.0, dt=np.log(2.0), noise=noise)
    check("pure decay over dt = ln 2 halves the mode", abs(stepped[0, 0] - 0.5) <= 1e-12)

    sq = GridSpec(1, 64, 64)
    v = _random_field(sq, 13)
    p0, p1 = to_physical(sq, v.coeffs), to_physical(sq, phase_rotation_step(sq, v.coeffs, 0.37))
    (before,), (after,) = lattice_inner(sq, p0, p0), lattice_inner(sq, p1, p1)
    check("phase rotation preserves lattice L2", abs(after - before) <= 1e-12 * before)

    phase = np.logspace(-12, 12, 100_001)  # the tangent's bits follow this host's SIMD dispatch
    e = _phase_factor(phase)
    err, mod = float(np.abs(e - np.exp(-1j * phase)).max()), float(np.abs(np.abs(e) - 1.0).max())
    check(
        f"phase factor agrees with exp(-i phi) to 1e-15 and keeps |e| = 1 over 1e-12 <= phi <= 1e12"
        f" (err {err:.1e}, ||e| - 1| {mod:.1e})",
        err <= 1e-15 and mod <= 1e-15,
    )

    stream = RngStream(2**64 - 1, 2**63)  # an address at the uint64 extremes
    stream.normals(3, 0, 7)  # leave the generator mid-block before re-addressing it
    fresh = Generator(Philox(counter=[0, 0, 1, 2**40], key=[2**64 - 1, 2**63])).standard_normal(64)
    got = stream.normals(2**40, 1, 64)
    check("addressed draw equals a freshly built Philox", bool(np.array_equal(got, fresh)))

    grid2 = GridSpec(2, 32, 16)
    spec2 = NoiseSpec.band(grid2, [1.0, 1.0, 1.0])
    params = SimParams(nu=0.5, dt=0.01, T=0.01, seed=3)
    rows = [_random_field(grid2, 20 + i) for i in range(16)]
    u0 = SpectralField(grid2, np.concatenate([r.coeffs for r in rows]))
    batched = strang_step(initial_state(u0, params), spec2, params).u.coeffs
    single = [strang_step(initial_state(r, replace(params, stream_id=i)), spec2, params) for i, r in enumerate(rows)]
    same = batched.tobytes() == b"".join(s.u.coeffs.tobytes() for s in single)
    check("batched Strang step n=2 M=16 equals 16 one-row steps", same)

    _, sd, scale = _ou_tables(spec2, params.nu, params.dt / 2)  # over the s forced modes
    s, K = sd.size, ou_block_steps(sd.size)
    u = _random_field(grid2, 40)
    same = True
    for step in (2**40 - 1, 2**40):  # the last slot of one block and the first of the next
        z = Generator(Philox(counter=[0, 0, SUB_OU, step // K], key=[2**64 - 1, 2**63])).standard_normal(4 * s * K)
        z = z[4 * s * (step % K) : 4 * s * (step % K + 1)].reshape(2, 2, s)  # re0|im0|re1|im1
        conv = np.empty((2, s), dtype=np.complex128)
        conv.real, conv.imag = z[:, 0], z[:, 1]
        noise = scale * (conv * sd)
        stepped = strang_step(State(0.0, u, (stream,), step), spec2, params).u.coeffs
        expected = _strang(u.coeffs, spec2, params.nu, params.dt, True, noise[:1], noise[1:])
        same = same and stepped.tobytes() == expected.tobytes()
    check(f"Strang draw equals a freshly built Philox block over the forced modes (K = {K})", same)

    fit = fit_exponent([(0.4, 0.4**-2), (0.2, 0.2**-2), (0.1, 0.1**-2)])
    check("exponent fit oracle (alpha = 2)", abs(fit.alpha - 2.0) <= 1e-12 and fit.r2 >= 1 - 1e-12)

    print(f"selftest: {sum(ok for _, ok in checks)}/{len(checks)} checks passed")
    return all(ok for _, ok in checks)
