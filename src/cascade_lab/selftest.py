"""Fast invariant self-test: exact identities every healthy checkout must satisfy.

Covers the transforms (round trip, discrete Parseval, row by row, direct sums of
the basis), norm identities, the exact linear step and the merged OU halves, the
rotation's isometry and its cosine and sine, addressed draws, the batched
Strang step against one-row runs and its block-addressed draws, and the fit
oracle.  Runs in a few seconds; the CLI exposes it as ``selftest``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
from numpy.random import Generator, Philox

from .experiments import fit_exponent
from .forcing import SUB_OU, NoiseSpec, RngStream, ou_block_steps
from .integrators import (
    SimParams,
    State,
    _closed,
    _cos_sin,
    _flush,
    _merged_noise,
    _ou_tables,
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
    from_planes,
    sobolev_norm,
    to_physical,
    to_planes,
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
        p = to_physical(grid, u.planes)
        err = float(np.abs(to_spectral(grid, p) - u.planes).max())
        check(f"round trip n={grid.n} (max err {err:.2e})", err <= 1e-12)
        quad = grid.quadrature_weight * float(np.sum(np.square(p)))  # the lattice inner product <p, p>
        coeff = float(np.sum(np.abs(u.coeffs) ** 2))
        rel = abs(quad - coeff) / coeff
        check(f"discrete Parseval n={grid.n} (rel err {rel:.2e})", rel <= 1e-12)

    same = True
    for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16), GridSpec(3, 10, 5)):
        rows = to_planes(np.concatenate([_random_field(grid, 30 + i).coeffs for i in range(3)]))
        lattice = to_physical(grid, rows)
        modes = to_spectral(grid, lattice)
        for i in range(3):
            row = slice(i, i + 1)
            for out, transform, arg in ((lattice, to_physical, rows), (modes, to_spectral, lattice)):
                one = transform(grid, arg[:, row])
                same = same and out[:, row].tobytes() == one.tobytes()
    check("sine-matrix transforms: 3 rows of planes equal 3 one-row planes (n = 1, 2, 3)", same)

    grid = GridSpec(2, 12, 6)  # direct sums of u_d phi_d(x_j), phi_d(x) = (2/pi)^(n/2) prod_j sin(d_j x_j)
    u = _random_field(grid, 17)
    d, x = (np.array(list(product(axis, repeat=grid.n))) for axis in (range(1, grid.D + 1), grid.points))
    basis = (2.0 / np.pi) ** (grid.n / 2.0) * np.prod(np.sin(x[:, None] * d[None]), axis=-1)  # one row per point
    lattice = from_planes(to_physical(grid, u.planes)).ravel()
    modes = from_planes(to_spectral(grid, to_planes(lattice.reshape(1, *grid.values_shape)))).ravel()
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
    u1 = single_mode(grid, 1).planes
    noise = np.empty((1, 2, spec.forced.size))  # no forced mode: empty
    stepped = ou_exact_step(u1, spec, nu=1.0, dt=np.log(2.0), noise=noise)
    check("pure decay over dt = ln 2 halves the mode", abs(stepped[0, 0, 0] - 0.5) <= 1e-12)

    sq = GridSpec(1, 64, 64)
    v = _random_field(sq, 13).planes
    before, after = (float(np.sum(np.square(to_physical(sq, c)))) for c in (v, phase_rotation_step(sq, v, 0.37)))
    check("phase rotation preserves lattice L2", abs(after - before) <= 1e-12 * before)

    phase = np.logspace(-12, 12, 100_001)  # the tangent's bits follow this host's SIMD dispatch
    cos, sin = _cos_sin(0.5 * phase)
    err = max(float(np.abs(cos - np.cos(phase)).max()), float(np.abs(sin - np.sin(phase)).max()))
    mod = float(np.abs(np.hypot(cos, sin) - 1.0).max())
    check(
        f"rotation (cos, sin) agree with np.cos/np.sin to 1e-15 and keep the modulus over 1e-12 <= phi <= 1e12"
        f" (err {err:.1e}, |hypot - 1| {mod:.1e})",
        err <= 1e-15 and mod <= 1e-15,
    )

    band = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
    x = _random_field(grid, 14).planes
    n0, n1 = np.random.default_rng(15).normal(size=(2, 1, 1, 2, band.forced.size))  # one step's halves
    halves = ou_exact_step(ou_exact_step(x, band, 0.3, 0.005, n0[0]), band, 0.3, 0.005, n1[0])
    merged = ou_exact_step(x, band, 0.3, 0.01, _merged_noise(band, 0.3, 0.01, False, n0, n1)[0])
    rel = float(np.abs(merged - halves).max() / np.abs(halves).max())
    check(f"one merged OU(dt) equals two OU(dt/2) halves (rel err {rel:.1e})", rel <= 1e-15)

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
    batched = strang_step(strang_step(initial_state(u0, params), spec2, params), spec2, params).c
    single = [initial_state(r, replace(params, stream_id=i)) for i, r in enumerate(rows)]
    single = [strang_step(strang_step(s, spec2, params), spec2, params) for s in single]
    same = all(batched[:, i].tobytes() == s.c.tobytes() for i, s in enumerate(single))
    check("two batched Strang steps n=2 M=16 equal 16 one-row runs", same)

    _, sd, scale = _ou_tables(spec2, params.nu, params.dt / 2)  # over the s forced modes
    s, K = sd.size, ou_block_steps(sd.size)
    u = _random_field(grid2, 40)

    def fresh(step):  # step's two halves, re|im over the forced modes, from a freshly built Philox
        z = Generator(Philox(counter=[0, 0, SUB_OU, step // K], key=[2**64 - 1, 2**63])).standard_normal(4 * s * K)
        return scale * (z[4 * s * (step % K) : 4 * s * (step % K + 1)].reshape(2, 1, 2, s) * sd)  # re0|im0|re1|im1

    def expected(first, last):  # steps first..last from u on fresh halves, closing half of step last pending
        halves = np.stack([fresh(k) for k in range(first - 1, last + 1)])  # (steps + 1, 2, 1, 2, s)
        noise = _merged_noise(spec2, params.nu, params.dt, True, halves[1:, 0], halves[1:, 1], halves[0, 1])
        c = u.planes
        for step_noise in noise:
            c = _strang(c, spec2, params.nu, params.dt, True, step_noise)
        return c, halves[-1, 1]

    same = True
    for step in (2**40, 2**40 + 1):  # the first slot of a block, merged with the last slot of the one before
        stepped = strang_step(State.of(u, (stream,), step), spec2, params).c
        same = same and stepped.tobytes() == expected(step, step)[0].tobytes()
    state = State.of(u, (stream,), 2**40 - 1)  # step 2**40 takes its slot-0 closing half from the held block
    for _ in range(2):
        state = strang_step(state, spec2, params)
    c, pending = expected(2**40 - 1, 2**40)
    closed = _flush(ou_exact_step(c, spec2, params.nu, params.dt / 2, pending))
    same = same and state.c.tobytes() == c.tobytes()
    same = same and _closed(state, spec2, params).u.planes.tobytes() == closed.tobytes()
    check(f"Strang draws equal freshly built Philox blocks over the forced modes, cold and held (K = {K})", same)

    fit = fit_exponent([(0.4, 0.4**-2), (0.2, 0.2**-2), (0.1, 0.1**-2)])
    check("exponent fit oracle (alpha = 2)", abs(fit.alpha - 2.0) <= 1e-12 and fit.r2 >= 1 - 1e-12)

    print(f"selftest: {sum(ok for _, ok in checks)}/{len(checks)} checks passed")
    return all(ok for _, ok in checks)
