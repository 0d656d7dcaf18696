"""Fast invariant self-test: exact identities every healthy checkout must satisfy.

Covers the transform round trip and discrete Parseval identity, the per-axis
transforms against scipy's n-D transform, coefficient
interpolation, norm homogeneity, the pure-decay and stationary limits of the
exact linear step, phase-rotation isometry, addressed draws, the batched ensemble
step against single steps, and the power-law fit oracle.  Runs in a few seconds; the CLI exposes it as ``selftest``.
"""

from __future__ import annotations

from dataclasses import replace
from math import pi

import numpy as np
import scipy.fft as sfft
from numpy.random import Generator, Philox

from .experiments import fit_exponent
from .forcing import NoiseSpec, RngStream
from .integrators import (
    EnsembleState,
    SimParams,
    initial_state,
    ou_exact_step,
    phase_rotation_step,
    single_mode,
    strang_step,
)
from .spectral import (
    GridSpec,
    SpectralField,
    lattice_inner,
    lattice_values,
    mode_coeffs,
    sobolev_norm,
    to_physical,
    to_spectral,
)


def _random_field(grid: GridSpec, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    c = rng.normal(size=grid.coeff_shape) + 1j * rng.normal(size=grid.coeff_shape)
    return SpectralField(grid, c)


def run_selftest(verbose: bool = True) -> bool:
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")

    for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
        u = _random_field(grid, 7)
        back = to_spectral(to_physical(u), grid.D)
        err = float(np.abs(back.coeffs - u.coeffs).max())
        check(f"round trip n={grid.n} (max err {err:.2e})", err <= 1e-12)
        p = to_physical(u)
        quad = lattice_inner(p, p)
        coeff = float(np.sum(np.abs(u.coeffs) ** 2))
        rel = abs(quad - coeff) / coeff
        check(f"discrete Parseval n={grid.n} (rel err {rel:.2e})", rel <= 1e-12)

    grid = GridSpec(2, 32, 16)
    rows = np.stack([_random_field(grid, 30 + i).coeffs for i in range(3)])
    padded = np.zeros((3, *grid.values_shape), dtype=np.complex128)
    padded[:, : grid.D, : grid.D] = rows
    lattice = lattice_values(grid, rows)
    ref = sfft.dstn(padded, type=1, axes=(1, 2)) * (2.0 * pi) ** (-grid.n / 2.0)
    same = lattice.tobytes() == ref.tobytes()
    modes = np.ascontiguousarray(mode_coeffs(grid, lattice, grid.D))
    full = sfft.dstn(lattice, type=1, axes=(1, 2))[:, : grid.D, : grid.D]
    scale = (2.0 * pi) ** (grid.n / 2.0) / (2.0 * (grid.N + 1)) ** grid.n
    same = same and modes.tobytes() == np.ascontiguousarray(full * scale).tobytes()
    check("per-axis DST-I equals scipy dstn (n=2 N=32 D=16, M=3)", same)

    grid = GridSpec(1, 64, 32)
    ok = True
    for seed in range(200):
        u = _random_field(grid, seed)
        for l, m in ((1, 2), (1, 3), (2, 3)):
            lhs = sobolev_norm(u, l) ** 2
            rhs = (sobolev_norm(u, 0) ** 2) ** (1 - l / m) * (sobolev_norm(u, m) ** 2) ** (l / m)
            ok = ok and (lhs - rhs) <= 1e-12 * rhs
    check("coefficient interpolation (200 random fields)", ok)

    u = _random_field(grid, 11)
    c = 0.3 - 1.7j
    scaled = SpectralField(grid, c * u.coeffs)
    hom = abs(sobolev_norm(scaled, 1.5) - abs(c) * sobolev_norm(u, 1.5))
    check("norm homogeneity", hom <= 1e-9 * sobolev_norm(u, 1.5))
    check("Poincare ||u||_1 >= ||u||_0", sobolev_norm(u, 1) >= sobolev_norm(u, 0))

    spec = NoiseSpec.band(grid, [0.0])
    u1 = single_mode(grid, 1)
    stepped = ou_exact_step(u1, spec, nu=1.0, dt=np.log(2.0), rng=RngStream(0, 0))
    check("pure decay over dt = ln 2 halves the mode", abs(stepped.coeffs[0] - 0.5) <= 1e-12)

    sq = GridSpec(1, 64, 64)
    v = _random_field(sq, 13)
    rotated = phase_rotation_step(v, 0.37)
    before = lattice_inner(to_physical(v), to_physical(v))
    after = lattice_inner(to_physical(rotated), to_physical(rotated))
    check("phase rotation preserves lattice L2", abs(after - before) <= 1e-12 * before)

    stream = RngStream(2**64 - 1, 2**63)  # an address at the uint64 extremes
    stream.normals(3, 0, 7)  # leave the generator mid-block before re-addressing it
    fresh = Generator(Philox(counter=[0, 0, 1, 2**40], key=[2**64 - 1, 2**63])).standard_normal(64)
    got = stream.normals(2**40, 1, 64)
    check("addressed draw equals a freshly built Philox", bool(np.array_equal(got, fresh)))

    grid2 = GridSpec(2, 32, 16)
    spec2 = NoiseSpec.band(grid2, [1.0, 1.0, 1.0])
    params = SimParams(nu=0.5, dt=0.01, T=0.01, seed=3)
    rows = [
        initial_state(_random_field(grid2, 20 + i), replace(params, stream_id=i)) for i in range(16)
    ]
    batched = strang_step(EnsembleState.stack(rows), spec2, params).u.coeffs
    single = np.stack([strang_step(r, spec2, params).u.coeffs for r in rows])
    check("batched Strang step n=2 M=16 equals 16 single steps", batched.tobytes() == single.tobytes())

    fit = fit_exponent([(0.4, 0.4**-2), (0.2, 0.2**-2), (0.1, 0.1**-2)])
    check("exponent fit oracle (alpha = 2)", abs(fit.alpha - 2.0) <= 1e-12 and fit.r2 >= 1 - 1e-12)

    good = all(ok for _, ok in checks)
    if verbose:
        print(f"selftest: {sum(ok for _, ok in checks)}/{len(checks)} checks passed")
    return good
