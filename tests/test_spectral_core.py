"""Spectral core: transforms against direct-summation oracles, norm identities."""

import threading
import warnings
from functools import lru_cache
from itertools import product
from math import pi, sqrt

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_lab import spectral
from cascade_lab.experiments import Observable, ensemble_run
from cascade_lab.forcing import NoiseSpec
from cascade_lab.integrators import SimParams, constrained_profile, zero_field
from cascade_lab.spectral import (
    GridSpec,
    SpectralField,
    _along,
    _axis_table,
    cm_norm,
    field_from_bytes,
    field_to_bytes,
    from_planes,
    parts,
    shell_energies,
    sobolev_norm,
    sup_norm,
    take_rows,
    to_physical,
    to_planes,
    to_spectral,
)
from oracles import basis_eval, lattice_inner


def random_field(grid: GridSpec, seed: int = 0, scale: float = 1.0) -> SpectralField:
    """One row of complex Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    shape = (1, *grid.coeff_shape)
    return SpectralField(grid, scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def eval_direct(u: SpectralField) -> np.ndarray:
    """O(N^2)-per-axis oracle: evaluate sum_d u_d phi_d on the lattice by explicit matrices, per row."""
    grid = u.grid
    x = grid.points[:, None]
    d = np.arange(1, grid.D + 1)[None, :]
    mat = sqrt(2.0 / pi) * np.sin(d * x)  # (N, D) per axis
    vals = u.coeffs
    for ax in range(1, grid.n + 1):
        vals = np.moveaxis(np.tensordot(mat, np.moveaxis(vals, ax, 0), axes=(1, 0)), 0, ax)
    return vals


def project_direct(grid: GridSpec, vals: np.ndarray, D: int) -> np.ndarray:
    """Quadrature oracle: u_d = (pi/(N+1))^n * sum_j values_j phi_d(x_j), per row."""
    x = grid.points[:, None]
    d = np.arange(1, D + 1)[None, :]
    mat = sqrt(2.0 / pi) * np.sin(x * d).T  # (D, N) per axis
    for ax in range(1, grid.n + 1):
        vals = np.moveaxis(np.tensordot(mat, np.moveaxis(vals, ax, 0), axes=(1, 0)), 0, ax)
    return grid.quadrature_weight * vals


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 64, 32)
        with pytest.raises(ValueError):
            GridSpec(1, 3, 2)
        with pytest.raises(ValueError):
            GridSpec(1, 64, 65)
        with pytest.raises(ValueError):
            GridSpec(1, 64, 0)

    def test_anti_alias_margin_not_enforced(self):
        assert GridSpec(1, 48, 32).coeff_shape == (32,)  # N < 2D is legal

    def test_points_interior(self):
        x = GridSpec(1, 8, 4).points
        assert np.all(x > 0) and np.all(x < pi)
        assert x[0] == pytest.approx(pi / 9)


class TestBasisEval:
    def test_first_mode_at_midpoint(self):
        assert basis_eval(1, pi / 2) == pytest.approx(sqrt(2 / pi))

    def test_second_mode_node(self):
        assert basis_eval(2, pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_2d_product(self):
        assert basis_eval((1, 1), (pi / 2, pi / 2)) == pytest.approx(2 / pi)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            basis_eval(0, 1.0)
        with pytest.raises(ValueError):
            basis_eval((1, 2), (1.0,))


class TestTransforms:
    def test_single_mode_is_sampled_basis(self):
        grid = GridSpec(1, 16, 8)
        u = SpectralField(grid, np.eye(1, 8, 2, dtype=complex))  # mode d=3
        expected = np.array([basis_eval(3, x) for x in grid.points])
        np.testing.assert_allclose(to_physical(grid, u.coeffs)[0].real, expected, atol=1e-14)

    def test_zero_maps_to_zero(self):
        grid = GridSpec(1, 16, 8)
        assert np.all(to_physical(grid, zero_field(grid).coeffs) == 0)
        assert np.all(to_spectral(grid, np.zeros((1, 16), dtype=complex)) == 0)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16)])
    def test_to_physical_matches_direct_summation(self, grid):
        u = random_field(grid, seed=3)
        np.testing.assert_allclose(to_physical(grid, u.coeffs), eval_direct(u), atol=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16)])
    def test_round_trip(self, grid):
        u = random_field(grid, seed=4)
        back = to_spectral(grid, to_physical(grid, u.coeffs))
        assert np.abs(back - u.coeffs).max() <= 1e-12

    def test_round_trip_at_n256(self):
        grid = GridSpec(1, 256, 128)
        u = random_field(grid, seed=5)
        back = to_spectral(grid, to_physical(grid, u.coeffs))
        assert np.abs(back - u.coeffs).max() <= 1e-12

    def test_first_basis_function_projects_to_e1(self):
        grid = GridSpec(1, 64, 32)
        values = np.array([[basis_eval(1, x) for x in grid.points]], dtype=complex)
        (coeffs,) = to_spectral(grid, values)
        (oracle,) = project_direct(grid, values, grid.D)
        np.testing.assert_allclose(coeffs, oracle, atol=1e-12)
        assert abs(coeffs[0] - 1.0) <= 1e-12
        assert np.abs(coeffs[1:]).max() <= 1e-12

    def test_energy_above_truncation_is_discarded(self):
        grid = GridSpec(1, 64, 32)
        high = GridSpec(1, 64, 64)
        values = to_physical(high, np.eye(1, 64, 32, dtype=complex))  # mode 33
        assert np.abs(to_spectral(grid, values)).max() <= 1e-12

    def test_parseval(self):
        for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
            u = random_field(grid, seed=6)
            p = to_physical(grid, u.coeffs)
            (quad,) = lattice_inner(grid, p, p)
            coeff = float(np.sum(np.abs(u.coeffs) ** 2))
            assert abs(quad - coeff) <= 1e-12 * coeff

    def test_lattice_inner_answers_per_row(self):
        # Two rows give two inner products, each that of its own one-row fields.
        for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
            us = [random_field(grid, seed=s) for s in (7, 8)]
            p = to_physical(grid, np.concatenate([u.coeffs for u in us]))
            q = to_physical(grid, np.concatenate([u.coeffs[:, ::-1] for u in us]))
            both = lattice_inner(grid, p, q)
            assert both.shape == (2,)
            for i in range(2):
                row = slice(i, i + 1)
                assert both[i] == lattice_inner(grid, p[row], q[row])[0]

    def test_concurrent_transforms_match_serial(self):
        grid = GridSpec(1, 64, 32)
        fields = [random_field(grid, seed=s) for s in range(8)]
        serial = [to_spectral(grid, to_physical(grid, u.coeffs)) for u in fields]
        results = [None] * len(fields)

        def work(i):
            results[i] = to_spectral(grid, to_physical(grid, fields[i].coeffs))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for a, b in zip(serial, results):
            assert np.array_equal(a, b)


def dstn_to_physical(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Reference: one dstn over the coefficient block zero-padded to the lattice."""
    buf = np.zeros(coeffs.shape[: coeffs.ndim - grid.n] + grid.values_shape, dtype=np.complex128)
    buf[(..., *(slice(0, grid.D),) * grid.n)] = coeffs
    return sfft.dstn(buf, type=1, axes=tuple(range(-grid.n, 0))) * (2.0 * pi) ** (-grid.n / 2.0)


def dstn_to_spectral(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Reference: one dstn over the lattice block, then truncation to {1..D}^n."""
    scale = (2.0 * pi) ** (grid.n / 2.0) / (2.0 * (grid.N + 1)) ** grid.n
    full = sfft.dstn(values, type=1, axes=tuple(range(-grid.n, 0)))
    return full[(..., *(slice(0, grid.D),) * grid.n)] * scale


TRANSFORM_GRIDS = [
    GridSpec(1, 64, 32), GridSpec(1, 12, 12), GridSpec(1, 9, 4),
    GridSpec(2, 32, 16), GridSpec(2, 12, 12), GridSpec(2, 9, 4),
    GridSpec(3, 12, 5), GridSpec(3, 6, 6),
]


def random_block(rng, shape):
    """Complex entries whose magnitudes span ten decades."""
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-5, 5, size=shape)


def assert_close_to(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestTransformHelpers:
    """The sine-matrix transforms against one dstn over the whole block, and row by row."""

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("rows", [(), (3,), (5,)])
    def test_bits_equal_dstn(self, grid, rows):
        """Within 1e-13 of dstn: the sine-matrix products are not bit-identical to it."""
        rng = np.random.default_rng(grid.n * 100 + grid.N + len(rows))
        coeffs = random_block(rng, rows + grid.coeff_shape)
        assert_close_to(to_physical(grid, coeffs), dstn_to_physical(grid, coeffs))
        values = random_block(rng, rows + grid.values_shape)
        assert_close_to(to_spectral(grid, values), dstn_to_spectral(grid, values))

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 16, 17])
    def test_rows_equal_single_rows(self, grid, M):
        # On planes, the program's layout: row i of a block is the transform of row i alone.
        rng = np.random.default_rng(grid.n * 100 + grid.N + M)
        coeffs = to_planes(grid, random_block(rng, (M,) + grid.coeff_shape))
        values = to_planes(grid, random_block(rng, (M,) + grid.values_shape))
        for transform, block in ((to_physical, coeffs), (to_spectral, values)):
            out = transform(grid, block)
            for i in range(M):
                row = slice(i, i + 1)
                assert take_rows(grid, out, row).tobytes() == transform(grid, take_rows(grid, block, row)).tobytes()

    def test_wrappers_reject_non_finite_results(self):
        # An overflowing lattice sum makes the sup non-finite and an overflowing norm reads inf,
        # both without warnings.
        grid = GridSpec(2, 8, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowing = SpectralField(grid, np.full((1, *grid.coeff_shape), 1e308, dtype=complex))
            assert not np.isfinite(sup_norm(overflowing)).any()
            huge = SpectralField(grid, np.full((1, *grid.coeff_shape), 1e160, dtype=complex))
            assert sobolev_norm(huge, 1).tolist() == [np.inf]

    @pytest.mark.parametrize("grid", [GridSpec(2, 8, 4), GridSpec(1, 16, 8)], ids=str)
    def test_sup_of_an_overflowing_row_is_inf(self, grid):
        # At n = 2 the first axis's products leave +inf and -inf, which the second adds to NaN:
        # the sup still reads inf, so a max over records stays inf.  The other row is untouched.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowing = SpectralField(grid, np.full((1, *grid.coeff_shape), 1e308, dtype=complex))
            assert sup_norm(overflowing).tolist() == [np.inf]
            assert cm_norm(overflowing, 0).tolist() == [np.inf]
            both = SpectralField(grid, np.concatenate([overflowing.coeffs, np.full_like(overflowing.coeffs, 1e-3)]))
            sup = sup_norm(both)
            assert sup[0] == np.inf and np.isfinite(sup[1])


class TestNorms:
    def test_single_mode_norm(self):
        grid = GridSpec(1, 16, 8)
        for d in (1, 3, 7):
            u = SpectralField(grid, np.eye(1, 8, d - 1, dtype=complex))
            for m in (0.0, 1.0, 2.5):
                assert sobolev_norm(u, m) == pytest.approx(d**m, rel=1e-14)

    def test_zero_field(self):
        u = zero_field(GridSpec(1, 16, 8))
        assert sobolev_norm(u, 2) == 0.0
        assert sup_norm(u) == 0.0
        assert cm_norm(u, 3) == 0.0

    def test_two_mode_arithmetic(self):
        grid = GridSpec(1, 16, 8)
        c = np.zeros((1, 8), dtype=complex)
        c[0, 0] = 1.0
        c[0, 1] = 1.0
        assert sobolev_norm(SpectralField(grid, c), 2) == pytest.approx(sqrt(17))

    def test_fractional_order(self):
        grid = GridSpec(1, 16, 8)
        c = np.zeros((1, 8), dtype=complex)
        c[0, 2] = 2.0  # d = 3
        assert sobolev_norm(SpectralField(grid, c), 0.5) == pytest.approx(2 * 3**0.5)

    def test_rejects_negative_order(self):
        u = zero_field(GridSpec(1, 16, 8))
        with pytest.raises(ValueError):
            sobolev_norm(u, -1)


class TestSupNorm:
    def test_first_mode_close_to_continuum(self):
        grid = GridSpec(1, 64, 32)
        u = SpectralField(grid, np.eye(1, 32, 0, dtype=complex))
        expected = max(abs(basis_eval(1, x)) for x in grid.points)
        assert sup_norm(u) == pytest.approx(expected, rel=1e-13)
        # for N >= 63 the lattice max sits within grid resolution of the true sup
        assert sup_norm(u) == pytest.approx(sqrt(2 / pi), rel=2e-3)

    def test_modulus_invariance(self):
        grid = GridSpec(1, 64, 32)
        u = SpectralField(grid, np.eye(1, 32, 0, dtype=complex))
        iu = SpectralField(grid, 1j * u.coeffs)
        assert sup_norm(iu) == pytest.approx(sup_norm(u), rel=1e-14)


class TestCmNorm:
    def test_order_zero_is_sup(self):
        grid = GridSpec(1, 64, 32)
        u = random_field(grid, seed=8)
        assert cm_norm(u, 0) == pytest.approx(sup_norm(u), rel=1e-13)

    def test_first_mode_derivative(self):
        grid = GridSpec(1, 64, 32)
        u = SpectralField(grid, np.eye(1, 32, 0, dtype=complex))
        x = grid.points
        oracle = max(
            np.abs(sqrt(2 / pi) * np.sin(x)).max(),
            np.abs(sqrt(2 / pi) * np.cos(x)).max(),  # pointwise differentiation of phi_1
        )
        assert cm_norm(u, 1) == pytest.approx(oracle, rel=1e-13)

    def test_mixed_derivative_oracle_2d(self):
        grid = GridSpec(2, 16, 6)
        u = random_field(grid, seed=9)
        x = grid.points
        d = np.arange(1, 7)
        best = 0.0
        for bx in range(3):
            for by in range(3 - bx):
                per_x = (d**bx)[:, None] * (
                    np.sin(np.outer(d, x)) if bx % 2 == 0 else np.cos(np.outer(d, x))
                )
                per_y = (d**by)[:, None] * (
                    np.sin(np.outer(d, x)) if by % 2 == 0 else np.cos(np.outer(d, x))
                )
                vals = (2 / pi) * np.einsum("ab,ai,bj->ij", u.coeffs[0], per_x, per_y)
                best = max(best, np.abs(vals).max())
        assert cm_norm(u, 2) == pytest.approx(best, rel=1e-12)

    def test_rejects_fractional_order(self):
        u = zero_field(GridSpec(1, 16, 8))
        with pytest.raises(ValueError):
            cm_norm(u, 1.5)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16), GridSpec(2, 9, 9),
                                      GridSpec(3, 10, 5)], ids=str)
    def test_equals_per_beta_tensordot(self, grid):
        rng = np.random.default_rng(grid.n * 7 + grid.N)
        shape = (3,) + grid.coeff_shape
        base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            batch = SpectralField(grid, scale * base)
            for i in range(3):  # rows of a batched field, as the recorder passes them
                u = SpectralField(grid, batch.coeffs[i : i + 1])
                for m in range(4):
                    assert cm_norm(u, m).tolist() == [cm_norm_per_beta(u, m)]

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16), GridSpec(3, 10, 5)], ids=str)
    def test_rows_equal_single_rows(self, grid):
        rng = np.random.default_rng(grid.n * 11 + grid.N)
        batch = SpectralField(grid, random_block(rng, (5,) + grid.coeff_shape))
        for m in range(4):
            got = cm_norm(batch, m)
            assert got.shape == (5,)
            assert got.tolist() == [cm_norm(SpectralField(grid, batch.coeffs[i : i + 1]), m)[0] for i in range(5)]


def cm_norm_per_beta(u: SpectralField, m: int) -> float:
    """Reference for a one-row field: every beta evaluated from the planes on its own, one real product per axis."""
    grid = u.grid
    best = 0.0
    for beta in product(range(m + 1), repeat=grid.n):
        if sum(beta) > m:
            continue
        vals = to_planes(grid, u.coeffs)
        for ax in (grid.n - 1, *range(grid.n - 1)):  # the transforms' axis order
            b = beta[ax]
            vals = _along(vals, ax, grid.n, _axis_table(grid, "cos" if b % 2 else "sin", b))  # d^b folded in
        re, im = parts(grid, vals[..., : grid.N])
        best = max(best, float(np.sqrt((re**2 + im**2).max())))
    return best


# --- the complex formulation the real products replaced, kept as a reference ------------------


def complex_matrices(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Complex128 copies: (N x D) sine, its transpose, (D x N) projection, its transpose, (N x D) cosine."""
    angle = grid.points[:, None] * np.arange(1, grid.D + 1)[None, :]
    sin_m, cos_m = sqrt(2.0 / pi) * np.sin(angle), sqrt(2.0 / pi) * np.cos(angle)
    proj = (pi / (grid.N + 1)) * sin_m.T
    return tuple(np.array(a, dtype=np.complex128, order="C") for a in (sin_m, sin_m.T, proj, proj.T, cos_m))


def complex_per_axis(grid: GridSpec, a: np.ndarray, mat: np.ndarray, mat_t: np.ndarray) -> np.ndarray:
    """``mat`` along each of the last n axes: a @ mat_t, mat @ a @ mat_t, or rotating axes at n >= 3."""
    if grid.n == 1:
        return (a[..., None, :] @ mat_t)[..., 0, :]
    if grid.n == 2:
        return mat @ a @ mat_t
    lead = a.shape[: a.ndim - grid.n]
    for _ in range(grid.n):
        a = (mat @ a.reshape(*lead, mat.shape[1], -1)).swapaxes(-1, -2)
    return a.reshape(lead + (mat.shape[0],) * grid.n)


def complex_cm_norm(grid: GridSpec, coeffs: np.ndarray, m: int) -> np.ndarray:
    """C^m with each stage's grid axis transposed to the front and multiplied by a complex matrix."""
    sin_m, *_, cos_m = complex_matrices(grid)
    d_axis = np.arange(1, grid.D + 1, dtype=float)
    n = grid.n
    lead = coeffs.shape[: coeffs.ndim - n]
    k = len(lead)

    def sup_from(vals, ax, budget):
        if ax == n:
            return np.abs(vals).reshape(*lead, -1).max(axis=-1)
        perm = (*range(k), k + ax, *(k + i for i in range(n) if i != ax))
        inv = tuple(perm.index(i) for i in range(k + n))
        best = np.zeros(lead)
        for b in range(budget + 1):
            moved = (vals * (d_axis**b).reshape((-1,) + (1,) * (n - 1 - ax)) if b else vals).transpose(perm)
            out = (sin_m if b % 2 == 0 else cos_m) @ moved.reshape(*lead, grid.D, -1)
            out = out.reshape(lead + (grid.N,) + moved.shape[k + 1 :]).transpose(inv)
            best = np.maximum(best, sup_from(out, ax + 1, budget - b))
        return best

    return sup_from(coeffs, 0, m)


def assert_within_1e15(got, ref) -> None:
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestRealProducts:
    """The real products on planes against the complex products they replaced."""

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("rows", [(), (3,), (17,)])
    def test_agree_with_complex_products(self, grid, rows):
        rng = np.random.default_rng(grid.n * 1000 + grid.N * 10 + len(rows))
        coeffs = random_block(rng, rows + grid.coeff_shape)
        ref = complex_per_axis(grid, coeffs, *complex_matrices(grid)[:2])
        assert_within_1e15(from_planes(grid, to_physical(grid, to_planes(grid, coeffs))), ref)
        values = random_block(rng, rows + grid.values_shape)
        ref = complex_per_axis(grid, values, *complex_matrices(grid)[2:4])
        assert_within_1e15(from_planes(grid, to_spectral(grid, to_planes(grid, values))), ref)
        u = SpectralField(grid, coeffs.reshape(-1, *grid.coeff_shape))  # no leading axis: one row
        for m in range(4):
            assert_within_1e15(cm_norm(u, m), complex_cm_norm(grid, u.coeffs, m))

    def test_tables_are_real_and_n1_builds_no_interleaved_table(self, monkeypatch):
        """Every table a nonlinear run with C^2 builds is float64: the matrix, and its zero-padded transpose.

        No table interleaves real and imaginary columns, at n = 1 or any n: the parts are planes.
        """
        built = []

        def record(grid, kind, power):
            table = build(grid, kind, power)
            built.append((grid.n, kind, power, table))
            return table

        build = spectral._axis_table.__wrapped__
        monkeypatch.setattr(spectral, "_axis_table", lru_cache(maxsize=None)(record))
        for grid in (GridSpec(1, 16, 8), GridSpec(2, 12, 6)):
            params = SimParams(nu=0.5, dt=0.01, T=0.05)
            u0 = constrained_profile(grid, params.nu)
            observables = (Observable("sup_cm", 2.0), Observable("sup_inf"))
            spec = NoiseSpec.from_profile(grid, "band:1,1,1")
            ensemble_run(grid, spec, params, 2, lambda sid: u0, observables)
        assert sorted((n, kind, power) for n, kind, power, _ in built) == [  # C^2: d^0 sin, d^1 cos, d^2 sin
            (n, kind, power) for n in (1, 2) for kind, power in (("cos", 1), ("proj", 0), ("sin", 0), ("sin", 2))
        ]
        for n, kind, power, (left, right) in built:
            for table in (left, right):
                assert table.dtype == np.float64 and table.flags.c_contiguous and not table.flags.writeable
            J, K = left.shape  # the matrix, then its transpose and zero columns up to a multiple of 8
            N, D = (16, 8) if n == 1 else (12, 6)
            assert (J, K) == ((D, N) if kind == "proj" else (N, D))
            assert right.shape == (K, -(-J // 8) * 8) and not right[:, J:].any()
            assert np.array_equal(right[:, :J], left.T)
            if power:  # column d of the matrix times d^power
                assert np.array_equal(left, build(GridSpec(n, N, D), kind, 0)[0] * np.arange(1, D + 1.0) ** power)
        n1 = {kind: left for n, kind, power, (left, _) in built if n == 1 and not power}
        assert np.array_equal(n1["sin"], build(GridSpec(2, 16, 8), "sin", 0)[0])


class TestSpectrumShells:
    """The shell spectrum E_k of ``shell_energies``, one row of shells per field row."""

    def test_single_mode(self):
        grid = GridSpec(1, 16, 8)
        u = SpectralField(grid, np.eye(1, 8, 2, dtype=complex))  # d = 3
        (shells,) = shell_energies(grid, u.coeffs)
        assert shells[3 - 1] == pytest.approx(1.0)
        assert np.delete(shells, 3 - 1).sum() == 0.0

    def test_zero_field(self):
        grid = GridSpec(1, 16, 8)
        assert np.all(shell_energies(grid, zero_field(grid).coeffs) == 0.0)

    def test_2d_diagonal_mode_in_first_shell(self):
        grid = GridSpec(2, 8, 4)
        c = np.zeros((1, 4, 4), dtype=complex)
        c[0, 0, 0] = 1.0  # |d| = sqrt(2) in [1, 2)
        assert shell_energies(grid, c)[0, 0] == pytest.approx(1.0)

    def test_shellsum_is_l2_squared(self):
        for grid in (GridSpec(1, 32, 16), GridSpec(2, 16, 8)):
            u = random_field(grid, seed=10)
            total = shell_energies(grid, u.coeffs).sum(axis=1)
            assert total == pytest.approx(sobolev_norm(u, 0) ** 2, rel=1e-13)

    def test_shell_count(self):
        grid = GridSpec(2, 16, 8)
        shells = shell_energies(grid, random_field(grid, seed=11).coeffs)
        assert shells.shape == (1, int(np.ceil(np.sqrt(2) * 8)))  # shells 1..ceil(sqrt(n) D)


# --- property tests -----------------------------------------------------------

coeff_arrays = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(seed=coeff_arrays, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_round_trip_property(seed, scale):
    grid = GridSpec(1, 32, 16)
    u = random_field(grid, seed=seed, scale=scale)
    back = to_spectral(grid, to_physical(grid, u.coeffs))
    assert np.abs(back - u.coeffs).max() <= 1e-12 * max(1.0, scale)


@settings(max_examples=50, deadline=None)
@given(seed=coeff_arrays, l=st.sampled_from([1, 2]), m=st.sampled_from([2, 3]))
def test_interpolation_property(seed, l, m):
    if l >= m:
        m = l + 1
    grid = GridSpec(1, 32, 16)
    u = random_field(grid, seed=seed)
    lhs = sobolev_norm(u, l) ** 2
    rhs = (sobolev_norm(u, 0) ** 2) ** (1 - l / m) * (sobolev_norm(u, m) ** 2) ** (l / m)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=coeff_arrays,
    re=st.floats(min_value=-10, max_value=10),
    im=st.floats(min_value=-10, max_value=10),
)
def test_homogeneity_property(seed, re, im):
    grid = GridSpec(1, 32, 16)
    u = random_field(grid, seed=seed)
    c = complex(re, im)
    scaled = SpectralField(grid, c * u.coeffs)
    for m in (0.0, 1.0, 2.5):
        assert sobolev_norm(scaled, m) == pytest.approx(abs(c) * sobolev_norm(u, m), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=coeff_arrays)
def test_poincare_property(seed):
    grid = GridSpec(2, 16, 8)
    u = random_field(grid, seed=seed)
    assert sobolev_norm(u, 1) >= sobolev_norm(u, 0) * (1 - 1e-14)


# --- serialization ---------------------------------------------------------------


class TestSnapshots:
    def test_bit_exact_round_trip(self):
        u = random_field(GridSpec(2, 16, 8), seed=12)
        back = field_from_bytes(field_to_bytes(u))
        assert back.grid == u.grid
        assert np.array_equal(back.coeffs, u.coeffs)

    def test_rejects_a_field_of_several_rows(self):
        # Two rows would write a payload that the reader rejects as the wrong size.
        grid = GridSpec(1, 16, 8)
        u = SpectralField(grid, np.concatenate([random_field(grid, seed=s).coeffs for s in (16, 17)]))
        with pytest.raises(ValueError, match="one row"):
            field_to_bytes(u)

    def test_header_size(self):
        u = random_field(GridSpec(1, 16, 8), seed=14)
        buf = field_to_bytes(u)
        assert len(buf) == 32 + 8 * 16  # header + complex128 payload

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            field_from_bytes(b"not a snapshot at all")
        u = random_field(GridSpec(1, 16, 8), seed=15)
        buf = field_to_bytes(u)
        with pytest.raises(ValueError):
            field_from_bytes(buf[:-3])


class TestFieldValidation:
    def test_rejects_nan(self):
        grid = GridSpec(1, 16, 8)
        c = np.zeros((1, 8), dtype=complex)
        c[0, 0] = np.nan
        with pytest.raises(ValueError):
            SpectralField(grid, c)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SpectralField(GridSpec(1, 16, 8), np.zeros((1, 9), dtype=complex))

    @pytest.mark.parametrize("grid", [GridSpec(1, 16, 8), GridSpec(2, 8, 4)], ids=str)
    def test_every_field_has_a_row_axis(self, grid):
        with pytest.raises(ValueError, match="not rows"):
            SpectralField(grid, np.zeros(grid.coeff_shape, dtype=complex))
        with pytest.raises(ValueError, match="not rows"):  # two row axes
            SpectralField(grid, np.zeros((1, 1, *grid.coeff_shape), dtype=complex))
        u = random_field(grid, seed=18)
        assert to_physical(grid, u.coeffs).shape == (1, *grid.values_shape)
        assert to_spectral(grid, to_physical(grid, u.coeffs)).shape == (1, *grid.coeff_shape)

    def test_norms_return_one_value_per_row_at_m_1(self):
        grid = GridSpec(2, 8, 4)
        u = random_field(grid, seed=19)
        for norm in (sobolev_norm(u, 2.0), sup_norm(u), cm_norm(u, 2)):
            assert isinstance(norm, np.ndarray) and norm.shape == (1,)
        assert sobolev_norm(u, (0.0, 1.0, 2.0)).shape == (3, 1)  # (orders, M)
        assert cm_norm(u, (1, 2)).shape == (2, 1)
