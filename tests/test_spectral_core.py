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
    NonFiniteFieldError,
    PhysicalField,
    SpectralField,
    _along,
    _axis_table,
    basis_eval,
    cm_norm,
    field_from_bytes,
    field_to_bytes,
    lattice_inner,
    lattice_values,
    mode_coeffs,
    shell_energies,
    sobolev_norm,
    sup_norm,
    to_physical,
    to_spectral,
)


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


def project_direct(p: PhysicalField, D: int) -> np.ndarray:
    """Quadrature oracle: u_d = (pi/(N+1))^n * sum_j values_j phi_d(x_j), per row."""
    grid = p.grid
    x = grid.points[:, None]
    d = np.arange(1, D + 1)[None, :]
    mat = sqrt(2.0 / pi) * np.sin(x * d).T  # (D, N) per axis
    vals = p.values
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
        np.testing.assert_allclose(to_physical(u).values[0].real, expected, atol=1e-14)

    def test_zero_maps_to_zero(self):
        grid = GridSpec(1, 16, 8)
        assert np.all(to_physical(zero_field(grid)).values == 0)
        p = PhysicalField(grid, np.zeros((1, 16), dtype=complex))
        assert np.all(to_spectral(p).coeffs == 0)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16)])
    def test_to_physical_matches_direct_summation(self, grid):
        u = random_field(grid, seed=3)
        np.testing.assert_allclose(to_physical(u).values, eval_direct(u), atol=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16)])
    def test_round_trip(self, grid):
        u = random_field(grid, seed=4)
        back = to_spectral(to_physical(u), grid.D)
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12

    def test_round_trip_at_n256(self):
        grid = GridSpec(1, 256, 128)
        u = random_field(grid, seed=5)
        back = to_spectral(to_physical(u), grid.D)
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12

    def test_first_basis_function_projects_to_e1(self):
        grid = GridSpec(1, 64, 32)
        p = PhysicalField(grid, np.array([[basis_eval(1, x) for x in grid.points]], dtype=complex))
        (coeffs,) = to_spectral(p).coeffs
        (oracle,) = project_direct(p, grid.D)
        np.testing.assert_allclose(coeffs, oracle, atol=1e-12)
        assert abs(coeffs[0] - 1.0) <= 1e-12
        assert np.abs(coeffs[1:]).max() <= 1e-12

    def test_energy_above_truncation_is_discarded(self):
        grid = GridSpec(1, 64, 32)
        high = GridSpec(1, 64, 64)
        p = to_physical(SpectralField(high, np.eye(1, 64, 32, dtype=complex)))  # mode 33
        retained = to_spectral(PhysicalField(grid, p.values), 32)
        assert np.abs(retained.coeffs).max() <= 1e-12

    def test_to_spectral_rejects_bad_truncation(self):
        grid = GridSpec(1, 16, 8)
        p = PhysicalField(grid, np.zeros((1, 16), dtype=complex))
        with pytest.raises(ValueError):
            to_spectral(p, 17)

    def test_parseval(self):
        for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
            u = random_field(grid, seed=6)
            p = to_physical(u)
            quad = lattice_inner(p, p)
            coeff = float(np.sum(np.abs(u.coeffs) ** 2))
            assert abs(quad - coeff) <= 1e-12 * coeff

    def test_concurrent_transforms_match_serial(self):
        grid = GridSpec(1, 64, 32)
        fields = [random_field(grid, seed=s) for s in range(8)]
        serial = [to_spectral(to_physical(u), grid.D).coeffs for u in fields]
        results = [None] * len(fields)

        def work(i):
            results[i] = to_spectral(to_physical(fields[i]), grid.D).coeffs

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for a, b in zip(serial, results):
            assert np.array_equal(a, b)


def dstn_lattice_values(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Reference: one dstn over the coefficient block zero-padded to the lattice."""
    buf = np.zeros(coeffs.shape[: coeffs.ndim - grid.n] + grid.values_shape, dtype=np.complex128)
    buf[(..., *(slice(0, grid.D),) * grid.n)] = coeffs
    return sfft.dstn(buf, type=1, axes=tuple(range(-grid.n, 0))) * (2.0 * pi) ** (-grid.n / 2.0)


def dstn_mode_coeffs(grid: GridSpec, values: np.ndarray, D: int) -> np.ndarray:
    """Reference: one dstn over the lattice block, then truncation to {1..D}^n."""
    scale = (2.0 * pi) ** (grid.n / 2.0) / (2.0 * (grid.N + 1)) ** grid.n
    full = sfft.dstn(values, type=1, axes=tuple(range(-grid.n, 0)))
    return full[(..., *(slice(0, D),) * grid.n)] * scale


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
    """The sine-matrix helpers against one dstn over the whole block, and row by row."""

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("rows", [(), (3,), (5,)])
    def test_bits_equal_dstn(self, grid, rows):
        """Within 1e-13 of dstn: the sine-matrix products are not bit-identical to it."""
        rng = np.random.default_rng(grid.n * 100 + grid.N + len(rows))
        coeffs = random_block(rng, rows + grid.coeff_shape)
        assert_close_to(lattice_values(grid, coeffs), dstn_lattice_values(grid, coeffs))
        values = random_block(rng, rows + grid.values_shape)
        for D in sorted({grid.D, grid.N}):
            assert_close_to(mode_coeffs(grid, values, D), dstn_mode_coeffs(grid, values, D))

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("M", [1, 3, 5, 17])
    def test_rows_equal_single_rows(self, grid, M):
        rng = np.random.default_rng(grid.n * 100 + grid.N + M)
        coeffs = random_block(rng, (M,) + grid.coeff_shape)
        values = random_block(rng, (M,) + grid.values_shape)
        lattice = lattice_values(grid, coeffs)
        for i in range(M):
            assert lattice[i].tobytes() == lattice_values(grid, coeffs[i]).tobytes()
        for D in sorted({grid.D, grid.N}):
            modes = mode_coeffs(grid, values, D)
            for i in range(M):
                assert modes[i].tobytes() == mode_coeffs(grid, values[i], D).tobytes()

    def test_wrappers_reject_non_finite_results(self):
        # Overflowing transforms raise and an overflowing norm reads inf, all without warnings.
        grid = GridSpec(2, 8, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFieldError):  # finite coefficients, overflowing lattice sum
                to_physical(SpectralField(grid, np.full((1, *grid.coeff_shape), 1e308, dtype=complex)))
            with pytest.raises(NonFiniteFieldError):
                to_spectral(PhysicalField(grid, np.full((1, *grid.values_shape), 1e308, dtype=complex)))
            huge = SpectralField(grid, np.full((1, *grid.coeff_shape), 1e160, dtype=complex))
            assert sobolev_norm(huge, 1).tolist() == [np.inf]


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
    """Reference for a one-row field: every beta evaluated from the coefficients on its own, one real product per axis."""
    grid = u.grid
    d_axis = np.arange(1, grid.D + 1, dtype=float)
    best = 0.0
    for beta in product(range(m + 1), repeat=grid.n):
        if sum(beta) > m:
            continue
        vals = u.coeffs
        for ax, b in enumerate(beta):
            if b > 0:
                shape = [1] * grid.n
                shape[ax] = grid.D
                vals = vals * (d_axis**b).reshape(shape)
            vals = _along(vals, ax, grid.n, _axis_table(grid, grid.D, "cos" if b % 2 else "sin"))
        best = max(best, float(np.abs(vals).max()))
    return best


# --- the complex formulation the real products replaced, kept as a reference ------------------


def complex_matrices(grid: GridSpec, D: int) -> tuple[np.ndarray, ...]:
    """Complex128 copies: (N x D) sine, its transpose, (D x N) projection, its transpose, (N x D) cosine."""
    angle = grid.points[:, None] * np.arange(1, D + 1)[None, :]
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
    sin_m, *_, cos_m = complex_matrices(grid, grid.D)
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
    """The real products on float64 views against the complex products they replaced."""

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=str)
    @pytest.mark.parametrize("rows", [(), (3,), (17,)])
    def test_agree_with_complex_products(self, grid, rows):
        rng = np.random.default_rng(grid.n * 1000 + grid.N * 10 + len(rows))
        coeffs = random_block(rng, rows + grid.coeff_shape)
        ref = complex_per_axis(grid, coeffs, *complex_matrices(grid, grid.D)[:2])
        assert_within_1e15(lattice_values(grid, coeffs), ref)
        values = random_block(rng, rows + grid.values_shape)
        for D in sorted({grid.D, grid.N}):
            ref = complex_per_axis(grid, values, *complex_matrices(grid, D)[2:4])
            assert_within_1e15(mode_coeffs(grid, values, D), ref)
        u = SpectralField(grid, coeffs.reshape(-1, *grid.coeff_shape))  # no leading axis: one row
        for m in range(4):
            assert_within_1e15(cm_norm(u, m), complex_cm_norm(grid, u.coeffs, m))

    def test_tables_are_real_and_n1_builds_no_interleaved_table(self, monkeypatch):
        """Every table a nonlinear run with C^2 builds is float64; at n = 1 none is interleaved."""
        built = []

        def record(grid, D, kind):
            table = build(grid, D, kind)
            built.append((grid.n, kind, table))
            return table

        build = spectral._axis_table.__wrapped__
        monkeypatch.setattr(spectral, "_axis_table", lru_cache(maxsize=None)(record))
        for grid in (GridSpec(1, 16, 8), GridSpec(2, 12, 6)):
            params = SimParams(nu=0.5, dt=0.01, T=0.05)
            u0 = constrained_profile(grid, params.nu)
            observables = (Observable("sup_cm", 2.0), Observable("sup_inf"))
            spec = NoiseSpec.from_profile(grid, "band:1,1,1")
            ensemble_run(grid, spec, params, 2, lambda sid: u0, observables)
        assert sorted((n, kind) for n, kind, _ in built) == [
            (n, kind) for n in (1, 2) for kind in ("cos", "proj", "sin")
        ]
        for n, kind, (left, right) in built:
            assert right.dtype == np.float64 and right.flags.c_contiguous and not right.flags.writeable
            if n == 1:  # the transpose of the n = 2 matrix, and no interleaved table
                assert left is None
                assert np.array_equal(right, build(GridSpec(2, 16, 8), 8, kind)[0].T)
            else:
                assert left.dtype == np.float64 and left.flags.c_contiguous and not left.flags.writeable
                assert right.shape == (2 * left.shape[1], 2 * left.shape[0])
                assert np.array_equal(right[0::2, 0::2], left.T) and np.array_equal(right[1::2, 1::2], left.T)
                assert not right[0::2, 1::2].any() and not right[1::2, 0::2].any()


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
    back = to_spectral(to_physical(u), grid.D)
    assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12 * max(1.0, scale)


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

    def test_complex64_round_trip_is_exact_at_that_width(self):
        u = random_field(GridSpec(1, 16, 8), seed=13)
        buf = field_to_bytes(u, dtype=np.complex64)
        back = field_from_bytes(buf)
        assert np.array_equal(back.coeffs, u.coeffs.astype(np.complex64).astype(np.complex128))

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
        with pytest.raises(ValueError, match="not rows"):
            PhysicalField(grid, np.zeros(grid.values_shape, dtype=complex))
        with pytest.raises(ValueError, match="not rows"):  # two row axes
            SpectralField(grid, np.zeros((1, 1, *grid.coeff_shape), dtype=complex))
        u = random_field(grid, seed=18)
        assert to_physical(u).values.shape == (1, *grid.values_shape)
        assert to_spectral(to_physical(u)).coeffs.shape == (1, *grid.coeff_shape)

    def test_norms_return_one_value_per_row_at_m_1(self):
        grid = GridSpec(2, 8, 4)
        u = random_field(grid, seed=19)
        for norm in (sobolev_norm(u, 2.0), sup_norm(u), cm_norm(u, 2)):
            assert isinstance(norm, np.ndarray) and norm.shape == (1,)
        assert sobolev_norm(u, (0.0, 1.0, 2.0)).shape == (3, 1)  # (orders, M)
        assert cm_norm(u, (1, 2)).shape == (2, 1)
