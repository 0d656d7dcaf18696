"""Integrators: exact sub-flows, splitting, the EM oracle, and trajectory plumbing."""

import json
import struct
import warnings
from dataclasses import replace
from math import exp, log, pi, sqrt

import numpy as np
import pytest
from numpy.random import Generator, Philox

from cascade_lab import forcing, spectral
from cascade_lab.diagnostics import NormRecorder
from cascade_lab.experiments import fit_exponent
from cascade_lab.forcing import SUB_OU, NoiseSpec, RngStream, ou_block_steps, ou_convolutions
from cascade_lab.integrators import (
    SimParams,
    State,
    TrajectoryAbortError,
    _forced_where,
    _ou_tables,
    _phase_factor,
    _strang,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    constrained_profile,
    continue_trajectory,
    default_dt,
    em_step,
    initial_state,
    linear_l2_mean,
    linear_stationary_mode_energy,
    load_checkpoint,
    ou_exact_step,
    phase_rotation_step,
    run_em_on_path,
    run_strang_on_path,
    sample_coupled_path,
    save_checkpoint,
    single_mode,
    smooth_random_field,
    strang_step,
    zero_field,
)
from cascade_lab.spectral import (
    GridSpec,
    NonFiniteFieldError,
    PhysicalField,
    SpectralField,
    lattice_inner,
    lattice_values,
    mode_coeffs,
    sobolev_norm,
    to_physical,
    to_spectral,
)

GRID = GridSpec(1, 32, 16)
SILENT = NoiseSpec.band(GRID, [0.0])
BAND = NoiseSpec.band(GRID, [1.0, 1.0, 1.0])


def random_field(grid, seed=0, scale=1.0):
    """One row of complex Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    shape = (1, *grid.coeff_shape)
    return SpectralField(grid, scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def run(u0, spec, params, sink=None):
    """The final state of the rows of ``u0`` run from t = 0, none of which may abort."""
    state, aborts = continue_trajectory(initial_state(u0, params), spec, params, sink)
    assert aborts == []
    return state


def rows(*fields):
    """The coefficients of one-row fields joined along the row axis."""
    return np.concatenate([f.coeffs for f in fields])


class TestOuExactStep:
    def test_pure_decay(self):
        out = ou_exact_step(rows(single_mode(GRID, 1)), SILENT, nu=1.0, dt=log(2.0), rng=RngStream(0, 0))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_tiny_dt_is_near_identity(self):
        c = rows(single_mode(GRID, 1))
        out = ou_exact_step(c, SILENT, nu=1.0, dt=1e-12, rng=RngStream(0, 0))
        assert np.abs(out - c).max() <= 1e-10

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            ou_exact_step(rows(zero_field(GRID)), SILENT, 1.0, 0.0, RngStream(0, 0))

    def test_rejects_grid_mismatch(self):
        other = NoiseSpec.band(GridSpec(1, 16, 8), [1.0])
        with pytest.raises(ValueError):
            ou_exact_step(rows(zero_field(GRID)), other, 1.0, 0.1, RngStream(0, 0))
        with pytest.raises(ValueError):  # no row axis
            ou_exact_step(zero_field(GRID).coeffs[0], SILENT, 1.0, 0.1, RngStream(0, 0))

    def test_stationary_second_moment(self):
        # dt large: each step is an independent stationary sample; E|u_1|^2 -> b^2/|1|^2 = 1.
        spec = NoiseSpec.single(GRID, 1)
        rng = RngStream(31, 0)
        u = rows(zero_field(GRID))
        n = 20_000
        acc = 0.0
        for k in range(n):
            u = ou_exact_step(u, spec, nu=1.0, dt=8.0, rng=rng, step_index=k)
            acc += abs(u[0, 0]) ** 2
        mean = acc / n
        se = 1.0 / sqrt(n)  # |u|^2 is Exp(1): sd = mean = 1
        assert abs(mean - 1.0) <= 3 * se

    def test_distributional_match_with_scalar_oracle(self):
        # One step from zero: Re u_1 ~ N(0, nu * b^2 * (1 - e^(-2 nu dt)) / (2 nu)).
        spec = NoiseSpec.single(GRID, 1)
        nu, dt = 0.3, 0.7
        rng = RngStream(8, 0)
        samples = np.array(
            [
                ou_exact_step(rows(zero_field(GRID)), spec, nu, dt, rng, step_index=k)[0, 0].real
                for k in range(50_000)
            ]
        )
        var_expected = nu * (1 - exp(-2 * nu * dt)) / (2 * nu)
        se = var_expected * sqrt(2 / samples.size)
        assert abs(samples.var() - var_expected) <= 3 * se


class TestPhaseRotation:
    def test_unit_value_rotates_to_minus_one(self):
        # On a square grid (D = N) any lattice configuration is representable,
        # so set every lattice value to 1 and rotate by pi.
        grid = GridSpec(1, 16, 16)
        p = PhysicalField(grid, np.ones((1, 16), dtype=complex))
        c = rows(to_spectral(p))
        rotated = lattice_values(grid, phase_rotation_step(grid, c, pi))
        np.testing.assert_allclose(rotated, -np.ones((1, 16)), atol=1e-12)

    def test_zero_dt_identity(self):
        c = rows(random_field(GRID, 2))
        out = phase_rotation_step(GRID, c, 0.0)
        assert out is c

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            phase_rotation_step(GRID, rows(random_field(GRID, 2)), -0.1)

    def test_lattice_l2_preserved(self):
        grid = GridSpec(1, 64, 64)
        u = random_field(grid, 3)
        p0 = to_physical(u)
        p1 = to_physical(SpectralField(grid, phase_rotation_step(grid, u.coeffs, 0.613)))
        n0 = lattice_inner(p0, p0)
        n1 = lattice_inner(p1, p1)
        assert abs(n1 - n0) <= 1e-14 * n0

    def test_pointwise_modulus_preserved(self):
        # Hamiltonian limit: with damping and noise absent the phase flow keeps
        # every |u(x_j)| fixed; visible exactly on a square grid.
        grid = GridSpec(1, 32, 32)
        u = random_field(grid, 4)
        before = np.abs(to_physical(u).values)
        after = np.abs(lattice_values(grid, phase_rotation_step(grid, u.coeffs, 1.7)))
        np.testing.assert_allclose(after, before, rtol=1e-13)

    def test_overflowing_modulus_raises(self):
        # Every coefficient is finite, but |u|^2 overflows on the lattice: the
        # rotation returns NaN and the Strang step's one check raises.
        for grid in (GRID, GridSpec(2, 32, 16)):
            u = single_mode(grid, (1,) * grid.n, c=1e160)
            assert not np.isfinite(phase_rotation_step(grid, rows(u), 0.01)).any()
            params = SimParams(nu=0.5, dt=0.01, T=0.01, seed=1)
            with pytest.raises(NonFiniteFieldError):
                strang_step(initial_state(u, params), NoiseSpec.band(grid, [1.0, 1.0, 1.0]), params)

    def test_overflow_raises_without_warnings(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.01, seed=1)
        for grid in (GRID, GridSpec(2, 32, 16)):
            spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
            for m in (1, 3):
                c = single_mode(grid, (1,) * grid.n, c=1e160).coeffs
                u = SpectralField(grid, np.repeat(c, m, axis=0))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteFieldError):
                        strang_step(initial_state(u, params), spec, params)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 32), GridSpec(2, 32, 16)], ids=str)
    @pytest.mark.parametrize("M", [1, 3, 5])
    def test_phase_factor_equals_complex_exp(self, grid, M):
        rng = np.random.default_rng(M)
        for scale in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            shape = (M,) + grid.coeff_shape
            c = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            v = lattice_values(grid, c)
            for dt in (0.01, 0.37):
                phase = dt * (v.real**2 + v.imag**2)
                reference = np.exp(-1j * dt * (v.real**2 + v.imag**2))
                assert _phase_factor(phase).tobytes() == reference.tobytes()
                expected = mode_coeffs(grid, np.multiply(v, np.exp(-1j * phase)), grid.D)
                assert phase_rotation_step(grid, c, dt).tobytes() == expected.tobytes()

    def test_truncation_only_removes_energy(self):
        u = random_field(GRID, 5)  # D = N/2: rotation spills into discarded modes
        p0 = to_physical(u)
        p1 = to_physical(SpectralField(GRID, phase_rotation_step(GRID, u.coeffs, 0.9)))
        assert lattice_inner(p1, p1) <= lattice_inner(p0, p0) * (1 + 1e-12)


class TestStrangStep:
    def test_tiny_amplitude_matches_pure_decay(self):
        params = SimParams(nu=1.0, dt=0.1, T=0.1, seed=0)
        u0 = single_mode(GRID, 1, c=1e-8)
        state = strang_step(initial_state(u0, params), SILENT, params)
        expected = 1e-8 * exp(-params.dt)
        assert abs(state.u.coeffs[0, 0] - expected) <= 1e-12 * expected

    def test_replay_bit_identical(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=11, stream_id=3)
        u0 = random_field(GRID, 6, scale=0.2)
        a = run(u0, BAND, params)
        b = run(u0, BAND, params)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert a.t == b.t and a.step_index == b.step_index

    def test_two_draws_per_step_addressing(self):
        # Both OU half-step convolutions come from one draw addressed by (step, SUB_OU);
        # interleaving other addressed draws between steps must not change the trajectory.
        params = SimParams(nu=0.5, dt=0.02, T=0.06, seed=4)
        u0 = random_field(GRID, 7, scale=0.3)
        direct = run(u0, BAND, params)
        state = initial_state(u0, params)
        (rng,) = state.rngs
        _, sd, scale = _ou_tables(BAND, params.nu, params.dt / 2)
        c = state.u.coeffs
        for k in range(params.n_steps):
            rng.normals(1234, 17, 8)  # unrelated address
            noise0, noise1 = ou_convolutions((rng,), k, sd, scale)
            c = _strang(c, BAND, params.nu, params.dt, True, noise0, noise1)
        assert np.array_equal(direct.u.coeffs, c)

    def test_noise_free_linear_run_flushes_subnormals(self):
        # Mode 1's half-step factor exp(-nu dt / 2) = exp(-0.5) exceeds 1/2, so without
        # the flush it would stop at a subnormal value (x * factor rounds back to x).
        tiny = np.finfo(np.float64).tiny
        params = SimParams(nu=1.0, dt=1.0, T=800.0, nonlinear=False, seed=1)
        u0 = constrained_profile(GRID, params.nu)

        def no_subnormals(state):
            parts = np.abs(state.u.coeffs.view(np.float64))
            assert np.all((parts == 0.0) | (parts >= tiny)), f"subnormal at step {state.step_index}"

        final = run(u0, SILENT, params, no_subnormals)
        assert final.step_index == 800 and not np.any(final.u.coeffs.view(np.float64))
        path = sample_coupled_path(SILENT, params.nu, 0.5, 1600, RngStream(1, 0))
        assert not np.any(run_strang_on_path(u0, path, params.dt, nonlinear=False).coeffs.view(np.float64))

    def test_step_leaves_its_input_unchanged(self):
        # The step flushes subnormals in its own result, never in its input.
        params = SimParams(nu=0.5, dt=0.01, T=1.0, seed=3)
        c = random_field(GRID, 4, scale=0.3).coeffs.copy()
        c[0, -1] = 1e-310 + 1e-310j
        rows = SpectralField(GRID, np.concatenate([c, 2 * c, 3 * c]))
        for state in (initial_state(SpectralField(GRID, c), params), initial_state(rows, params)):
            before = state.u.coeffs.tobytes()
            after = strang_step(state, BAND, params)
            assert state.u.coeffs.tobytes() == before != after.u.coeffs.tobytes()
        # A one-row run that fails at step_index > 0 returns no state and one abort
        # whose last good state is its input, which it leaves as it was.
        bad = np.zeros((1, *GRID.coeff_shape), dtype=complex)
        bad[0, 0], bad[0, -1] = 1e160, 1e-310
        good = State(0.05, SpectralField(GRID, bad), (RngStream(3, 0),), 5)
        before = good.u.coeffs.tobytes()
        with pytest.raises(NonFiniteFieldError):
            strang_step(good, BAND, params)
        final, (abort,) = continue_trajectory(good, BAND, params)
        assert final is None and isinstance(abort, TrajectoryAbortError)
        last = abort.last_state
        assert (last.t, last.step_index, last.rngs) == (good.t, good.step_index, good.rngs)
        assert last.u.coeffs.tobytes() == good.u.coeffs.tobytes() == before

    @pytest.mark.parametrize("grid", [GRID, GridSpec(2, 32, 16)], ids=["n1", "n2"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_one_finiteness_check_per_step(self, monkeypatch, grid, nonlinear):
        params = SimParams(nu=0.5, dt=0.01, T=1.0, seed=2, nonlinear=nonlinear)
        state = initial_state(SpectralField(grid, rows(*(random_field(grid, i, 0.3) for i in range(3)))), params)
        spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
        checks = []
        check = spectral._check_finite
        monkeypatch.setattr(spectral, "_check_finite", lambda *a: checks.append(a[1]) or check(*a))
        for _ in range(2):  # the first step draws the block, the second only slices it
            checks.clear()
            state = strang_step(state, spec, params)
            assert checks == ["spectral field"]

    def test_row_turning_non_finite_inside_a_step_aborts_at_that_step(self):
        # Row 1 is finite at step 5, but |u|^2 overflows in the step's phase rotation.
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=4)
        c = rows(*(random_field(GRID, 80 + i, 0.3) for i in range(3)))
        c[1, 0] = 1e160
        rngs = tuple(RngStream(params.seed, 10 + i) for i in range(3))
        start = State(0.05, SpectralField(GRID, c), rngs, 5)
        final, (abort,) = continue_trajectory(start, BAND, params)
        last = abort.last_state
        assert (last.rngs[0].stream_id, last.step_index, last.t) == (11, 5, 0.05)
        assert last.u.coeffs.tobytes() == c[1:2].tobytes()
        assert "step 6" in str(abort)
        assert final.step_index == 10 and [r.stream_id for r in final.rngs] == [10, 12]
        for i, row in ((0, 0), (2, 1)):
            one, none = continue_trajectory(State(0.05, SpectralField(GRID, c[i : i + 1]), rngs[i : i + 1], 5), BAND, params)
            assert none == [] and one.u.coeffs.tobytes() == final.u.coeffs[row : row + 1].tobytes()

    def test_self_convergence_on_fixed_path(self):
        # RMS over four fixed paths of the successive-halving differences at
        # T = 1; fitted order of the splitting should be at least one.
        dts = [0.02, 0.01, 0.005, 0.0025, 0.00125]
        dt_fine = dts[-1] / 4
        n_fine = round(1.0 / dt_fine)
        u0 = constrained_profile(GRID, 0.2)
        sq = np.zeros(len(dts) - 1)
        for seed in range(4):
            path = sample_coupled_path(BAND, 0.2, dt_fine, n_fine, RngStream(7000 + seed, 0))
            sols = [run_strang_on_path(u0, path, dt) for dt in dts]
            sq += np.array(
                [np.sum(np.abs(a.coeffs - b.coeffs) ** 2) for a, b in zip(sols, sols[1:])]
            )
        rms = np.sqrt(sq / 4)
        assert np.all(rms[:-1] > rms[1:])
        fit = fit_exponent(list(zip(dts[:-1], rms)))
        assert -fit.alpha >= 1.0


class TestForcedModeDraws:
    @staticmethod
    def fresh_convolutions(seed, sid, step, sd, scale):
        """Slot step mod K of a freshly built Philox at (step // K, SUB_OU), split re0|im0|re1|im1, scaled."""
        s, K = sd.size, ou_block_steps(sd.size)
        block = Generator(Philox(counter=[0, 0, SUB_OU, step // K], key=[seed, sid])).standard_normal(4 * s * K)
        z = block[4 * s * (step % K) : 4 * s * (step % K + 1)].reshape(2, 2, s)
        conv = np.empty((2, s), dtype=complex)
        conv.real, conv.imag = z[:, 0], z[:, 1]
        noise = scale * (conv * sd)
        return noise[0], noise[1]

    @pytest.mark.parametrize("grid", [GridSpec(1, 32, 16), GridSpec(2, 16, 8)], ids=["n1", "n2"])
    @pytest.mark.parametrize("M", [1, 3])
    def test_strang_draw_equals_fresh_philox_over_forced_modes(self, grid, M):
        spec = NoiseSpec.band(grid, [1.0, 0.5, 1.0])
        params = SimParams(nu=0.3, dt=0.02, T=1.0, seed=2**64 - 5)
        _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2)
        assert sd.size == spec.forced.size == np.count_nonzero(spec.amplitudes) < grid.n_modes
        K = ou_block_steps(sd.size)
        assert K > 1
        first = K * (2**40 // K + 1)  # the first slot of a block
        u = rows(*(random_field(grid, 40 + i, 0.5) for i in range(M)))
        rngs = tuple(RngStream(params.seed, 2**63 + i) for i in range(M))
        for step in (2**40 + 7, first - 1, first, first - 1):  # the last slot of one block, the first of the next
            fresh = [self.fresh_convolutions(params.seed, 2**63 + i, step, sd, scale) for i in range(M)]
            noise0, noise1 = ou_convolutions(rngs, step, sd, scale)
            assert noise0.tobytes() == np.stack([f[0] for f in fresh]).tobytes()
            assert noise1.tobytes() == np.stack([f[1] for f in fresh]).tobytes()
            state = State(0.0, SpectralField(grid, u), rngs, step)
            noises = [np.stack(c) for c in zip(*fresh)]
            expected = _strang(u, spec, params.nu, params.dt, True, *noises)
            assert strang_step(state, spec, params).u.coeffs.tobytes() == expected.tobytes()

    def test_unforced_mode_only_decays(self):
        spec = NoiseSpec.from_profile(GRID, "single:d=1")
        params = SimParams(nu=0.5, dt=0.02, T=0.02, seed=8, nonlinear=False)
        u0 = random_field(GRID, 12, scale=0.4)
        decay, _, _ = _ou_tables(spec, params.nu, params.dt / 2)
        (u1,) = strang_step(initial_state(u0, params), spec, params).u.coeffs
        (c0,) = u0.coeffs
        assert u1[4] == c0[4] * decay[4] * decay[4]
        unforced = spec.amplitudes == 0
        assert u1[unforced].tobytes() == (c0 * decay * decay)[unforced].tobytes()
        assert u1[0] != c0[0] * decay[0] * decay[0]  # the forced mode got its convolution

    @staticmethod
    def count_normals(monkeypatch) -> list:
        """The (step_index, substream) of every RngStream.normals call from here on."""
        calls = []
        normals = RngStream.normals
        monkeypatch.setattr(RngStream, "normals", lambda self, *a, **k: calls.append(a) or normals(self, *a, **k))
        return calls

    def test_degenerate_spec_draws_nothing(self, monkeypatch):
        calls = self.count_normals(monkeypatch)
        for scheme in ("strang", "em"):
            params = SimParams(nu=0.5, dt=1e-3, T=4e-3, scheme=scheme, seed=1)
            run(random_field(GRID, 3, 0.2), SILENT, params)
            run(SpectralField(GRID, rows(*(random_field(GRID, i, 0.2) for i in range(3)))), SILENT, params)
        assert calls == []
        # a forced spec addresses each stream once per block of K Strang steps
        K = ou_block_steps(BAND.forced.size)
        params = SimParams(nu=0.5, dt=1e-3, T=(K + 1) * 1e-3, seed=1)
        run(SpectralField(GRID, np.zeros((3, *GRID.coeff_shape), complex)), BAND, params)
        assert sorted(calls) == sorted((b, SUB_OU) for b in range(2) for _ in range(3))

    @pytest.mark.parametrize("M", [1, 4])
    def test_forced_ensemble_draws_once_per_stream_per_block(self, monkeypatch, M):
        K = ou_block_steps(BAND.forced.size)
        assert K == 1024 // (4 * BAND.forced.size) == 85
        for n_steps in (1, K - 1, K, K + 1, 2 * K + 3):
            calls = self.count_normals(monkeypatch)
            params = SimParams(nu=0.5, dt=1e-3, T=n_steps * 1e-3, seed=9)
            assert params.n_steps == n_steps
            run(SpectralField(GRID, rows(*(random_field(GRID, 50 + i, 0.2) for i in range(M)))), BAND, params)
            assert len(calls) == M * -(-n_steps // K)
            assert sorted(calls) == sorted((b, SUB_OU) for b in range(-(-n_steps // K)) for _ in range(M))

    def test_one_step_per_address_once_4s_reaches_the_budget(self, monkeypatch):
        assert [ou_block_steps(s) for s in (1, 3, 8, 255, 256, 1000)] == [256, 85, 32, 1, 1, 1]
        grid = GridSpec(2, 32, 16)
        spec = NoiseSpec.power(grid, 1.0)  # every one of the 256 modes forced: 4s = 1024
        assert spec.forced.size == 256 and ou_block_steps(spec.forced.size) == 1
        params = SimParams(nu=0.3, dt=0.02, T=0.06, seed=6)
        _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2)
        rngs = tuple(RngStream(params.seed, i) for i in range(2))
        s = sd.size
        for step in (0, 1, 2**40):  # each step is its own address, 4s normals re0|im0|re1|im1
            fresh = [Generator(Philox(counter=[0, 0, SUB_OU, step], key=[params.seed, i])) for i in range(2)]
            z = np.stack([g.standard_normal(4 * s) for g in fresh]).reshape(2, 2, 2, s)
            noise0, noise1 = ou_convolutions(rngs, step, sd, scale)
            assert noise0.tobytes() == (scale * ((z[:, 0, 0] + 1j * z[:, 0, 1]) * sd)).tobytes()
            assert noise1.tobytes() == (scale * ((z[:, 1, 0] + 1j * z[:, 1, 1]) * sd)).tobytes()
        calls = self.count_normals(monkeypatch)
        run(SpectralField(grid, rows(*(random_field(grid, 60 + i, 0.1) for i in range(2)))), spec, params)
        assert sorted(calls) == sorted((k, SUB_OU) for k in range(3) for _ in range(2))

    def test_back_to_back_runs_make_the_same_draws(self, monkeypatch):
        # A fresh run draws its own blocks: the block 0 that an earlier run on the same
        # seed and stream ids left cached is not reused, so both runs address the same draws.
        params = SimParams(nu=0.5, dt=1e-3, T=3e-3, seed=9)
        assert params.n_steps < ou_block_steps(BAND.forced.size)
        u0 = SpectralField(GRID, rows(*(random_field(GRID, 70 + i, 0.2) for i in range(2))))
        calls = self.count_normals(monkeypatch)
        first = run(u0, BAND, params)
        first_calls = list(calls)
        calls.clear()
        second = run(u0, BAND, params)
        assert calls == first_calls == [(0, SUB_OU), (0, SUB_OU)]
        assert second.u.coeffs.tobytes() == first.u.coeffs.tobytes()


class TestForcedModeAdd:
    """The OU half adds its noise through a basic slice when the forced modes are contiguous, else an index."""

    GAP = NoiseSpec(GRID, np.where(np.isin(np.arange(16), [0, 1, 4]), 1.0, 0.0), profile="custom")
    SPECS = {
        "n1-band": (BAND, slice),
        "n1-single": (NoiseSpec.single(GRID, 5), slice),
        "n1-gap": (GAP, np.ndarray),
        "n2-band": (NoiseSpec.band(GridSpec(2, 32, 16), [1.0, 1.0, 1.0]), np.ndarray),
        "n1-silent": (SILENT, np.ndarray),
    }

    @staticmethod
    def reference_half(c, spec, nu, dt, noise):
        decay = _ou_tables(spec, nu, dt)[0]
        out = c * decay
        out.reshape(len(c), -1)[:, spec.forced] += noise
        return out

    @pytest.mark.parametrize("name", SPECS)
    def test_both_add_paths_equal_an_indexed_reference(self, name):
        spec, kind = self.SPECS[name]
        grid = spec.grid
        assert isinstance(_forced_where(spec), kind)
        params = SimParams(nu=0.3, dt=0.02, T=1.0, seed=17)
        c = rows(*(random_field(grid, 90 + i, 0.4) for i in range(3)))
        g = np.random.default_rng(5).normal(size=(2, 3, spec.forced.size, 2)) @ np.array([1.0, 1j])
        assert ou_exact_step(c, spec, 0.3, 0.01, noise=g[0]).tobytes() == self.reference_half(c, spec, 0.3, 0.01, g[0]).tobytes()
        # a whole Strang step on the block's noise against the indexed reference
        state = State(0.0, SpectralField(grid, c), tuple(RngStream(17, i) for i in range(3)), 0)
        _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2)
        noise0, noise1 = ou_convolutions(state.rngs, 0, sd, scale)
        ref = self.reference_half(c, spec, params.nu, params.dt / 2, noise0)
        ref = mode_coeffs(grid, lattice_values(grid, ref) * np.exp(-1j * params.dt * np.abs(lattice_values(grid, ref)) ** 2), grid.D)
        ref = self.reference_half(ref, spec, params.nu, params.dt / 2, noise1)
        got = strang_step(state, spec, params).u.coeffs
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)
        expected = _strang(c, spec, params.nu, params.dt, True, noise0, noise1)
        assert got.tobytes() == expected.tobytes()


class TestEmStep:
    def test_zero_is_fixed_point(self):
        params = SimParams(nu=0.5, dt=0.001, T=0.001, scheme="em", seed=0)
        state = em_step(initial_state(zero_field(GRID), params), SILENT, params)
        assert np.all(state.u.coeffs == 0)

    def test_linear_step_matches_ou_to_second_order(self):
        # Noise-free linear case: one EM step vs the exact decay, error O(dt^2).
        u0 = random_field(GRID, 8)
        errs = []
        for dt in (1e-3, 5e-4):
            params = SimParams(nu=0.5, dt=dt, T=dt, scheme="em", nonlinear=False, seed=0)
            em = em_step(initial_state(u0, params), SILENT, params)
            ou = ou_exact_step(rows(u0), SILENT, 0.5, dt, RngStream(0, 0))
            errs.append(np.abs(em.u.coeffs - ou).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_stability_guard_warns(self):
        params = SimParams(nu=1.0, dt=0.01, T=0.01, scheme="em", seed=0)  # nu D^2 dt = 2.56
        with pytest.warns(RuntimeWarning, match="stability guard"):
            em_step(initial_state(zero_field(GRID), params), SILENT, params)

    def test_strong_comparison_with_strang(self):
        # Same Brownian path via the coupled fine-level draws; the gap between
        # the two schemes closes with order >= 0.5 under four halvings.
        dts = [0.01, 0.005, 0.0025, 0.00125, 0.000625]
        dt_fine = dts[-1] / 2
        n_fine = round(1.0 / dt_fine)
        u0 = constrained_profile(GRID, 0.2)
        sq = np.zeros(len(dts))
        for seed in range(2):
            path = sample_coupled_path(BAND, 0.2, dt_fine, n_fine, RngStream(1000 + seed, 0))
            for i, dt in enumerate(dts):
                us = run_strang_on_path(u0, path, dt)
                ue = run_em_on_path(u0, path, dt)
                sq[i] += np.sum(np.abs(us.coeffs - ue.coeffs) ** 2)
        rms = np.sqrt(sq / 2)
        fit = fit_exponent(list(zip(dts, rms)))
        assert -fit.alpha >= 0.5

    def test_coupled_path_is_exact_for_linear_flow(self):
        # With the nonlinearity off every level is the same exact OU solution.
        dts = [0.02, 0.005, 0.00125]
        dt_fine = dts[-1] / 4
        path = sample_coupled_path(BAND, 0.2, dt_fine, round(1.0 / dt_fine), RngStream(2000, 0))
        u0 = constrained_profile(GRID, 0.2)
        sols = [run_strang_on_path(u0, path, dt, nonlinear=False) for dt in dts]
        for a, b in zip(sols, sols[1:]):
            assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12


class TestRunTrajectory:
    def test_horizon_of_one_step(self):
        params = SimParams(nu=0.5, dt=0.25, T=0.25, seed=0)
        seen = []
        final = run(zero_field(GRID), BAND, params, seen.append)
        assert final.step_index == 1
        assert [s.step_index for s in seen] == [0, 1]

    def test_linear_decay_closed_form(self):
        params = SimParams(nu=0.5, dt=0.01, T=2.0, nonlinear=False, seed=0)
        final = run(single_mode(GRID, 1), SILENT, params)
        assert sobolev_norm(final.u, 0)[0] == pytest.approx(exp(-0.5 * 2.0), abs=1e-10)

    def test_determinism_of_diagnostics_stream(self):
        params = SimParams(nu=0.5, dt=0.02, T=0.2, record_every=2, seed=21)
        streams = []
        for _ in range(2):
            rec = NormRecorder(nu=params.nu)
            run(random_field(GRID, 9, 0.2), BAND, params, rec)
            streams.append(rec.streams[0])
        assert streams[0] == streams[1]

    def test_record_cadence(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.05, record_every=2, seed=0)
        seen = []
        run(zero_field(GRID), BAND, params, seen.append)
        assert [s.step_index for s in seen] == [0, 2, 4, 5]  # cadence plus final step

    def test_rows_run_on_consecutive_stream_ids(self):
        # Row i of a run with stream_id 5 is stream 5 + i, byte for byte its one-row run.
        params = SimParams(nu=0.5, dt=0.02, T=0.2, record_every=2, seed=21, stream_id=5)
        fields = [random_field(GRID, 30 + i, 0.3) for i in range(3)]
        rec = NormRecorder(nu=params.nu)
        final = run(SpectralField(GRID, rows(*fields)), BAND, params, rec)
        assert [rng.stream_id for rng in final.rngs] == [5, 6, 7] and sorted(rec.streams) == [5, 6, 7]
        for i, field in enumerate(fields):
            p = replace(params, stream_id=5 + i)
            one = NormRecorder(nu=p.nu)
            single = run(field, BAND, p, one)
            assert [rng.stream_id for rng in single.rngs] == [5 + i]
            assert single.u.coeffs.tobytes() == final.u.coeffs[i : i + 1].tobytes()
            assert one.streams[5 + i] == rec.streams[5 + i]

    def test_nan_abort_carries_last_good_time(self):
        # EM far beyond its stability limit blows up to inf/NaN quickly.
        params = SimParams(nu=1.0, dt=0.5, T=50.0, scheme="em", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            final, (abort,) = continue_trajectory(initial_state(random_field(GRID, 10), params), BAND, params)
        assert final is None and isinstance(abort, TrajectoryAbortError)
        assert abort.last_state.t >= 0.0
        assert np.isfinite(abort.last_state.u.coeffs).all()

    def test_slow_time_equivalence(self):
        # A fast chain at (nu, dt) performs the same arithmetic as a unit-viscosity
        # slow chain at dtau = nu dt with the phase angle rescaled by 1/nu.
        nu, dt, steps = 0.25, 0.02, 40
        params = SimParams(nu=nu, dt=dt, T=steps * dt, seed=13)
        fast = run(constrained_profile(GRID, nu), BAND, params)

        dtau = nu * dt
        state = initial_state(constrained_profile(GRID, nu), params)
        c = state.u.coeffs
        _, sd, scale = _ou_tables(BAND, 1.0, dtau / 2)
        for k in range(steps):
            noise0, noise1 = ou_convolutions(state.rngs, k, sd, scale)
            c = ou_exact_step(c, BAND, 1.0, dtau / 2, noise=noise0)
            c = phase_rotation_step(GRID, c, dtau / nu)
            c = ou_exact_step(c, BAND, 1.0, dtau / 2, noise=noise1)
        np.testing.assert_allclose(fast.u.coeffs, c, rtol=1e-12, atol=1e-13)


class TestLinearClosedForms:
    def test_mean_l2_against_scalar_ou_oracle(self):
        # Independent oracle: simulate each mode as a scalar OU process with a
        # plain numpy generator and compare E||u(t)||_0^2 at t = 1.
        spec = NoiseSpec.band(GRID, [1.0, 0.5])
        u0 = single_mode(GRID, 1, c=0.7)
        nu, t = 0.4, 1.0
        (predicted,) = linear_l2_mean(u0, spec, nu, t)

        gen = np.random.default_rng(77)
        n_paths, n_sub = 4000, 64
        h = t / n_sub
        total = np.zeros(n_paths)
        for d, b in ((1, 1.0), (2, 0.5)):
            lam = nu * d * d
            z = np.zeros(n_paths, dtype=complex)
            if d == 1:
                z += 0.7
            for _ in range(n_sub):
                noise = gen.normal(size=n_paths) + 1j * gen.normal(size=n_paths)
                z = z * exp(-lam * h) + sqrt(nu) * b * sqrt((1 - exp(-2 * lam * h)) / (2 * lam)) * noise
            total += np.abs(z) ** 2
        mc = total.mean()
        se = total.std(ddof=1) / sqrt(n_paths)
        assert abs(mc - predicted) <= 3 * se

    def test_stationary_mode_energy(self):
        spec = NoiseSpec.band(GRID, [1.0, 1.0, 1.0])
        energy = linear_stationary_mode_energy(spec)
        assert energy[0] == pytest.approx(1.0)
        assert energy[1] == pytest.approx(1.0 / 4.0)
        assert energy[2] == pytest.approx(1.0 / 9.0)
        assert np.all(energy[3:] == 0)


class TestInitialData:
    def test_zero_and_single(self):
        assert sobolev_norm(zero_field(GRID), 0) == 0
        u = single_mode(GRID, 3, c=2j)
        assert sobolev_norm(u, 1) == pytest.approx(6.0)

    def test_smooth_random_is_stream_deterministic(self):
        a = smooth_random_field(GRID, 2.0, RngStream(5, 9))
        b = smooth_random_field(GRID, 2.0, RngStream(5, 9))
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("nu", [0.4, 0.1, 0.025])
    def test_constrained_profile_satisfies_policy(self, nu):
        from cascade_lab.spectral import sup_norm

        u = constrained_profile(GRID, nu, sup_bound=1.0, kappa=0.02, m=3.0)
        assert sup_norm(u) <= 1.0 + 1e-12
        assert sobolev_norm(u, 3.0) <= nu ** (-0.06) + 1e-12

    def test_default_dt(self):
        assert default_dt("strang", 0.1, GRID) == 0.01
        em = default_dt("em", 0.2, GRID)
        assert em == pytest.approx(0.5 * min(0.01, 0.5 / (0.2 * 16**2)))


class TestCheckpoints:
    def test_round_trip(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=3, stream_id=2)
        state = run(random_field(GRID, 11, 0.2), BAND, params)
        back = checkpoint_from_bytes(checkpoint_to_bytes(state))
        assert back.t == state.t
        assert back.step_index == state.step_index
        (rng,) = back.rngs
        assert rng.base_seed == 3 and rng.stream_id == 2
        assert back.u.coeffs.shape == (1, *GRID.coeff_shape)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)

    def test_rejects_a_state_of_several_rows(self):
        u0 = SpectralField(GRID, rows(*(random_field(GRID, 20 + i, 0.2) for i in range(3))))
        with pytest.raises(ValueError, match="one row"):
            checkpoint_to_bytes(initial_state(u0, SimParams(nu=0.5, dt=0.01, T=0.1, seed=3)))

    def test_resume_is_bit_exact(self, tmp_path):
        params = SimParams(nu=0.5, dt=0.01, T=0.2, seed=5)
        u0 = random_field(GRID, 12, 0.2)
        full = run(u0, BAND, params)

        half_params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=5)
        half = run(u0, BAND, half_params)
        path = tmp_path / "state.ckpt"
        save_checkpoint(half, path)
        resumed, aborts = continue_trajectory(load_checkpoint(path), BAND, params)
        assert aborts == [] and resumed.step_index == full.step_index
        assert np.array_equal(resumed.u.coeffs, full.u.coeffs)

    def test_resume_across_a_block_boundary_is_bit_exact(self, monkeypatch):
        # The OU draws of K steps share one address: a checkpoint inside one block
        # resumes to a horizon in the next one bit-exactly, from a cold block cache.
        K = ou_block_steps(BAND.forced.size)
        u0 = random_field(GRID, 14, 0.2)
        full = run(u0, BAND, SimParams(nu=0.5, dt=0.01, T=(K + 5) * 0.01, seed=15))
        for at in (K - 3, K - 1, K):
            half = run(u0, BAND, SimParams(nu=0.5, dt=0.01, T=at * 0.01, seed=15))
            assert half.step_index == at
            monkeypatch.setattr(forcing, "_ou_block", None)
            resumed, _ = continue_trajectory(
                checkpoint_from_bytes(checkpoint_to_bytes(half)),
                BAND,
                SimParams(nu=0.5, dt=0.01, T=(K + 5) * 0.01, seed=15),
            )
            assert resumed.step_index == full.step_index == K + 5
            assert resumed.u.coeffs.tobytes() == full.u.coeffs.tobytes()

    def test_counter_key_of_older_files_is_ignored(self):
        state = initial_state(random_field(GRID, 13, 0.2), SimParams(nu=0.5, dt=0.01, T=0.1, seed=3))
        buf = checkpoint_to_bytes(state)
        (n,) = struct.unpack("<I", buf[8:12])
        meta = json.loads(buf[12 : 12 + n])
        assert "counter" not in meta
        blob = json.dumps({**meta, "counter": 7}, sort_keys=True).encode()
        back = checkpoint_from_bytes(buf[:8] + struct.pack("<I", len(blob)) + blob + buf[12 + n :])
        assert (back.t, back.step_index, back.rngs[0].stream_id) == (state.t, state.step_index, 0)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            checkpoint_from_bytes(b"XXXXXXXX\x00\x00\x00\x00")


class TestSimParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimParams(nu=0.0, dt=0.01, T=1.0)
        with pytest.raises(ValueError):
            SimParams(nu=1.5, dt=0.01, T=1.0)
        with pytest.raises(ValueError):
            SimParams(nu=0.5, dt=-0.01, T=1.0)
        with pytest.raises(ValueError):
            SimParams(nu=0.5, dt=0.2, T=0.1)
        with pytest.raises(ValueError):
            SimParams(nu=0.5, dt=0.01, T=1.0, scheme="rk4")

    def test_slow_time_conversions(self):
        p = SimParams(nu=0.25, dt=0.01, T=1.0)
        assert p.n_steps == 100

    def test_n_steps_is_exact_for_whole_step_horizons(self):
        # T / dt = 100.00000000000001 here; ceil would take a 101st step
        p = SimParams(nu=0.4, dt=0.01 / 0.4, T=1.0 / 0.4)
        assert p.T / p.dt > 100 and p.n_steps == 100
        assert SimParams(nu=0.1, dt=0.01, T=3.0 * 0.1 / 0.1).n_steps == 300
        assert SimParams(nu=0.5, dt=0.3, T=1.0).n_steps == 4  # a real remainder still rounds up
