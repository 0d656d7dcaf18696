"""Integrators: exact sub-flows, splitting, the EM oracle, and trajectory plumbing."""

import json
import struct
import warnings
from math import exp, log, pi, sqrt

import numpy as np
import pytest

from cascade_lab.diagnostics import NormRecorder
from cascade_lab.experiments import fit_exponent
from cascade_lab.forcing import NoiseSpec, RngStream
from cascade_lab.integrators import (
    EnsembleState,
    SimParams,
    TrajectoryAbortError,
    TrajectoryState,
    _phase_factor,
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
    run_trajectory,
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
    rng = np.random.default_rng(seed)
    c = rng.normal(size=grid.coeff_shape) + 1j * rng.normal(size=grid.coeff_shape)
    return SpectralField(grid, scale * c)


class TestOuExactStep:
    def test_pure_decay(self):
        u = single_mode(GRID, 1)
        out = ou_exact_step(u, SILENT, nu=1.0, dt=log(2.0), rng=RngStream(0, 0))
        assert out.coeffs[0] == pytest.approx(0.5, abs=1e-15)

    def test_tiny_dt_is_near_identity(self):
        u = single_mode(GRID, 1)
        out = ou_exact_step(u, SILENT, nu=1.0, dt=1e-12, rng=RngStream(0, 0))
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-10

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            ou_exact_step(zero_field(GRID), SILENT, 1.0, 0.0, RngStream(0, 0))

    def test_rejects_grid_mismatch(self):
        other = NoiseSpec.band(GridSpec(1, 16, 8), [1.0])
        with pytest.raises(ValueError):
            ou_exact_step(zero_field(GRID), other, 1.0, 0.1, RngStream(0, 0))

    def test_stationary_second_moment(self):
        # dt large: each step is an independent stationary sample; E|u_1|^2 -> b^2/|1|^2 = 1.
        spec = NoiseSpec.single(GRID, 1)
        rng = RngStream(31, 0)
        u = zero_field(GRID)
        n = 20_000
        acc = 0.0
        for k in range(n):
            u = ou_exact_step(u, spec, nu=1.0, dt=8.0, rng=rng, step_index=k)
            acc += abs(u.coeffs[0]) ** 2
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
                ou_exact_step(zero_field(GRID), spec, nu, dt, rng, step_index=k).coeffs[0].real
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
        p = PhysicalField(grid, np.ones(16, dtype=complex))
        u = to_spectral(p)
        rotated = to_physical(phase_rotation_step(u, pi))
        np.testing.assert_allclose(rotated.values, -np.ones(16), atol=1e-12)

    def test_zero_dt_identity(self):
        u = random_field(GRID, 2)
        out = phase_rotation_step(u, 0.0)
        assert out is u

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            phase_rotation_step(random_field(GRID, 2), -0.1)

    def test_lattice_l2_preserved(self):
        grid = GridSpec(1, 64, 64)
        u = random_field(grid, 3)
        p0 = to_physical(u)
        p1 = to_physical(phase_rotation_step(u, 0.613))
        n0 = lattice_inner(p0, p0)
        n1 = lattice_inner(p1, p1)
        assert abs(n1 - n0) <= 1e-14 * n0

    def test_pointwise_modulus_preserved(self):
        # Hamiltonian limit: with damping and noise absent the phase flow keeps
        # every |u(x_j)| fixed; visible exactly on a square grid.
        grid = GridSpec(1, 32, 32)
        u = random_field(grid, 4)
        before = np.abs(to_physical(u).values)
        after = np.abs(to_physical(phase_rotation_step(u, 1.7)).values)
        np.testing.assert_allclose(after, before, rtol=1e-13)

    def test_overflowing_modulus_raises(self):
        # Every coefficient is finite, but |u|^2 overflows on the lattice.
        for grid in (GRID, GridSpec(2, 32, 16)):
            u = single_mode(grid, (1,) * grid.n, c=1e160)
            with pytest.raises(NonFiniteFieldError):
                phase_rotation_step(u, 0.01)

    def test_overflow_raises_without_warnings(self):
        for grid in (GRID, GridSpec(2, 32, 16)):
            for rows in ((), (3,)):
                c = single_mode(grid, (1,) * grid.n, c=1e160).coeffs
                u = SpectralField(grid, np.broadcast_to(c, rows + c.shape))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteFieldError):
                        phase_rotation_step(u, 0.01)

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
                u = SpectralField(grid, c)
                expected = mode_coeffs(grid, np.multiply(v, np.exp(-1j * phase)), grid.D)
                assert phase_rotation_step(u, dt).coeffs.tobytes() == expected.tobytes()

    def test_truncation_only_removes_energy(self):
        u = random_field(GRID, 5)  # D = N/2: rotation spills into discarded modes
        p0 = to_physical(u)
        p1 = to_physical(phase_rotation_step(u, 0.9))
        assert lattice_inner(p1, p1) <= lattice_inner(p0, p0) * (1 + 1e-12)


class TestStrangStep:
    def test_tiny_amplitude_matches_pure_decay(self):
        params = SimParams(nu=1.0, dt=0.1, T=0.1, seed=0)
        u0 = single_mode(GRID, 1, c=1e-8)
        state = strang_step(initial_state(u0, params), SILENT, params)
        expected = 1e-8 * exp(-params.dt)
        assert abs(state.u.coeffs[0] - expected) <= 1e-12 * expected

    def test_replay_bit_identical(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=11, stream_id=3)
        u0 = random_field(GRID, 6, scale=0.2)
        a = run_trajectory(u0, BAND, params)
        b = run_trajectory(u0, BAND, params)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert a.t == b.t and a.step_index == b.step_index

    def test_two_draws_per_step_addressing(self):
        # The two OU half-draws are addressed by (step, half); interleaving other
        # addressed draws between steps must not change the trajectory.
        params = SimParams(nu=0.5, dt=0.02, T=0.06, seed=4)
        u0 = random_field(GRID, 7, scale=0.3)
        direct = run_trajectory(u0, BAND, params)
        state = initial_state(u0, params)
        for _ in range(params.n_steps):
            state.rng.normals(1234, 17, 8)  # unrelated address
            state = strang_step(state, BAND, params)
        assert np.array_equal(direct.u.coeffs, state.u.coeffs)

    def test_noise_free_linear_run_flushes_subnormals(self):
        # Mode 1's half-step factor exp(-nu dt / 2) = exp(-0.5) exceeds 1/2, so without
        # the flush it would stop at a subnormal value (x * factor rounds back to x).
        tiny = np.finfo(np.float64).tiny
        params = SimParams(nu=1.0, dt=1.0, T=800.0, nonlinear=False, seed=1)
        u0 = constrained_profile(GRID, params.nu)

        def no_subnormals(state):
            parts = np.abs(state.u.coeffs.view(np.float64))
            assert np.all((parts == 0.0) | (parts >= tiny)), f"subnormal at step {state.step_index}"

        final = run_trajectory(u0, SILENT, params, no_subnormals)
        assert final.step_index == 800 and not np.any(final.u.coeffs.view(np.float64))
        path = sample_coupled_path(SILENT, params.nu, 0.5, 1600, RngStream(1, 0))
        assert not np.any(run_strang_on_path(u0, path, params.dt, nonlinear=False).coeffs.view(np.float64))

    def test_step_leaves_its_input_unchanged(self):
        # The step flushes subnormals in its own result, never in its input.
        params = SimParams(nu=0.5, dt=0.01, T=1.0, seed=3)
        c = random_field(GRID, 4, scale=0.3).coeffs.copy()
        c[-1] = 1e-310 + 1e-310j
        rows = SpectralField(GRID, np.stack([c, 2 * c, 3 * c]))
        for state in (
            initial_state(SpectralField(GRID, c), params),
            EnsembleState(0.0, rows, tuple(RngStream(3, sid) for sid in range(3)), 0),
        ):
            before = state.u.coeffs.tobytes()
            after = strang_step(state, BAND, params)
            assert state.u.coeffs.tobytes() == before != after.u.coeffs.tobytes()
        # A step that fails at step_index > 0 leaves the last good state as it was.
        bad = np.zeros(GRID.coeff_shape, dtype=complex)
        bad[0], bad[-1] = 1e160, 1e-310
        good = TrajectoryState(0.05, SpectralField(GRID, bad), RngStream(3, 0), 5)
        before = good.u.coeffs.tobytes()
        with pytest.raises(NonFiniteFieldError):
            strang_step(good, BAND, params)
        with pytest.raises(TrajectoryAbortError) as info:
            continue_trajectory(good, BAND, params)
        assert info.value.last_state is good and good.u.coeffs.tobytes() == before

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
            ou = ou_exact_step(u0, SILENT, 0.5, dt, RngStream(0, 0))
            errs.append(np.abs(em.u.coeffs - ou.coeffs).max())
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
        final = run_trajectory(zero_field(GRID), BAND, params, seen.append)
        assert final.step_index == 1
        assert [s.step_index for s in seen] == [0, 1]

    def test_linear_decay_closed_form(self):
        params = SimParams(nu=0.5, dt=0.01, T=2.0, nonlinear=False, seed=0)
        final = run_trajectory(single_mode(GRID, 1), SILENT, params)
        assert sobolev_norm(final.u, 0) == pytest.approx(exp(-0.5 * 2.0), abs=1e-10)

    def test_determinism_of_diagnostics_stream(self):
        params = SimParams(nu=0.5, dt=0.02, T=0.2, record_every=2, seed=21)
        streams = []
        for _ in range(2):
            rec = NormRecorder(nu=params.nu)
            run_trajectory(random_field(GRID, 9, 0.2), BAND, params, rec)
            streams.append(rec.records)
        assert streams[0] == streams[1]

    def test_record_cadence(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.05, record_every=2, seed=0)
        seen = []
        run_trajectory(zero_field(GRID), BAND, params, seen.append)
        assert [s.step_index for s in seen] == [0, 2, 4, 5]  # cadence plus final step

    def test_nan_abort_carries_last_good_time(self):
        # EM far beyond its stability limit blows up to inf/NaN quickly.
        params = SimParams(nu=1.0, dt=0.5, T=50.0, scheme="em", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrajectoryAbortError) as info:
                run_trajectory(random_field(GRID, 10), BAND, params)
        assert info.value.last_good_time >= 0.0
        assert np.isfinite(info.value.last_state.u.coeffs).all()

    def test_slow_time_equivalence(self):
        # A fast chain at (nu, dt) performs the same arithmetic as a unit-viscosity
        # slow chain at dtau = nu dt with the phase angle rescaled by 1/nu.
        nu, dt, steps = 0.25, 0.02, 40
        params = SimParams(nu=nu, dt=dt, T=steps * dt, seed=13)
        fast = run_trajectory(constrained_profile(GRID, nu), BAND, params)

        dtau = nu * dt
        state = initial_state(constrained_profile(GRID, nu), params)
        u = state.u
        for k in range(steps):
            u = ou_exact_step(u, BAND, 1.0, dtau / 2, state.rng, k, 0)
            u = phase_rotation_step(u, dtau / nu)
            u = ou_exact_step(u, BAND, 1.0, dtau / 2, state.rng, k, 1)
        np.testing.assert_allclose(fast.u.coeffs, u.coeffs, rtol=1e-12, atol=1e-13)


class TestLinearClosedForms:
    def test_mean_l2_against_scalar_ou_oracle(self):
        # Independent oracle: simulate each mode as a scalar OU process with a
        # plain numpy generator and compare E||u(t)||_0^2 at t = 1.
        spec = NoiseSpec.band(GRID, [1.0, 0.5])
        u0 = single_mode(GRID, 1, c=0.7)
        nu, t = 0.4, 1.0
        predicted = linear_l2_mean(u0, spec, nu, t)

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
        state = run_trajectory(random_field(GRID, 11, 0.2), BAND, params)
        back = checkpoint_from_bytes(checkpoint_to_bytes(state))
        assert back.t == state.t
        assert back.step_index == state.step_index
        assert back.rng.base_seed == 3 and back.rng.stream_id == 2
        assert np.array_equal(back.u.coeffs, state.u.coeffs)

    def test_resume_is_bit_exact(self, tmp_path):
        params = SimParams(nu=0.5, dt=0.01, T=0.2, seed=5)
        u0 = random_field(GRID, 12, 0.2)
        full = run_trajectory(u0, BAND, params)

        half_params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=5)
        half = run_trajectory(u0, BAND, half_params)
        path = tmp_path / "state.ckpt"
        save_checkpoint(half, path)
        resumed = continue_trajectory(load_checkpoint(path), BAND, params)
        assert resumed.step_index == full.step_index
        assert np.array_equal(resumed.u.coeffs, full.u.coeffs)

    def test_counter_key_of_older_files_is_ignored(self):
        state = initial_state(random_field(GRID, 13, 0.2), SimParams(nu=0.5, dt=0.01, T=0.1, seed=3))
        buf = checkpoint_to_bytes(state)
        (n,) = struct.unpack("<I", buf[8:12])
        meta = json.loads(buf[12 : 12 + n])
        assert "counter" not in meta
        blob = json.dumps({**meta, "counter": 7}, sort_keys=True).encode()
        back = checkpoint_from_bytes(buf[:8] + struct.pack("<I", len(blob)) + blob + buf[12 + n :])
        assert (back.t, back.step_index, back.rng.stream_id) == (state.t, state.step_index, 0)
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
        assert p.tau(8.0) == 2.0
        assert p.t_of_tau(2.0) == 8.0
        assert p.n_steps == 100

    def test_n_steps_is_exact_for_whole_step_horizons(self):
        # T / dt = 100.00000000000001 here; ceil would take a 101st step
        p = SimParams(nu=0.4, dt=0.01 / 0.4, T=1.0 / 0.4)
        assert p.T / p.dt > 100 and p.n_steps == 100
        assert SimParams(nu=0.1, dt=0.01, T=3.0 * 0.1 / 0.1).n_steps == 300
        assert SimParams(nu=0.5, dt=0.3, T=1.0).n_steps == 4  # a real remainder still rounds up
