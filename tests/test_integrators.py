"""Integrators: exact sub-flows, splitting, the EM oracle, and trajectory plumbing."""

import json
import struct
import warnings
from dataclasses import replace
from math import exp, log, pi, sqrt

import numpy as np
import pytest
from numpy.random import Generator, Philox

from cascade_lab import spectral
from cascade_lab.diagnostics import NormRecorder
from cascade_lab.experiments import fit_exponent
from cascade_lab.forcing import SUB_OU, NoiseSpec, RngStream, complex_normals, ou_block_steps, ou_convolutions
from cascade_lab.integrators import (
    SimParams,
    State,
    TrajectoryAbortError,
    _closed,
    _cos_sin,
    _forced_index,
    _merged_noise,
    _ou_tables,
    _strang,
    _take,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    constrained_profile,
    continue_trajectory,
    em_step,
    initial_state,
    load_checkpoint,
    ou_exact_step,
    phase_rotation_step,
    save_checkpoint,
    single_mode,
    smooth_random_field,
    strang_step,
    zero_field,
)
from cascade_lab.spectral import (
    GridSpec,
    NonFiniteFieldError,
    SpectralField,
    from_planes,
    sobolev_norm,
    to_physical,
    to_planes,
    to_spectral,
)
from oracles import lattice_inner, linear_l2_mean, linear_stationary_mode_energy, run_em_on_path, run_strang_on_path, sample_coupled_path

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


def planes(*fields):
    """The planes of one-row fields joined along the row axis."""
    return to_planes(rows(*fields))


def lattice(grid, c):
    """The complex lattice values of coefficient planes."""
    return from_planes(to_physical(grid, c))


def capture(store):
    """A sink that keeps each row's closed coefficient bytes under (stream id, step)."""
    def sink(state):
        for coeffs, rng in zip(state.u.coeffs, state.rngs):
            store[rng.stream_id, state.step_index] = coeffs.tobytes()
    return sink


def strang_until_it_raises(state, spec, params):
    """The last state of a strang_step loop from ``state`` to the horizon, closed, and the step that raised (None if none)."""
    while state.step_index < params.n_steps:
        try:
            state = strang_step(state, spec, params)
        except NonFiniteFieldError:
            return _closed(state, spec, params), state.step_index + 1
    return _closed(state, spec, params), None


def ou_noise(spec, nu, dt, rng, step_index=0):
    """One row's sqrt(nu) b_d gamma_d over the forced modes for an exact OU step, drawn at (step_index, SUB_OU), as (1, 2, s) parts."""
    _, sd, scale = _ou_tables(spec, nu, dt)
    z = complex_normals((rng,), step_index, SUB_OU, (1, sd.size))
    return np.stack((z.real, z.imag), axis=1) * sd * scale


class TestOuExactStep:
    def test_pure_decay(self):
        noise = ou_noise(SILENT, 1.0, log(2.0), RngStream(0, 0))
        out = ou_exact_step(planes(single_mode(GRID, 1)), SILENT, 1.0, log(2.0), noise)
        assert out[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_tiny_dt_is_near_identity(self):
        c = planes(single_mode(GRID, 1))
        out = ou_exact_step(c, SILENT, 1.0, 1e-12, ou_noise(SILENT, 1.0, 1e-12, RngStream(0, 0)))
        assert np.abs(out - c).max() <= 1e-10

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            ou_exact_step(planes(zero_field(GRID)), SILENT, 1.0, 0.0, ou_noise(SILENT, 1.0, 0.0, RngStream(0, 0)))

    @pytest.mark.parametrize("noise_rows", [1, 3])
    def test_rejects_noise_of_another_row_count(self, noise_rows):
        # One noise row on two plane rows would add row 0's imaginary parts into row 1's real ones.
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
        c = planes(random_field(grid, 1), random_field(grid, 2))
        with pytest.raises(ValueError, match="noise"):
            ou_exact_step(c, spec, 0.5, 0.01, np.zeros((noise_rows, 2, spec.forced.size)))
        assert ou_exact_step(c, spec, 0.5, 0.01, np.zeros((2, 2, spec.forced.size))).shape == c.shape

    def test_rejects_grid_mismatch(self):
        other = NoiseSpec.band(GridSpec(1, 16, 8), [1.0])
        with pytest.raises(ValueError):
            ou_exact_step(planes(zero_field(GRID)), other, 1.0, 0.1, ou_noise(other, 1.0, 0.1, RngStream(0, 0)))
        with pytest.raises(ValueError):  # no row axis
            ou_exact_step(planes(zero_field(GRID))[0], SILENT, 1.0, 0.1, ou_noise(SILENT, 1.0, 0.1, RngStream(0, 0)))

    def test_stationary_second_moment(self):
        # dt large: each step is an independent stationary sample; E|u_1|^2 -> b^2/|1|^2 = 1.
        spec = NoiseSpec.single(GRID, 1)
        rng = RngStream(31, 0)
        u = planes(zero_field(GRID))
        n = 20_000
        acc = 0.0
        for k in range(n):
            u = ou_exact_step(u, spec, 1.0, 8.0, ou_noise(spec, 1.0, 8.0, rng, k))
            acc += u[0, 0, 0] ** 2 + u[1, 0, 0] ** 2
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
                ou_exact_step(planes(zero_field(GRID)), spec, nu, dt, ou_noise(spec, nu, dt, rng, k))[0, 0, 0]
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
        c = to_spectral(grid, to_planes(np.ones((1, 16), dtype=complex)))
        rotated = lattice(grid, phase_rotation_step(grid, c, pi))
        np.testing.assert_allclose(rotated, -np.ones((1, 16)), atol=1e-12)

    def test_zero_dt_identity(self):
        c = planes(random_field(GRID, 2))
        out = phase_rotation_step(GRID, c, 0.0)
        assert out is c

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            phase_rotation_step(GRID, planes(random_field(GRID, 2)), -0.1)

    def test_lattice_l2_preserved(self):
        grid = GridSpec(1, 64, 64)
        c = planes(random_field(grid, 3))
        p0 = lattice(grid, c)
        p1 = lattice(grid, phase_rotation_step(grid, c, 0.613))
        (n0,) = lattice_inner(grid, p0, p0)
        (n1,) = lattice_inner(grid, p1, p1)
        assert abs(n1 - n0) <= 1e-14 * n0

    def test_pointwise_modulus_preserved(self):
        # Hamiltonian limit: with damping and noise absent the phase flow keeps
        # every |u(x_j)| fixed; visible exactly on a square grid.
        grid = GridSpec(1, 32, 32)
        c = planes(random_field(grid, 4))
        before = np.abs(lattice(grid, c))
        after = np.abs(lattice(grid, phase_rotation_step(grid, c, 1.7)))
        np.testing.assert_allclose(after, before, rtol=1e-13)

    def test_overflowing_modulus_raises(self):
        # Every coefficient is finite, but |u|^2 overflows on the lattice: the
        # rotation returns NaN and the Strang step's one check raises.
        for grid in (GRID, GridSpec(2, 32, 16)):
            u = single_mode(grid, (1,) * grid.n, c=1e160)
            assert not np.isfinite(phase_rotation_step(grid, planes(u), 0.01)).any()
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
        # The tangent form is not the bits of np.cos and np.sin: cos - i sin must agree with
        # exp(-1j * phase) to 1e-15 and keep its modulus 1 to 1e-15, give each row the bytes of a
        # one-row factor, and turn a non-finite or overflowing phase into NaN; the step must
        # rotate each lattice plane by exactly this factor.
        def assert_close(phase):
            cos, sin = _cos_sin(0.5 * phase)
            assert np.abs((cos - 1j * sin) - np.exp(-1j * phase)).max() <= 1e-15
            assert np.abs(np.hypot(cos, sin) - 1.0).max() <= 1e-15
            return cos, sin

        assert_close(np.logspace(-12, 12, 100_001))
        rng = np.random.default_rng(M)
        for scale in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            shape = (M,) + grid.coeff_shape
            c = to_planes(scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
            v = to_physical(grid, c)
            re, im = v
            for dt in (0.01, 0.37):
                phase = (re**2 + im**2) * (0.5 * dt) * 2.0  # the step's half angle, doubled exactly
                cos, sin = assert_close(phase)
                for i in range(M):
                    one = _cos_sin(0.5 * phase[i : i + 1])
                    assert cos[i].tobytes() == one[0].tobytes() and sin[i].tobytes() == one[1].tobytes()
                rotated = np.stack((re * cos + im * sin, im * cos - re * sin))
                assert phase_rotation_step(grid, c, dt).tobytes() == to_spectral(grid, rotated).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.array([np.inf, -np.inf, np.nan, 0.37 * np.square(np.float64(1e160))])
            assert np.isnan(np.stack(_cos_sin(0.5 * bad))).all()

    def test_truncation_only_removes_energy(self):
        c = planes(random_field(GRID, 5))  # D = N/2: rotation spills into discarded modes
        p0 = lattice(GRID, c)
        p1 = lattice(GRID, phase_rotation_step(GRID, c, 0.9))
        assert lattice_inner(GRID, p1, p1)[0] <= lattice_inner(GRID, p0, p0)[0] * (1 + 1e-12)


class TestStrangStep:
    def test_tiny_amplitude_matches_pure_decay(self):
        params = SimParams(nu=1.0, dt=0.1, T=0.1, seed=0)
        u0 = single_mode(GRID, 1, c=1e-8)
        state = run(u0, SILENT, params)  # one step, closed
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
        c, pending = state.c, None
        for k in range(params.n_steps):
            rng.normals(1234, 17, 8)  # unrelated address
            noise0, noise1 = ou_convolutions((rng,), k, sd, scale)
            noise = _merged_noise(BAND, params.nu, params.dt, True, noise0[None], noise1[None], pending)[0]
            c, pending = _strang(c, BAND, params.nu, params.dt, True, noise, first=pending is None), noise1
        closed = ou_exact_step(c, BAND, params.nu, params.dt / 2, pending)
        assert np.array_equal(direct.u.coeffs, from_planes(closed))

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
            before = state.c.tobytes()
            after = strang_step(state, BAND, params)
            assert state.c.tobytes() == before != after.c.tobytes()
        # A one-row run that fails at step_index > 0 returns no state and one abort
        # whose last good state is its input closed, and leaves its input as it was.
        bad = np.zeros((1, *GRID.coeff_shape), dtype=complex)
        bad[0, 0], bad[0, -1] = 1e160, 1e-310
        good = State.of(SpectralField(GRID, bad), (RngStream(3, 0),), 0.05, 5)
        before = good.c.tobytes()
        with pytest.raises(NonFiniteFieldError):
            strang_step(good, BAND, params)
        final, (abort,) = continue_trajectory(good, BAND, params)
        assert final is None and isinstance(abort, TrajectoryAbortError)
        last = abort.last_state
        assert (last.t, last.step_index, last.rngs) == (good.t, good.step_index, good.rngs)
        assert last.c.tobytes() == good.c.tobytes() == before
        assert last.u.coeffs.tobytes() == _closed(good, BAND, params).u.coeffs.tobytes()

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
        # The rows ``bad`` are finite at step 5, but |u|^2 overflows in the step's phase rotation:
        # each aborts, in row order, with its one-row state at step 5, closed, and the other rows
        # end on their one-row runs' bits; with every row bad no state is left.
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=4)
        rngs = tuple(RngStream(params.seed, 10 + i) for i in range(3))
        for bad in ([1], [0, 2], [0, 1, 2]):
            c = rows(*(random_field(GRID, 80 + i, 0.3) for i in range(3)))
            c[bad, 0] = 1e160
            one_row = [State.of(SpectralField(GRID, c[i : i + 1]), rngs[i : i + 1], 0.05, 5) for i in range(3)]
            final, aborts = continue_trajectory(State.of(SpectralField(GRID, c), rngs, 0.05, 5), BAND, params)
            assert [abort.last_state.rngs[0].stream_id for abort in aborts] == [10 + i for i in bad]
            for i, abort in zip(bad, aborts):
                last = abort.last_state
                assert (last.step_index, last.t) == (5, 0.05) and "step 6" in str(abort)
                assert last.u.coeffs.tobytes() == _closed(one_row[i], BAND, params).u.coeffs.tobytes()
            going = [i for i in range(3) if i not in bad]
            if not going:
                assert final is None
                continue
            assert final.step_index == 10 and [r.stream_id for r in final.rngs] == [10 + i for i in going]
            for row, i in enumerate(going):
                one, none = continue_trajectory(one_row[i], BAND, params)
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
        """Slot step mod K of a freshly built Philox at (step // K, SUB_OU), split re0|im0|re1|im1, scaled: two (2, s) halves."""
        s, K = sd.size, ou_block_steps(sd.size)
        block = Generator(Philox(counter=[0, 0, SUB_OU, step // K], key=[seed, sid])).standard_normal(4 * s * K)
        noise = block[4 * s * (step % K) : 4 * s * (step % K + 1)].reshape(2, 2, s) * sd * scale
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
            # the step merges step - 1's closing half with its own opening one
            state = State.of(SpectralField(grid, u), rngs, 0.0, step)
            before = [self.fresh_convolutions(params.seed, 2**63 + i, step - 1, sd, scale) for i in range(M)]
            pending = np.stack([f[1] for f in before])
            noise = _merged_noise(spec, params.nu, params.dt, True, noise0[None], noise1[None], pending)[0]
            expected = _strang(to_planes(u), spec, params.nu, params.dt, True, noise)
            assert strang_step(state, spec, params).c.tobytes() == expected.tobytes()

    def test_unforced_mode_only_decays(self):
        spec = NoiseSpec.from_profile(GRID, "single:d=1")
        params = SimParams(nu=0.5, dt=0.02, T=0.02, seed=8, nonlinear=False)
        u0 = random_field(GRID, 12, scale=0.4)
        decay, _, _ = _ou_tables(spec, params.nu, params.dt)  # a linear step's halves are one OU(dt)
        (u1,) = run(u0, spec, params).u.coeffs
        (c0,) = u0.coeffs
        assert u1[4] == c0[4] * decay[4]
        unforced = spec.amplitudes == 0
        assert u1[unforced].tobytes() == (c0 * decay)[unforced].tobytes()
        assert u1[0] != c0[0] * decay[0]  # the forced mode got its convolution

    @staticmethod
    def count_normals(monkeypatch, by_stream=False) -> list:
        """The (step_index, substream) of every RngStream.normals call from here on, led by the
        stream id if ``by_stream``."""
        calls = []
        normals = RngStream.normals

        def counted(self, *a, **k):
            calls.append((self.stream_id, *a) if by_stream else a)
            return normals(self, *a, **k)

        monkeypatch.setattr(RngStream, "normals", counted)
        return calls

    def test_degenerate_spec_draws_nothing(self, monkeypatch):
        calls = self.count_normals(monkeypatch)
        params = SimParams(nu=0.5, dt=1e-3, T=4e-3, seed=1)
        for u0 in (random_field(GRID, 3, 0.2), SpectralField(GRID, rows(*(random_field(GRID, i, 0.2) for i in range(3))))):
            run(u0, SILENT, params)
            state = initial_state(u0, params)
            while state.step_index < params.n_steps:
                state = em_step(state, SILENT, params)
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

        def strang_loop(u0, params):  # each state carries its block's draws to the next call
            state = initial_state(u0, params)
            for _ in range(params.n_steps):
                state = strang_step(state, BAND, params)

        for drive in (lambda u0, params: run(u0, BAND, params), strang_loop):
            for n_steps in (1, K - 1, K, K + 1, 2 * K + 3):
                calls = self.count_normals(monkeypatch)
                params = SimParams(nu=0.5, dt=1e-3, T=n_steps * 1e-3, seed=9)
                assert params.n_steps == n_steps
                drive(SpectralField(GRID, rows(*(random_field(GRID, 50 + i, 0.2) for i in range(M)))), params)
                assert len(calls) == M * -(-n_steps // K)
                assert sorted(calls) == sorted((b, SUB_OU) for b in range(-(-n_steps // K)) for _ in range(M))

    def test_states_stepped_in_turn_draw_each_block_once_each(self, monkeypatch):
        # Each state carries the draws of its own block, so two states stepped in turn with
        # strang_step draw every block they reach once each, and end on their one-row runs' bits.
        K = ou_block_steps(BAND.forced.size)
        n = 2 * K + 3
        params = SimParams(nu=0.5, dt=1e-3, T=n * 1e-3, seed=9)
        fields = [random_field(GRID, 130 + i, 0.2) for i in range(2)]
        states = [initial_state(f, replace(params, stream_id=i)) for i, f in enumerate(fields)]
        calls = self.count_normals(monkeypatch)
        for _ in range(n):
            states = [strang_step(state, BAND, params) for state in states]
        assert sorted(calls) == sorted((b, SUB_OU) for b in range(3) for _ in range(2))
        for i, (field, state) in enumerate(zip(fields, states)):
            one = run(field, BAND, replace(params, stream_id=i))
            assert _closed(state, BAND, params).u.coeffs.tobytes() == one.u.coeffs.tobytes()

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
            assert noise0.tobytes() == (z[:, 0] * sd * scale).tobytes()
            assert noise1.tobytes() == (z[:, 1] * sd * scale).tobytes()
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


    def test_rows_that_stay_when_others_leave_draw_no_block_again(self, monkeypatch):
        # Two entries on the same two streams, the first leaving inside block 1: the staying row
        # takes its row of that block, so each stream draws each block it reaches once.
        K = ou_block_steps(BAND.forced.size)
        short = SimParams(nu=0.5, dt=1e-3, T=(K + 3) * 1e-3, seed=9)
        long = replace(short, nu=0.25, T=(2 * K + 5) * 1e-3)
        assert (short.n_steps, long.n_steps) == (K + 3, 2 * K + 5)
        u0 = SpectralField(GRID, rows(*(random_field(GRID, 100 + i, 0.2) for i in range(3))))
        start = State.of(u0, (RngStream(9, 0), RngStream(9, 1), RngStream(9, 0)))
        calls = self.count_normals(monkeypatch)
        final, aborts = continue_trajectory(start, BAND, (short, short, long))
        assert aborts == [] and final.step_index == 2 * K + 5
        assert sorted(calls) == sorted([(0, SUB_OU)] * 2 + [(1, SUB_OU)] * 2 + [(2, SUB_OU)])
        held = strang_step(start, BAND, short)
        kept = _take(held, [0, 2])  # the rows' noise a contiguous copy, each step's noise contiguous
        assert kept.draws.steps.flags.c_contiguous and kept.draws.key[3] == (0.5, 0.5)
        assert kept.draws.steps.tobytes() == held.draws.steps[:, [0, 2]].tobytes()

    def test_the_same_streams_under_another_spec_draw_its_blocks(self, monkeypatch):
        # Draws hold 4s normals a step and are used only under the spec and params they were made
        # with: a state that holds BAND's block 0, continued under a spec forcing another number of
        # modes, other amplitudes on the same modes or another viscosity, draws block 0 of its own
        # and steps as a copy without draws does; under its own spec and params it draws nothing.
        wide = NoiseSpec.band(GRID, [1.0, 1.0, 1.0, 1.0, 1.0])
        tilted = NoiseSpec.band(GRID, [1.0, 0.5, 2.0])
        assert wide.forced.size != BAND.forced.size == tilted.forced.size
        params = SimParams(nu=0.5, dt=1e-3, T=3e-3, seed=9)
        start = State.of(SpectralField(GRID, rows(*(random_field(GRID, 90 + i, 0.2) for i in range(2)))),
                         (RngStream(9, 0), RngStream(9, 1)))
        banded, _ = continue_trajectory(start, BAND, params)
        assert banded.step_index == 3 and banded.draws.index == 0 and banded.draws.steps.shape[-1] == BAND.forced.size
        longer = replace(params, T=8e-3)
        for spec, p, draws in ((wide, longer, 2), (tilted, longer, 2), (BAND, replace(longer, nu=0.25), 2), (BAND, longer, 0)):
            calls = self.count_normals(monkeypatch)
            warm, _ = continue_trajectory(banded, spec, p)
            assert calls == [(0, SUB_OU)] * draws and warm.draws.steps.shape[-1] == spec.forced.size
            cold, _ = continue_trajectory(replace(banded, draws=None), spec, p)
            assert warm.u.coeffs.tobytes() == cold.u.coeffs.tobytes()
            assert _closed(replace(banded, u=None), spec, p).u.coeffs.tobytes() == _closed(
                replace(banded, u=None, draws=None), spec, p).u.coeffs.tobytes()


class TestForcedModeAdd:
    """The OU update adds its noise through one flat index of the forced modes.

    The two add paths are the two plane layouts: rows of parts at n = 1, parts of rows at n >= 2.
    """

    GAP = NoiseSpec(GRID, np.where(np.isin(np.arange(16), [0, 1, 4]), 1.0, 0.0), profile="custom")
    SPECS = {
        "n1-band": BAND,
        "n1-single": NoiseSpec.single(GRID, 5),
        "n1-gap": GAP,
        "n2-band": NoiseSpec.band(GridSpec(2, 32, 16), [1.0, 1.0, 1.0]),
        "n1-silent": SILENT,
        "n2-power": NoiseSpec.power(GridSpec(2, 12, 6), 1.0),
    }

    @staticmethod
    def reference_half(c, spec, nu, dt, noise):
        """OU on planes, adding each part's noise through the forced modes' flat indices."""
        out = c * _ou_tables(spec, nu, dt)[0]
        for part, add in zip(out, (noise[:, 0], noise[:, 1])):
            part.reshape(len(part), -1)[:, spec.forced] += add
        return out

    @pytest.mark.parametrize("name", SPECS)
    def test_both_add_paths_equal_an_indexed_reference(self, name):
        spec = self.SPECS[name]
        grid = spec.grid
        index = _forced_index(spec, 3)  # every (row, part) plane's forced modes, each index once
        assert index.size == len(set(index.tolist())) == 6 * spec.forced.size
        assert np.array_equal(np.unique(index % grid.n_modes), spec.forced)
        params = SimParams(nu=0.3, dt=0.02, T=1.0, seed=17)
        c = planes(*(random_field(grid, 90 + i, 0.4) for i in range(3)))
        g = np.random.default_rng(5).normal(size=(2, 3, 2, spec.forced.size))
        assert ou_exact_step(c, spec, 0.3, 0.01, noise=g[0]).tobytes() == self.reference_half(c, spec, 0.3, 0.01, g[0]).tobytes()
        # a whole Strang step on the block's noise against the indexed reference, closed
        state = State(0.0, grid, c, tuple(RngStream(17, i) for i in range(3)), 0)
        _, sd, scale = _ou_tables(spec, params.nu, params.dt / 2)
        noise0, noise1 = ou_convolutions(state.rngs, 0, sd, scale)
        ref = from_planes(self.reference_half(c, spec, params.nu, params.dt / 2, noise0))
        ref = to_spectral(grid, to_physical(grid, ref) * np.exp(-1j * params.dt * np.abs(to_physical(grid, ref)) ** 2))
        ref = self.reference_half(to_planes(ref), spec, params.nu, params.dt / 2, noise1)
        opened = strang_step(state, spec, params)
        got = _closed(opened, spec, params).u.coeffs
        np.testing.assert_allclose(got, from_planes(ref), rtol=1e-13, atol=1e-15)
        expected = _strang(c, spec, params.nu, params.dt, True, noise0, first=True)
        assert opened.c.tobytes() == expected.tobytes()


class TestEmStep:
    def test_zero_is_fixed_point(self):
        params = SimParams(nu=0.5, dt=0.001, T=0.001, seed=0)
        state = em_step(initial_state(zero_field(GRID), params), SILENT, params)
        assert np.all(state.u.coeffs == 0)

    def test_linear_step_matches_ou_to_second_order(self):
        # Noise-free linear case: one EM step vs the exact decay, error O(dt^2).
        u0 = random_field(GRID, 8)
        errs = []
        for dt in (1e-3, 5e-4):
            params = SimParams(nu=0.5, dt=dt, T=dt, nonlinear=False, seed=0)
            em = em_step(initial_state(u0, params), SILENT, params)
            ou = ou_exact_step(planes(u0), SILENT, 0.5, dt, ou_noise(SILENT, 0.5, dt, RngStream(0, 0)))
            errs.append(np.abs(em.u.coeffs - from_planes(ou)).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_stability_guard_warns(self):
        params = SimParams(nu=1.0, dt=0.01, T=0.01, seed=0)  # nu D^2 dt = 2.56
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

    def test_entries_step_as_one_batch_and_leave_at_their_horizons(self):
        # Two rows at nu = 0.5 to step 5 and one at nu = 0.25 to step 8, each entry with its own
        # sink: every row steps with its own viscosity, the first entry's rows leave after their
        # final (off-cadence) record, and the final state holds the row that finishes last.
        short = SimParams(nu=0.5, dt=0.02, T=0.1, record_every=3, seed=21)
        long = SimParams(nu=0.25, dt=0.02, T=0.16, record_every=3, seed=21)
        fields = [random_field(GRID, 30 + i, 0.3) for i in range(3)]
        seen, recs = [], (NormRecorder(nu=short.nu), NormRecorder(nu=long.nu))
        sinks = tuple(lambda s, rec=rec: seen.append((rec.nu, s.step_index, len(s.rngs))) or rec(s) for rec in recs)
        start = State.of(SpectralField(GRID, rows(*fields)), (RngStream(21, 0), RngStream(21, 1), RngStream(21, 0)))
        final, aborts = continue_trajectory(start, BAND, (short, short, long), (sinks[0], sinks[0], sinks[1]))
        assert aborts == [] and final.step_index == 8 and len(final.rngs) == 1
        assert [(k, m) for nu, k, m in seen if nu == 0.5] == [(0, 2), (3, 2), (5, 2)]
        assert [(k, m) for nu, k, m in seen if nu == 0.25] == [(0, 1), (3, 1), (6, 1), (8, 1)]
        for rec, p, sid, field in ((recs[0], short, 0, fields[0]), (recs[0], short, 1, fields[1]), (recs[1], long, 0, fields[2])):
            p = replace(p, stream_id=sid)
            one = NormRecorder(nu=p.nu)
            single = run(field, BAND, p, one)
            assert one.streams[sid] == rec.streams[sid]
        assert single.u.coeffs.tobytes() == final.u.coeffs.tobytes()

    def test_a_sink_of_several_entries_sees_their_due_rows_in_one_call(self):
        # Rows 0 and 2 record every 2 steps and row 1 every 3, to step 6, all into one plain sink: at
        # each record step it is called once, with the closed rows of the entries due there.
        every2 = SimParams(nu=0.5, dt=0.02, T=0.12, record_every=2, seed=21)
        every3 = replace(every2, nu=0.25, record_every=3)
        fields = [random_field(GRID, 50 + i, 0.3) for i in range(3)]
        calls = []

        def sink(state):
            assert state.u is not None
            calls.append((state.step_index, [rng.stream_id for rng in state.rngs]))

        start = State.of(SpectralField(GRID, rows(*fields)), tuple(RngStream(21, i) for i in range(3)))
        continue_trajectory(start, BAND, (every2, every3, every2), sink)
        assert calls == [(0, [0, 1, 2]), (2, [0, 2]), (3, [1]), (4, [0, 2]), (6, [0, 1, 2])]

    def test_record_cadence_leaves_the_bits_alone(self):
        # The running state never closes, so runs that record every 1, 7 and 10 steps end on
        # the same bits, and their records agree wherever their steps coincide.
        seen, finals = {}, {}
        for every in (1, 7, 10):
            params = SimParams(nu=0.5, dt=0.02, T=0.6, record_every=every, seed=21)
            assert params.n_steps == 30
            seen[every] = {}
            finals[every] = run(random_field(GRID, 9, 0.3), BAND, params, capture(seen[every]))
        assert sorted(k for _, k in seen[7]) == [0, 7, 14, 21, 28, 30]
        assert sorted(k for _, k in seen[10]) == [0, 10, 20, 30]
        for every in (7, 10):
            assert finals[every].c.tobytes() == finals[1].c.tobytes()
            assert finals[every].u.coeffs.tobytes() == finals[1].u.coeffs.tobytes()
            assert seen[every] == {key: seen[1][key] for key in seen[every]}

    def test_rows_with_other_horizons_equal_their_one_row_runs(self):
        # Horizons 10 and 23 at record_every = 7: the row that leaves at step 10 closes a copy,
        # and every row's records and final state are bit for bit its one-row run's.
        short = SimParams(nu=0.5, dt=0.02, T=10 * 0.02, record_every=7, seed=21)
        long = SimParams(nu=0.25, dt=0.02, T=23 * 0.02, record_every=7, seed=21)
        assert (short.n_steps, long.n_steps) == (10, 23)
        fields = [random_field(GRID, 40 + i, 0.3) for i in range(3)]
        batch = {}
        start = State.of(SpectralField(GRID, rows(*fields)), tuple(RngStream(21, i) for i in range(3)))
        final, aborts = continue_trajectory(start, BAND, (short, long, long), capture(batch))
        assert aborts == [] and final.step_index == 23 and [r.stream_id for r in final.rngs] == [1, 2]
        assert sorted(k for sid, k in batch if sid == 0) == [0, 7, 10]
        for sid, p in ((0, short), (1, long), (2, long)):
            one = {}
            single = run(fields[sid], BAND, replace(p, stream_id=sid), capture(one))
            assert one == {key: batch[key] for key in batch if key[0] == sid}
            if p is long:
                assert single.c.tobytes() == final.c[:, sid - 1 : sid].tobytes()
                assert single.u.coeffs.tobytes() == final.u.coeffs[sid - 1 : sid].tobytes()

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_record_cadence_across_draw_blocks_leaves_the_bits_alone(self, nonlinear):
        # Runs of 2K + 5 steps cross two draw blocks inside the driver's loop: with record cadences
        # around K, each ends on the bits of strang_step called one step at a time.
        K = ou_block_steps(BAND.forced.size)
        n = 2 * K + 5
        base = SimParams(nu=0.5, dt=0.02, T=n * 0.02, seed=23, nonlinear=nonlinear)
        assert base.n_steps == n
        u0 = SpectralField(GRID, rows(*(random_field(GRID, 110 + i, 0.3) for i in range(2))))
        state = initial_state(u0, base)
        for _ in range(n):
            state = strang_step(state, BAND, base)
        expected = _closed(state, BAND, base)
        for every in (1, 7, K - 1, K, K + 1):
            seen = {}
            final = run(u0, BAND, replace(base, record_every=every), capture(seen))
            assert sorted({k for _, k in seen}) == sorted({0, n, *range(every, n, every)})
            assert final.c.tobytes() == expected.c.tobytes()
            assert final.u.coeffs.tobytes() == expected.u.coeffs.tobytes()

    def test_entries_across_draw_blocks_equal_their_one_row_runs(self):
        # Rows with their own viscosities step on per-row tables across block boundaries; the
        # entry that leaves inside block 1 and the one that goes on are bit for bit one-row runs.
        K = ou_block_steps(BAND.forced.size)
        short = SimParams(nu=0.5, dt=0.02, T=(K + 3) * 0.02, record_every=K - 1, seed=21)
        long = SimParams(nu=0.25, dt=0.02, T=(2 * K + 5) * 0.02, record_every=K - 1, seed=21)
        fields = [random_field(GRID, 120 + i, 0.3) for i in range(3)]
        batch = {}
        start = State.of(SpectralField(GRID, rows(*fields)), tuple(RngStream(21, i) for i in range(3)))
        final, aborts = continue_trajectory(start, BAND, (short, short, long), capture(batch))
        assert aborts == [] and final.step_index == 2 * K + 5 and [r.stream_id for r in final.rngs] == [2]
        for sid, p in ((0, short), (1, short), (2, long)):
            one = {}
            single = run(fields[sid], BAND, replace(p, stream_id=sid), capture(one))
            assert one == {key: batch[key] for key in batch if key[0] == sid}
        assert single.c.tobytes() == final.c.tobytes()
        assert single.u.coeffs.tobytes() == final.u.coeffs.tobytes()

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_abort_at_the_first_slot_of_a_block(self, monkeypatch, cache):
        # Row 1 overflows in step K, the first slot of block 1, whose noise merges block 0's last
        # closing half (drawn by a cold start, a state without draws, and taken from the draws of
        # a warm one): the abort carries stream 11, step K and t = K dt, closed with that half, and
        # the other rows end on their one-row runs' bits.  Each stream, the aborted one included,
        # draws each block it reads once.
        K = ou_block_steps(BAND.forced.size)
        params = SimParams(nu=0.5, dt=0.01, T=(K + 4) * 0.01, seed=4)
        c = rows(*(random_field(GRID, 80 + i, 0.3) for i in range(3)))
        c[1, 0] = 1e160
        rngs = tuple(RngStream(params.seed, 10 + i) for i in range(3))
        start = State.of(SpectralField(GRID, c), rngs, K * 0.01, K)
        if cache == "warm":  # the draws of block 0, from a step K - 1 on the same streams
            held = strang_step(State.of(SpectralField(GRID, np.zeros_like(c)), rngs, (K - 1) * 0.01, K - 1), BAND, params)
            assert held.step_index == K and held.draws.index == 0
            start = replace(start, draws=held.draws)
        calls = TestForcedModeDraws.count_normals(monkeypatch, by_stream=True)
        final, (abort,) = continue_trajectory(start, BAND, params)
        blocks = (0, 1) if cache == "cold" else (1,)
        assert sorted(calls) == [(sid, index, SUB_OU) for sid in (10, 11, 12) for index in blocks]
        last = abort.last_state
        assert (last.rngs[0].stream_id, last.step_index, last.t) == (11, K, K * 0.01)
        row_1 = State.of(SpectralField(GRID, c[1:2]), rngs[1:2], K * 0.01, K)
        assert last.u.coeffs.tobytes() == _closed(row_1, BAND, params).u.coeffs.tobytes()
        assert f"step {K + 1}" in str(abort)
        assert final.step_index == K + 4 and [r.stream_id for r in final.rngs] == [10, 12]
        for i, row in ((0, 0), (2, 1)):
            one, none = continue_trajectory(State.of(SpectralField(GRID, c[i : i + 1]), rngs[i : i + 1], K * 0.01, K), BAND, params)
            assert none == [] and one.u.coeffs.tobytes() == final.u.coeffs[row : row + 1].tobytes()

    def test_an_abort_inside_a_block_draws_it_once_per_stream(self, monkeypatch):
        # The block built for the failing step serves the aborted row's closing half, and the rows
        # that go on from that step's array keep it.
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=4)
        assert params.n_steps < ou_block_steps(BAND.forced.size)
        c = rows(*(random_field(GRID, 80 + i, 0.3) for i in range(3)))
        c[1, 0] = 1e160
        rngs = tuple(RngStream(params.seed, 10 + i) for i in range(3))
        calls = TestForcedModeDraws.count_normals(monkeypatch)
        final, (abort,) = continue_trajectory(State.of(SpectralField(GRID, c), rngs, 0.05, 5), BAND, params)
        assert calls == [(0, SUB_OU)] * 3
        assert abort.last_state.step_index == 5 and [r.stream_id for r in final.rngs] == [10, 12]
        for i, row in ((0, 0), (2, 1)):
            one, _ = continue_trajectory(State.of(SpectralField(GRID, c[i : i + 1]), rngs[i : i + 1], 0.05, 5), BAND, params)
            assert one.u.coeffs.tobytes() == final.u.coeffs[row : row + 1].tobytes()
        row_1 = State.of(SpectralField(GRID, c[1:2]), rngs[1:2], 0.05, 5)
        assert abort.last_state.u.coeffs.tobytes() == _closed(row_1, BAND, params).u.coeffs.tobytes()

    def test_a_batch_rejects_rows_with_different_dt(self):
        a = SimParams(nu=0.5, dt=0.02, T=0.1)
        start = initial_state(SpectralField(GRID, rows(zero_field(GRID), zero_field(GRID))), a)
        with pytest.raises(ValueError, match="share dt"):
            continue_trajectory(start, BAND, (a, replace(a, dt=0.01)))

    def test_nan_abort_carries_last_good_time(self):
        # A row resumed at step 5 with one mode at 1e160 overflows |u|^2 in its next rotation: the
        # abort carries the last good state of a one-row strang_step loop, its step, t and bytes.
        params = SimParams(nu=0.5, dt=0.01, T=0.5, seed=0)
        c = random_field(GRID, 10).coeffs
        c[0, 0] = 1e160
        start = State.of(SpectralField(GRID, c), (RngStream(params.seed, 0),), 5 * params.dt, 5)
        final, (abort,) = continue_trajectory(start, BAND, params)
        good, failing = strang_until_it_raises(start, BAND, params)
        assert final is None and isinstance(abort, TrajectoryAbortError)
        assert failing is not None and failing > 1
        last = abort.last_state
        assert (last.step_index, last.t) == (failing - 1, (failing - 1) * params.dt) == (good.step_index, good.t)
        assert last.u.coeffs.tobytes() == good.u.coeffs.tobytes() and last.c.tobytes() == good.c.tobytes()
        assert f"step {failing}" in str(abort)

    def test_slow_time_equivalence(self):
        # A fast chain at (nu, dt) performs the same arithmetic as a unit-viscosity
        # slow chain at dtau = nu dt with the phase angle rescaled by 1/nu.
        nu, dt, steps = 0.25, 0.02, 40
        params = SimParams(nu=nu, dt=dt, T=steps * dt, seed=13)
        fast = run(constrained_profile(GRID, nu), BAND, params)

        dtau = nu * dt
        state = initial_state(constrained_profile(GRID, nu), params)
        c = state.c
        _, sd, scale = _ou_tables(BAND, 1.0, dtau / 2)
        for k in range(steps):
            noise0, noise1 = ou_convolutions(state.rngs, k, sd, scale)
            c = ou_exact_step(c, BAND, 1.0, dtau / 2, noise=noise0)
            c = phase_rotation_step(GRID, c, dtau / nu)
            c = ou_exact_step(c, BAND, 1.0, dtau / 2, noise=noise1)
        np.testing.assert_allclose(fast.u.coeffs, from_planes(c), rtol=1e-12, atol=1e-13)


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

        u = constrained_profile(GRID, nu, sup_bound=1.0)
        assert sup_norm(u) <= 1.0 + 1e-12
        assert sobolev_norm(u, 3.0) <= nu ** (-0.06) + 1e-12


class TestCheckpoints:
    def test_round_trip(self):
        params = SimParams(nu=0.5, dt=0.01, T=0.1, seed=3, stream_id=2)
        state = run(random_field(GRID, 11, 0.2), BAND, params)
        back = checkpoint_from_bytes(checkpoint_to_bytes(state))
        assert back.t == state.t
        assert back.step_index == state.step_index
        (rng,) = back.rngs
        assert rng.base_seed == 3 and rng.stream_id == 2
        assert back.c.shape == (2, 1, *GRID.coeff_shape) and back.u is None  # the open state at step 10
        assert np.array_equal(back.c, state.c)

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

    def test_resume_off_the_record_cadence_is_bit_exact(self):
        # A checkpoint at step 13 of a run that records every 10 steps holds the open state:
        # the resumed run ends on the full run's bits and makes its records from step 20 on.
        u0 = random_field(GRID, 16, 0.2)
        params = SimParams(nu=0.5, dt=0.01, T=0.3, record_every=10, seed=5)
        whole, resumed_records = {}, {}
        full = run(u0, BAND, params, capture(whole))
        half = run(u0, BAND, replace(params, T=0.13))
        assert half.step_index == 13
        resumed, aborts = continue_trajectory(
            checkpoint_from_bytes(checkpoint_to_bytes(half)), BAND, params, capture(resumed_records)
        )
        assert aborts == [] and resumed.c.tobytes() == full.c.tobytes()
        assert resumed.u.coeffs.tobytes() == full.u.coeffs.tobytes()
        assert resumed_records == {key: v for key, v in whole.items() if key[1] > 13}
        assert sorted(k for _, k in resumed_records) == [20, 30]

    def test_resume_across_a_block_boundary_is_bit_exact(self):
        # The OU draws of K steps share one address: a checkpoint inside one block
        # resumes to a horizon in the next one bit-exactly, cold (a checkpoint holds no draws).
        K = ou_block_steps(BAND.forced.size)
        u0 = random_field(GRID, 14, 0.2)
        full = run(u0, BAND, SimParams(nu=0.5, dt=0.01, T=(K + 5) * 0.01, seed=15))
        for at in (K - 3, K - 1, K):
            half = run(u0, BAND, SimParams(nu=0.5, dt=0.01, T=at * 0.01, seed=15))
            assert half.step_index == at and half.draws is not None
            cold = checkpoint_from_bytes(checkpoint_to_bytes(half))
            assert cold.draws is None
            resumed, _ = continue_trajectory(
                cold,
                BAND,
                SimParams(nu=0.5, dt=0.01, T=(K + 5) * 0.01, seed=15),
            )
            assert resumed.step_index == full.step_index == K + 5
            assert resumed.u.coeffs.tobytes() == full.u.coeffs.tobytes()

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_a_resumed_row_draws_only_the_blocks_it_reads(self, monkeypatch, nonlinear):
        # Resumed inside block 1, a row draws block 1 alone; resumed at step K, the block's first
        # slot, a nonlinear row also draws block 0 once, for the closing half its step K merges,
        # and a linear row, which merges none, does not.  Records and the close read the draws.
        K = ou_block_steps(BAND.forced.size)
        params = SimParams(nu=0.5, dt=0.01, T=(K + 10) * 0.01, seed=15, nonlinear=nonlinear)
        u0 = random_field(GRID, 14, 0.2)
        for at, blocks in ((K + 5, [1]), (K, [0, 1] if nonlinear else [1])):
            half = run(u0, BAND, replace(params, T=at * 0.01))
            assert half.step_index == at
            calls = TestForcedModeDraws.count_normals(monkeypatch)
            final, aborts = continue_trajectory(checkpoint_from_bytes(checkpoint_to_bytes(half)), BAND, params, capture({}))
            assert aborts == [] and final.step_index == K + 10
            assert sorted(calls) == [(b, SUB_OU) for b in blocks]

    @staticmethod
    def with_meta(buf: bytes, edit) -> bytes:
        """The checkpoint ``buf`` with its metadata replaced by ``edit(metadata)``."""
        (n,) = struct.unpack("<I", buf[8:12])
        blob = json.dumps(edit(json.loads(buf[12 : 12 + n])), sort_keys=True).encode()
        return buf[:8] + struct.pack("<I", len(blob)) + blob + buf[12 + n :]

    def test_counter_key_of_older_files_is_ignored(self):
        state = initial_state(random_field(GRID, 13, 0.2), SimParams(nu=0.5, dt=0.01, T=0.1, seed=3))
        buf = checkpoint_to_bytes(state)
        (n,) = struct.unpack("<I", buf[8:12])
        assert "counter" not in json.loads(buf[12 : 12 + n])
        back = checkpoint_from_bytes(self.with_meta(buf, lambda meta: {**meta, "counter": 7}))
        assert (back.t, back.step_index, back.rngs[0].stream_id) == (state.t, state.step_index, 0)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            checkpoint_from_bytes(b"XXXXXXXX\x00\x00\x00\x00")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: {k: v for k, v in meta.items() if k != "base_seed"},
            lambda meta: {**meta, "step_index": -3},
            lambda meta: {**meta, "step_index": 1.5},
            lambda meta: {**meta, "t": "x"},
        ],
        ids=["no-base-seed", "negative-step", "fractional-step", "text-t"],
    )
    def test_rejects_bad_metadata(self, edit):
        buf = checkpoint_to_bytes(initial_state(random_field(GRID, 13, 0.2), SimParams(nu=0.5, dt=0.01, T=0.1, seed=3)))
        with pytest.raises(ValueError, match="checkpoint"):
            checkpoint_from_bytes(self.with_meta(buf, edit))


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

    def test_slow_time_conversions(self):
        p = SimParams(nu=0.25, dt=0.01, T=1.0)
        assert p.n_steps == 100

    def test_n_steps_is_exact_for_whole_step_horizons(self):
        # T / dt = 100.00000000000001 here; ceil would take a 101st step
        p = SimParams(nu=0.4, dt=0.01 / 0.4, T=1.0 / 0.4)
        assert p.T / p.dt > 100 and p.n_steps == 100
        assert SimParams(nu=0.1, dt=0.01, T=3.0 * 0.1 / 0.1).n_steps == 300
        assert SimParams(nu=0.5, dt=0.3, T=1.0).n_steps == 4  # a real remainder still rounds up
