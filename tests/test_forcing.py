"""Forcing law: profiles, weighted sums, and counter-addressed draws."""

from math import sqrt

import numpy as np
import pytest
from numpy.random import Generator, Philox

from cascade_lab.forcing import (
    SUB_INCREMENT,
    NoiseSpec,
    ProfileError,
    RngStream,
    bk_sum,
    complex_normals,
    forced_increments,
)
from cascade_lab.spectral import GridSpec

GRID = GridSpec(1, 16, 8)


class TestProfiles:
    def test_band(self):
        spec = NoiseSpec.band(GRID, [1.0, 1.0, 0.5])
        np.testing.assert_allclose(spec.amplitudes[:4], [1.0, 1.0, 0.5, 0.0])
        assert spec.profile == "band:1,1,0.5"

    def test_power(self):
        spec = NoiseSpec.power(GRID, 1.5)
        np.testing.assert_allclose(spec.amplitudes[2], 3.0**-1.5)

    def test_exponential(self):
        spec = NoiseSpec.exponential(GRID, 0.7)
        np.testing.assert_allclose(spec.amplitudes[4], np.exp(-0.7 * 5))

    def test_single(self):
        spec = NoiseSpec.single(GRID, 2)
        assert spec.amplitudes[1] == 1.0
        assert spec.amplitudes.sum() == 1.0

    def test_single_2d(self):
        grid = GridSpec(2, 8, 4)
        spec = NoiseSpec.single(grid, (2, 3))
        assert spec.amplitudes[1, 2] == 1.0
        assert spec.amplitudes.sum() == 1.0

    def test_band_2d_is_shellwise(self):
        grid = GridSpec(2, 8, 4)
        spec = NoiseSpec.band(grid, [1.0, 0.5])
        assert spec.amplitudes[0, 0] == 1.0  # |d| = sqrt(2), shell 1
        assert spec.amplitudes[1, 1] == 0.5  # |d| = sqrt(8), shell 2
        assert spec.amplitudes[3, 3] == 0.0  # |d| = sqrt(32), shell 5

    @pytest.mark.parametrize(
        "text",
        ["power:p=1.5", "exp:a=0.7", "band:1,1,0.5", "single:d=2"],
    )
    def test_grammar_round_trip(self, text):
        spec = NoiseSpec.from_profile(GRID, text)
        again = NoiseSpec.from_profile(GRID, spec.profile)
        assert np.array_equal(spec.amplitudes, again.amplitudes)

    @pytest.mark.parametrize(
        "text",
        ["power", "power:q=1", "gauss:a=1", "band:", "single:d=0", "single:d=99", "exp:a=x"],
    )
    def test_grammar_rejects(self, text):
        with pytest.raises(ProfileError):
            NoiseSpec.from_profile(GRID, text)

    def test_degenerate_flag(self):
        assert NoiseSpec.band(GRID, [0.0]).degenerate
        assert not NoiseSpec.band(GRID, [1.0]).degenerate

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            NoiseSpec(GRID, -np.ones(GRID.coeff_shape))


class TestBkSums:
    def test_single_mode(self):
        spec = NoiseSpec.single(GRID, 1)
        assert bk_sum(spec, 2) == pytest.approx(1.0)

    def test_band_examples(self):
        spec = NoiseSpec.band(GRID, [1.0, 1.0, 1.0])
        assert bk_sum(spec, 0) == pytest.approx(3.0)
        assert bk_sum(spec, 1) == pytest.approx(14.0)  # 1 + 4 + 9

    def test_power_two_modes(self):
        grid = GridSpec(1, 4, 2)
        spec = NoiseSpec.power(grid, 1.0)
        assert bk_sum(spec, 1) == pytest.approx(2.0)  # 1*1 + 4*(1/4)

    def test_monotone_in_k(self):
        spec = NoiseSpec.power(GRID, 1.0)
        ks = [0.0, 0.5, 1.0, 2.0, 3.5]
        vals = [bk_sum(spec, k) for k in ks]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_additive_over_disjoint_bands(self):
        lo = NoiseSpec.band(GRID, [1.0, 2.0])
        hi = NoiseSpec.band(GRID, [0.0, 0.0, 3.0, 4.0])
        both = NoiseSpec.band(GRID, [1.0, 2.0, 3.0, 4.0])
        for k in (0.0, 1.0, 2.0):
            assert bk_sum(both, k) == pytest.approx(bk_sum(lo, k) + bk_sum(hi, k))


class TestRngStream:
    def test_matches_fresh_philox_construction(self):
        streams = {}
        for seed, sid, step, sub, count in [
            (12345, 7, 0, 0, 16),
            (12345, 7, 17, 1, 64),
            (12345, 7, 9999, 3, 128),
            (2**64 - 1, 2**63, 2**40, 1, 64),  # an address at the uint64 extremes
        ]:
            stream = streams.setdefault((seed, sid), RngStream(seed, sid))
            expected = Generator(
                Philox(counter=[0, 0, sub, step], key=[seed, sid])
            ).standard_normal(count)
            got = stream.normals(step, sub, count)
            assert np.array_equal(got, expected)
            # the same draw into one row of a preallocated buffer
            rows = np.zeros((2, count))
            row = rows[1]
            assert stream.normals(step, sub, out=row) is row
            assert np.array_equal(row, expected) and not rows[0].any()

    def test_replay_identical(self):
        a = RngStream(1, 2).normals(5, 0, 32)
        b = RngStream(1, 2).normals(5, 0, 32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1, 2).normals(5, 0, 32)
        b = RngStream(1, 3).normals(5, 0, 32)
        c = RngStream(2, 2).normals(5, 0, 32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_addressing_is_pure(self):
        stream = RngStream(1, 2)
        first = stream.normals(5, 0, 32)
        stream.normals(6, 1, 8)  # interleave another address
        again = stream.normals(5, 0, 32)
        assert np.array_equal(first, again)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestComplexNormals:
    @pytest.mark.parametrize("M, shape", [(5, (5, 8)), (5, (5, 4, 4)), (1, (4, 4))])
    def test_bits_equal_per_stream_stack(self, M, shape):
        rngs = [RngStream(31, sid) for sid in range(M)]
        k = int(np.prod(shape)) // M
        # Reference: each stream's 2k draws split into (re, im), stacked to (2, M, k).
        z = np.stack([rng.normals(9, SUB_INCREMENT, 2 * k).reshape(2, k) for rng in rngs], axis=1)
        expected = (z[0] + 1j * z[1]).reshape(shape)
        got = complex_normals(rngs, 9, SUB_INCREMENT, shape)
        assert got.shape == shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestForcedModes:
    def test_forced_indices_are_cached_and_read_only(self):
        grid = GridSpec(2, 16, 8)
        spec = NoiseSpec.band(grid, [1.0, 0.0, 0.5])
        assert spec.forced is spec.forced and not spec.forced.flags.writeable
        assert np.array_equal(spec.forced, np.flatnonzero(spec.amplitudes))
        assert NoiseSpec.band(grid, [0.0]).forced.size == 0 and NoiseSpec.band(grid, [0.0]).degenerate

    @pytest.mark.parametrize("M", [1, 3])
    def test_increments_draw_2s_normals_over_forced_modes(self, M):
        grid = GridSpec(2, 16, 8)
        spec = NoiseSpec.band(grid, [1.0, 0.5])
        s = spec.forced.size
        rngs = [RngStream(3, sid) for sid in range(M)]
        got = forced_increments(spec, 0.25, rngs, 6)
        assert got.shape == (M, *grid.coeff_shape)
        for rng, row in zip(rngs, got):
            z = Generator(Philox(counter=[0, 0, SUB_INCREMENT, 6], key=[3, rng.stream_id])).standard_normal(2 * s)
            b = spec.amplitudes.reshape(-1)[spec.forced]
            flat = row.reshape(-1)
            assert flat[spec.forced].tobytes() == (b * (0.5 * (z[:s] + 1j * z[s:]))).tobytes()
            assert not np.delete(flat, spec.forced).any()


class TestSampleIncrements:
    def test_zero_spec_gives_zero_draws(self):
        spec = NoiseSpec.band(GRID, [0.0])
        draws = forced_increments(spec, 0.1, (RngStream(0, 0),), step_index=0)[0]
        assert np.all(draws == 0)

    def test_rejects_nonpositive_dt(self):
        spec = NoiseSpec.band(GRID, [1.0])
        with pytest.raises(ValueError):
            forced_increments(spec, 0.0, (RngStream(0, 0),), step_index=0)

    def test_replay_contract(self):
        spec = NoiseSpec.band(GRID, [1.0, 1.0])
        a = forced_increments(spec, 0.25, (RngStream(42, 3),), step_index=11)[0]
        b = forced_increments(spec, 0.25, (RngStream(42, 3),), step_index=11)[0]
        assert np.array_equal(a, b)

    def test_variance_matches_gaussian_oracle(self):
        # Re-part variance of b_d * g with b = 1 should be dt; 1e5 samples, 3 sigma.
        spec = NoiseSpec.single(GridSpec(1, 4, 2), 1)
        rng = RngStream(2024, 0)
        dt = 0.25
        n = 100_000
        draws = np.array([forced_increments(spec, dt, (rng,), step_index=k)[0, 0] for k in range(n)])
        var = draws.real.var()
        se = dt * sqrt(2.0 / n)  # sd of a variance estimate for Gaussians
        assert abs(var - dt) <= 3 * se

    def test_mode_independence(self):
        spec = NoiseSpec.band(GridSpec(1, 8, 4), [1.0, 1.0, 1.0, 1.0])
        rng = RngStream(7, 0)
        n = 100_000
        z = np.empty((n, 4), dtype=complex)
        for k in range(n):
            z[k] = forced_increments(spec, 1.0, (rng,), step_index=k)[0]
        corr = np.corrcoef(z.real.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() <= 4.0 / sqrt(n)

    def test_increment_scaling_dt_quarters(self):
        # Four dt/4 increments summed match one dt increment in variance; the fine sums draw
        # from their own stream, independent of the coarse draws.
        spec = NoiseSpec.single(GridSpec(1, 4, 2), 1)
        rng, fine_rng = RngStream(5, 0), RngStream(5, 1)
        n = 40_000
        dt = 0.2
        coarse = np.array(
            [forced_increments(spec, dt, (rng,), step_index=k)[0, 0] for k in range(n)]
        )
        fine = np.array(
            [
                sum(
                    forced_increments(spec, dt / 4, (fine_rng,), step_index=4 * k + j)[0, 0]
                    for j in range(4)
                )
                for k in range(n)
            ]
        )
        vc, vf = coarse.real.var(), fine.real.var()
        se = dt * sqrt(2.0 / n)
        assert abs(vc - dt) <= 3 * se
        assert abs(vf - dt) <= 3 * se

    def test_lexicographic_layout(self):
        # Draw layout: all real parts (C order over modes), then all imaginary parts.
        grid = GridSpec(2, 8, 3)
        spec = NoiseSpec(grid, np.ones(grid.coeff_shape))
        rng = RngStream(9, 1)
        z = rng.normals(4, SUB_INCREMENT, 2 * grid.n_modes)
        draws = forced_increments(spec, 1.0, (rng,), step_index=4)[0]
        assert draws[1, 2] == pytest.approx(complex(z[1 * 3 + 2], z[9 + 1 * 3 + 2]))
