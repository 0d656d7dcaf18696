"""Diagnostics: constructed-instance checks and the spec'd report semantics."""

import io
import struct
import warnings
from math import inf, log, sqrt

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from cascade_lab import diagnostics, schema
from cascade_lab.diagnostics import (
    DiagnosticsRecord,
    NormRecorder,
    Stream,
    balance_check,
    occupation_check,
    read_stream_csv,
    stationary_check,
    stream_csv_text,
    time_avg_sobolev,
)
from cascade_lab.forcing import NoiseSpec, RngStream, bk_sum
from cascade_lab.integrators import (
    SimParams,
    State,
    constrained_profile,
    continue_trajectory,
    initial_state,
    zero_field,
)
from cascade_lab.spectral import GridSpec, SpectralField, sup_norm
from oracles import exp_moment


def synth_stream(taus, n0, n2, nu=1.0, n1=None):
    """Build a stream from given slow times and norm arrays (the sup column repeats ||u||_0)."""
    taus = np.asarray(taus, dtype=float)
    n1 = n1 if n1 is not None else np.zeros_like(taus)
    return Stream(np.column_stack([taus / nu, taus, n0, n1, n2, n0]), schema.stream_columns((0.0, 1.0, 2.0)))


UNIFORM_TAUS = np.linspace(0.0, 1.0, 101)


class TestOccupationCheck:
    def test_trajectory_always_above_chi_contributes_zero(self):
        stream = synth_stream(UNIFORM_TAUS, np.full(101, 5.0), np.full(101, 0.1))
        report = occupation_check([stream], chi=1.0, gamma=10.0, tau0=0.0, tau=1.0, b0=3.0)
        assert report.lhs_mean == 0.0
        assert report.passed

    def test_capped_at_start_contributes_zero(self):
        # ||u||_2 >= Gamma already at tau0 means tau_Gamma = tau0: empty window.
        stream = synth_stream(UNIFORM_TAUS, np.zeros(101), np.full(101, 7.0))
        report = occupation_check([stream], chi=1.0, gamma=7.0, tau0=0.0, tau=1.0, b0=3.0)
        assert report.lhs_mean == 0.0

    def test_constructed_instance_integrates_to_one(self):
        # ||u||_0 = 0 and ||u||_2 = Gamma/2 throughout [0, 1]: lhs is exactly 1,
        # and the verdict is decided by 1 <= 4 chi Gamma / B0.
        stream = synth_stream(UNIFORM_TAUS, np.zeros(101), np.full(101, 1.0))
        report = occupation_check([stream], chi=0.5, gamma=2.0, tau0=0.0, tau=1.0, b0=3.0)
        assert report.lhs_mean == pytest.approx(1.0, abs=1e-12)
        assert report.rhs_bound == pytest.approx(4.0 * 0.5 * 2.0 / 3.0)
        assert report.passed  # 1 <= 4/3
        tight = occupation_check([stream], chi=0.1, gamma=2.0, tau0=0.0, tau=1.0, b0=3.0)
        assert not tight.passed  # 1 > 4*0.1*2/3 ~ 0.27

    def test_informative_only_when_some_time_is_spent_below_chi(self):
        above = synth_stream(UNIFORM_TAUS, np.full(101, 5.0), np.full(101, 0.1))
        below = synth_stream(UNIFORM_TAUS, np.zeros(101), np.full(101, 1.0))
        capped = synth_stream(UNIFORM_TAUS, np.zeros(101), np.full(101, 7.0))
        for streams, informative in (([above], False), ([capped, above], False), ([above, below], True)):
            report = occupation_check(streams, chi=1.0, gamma=7.0, tau0=0.0, tau=1.0, b0=3.0)
            assert report.informative is informative
            assert (report.lhs_mean == 0.0 and report.lhs_se == 0.0) is not informative
            assert schema.report(report)["informative"] is informative

    def test_stopping_truncates_window(self):
        # ||u||_2 crosses Gamma at tau = 0.5; the indicator is on throughout.
        n2 = np.where(UNIFORM_TAUS < 0.5, 0.0, 9.0)
        stream = synth_stream(UNIFORM_TAUS, np.zeros(101), n2)
        report = occupation_check([stream], chi=1.0, gamma=9.0, tau0=0.0, tau=1.0, b0=3.0)
        assert report.lhs_mean == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_chi_and_tau(self):
        rng = np.random.default_rng(0)
        streams = [
            synth_stream(UNIFORM_TAUS, rng.uniform(0, 2, 101), rng.uniform(0, 2, 101))
            for _ in range(8)
        ]
        lhs_chi = [
            occupation_check(streams, chi, 5.0, 0.0, 1.0, 3.0).lhs_mean
            for chi in (0.2, 0.5, 1.0, 1.8)
        ]
        assert all(b >= a for a, b in zip(lhs_chi, lhs_chi[1:]))
        lhs_tau = [
            occupation_check(streams, 1.0, 5.0, 0.0, tau, 3.0).lhs_mean
            for tau in (0.25, 0.5, 1.0)
        ]
        assert all(b >= a for a, b in zip(lhs_tau, lhs_tau[1:]))

    def test_errors(self):
        stream = synth_stream(UNIFORM_TAUS, np.zeros(101), np.zeros(101))
        with pytest.raises(ValueError, match="empty"):
            occupation_check([], 1.0, 1.0, 0.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="not contained"):
            occupation_check([stream], 1.0, 1.0, 0.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="degenerate"):
            occupation_check([stream], 1.0, 1.0, 0.0, 1.0, 0.0)

    def test_report_notes_discretization(self):
        stream = synth_stream(UNIFORM_TAUS, np.zeros(101), np.zeros(101))
        report = occupation_check([stream], 1.0, 1.0, 0.0, 1.0, 3.0)
        assert "sample" in report.note
        d = schema.report(report)
        assert list(d)[:2] == ["schema_version", "type"]


class TestStationaryCheck:
    def test_chi_zero_frequency_zero(self):
        rng = np.random.default_rng(1)
        stream = synth_stream(UNIFORM_TAUS, rng.uniform(0.5, 2, 101), np.ones(101))
        report = stationary_check([stream], chi=0.0, b0=3.0)
        assert report.frequency == 0.0

    def test_chi_above_max_saturates(self):
        rng = np.random.default_rng(2)
        n0 = rng.uniform(0.5, 2, 101)
        stream = synth_stream(UNIFORM_TAUS, n0, np.ones(101))
        report = stationary_check([stream], chi=float(n0.max()) + 1.0, b0=0.1)
        assert report.frequency == 1.0
        # bound = 2 chi Gamma / B0 is huge here, so it must exceed one and be
        # flagged inapplicable rather than failing
        assert report.bound > 1.0
        assert not report.applicable

    def test_chi_at_median_gives_half(self):
        rng = np.random.default_rng(3)
        n0 = rng.uniform(0.0, 2.0, 401)
        stream = synth_stream(np.linspace(0, 1, 401), n0, np.ones(401))
        chi = float(np.median(n0[[r.t >= 0.2 for r in stream]]))
        report = stationary_check([stream], chi=chi, b0=3.0)
        assert report.frequency == pytest.approx(0.5, abs=0.05)

    def test_empty_sample_errors(self):
        with pytest.raises(ValueError):
            stationary_check([], chi=1.0, b0=3.0)


class TestBalanceCheck:
    def test_constant_stream_recovers_value(self):
        taus = np.linspace(0, 10, 201)
        n1 = np.full(201, sqrt(3.0))
        stream = synth_stream(taus, np.ones(201), np.ones(201), nu=1.0, n1=n1)
        report = balance_check([stream], b0=3.0, nu=1.0)
        assert report.avg_h1_sq == pytest.approx(3.0, rel=1e-12)
        assert report.relative_residual == pytest.approx(0.0, abs=1e-12)
        assert report.se == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_spec_flagged(self):
        taus = np.linspace(0, 10, 201)
        stream = synth_stream(taus, np.zeros(201), np.zeros(201), nu=1.0)
        report = balance_check([stream], b0=0.0, nu=1.0)
        assert report.degenerate
        assert np.isnan(report.relative_residual)

    def test_window_too_short(self):
        taus = np.linspace(0, 10, 21)
        stream = synth_stream(taus, np.ones(21), np.ones(21))
        with pytest.raises(ValueError, match="window too short"):
            balance_check([stream], b0=3.0, nu=1.0)

    def test_linear_runs_converge_with_length(self):
        # Linear-only system: the estimate tightens as the run length quadruples
        # (standard error roughly halves per quadrupling over 3 doublings).
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0, 1.0, 1.0])
        b0 = bk_sum(spec, 0.0)
        results = []
        for t_slow in (25.0, 100.0):
            streams = []
            for sid in range(4):
                params = SimParams(
                    nu=1.0, dt=0.05, T=t_slow, record_every=2, seed=99, stream_id=sid,
                    nonlinear=False,
                )
                rec = NormRecorder()
                continue_trajectory(initial_state(zero_field(grid), params), spec, params, rec)
                streams.append(rec.streams[sid])
            results.append(balance_check(streams, b0, nu=1.0))
        short, long = results
        assert abs(long.avg_h1_sq - b0) <= 3 * long.se + 1e-12
        assert long.se <= 0.7 * short.se
        assert abs(long.avg_h1_sq - b0) <= abs(short.avg_h1_sq - b0) + 2 * short.se

    def test_recomputation_identical(self):
        rng = np.random.default_rng(4)
        taus = np.linspace(0, 10, 101)
        stream = synth_stream(taus, np.ones(101), np.ones(101), n1=rng.uniform(1, 2, 101))
        a = balance_check([stream], b0=3.0, nu=1.0)
        b = balance_check([stream], b0=3.0, nu=1.0)
        assert a == b


class TestTimeAvgSobolev:
    def test_constant_stream(self):
        taus = np.linspace(0, 2, 81)
        stream = synth_stream(taus, np.full(81, 1.3), np.ones(81))
        assert time_avg_sobolev(stream, 0.0, t0=0.5, nu=1.0) == pytest.approx(1.3**2, rel=1e-12)

    def test_zero_stream(self):
        taus = np.linspace(0, 2, 81)
        stream = synth_stream(taus, np.zeros(81), np.ones(81))
        assert time_avg_sobolev(stream, 0.0, t0=0.0, nu=1.0) == 0.0

    def test_alternating_stream(self):
        taus = np.linspace(0, 2, 201)
        vals = np.where(np.arange(201) % 2 == 0, 1.5, 0.0)
        stream = synth_stream(taus, vals, np.ones(201))
        got = time_avg_sobolev(stream, 0.0, t0=0.0, nu=1.0)
        cell = 2.0 / 200
        assert abs(got - 1.5**2 / 2) <= 1.5**2 * cell  # one-sample edge effect

    def test_slow_time_normalization(self):
        # In fast time the window is 1/nu long; result equals the plain slow-unit average.
        nu = 0.25
        taus = np.linspace(0, 2, 161)
        stream = synth_stream(taus, np.full(161, 2.0), np.ones(161), nu=nu)
        assert time_avg_sobolev(stream, 0.0, t0=1.0 / nu, nu=nu) == pytest.approx(4.0, rel=1e-12)

    def test_insufficient_coverage(self):
        taus = np.linspace(0, 0.5, 21)
        stream = synth_stream(taus, np.ones(21), np.ones(21))
        with pytest.raises(ValueError, match="not contained"):
            time_avg_sobolev(stream, 0.0, t0=0.0, nu=1.0)

    def test_bounded_by_window_sup(self):
        rng = np.random.default_rng(5)
        taus = np.linspace(0, 1, 101)
        vals = rng.uniform(0, 3, 101)
        stream = synth_stream(taus, vals, np.ones(101))
        avg = time_avg_sobolev(stream, 0.0, t0=0.0, nu=1.0)
        assert avg <= float(vals.max()) ** 2 + 1e-12


class TestExpMoment:
    def test_c_zero_is_one(self):
        report = exp_moment([0.3, 1.7, 2.2], 0.0)
        assert report.value == 1.0

    def test_zero_samples(self):
        assert exp_moment(np.zeros(10), 3.0).value == 1.0

    def test_two_ones_at_log2(self):
        report = exp_moment([1.0, 1.0], log(2.0))
        assert report.value == pytest.approx(2.0, rel=1e-12)

    def test_stability_flag_trips_on_heavy_tail(self):
        samples = np.concatenate([np.full(50, 0.1), [6.0]])
        report = exp_moment(samples, 1.0)
        assert not report.stable

    def test_rejects_negative_c(self):
        with pytest.raises(ValueError):
            exp_moment([1.0], -0.1)


class TestNormRecorder:
    def test_reading_streams_mid_run_leaves_the_bytes_alone(self):
        # At n=1 N=16 two rows hold 512 B of lattice values, so no pass fills PASS_BYTES here: a read
        # at step 6 measures the 4 pending record steps early, and the rest of the run must append
        # the same rows as a recorder read only at the end.
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0, 1.0])
        params = SimParams(nu=0.5, dt=0.05, T=1.0, record_every=2, seed=7)
        u0 = SpectralField(grid, np.concatenate([constrained_profile(grid, 0.5).coeffs * s for s in (1.0, 0.5)]))
        early, late = (NormRecorder(cm_orders=(1,), shells=True) for _ in range(2))
        mid = []

        def sink(state, params):
            early(state, params)
            if state.step_index == 6:
                mid.append({sid: s.data.copy() for sid, s in early.streams.items()})

        continue_trajectory(initial_state(u0, params), spec, params, sink)
        continue_trajectory(initial_state(u0, params), spec, params, late)
        assert [len(rows) for rows in mid[0].values()] == [4, 4]  # steps 0, 2, 4 and 6
        assert sorted(early.streams) == sorted(late.streams) == [0, 1]
        for sid, stream in late.streams.items():
            assert stream_csv_text(early.streams[sid]) == stream_csv_text(stream)
            assert mid[0][sid].tobytes() == stream.data[:4].tobytes()


    def test_a_record_step_that_would_overfill_the_pending_pass_ends_it_first(self, monkeypatch):
        # Closed states of 3, 2, 1, 2 and 3 rows at steps 0, 2, 3, 4 and 6, at 512 B of lattice values
        # a row (n=1 N=32). With 2 KiB passes no pass goes over 2 KiB, and every row has the bits of a
        # recorder that measures each record step alone.
        grid = GridSpec(1, 32, 8)
        profile = constrained_profile(grid, 0.5).coeffs
        due = [(0, [0, 1, 2]), (2, [0, 2]), (3, [1]), (4, [0, 2]), (6, [0, 1, 2])]
        params = SimParams(nu=0.5, dt=0.02, T=0.12)
        states = [
            replace(State.of(
                SpectralField(grid, np.concatenate([profile * (1.0 + sid) / (1.0 + k) for sid in sids])),
                tuple(RngStream(21, sid) for sid in sids),
            ), step_index=k)
            for k, sids in due
        ]
        measured, cm_norm = [], diagnostics.cm_norm
        monkeypatch.setattr(diagnostics, "cm_norm", lambda u, m: measured.append(len(u.coeffs)) or cm_norm(u, m))
        streams = {}
        for size in (2048, 0):
            monkeypatch.setattr(diagnostics, "PASS_BYTES", size)
            rec = NormRecorder(cm_orders=(2,), shells=True)
            for state in states:
                rec(state, params)
            streams[size] = rec.streams
        assert measured == [3, 3, 2, 3] + [3, 2, 1, 2, 3]
        assert sorted(streams[2048]) == [0, 1, 2]
        assert [len(streams[2048][sid]) for sid in range(3)] == [4, 3, 4]
        for sid, stream in streams[0].items():
            assert stream_csv_text(streams[2048][sid]) == stream_csv_text(stream)

    def test_a_repeated_sobolev_order_is_one_column_in_first_seen_order(self):
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0])
        params = SimParams(nu=0.5, dt=0.05, T=0.2, seed=3)
        recs = [NormRecorder(ms=ms) for ms in ((2.0, 2.0), (2.0, 0.0, 0.5, 0.0), (2.0, 0.0, 0.5))]
        for rec in recs:
            continue_trajectory(initial_state(constrained_profile(grid, 0.5), params), spec, params, rec)
        assert stream_csv_text(recs[0].streams[0]).startswith("t,tau,norm_2,sup\n")
        assert recs[1].streams[0] == recs[2].streams[0]
        assert stream_csv_text(recs[2].streams[0]).startswith("t,tau,norm_2,norm_0,norm_0.5,sup\n")


class TestStreamCsv:
    def test_round_trip(self):
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0])
        params = SimParams(nu=0.5, dt=0.05, T=0.5, record_every=2, seed=7)
        rec = NormRecorder(ms=(0.0, 1.0, 2.0, 2.5), cm_orders=(1,), shells=True)
        continue_trajectory(initial_state(zero_field(grid), params), spec, params, rec)
        text = stream_csv_text(rec.streams[0])
        back = read_stream_csv(io.StringIO(text))
        assert back == rec.streams[0]

    def test_header_columns(self):
        grid = GridSpec(1, 16, 8)
        spec = NoiseSpec.band(grid, [1.0])
        params = SimParams(nu=0.5, dt=0.1, T=0.2, seed=1)
        rec = NormRecorder()
        continue_trajectory(initial_state(zero_field(grid), params), spec, params, rec)
        header = stream_csv_text(rec.streams[0]).splitlines()[0]
        assert header == "t,tau,norm_0,norm_1,norm_2,sup"

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            stream_csv_text([])

    def test_read_back_equals_written_to_the_bit(self):
        odd = [5e-324, -0.0, 0.0, 1.7976931348623157e308, inf, -inf, 0.1 + 0.2, 1 / 3, -2.5e-310, 1e22]
        full = Stream(
            [[0.05 * i, x, x, -x, x / 7, abs(x), x * 3, x, 2.0, -x] for i, x in enumerate(odd)],
            schema.stream_columns((0.0, 1.0, 2.5), cm_orders=(1,), n_shells=3),
        )
        bare = Stream(full.data[:, :6], full.columns[:6])
        for stream in (full, bare):
            back = read_stream_csv(io.StringIO(stream_csv_text(stream)))
            assert back.columns == stream.columns and back.data.tobytes() == stream.data.tobytes()
            assert [struct.pack("<d", r.sup) for r in back] == [struct.pack("<d", abs(x)) for x in odd]

    def test_one_row_and_header_only_streams_read_back_with_their_columns(self):
        stream = synth_stream([0.5], [1.0], [2.0])
        one = read_stream_csv(io.StringIO(stream_csv_text(stream)))
        assert one.data.shape == (1, 6) and one == stream
        header = stream_csv_text(stream).splitlines()[0] + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = read_stream_csv(io.StringIO(header))
        assert empty.data.shape == (0, 6) and empty.columns == stream.columns and len(empty) == 0

    def test_a_row_with_a_missing_field_is_rejected(self):
        text = "t,tau,norm_0,sup\n0.0,0.0,1.0,2.0\n0.1,0.1,1.0\n0.2,0.2,1.0,2.0\n"
        with pytest.raises(ValueError):
            read_stream_csv(io.StringIO(text))

    def test_several_cm_orders_have_named_columns_and_record_views(self):
        grid = GridSpec(1, 16, 8)
        params = SimParams(nu=0.5, dt=0.05, T=0.5, record_every=2, seed=7)
        u0 = constrained_profile(grid, 0.5)
        runs = {}
        for orders in ((2,), (1, 2), (2, 3)):
            rec = NormRecorder(cm_orders=orders)
            continue_trajectory(initial_state(u0, params), NoiseSpec.band(grid, [1.0]), params, rec)
            runs[orders] = rec.streams[0]
        assert runs[(2,)].columns[-1] == "cm_2" and runs[(2, 3)].columns[-2:] == ("cm_2", "cm_3")
        with pytest.raises(KeyError):  # an order that was not recorded
            runs[(2,)].cm(3)
        assert runs[(2, 3)].cm(2).tobytes() == runs[(2,)].cm(2).tobytes() == runs[(1, 2)].cm(2).tobytes()
        assert np.all(runs[(1, 2)].cm(1) <= runs[(2,)].cm(2)) and np.all(runs[(2, 3)].cm(3) > runs[(2,)].cm(2))
        record = runs[(2, 3)][-1]
        assert record.cm == {2: runs[(2, 3)].cm(2)[-1], 3: runs[(2, 3)].cm(3)[-1]}
        assert read_stream_csv(io.StringIO(stream_csv_text(runs[(2, 3)]))) == runs[(2, 3)]

    @pytest.mark.parametrize("grid", [GridSpec(1, 16, 8), GridSpec(2, 12, 6)], ids=["n1", "n2"])
    def test_sup_taken_with_the_cm_columns_is_sup_norm_to_the_bit(self, grid):
        # With C^m columns the recorder takes the sup from the C^m pass as its order 0.
        params = SimParams(nu=0.5, dt=0.05, T=0.5, record_every=2, seed=7)
        seen, with_cm, without = [], NormRecorder(cm_orders=(2,)), NormRecorder()

        def sink(state, params):
            seen.append(sup_norm(state.u))
            with_cm(state, params)
            without(state, params)

        u0 = SpectralField(grid, np.repeat(constrained_profile(grid, 0.5).coeffs, 2, axis=0))
        continue_trajectory(initial_state(u0, params), NoiseSpec.band(grid, [1.0]), params, sink)
        for sid in (0, 1):
            expected = np.array([sup[sid] for sup in seen])
            assert with_cm.streams[sid].column("sup").tobytes() == expected.tobytes()
            assert without.streams[sid].column("sup").tobytes() == expected.tobytes()

    def test_record_is_immutable_and_equal_by_fields(self):
        rec = DiagnosticsRecord(0.5, 0.25, {0.0: 1.0, 2.0: 3.0}, 4.0, cm={2: 5.0})
        same = DiagnosticsRecord(t=0.5, tau=0.25, norms={0.0: 1.0, 2.0: 3.0}, sup=4.0, cm={2: 5.0}, shells=None)
        assert rec == same and rec != replace(rec, cm=None) and rec != (0.5, 0.25, rec.norms, 4.0, {2: 5.0}, None)
        assert (rec.t, rec.tau, rec.norm(2), rec.sup, rec.cm, rec.shells) == (0.5, 0.25, 3.0, 4.0, {2: 5.0}, None)
        for name in ("t", "tau", "norms", "sup", "cm", "shells"):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, 0.0)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, name)
        assert rec == same

    def test_columns_out_of_the_frozen_order_are_rejected(self):
        text = "t,tau,norm_0,sup\n0.0,0.0,1.0,2.0\n"
        assert read_stream_csv(io.StringIO(text))[0].sup == 2.0
        for bad in ("tau,t,norm_0,sup\n0.0,0.0,1.0,2.0\n", "t,tau,norm_0,sup\n0.0,0.0,1.0\n"):
            with pytest.raises(ValueError):
                read_stream_csv(io.StringIO(bad))
