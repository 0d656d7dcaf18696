"""Ensembles, exponent fits, and sweep verdict logic."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_lab import integrators
from cascade_lab.diagnostics import NormRecorder, stream_csv_text
from cascade_lab.experiments import (
    EnsembleAbortError,
    Observable,
    SweepPlan,
    _needed_recorder,
    ensemble_run,
    fit_exponent,
    nu_sweep,
    stationary_sweep,
)
from cascade_lab.forcing import NoiseSpec, bk_sum
from cascade_lab.integrators import (
    SimParams,
    TrajectoryAbortError,
    constrained_profile,
    continue_trajectory,
    initial_state,
    zero_field,
)
from cascade_lab.spectral import GridSpec, SpectralField

GRID = GridSpec(1, 16, 8)
BAND = NoiseSpec.band(GRID, [1.0, 1.0, 1.0])


class TestObservable:
    def test_parse(self):
        obs = Observable.parse("time_avg_sobolev:2")
        assert obs.kind == "time_avg_sobolev" and obs.m == 2.0
        assert Observable.parse("sup_inf").m is None

    def test_rejects(self):
        with pytest.raises(ValueError):
            Observable.parse("nonsense:1")
        with pytest.raises(ValueError):
            Observable.parse("sup_sobolev")
        with pytest.raises(ValueError):
            Observable.parse("sup_inf:2")
        with pytest.raises(ValueError):
            Observable.parse("sup_cm:1.5")

    def test_names(self):
        assert Observable.parse("sup_cm:2").name == "sup_cm_2"
        assert Observable.parse("sup_inf").name == "sup_inf"


class TestFitExponent:
    def test_exact_power_law(self):
        fit = fit_exponent([(0.4, 0.4**-2), (0.2, 0.2**-2), (0.1, 0.1**-2)])
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_observable(self):
        fit = fit_exponent([(0.4, 7.0), (0.2, 7.0), (0.1, 7.0)])
        assert fit.alpha == pytest.approx(0.0, abs=1e-14)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(6)
        nus = [0.4, 0.2, 0.1, 0.05, 0.025]
        pts = [(nu, 3.0 * nu**-1.5 * (1 + rng.uniform(-0.01, 0.01))) for nu in nus]
        fit = fit_exponent(pts)
        assert fit.alpha == pytest.approx(1.5, abs=0.05)

    def test_errors(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_exponent([(0.4, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_exponent([(0.4, 1.0), (0.2, -2.0), (0.1, 3.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_exponent([(0.4, 1.0), (-0.2, 2.0), (0.1, 3.0)])

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_equivariance(self, c):
        base = [(0.4, 1.3), (0.2, 2.9), (0.1, 4.1), (0.05, 9.7)]
        f0 = fit_exponent(base)
        f1 = fit_exponent([(nu, c * q) for nu, q in base])
        assert f1.alpha == pytest.approx(f0.alpha, abs=1e-12)

    def test_reorder_invariance(self):
        pts = [(0.4, 1.3), (0.2, 2.9), (0.1, 4.1), (0.05, 9.7)]
        f0 = fit_exponent(pts)
        f1 = fit_exponent(list(reversed(pts)))
        assert f1.alpha == pytest.approx(f0.alpha, abs=1e-12)
        assert f1.intercept == pytest.approx(f0.intercept, abs=1e-12)
        assert f1.r2 == pytest.approx(f0.r2, abs=1e-12)


def small_params(nu=0.5, T=2.0, **kw):
    kw.setdefault("dt", 0.02)
    kw.setdefault("record_every", 5)
    kw.setdefault("seed", 2025)
    return SimParams(nu=nu, T=T, **kw)


class TestEnsembleRun:
    def test_runs_through_the_integrators_driver_at_call_time(self, monkeypatch):
        # A wrapper installed on integrators.continue_trajectory (as a tracer does) sees the run.
        calls = []
        driver = integrators.continue_trajectory
        monkeypatch.setattr(integrators, "continue_trajectory", lambda *a: calls.append(a[0].step_index) or driver(*a))
        summary, streams = ensemble_run(GRID, BAND, small_params(T=0.2), 2, lambda sid: zero_field(GRID))
        assert calls == [0] and summary.aborts == 0 and len(streams) == 2

    def test_several_cm_orders_match_one_order_value_for_value(self):
        # Each sup_cm order reads its own column: asking for C^3 too leaves sup_cm_2 as it was.
        c2, c3 = Observable("sup_cm", 2.0), Observable("sup_cm", 3.0)
        u0 = lambda sid: constrained_profile(GRID, 0.5)
        (alone, s_alone), (both, s_both) = (
            ensemble_run(GRID, BAND, small_params(T=2.0), 3, u0, obs) for obs in ((c2,), (c3, c2, c2))
        )
        assert both.observables["sup_cm_2"] == alone.observables["sup_cm_2"]
        assert [c2.evaluate(s, 0.0, 0.5) for s in s_both] == [c2.evaluate(s, 0.0, 0.5) for s in s_alone]
        assert both.observables["sup_cm_3"].mean > both.observables["sup_cm_2"].mean
        assert _needed_recorder((c3, c2, c2), 0.5).cm_orders == (2, 3)
        assert s_both[0].columns[-2:] == ("cm_2", "cm_3") and s_alone[0].columns[-1] == "cm"

    def test_a_recorder_factory_takes_no_observables(self):
        # A recorder of C^2 alone writes one unnamed cm column, which sup_cm:3 would read as C^3.
        params, obs = small_params(T=4.0, seed=3), (Observable("sup_cm", 3.0),)
        c2_only = lambda p: NormRecorder(nu=p.nu, cm_order=2)
        with pytest.raises(ValueError, match="recorder_factory"):
            ensemble_run(GRID, BAND, params, 2, lambda sid: zero_field(GRID), obs, recorder_factory=c2_only)
        summary, _ = ensemble_run(GRID, BAND, params, 2, lambda sid: zero_field(GRID), obs)
        _, c2_streams = ensemble_run(GRID, BAND, params, 2, lambda sid: zero_field(GRID), recorder_factory=c2_only)
        c2 = Observable("sup_cm", 2.0)
        c2_mean = np.mean([c2.evaluate(s, params.T - 1.0 / params.nu, params.nu) for s in c2_streams])
        assert summary.observables["sup_cm_3"].mean > 2 * c2_mean

    def test_deterministic_flow_has_zero_variance(self):
        # Noise off, nonlinearity off, common start: both trajectories identical.
        silent = NoiseSpec.band(GRID, [0.0])
        params = small_params(nonlinear=False)
        obs = (Observable("sup_sobolev", 1.0),)
        summary, streams = ensemble_run(
            GRID, silent, params, 2, lambda sid: constrained_profile(GRID, 0.5), obs
        )
        assert summary.observables["sup_sobolev_1"].variance == 0.0
        assert streams[0] == streams[1]

    def test_bit_reproducible(self):
        params = small_params()
        obs = (Observable("time_avg_sobolev", 1.0),)
        runs = [
            ensemble_run(GRID, BAND, params, 3, lambda sid: zero_field(GRID), obs)
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_event_frequencies_sum_to_one(self):
        params = small_params()
        _, streams = ensemble_run(GRID, BAND, params, 16, lambda sid: zero_field(GRID))
        finals = np.array([s[-1].norm(0.0) for s in streams])
        cut = float(np.median(finals)) + 1e-9
        p = np.mean(finals > cut)
        q = np.mean(finals <= cut)
        assert p + q == 1.0

    def test_clt_se_halving(self):
        # Quadrupling M should halve the standard error of the mean, within the
        # sampling noise of the variance estimate itself.
        params = small_params(T=4.0)
        obs = (Observable("sup_inf"),)
        se = {}
        for M in (16, 64):
            summary, _ = ensemble_run(GRID, BAND, params, M, lambda sid: zero_field(GRID), obs)
            se[M] = summary.observables["sup_inf"].se
        ratio = se[64] / se[16]
        assert 0.25 <= ratio <= 1.0

    def test_abort_breach_raises(self):
        params = SimParams(nu=1.0, dt=0.5, T=20.0, scheme="em", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(EnsembleAbortError):
                ensemble_run(
                    GRID,
                    BAND,
                    params,
                    2,
                    lambda sid: constrained_profile(GRID, 1.0),
                    (Observable("sup_inf"),),
                )

    def test_partial_abort_drops_only_the_failing_stream(self):
        # Stream 2 starts at 1e160: |u|^2 overflows in its first phase rotation.
        params = small_params()

        def u0(sid):
            if sid == 2:
                return SpectralField(GRID, np.full((1, *GRID.coeff_shape), 1e160, dtype=complex))
            return zero_field(GRID)

        def recorder(p):
            return NormRecorder(nu=p.nu)

        summary, streams = ensemble_run(
            GRID, BAND, params, 4, u0, max_abort_fraction=0.5, recorder_factory=recorder
        )
        p = replace(params, stream_id=2)
        final, (abort,) = continue_trajectory(initial_state(u0(2), p), BAND, p)
        assert final is None and isinstance(abort, TrajectoryAbortError)
        assert summary.aborts == 1 and len(streams) == 3
        assert abort.last_state.step_index == 0 and abort.last_state.t == 0.0
        for sid, records in zip((0, 1, 3), streams):
            rec = recorder(params)
            p = replace(params, stream_id=sid)
            continue_trajectory(initial_state(u0(sid), p), BAND, p, rec)
            assert stream_csv_text(records) == stream_csv_text(rec.streams[sid])

    def test_overflowing_stream_is_recorded_and_dropped_without_warnings(self):
        # The recorder sees stream 1's step-0 state at 1e160 (||u||_m and the shell
        # energies overflow to inf); its first phase rotation fails and it is dropped.
        def u0(sid):
            if sid == 1:
                return SpectralField(GRID, np.full((1, *GRID.coeff_shape), 1e160, dtype=complex))
            return zero_field(GRID)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary, streams = ensemble_run(
                GRID, BAND, small_params(), 2, u0, max_abort_fraction=0.5,
                recorder_factory=lambda p: NormRecorder(nu=p.nu, cm_order=1, shells=True),
            )
        assert summary.aborts == 1 and len(streams) == 1

    def test_quantiles_monotone(self):
        params = small_params()
        summary, _ = ensemble_run(
            GRID, BAND, params, 8, lambda sid: zero_field(GRID), (Observable("sup_inf"),)
        )
        q = summary.observables["sup_inf"].quantiles
        vals = [q[5], q[25], q[50], q[75], q[95]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSweepPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepPlan(GRID, "band:1", (0.1, 0.2), M=4, base_seed=1)
        SweepPlan(GRID, "band:1", (0.2,), M=1, base_seed=1)  # a single ensemble
        with pytest.raises(ValueError, match="M >= 2"):
            nu_sweep(SweepPlan(GRID, "band:1", (0.2, 0.1), M=1, base_seed=1))
        with pytest.raises(ValueError, match="window"):
            nu_sweep(SweepPlan(GRID, "band:1", (0.2, 0.1), M=4, base_seed=1, t_slow_total=1.5))

    def test_u0_policy_applied_per_nu(self):
        plan = SweepPlan(GRID, "band:1,1,1", (0.4, 0.2), M=2, base_seed=1)
        from cascade_lab.spectral import sup_norm

        for nu in plan.nu_grid:
            u0 = plan.u0_factory(nu)(0)
            assert sup_norm(u0) <= 1.0 + 1e-12


class TestNuSweep:
    def test_linear_balance_is_nu_independent(self):
        # Nonlinearity off: time-averaged ||u||_1^2 equals B0 in law for every nu,
        # so the fitted exponent is zero within tolerance.
        plan = SweepPlan(
            GRID,
            "band:1,1,1",
            (0.4, 0.2, 0.1),
            M=8,
            base_seed=321,
            dt=0.05,
            t_slow_total=22.0,
            window_t0_slow=21.0,
            record_every=4,
            nonlinear=False,
            observables=(Observable("time_avg_sobolev", 1.0),),
        )
        result = nu_sweep(plan)
        fit = result.fits["time_avg_sobolev_1"]
        assert abs(fit.alpha) <= 0.1
        b0 = bk_sum(plan.spec(), 0.0)
        for summary in result.summaries:
            assert summary.observables["time_avg_sobolev_1"].mean == pytest.approx(b0, rel=0.2)

    def test_single_nu_plan_reports_means_without_fit(self):
        plan = SweepPlan(
            GRID,
            "band:1,1,1",
            (0.4, 0.2),
            M=2,
            base_seed=5,
            dt=0.02,
            t_slow_total=2.0,
            observables=(Observable("time_avg_sobolev", 1.0),),
        )
        result = nu_sweep(plan)
        assert result.fits["time_avg_sobolev_1"] is None  # < 3 points: fit refused
        assert len(result.summaries) == 2
        assert all("time_avg_sobolev_1" in s.observables for s in result.summaries)


class TestStationarySweep:
    def test_linear_moments_match_ou_spectrum(self):
        # Linear-only: E||u||_m^2 = sum |d|^(2m) b_d^2 / |d|^2 = B_(m-1), nu-independent.
        plan = SweepPlan(
            GRID,
            "band:1,1,1",
            (0.4, 0.2, 0.1),
            M=8,
            base_seed=99,
            dt=0.05,
            t_slow_total=25.0,
            window_t0_slow=1.0,
            record_every=4,
            nonlinear=False,
        )
        result = stationary_sweep(plan, ms=(1.0, 2.0))
        spec = plan.spec()
        for m in (1.0, 2.0):
            expected = bk_sum(spec, m - 1.0)
            for row in result.moments[m]:
                assert row.mean_sq == pytest.approx(expected, rel=0.25)
        for rep in result.balance:
            assert not rep.degenerate
            assert rep.relative_residual <= 0.15

    def test_insufficient_length_rejected(self):
        plan = SweepPlan(
            GRID, "band:1,1,1", (0.4, 0.2, 0.1), M=4, base_seed=9, t_slow_total=5.0
        )
        with pytest.raises(ValueError, match="insufficient run length"):
            stationary_sweep(plan)
