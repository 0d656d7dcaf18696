"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here; the heavyweight viscosity
sweep is shared by criteria 7-9 through a module fixture.
"""

import time
from math import sqrt

import numpy as np
import pytest

from cascade_lab.cli_io import run_command
from cascade_lab.diagnostics import (
    balance_check,
    occupation_check,
)
from cascade_lab.experiments import Observable, SweepPlan, ensemble_run, fit_exponent, nu_sweep
from cascade_lab.forcing import NoiseSpec, RngStream, bk_sum
from cascade_lab.integrators import (
    SimParams,
    continue_trajectory,
    initial_state,
    constrained_profile,
    zero_field,
)
from cascade_lab.spectral import (
    GridSpec,
    SpectralField,
    sobolev_norm,
    to_physical,
    to_spectral,
)
from oracles import exp_moment, lattice_inner, linear_stationary_mode_energy, run_em_on_path, run_strang_on_path, sample_coupled_path

BAND = "band:1,1,1"


def report(num, ok, detail, elapsed, budget):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"


def random_field(grid, seed, scale=1.0):
    """One row of complex Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    shape = (1, *grid.coeff_shape)
    return SpectralField(grid, scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def test_criterion_1_transform_exactness():
    start = time.perf_counter()
    worst_rt, worst_pv = 0.0, 0.0
    for grid in (GridSpec(1, 64, 32), GridSpec(2, 32, 16)):
        for seed in range(20):
            u = random_field(grid, seed)
            p = to_physical(grid, u.coeffs)
            back = to_spectral(grid, p)
            worst_rt = max(worst_rt, float(np.abs(back - u.coeffs).max()))
            coeff = float(np.sum(np.abs(u.coeffs) ** 2))
            (quad,) = lattice_inner(grid, p, p)
            worst_pv = max(worst_pv, abs(quad - coeff) / coeff)
    elapsed = time.perf_counter() - start
    ok = worst_rt <= 1e-12 and worst_pv <= 1e-12
    report(1, ok, f"round trip max {worst_rt:.2e}, Parseval max {worst_pv:.2e} (tol 1e-12)", elapsed, 1.0)


def test_criterion_2_interpolation_identity():
    start = time.perf_counter()
    grid = GridSpec(1, 64, 32)
    u = SpectralField(grid, np.concatenate([random_field(grid, seed).coeffs for seed in range(1000)]))
    sq = sobolev_norm(u, (0.0, 1.0, 2.0, 3.0)) ** 2  # one row per order, one column per field
    worst = float("inf")  # most negative relative slack seen
    for l, m in ((1, 2), (1, 3), (2, 3)):
        rhs = sq[0] ** (1 - l / m) * sq[m] ** (l / m)
        worst = min(worst, float(((rhs - sq[l]) / rhs).min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12
    report(2, ok, f"1000 fields, min relative slack {worst:.2e} (>= -1e-12)", elapsed, 5.0)


def test_criterion_3_linear_stationary_spectrum():
    start = time.perf_counter()
    grid = GridSpec(1, 64, 32)
    spec = NoiseSpec.from_profile(grid, BAND)
    b0 = bk_sum(spec, 0.0)
    nu, dt, M = 0.5, 0.05, 16
    T = 250.0 / nu  # 50 slow units of burn-in + 200 measured

    class ModeSink:  # sums over the M rows, which run as one batch on streams 0..M-1
        def __init__(self):
            self.local = np.zeros(3)
            self.h1 = 0.0
            self.n = 0

        def __call__(self, state, params):
            if state.step_index * params.dt >= 0.2 * T:
                c = state.u.coeffs
                self.local += (np.abs(c[:, :3]) ** 2).sum(axis=0)
                self.h1 += float((sobolev_norm(state.u, 1.0) ** 2).sum())
                self.n += len(c)

    params = SimParams(nu=nu, dt=dt, T=T, record_every=1, seed=424242, nonlinear=False)
    sink = ModeSink()
    u0 = SpectralField(grid, np.zeros((M, *grid.coeff_shape), dtype=complex))
    continue_trajectory(initial_state(u0, params), spec, params, sink)

    mode_means = sink.local / sink.n
    h1_mean = sink.h1 / sink.n
    expected = linear_stationary_mode_energy(spec)[:3]
    mode_err = float(np.abs(mode_means / expected - 1).max())
    h1_err = abs(h1_mean / b0 - 1)
    elapsed = time.perf_counter() - start
    ok = mode_err <= 0.05 and h1_err <= 0.05
    report(
        3,
        ok,
        f"OU spectrum max mode error {mode_err:.3f}, E||u||_1^2 error {h1_err:.3f} (tol 0.05)",
        elapsed,
        120.0,
    )


def test_criterion_4_balance_relation():
    start = time.perf_counter()
    grid = GridSpec(1, 64, 32)
    spec = NoiseSpec.from_profile(grid, BAND)
    b0 = bk_sum(spec, 0.0)
    nu, dt, M = 0.5, 0.01, 16
    params = SimParams(nu=nu, dt=dt, T=250.0 / nu, record_every=10, seed=424242)
    _, streams = ensemble_run(grid, spec, params, M, lambda sid: zero_field(grid))
    rep = balance_check(streams, b0, nu)
    elapsed = time.perf_counter() - start
    # within 10 percent, and the two-sigma batch-means bar itself inside the budget
    ok = rep.relative_residual <= 0.10 and 2 * rep.se <= 0.10 * b0
    report(
        4,
        ok,
        f"avg ||u||_1^2 = {rep.avg_h1_sq:.4f} vs B0 = {b0} "
        f"(residual {rep.relative_residual:.4f}, 2se {2 * rep.se:.4f})",
        elapsed,
        300.0,
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    grid = GridSpec(1, 32, 16)
    spec = NoiseSpec.from_profile(grid, BAND)
    nu, T = 0.2, 1.0
    dts = [0.01, 0.005, 0.0025, 0.00125, 0.000625]  # dt down to dt / 2^4
    dt_fine = dts[-1] / 2
    n_fine = round(T / dt_fine)
    u0 = constrained_profile(grid, nu)
    sq = np.zeros(len(dts))
    for seed in (1000, 1001):
        path = sample_coupled_path(spec, nu, dt_fine, n_fine, RngStream(seed, 0))
        for i, dt in enumerate(dts):
            us = run_strang_on_path(u0, path, dt)
            ue = run_em_on_path(u0, path, dt)
            sq[i] += np.sum(np.abs(us.coeffs - ue.coeffs) ** 2)
    rms = np.sqrt(sq / 2)
    fit = fit_exponent(list(zip(dts, rms)))
    order = -fit.alpha
    elapsed = time.perf_counter() - start
    ok = bool(np.all(rms[:-1] > rms[1:])) and order >= 0.5
    report(5, ok, f"strang-vs-em strong order {order:.2f} (>= 0.5), r2 {fit.r2:.3f}", elapsed, 60.0)


def test_criterion_6_occupation_inequality():
    start = time.perf_counter()
    grid = GridSpec(1, 64, 32)
    spec = NoiseSpec.from_profile(grid, BAND)
    b0 = bk_sum(spec, 0.0)
    nu, M = 0.1, 128
    params = SimParams(nu=nu, dt=0.01, T=1.0 / nu, record_every=5, seed=31415)
    _, streams = ensemble_run(grid, spec, params, M, lambda sid: zero_field(grid))
    n0 = np.array([r.norm(0.0) for s in streams for r in s])
    n2 = np.array([r.norm(2.0) for s in streams for r in s])
    gamma = 2.0 * float(np.median(n2))
    details = []
    ok = True
    for frac in (0.05, 0.1, 0.2):
        chi = frac * float(np.median(n0))
        rep = occupation_check(streams, chi, gamma, tau0=0.0, tau=1.0, b0=b0)
        ok = ok and rep.passed
        details.append(f"chi={chi:.3f}: {rep.lhs_mean:.4f}+2*{rep.lhs_se:.4f} <= {rep.rhs_bound:.3f}")
    elapsed = time.perf_counter() - start
    report(6, ok, "; ".join(details), elapsed, 600.0)


@pytest.fixture(scope="module")
def cascade_sweep():
    start = time.perf_counter()
    plan = SweepPlan(
        grid=GridSpec(1, 64, 32),
        noise_profile=BAND,
        nu_grid=(0.4, 0.2, 0.1, 0.05, 0.025),
        M=32,
        base_seed=20250810,
        dt_slow=0.0005,
        t_slow_total=2.0,
        window_t0_slow=1.0,
        record_every=20,
    )
    result = nu_sweep(plan)
    return result, time.perf_counter() - start


def test_criterion_7_cascade_trend(cascade_sweep):
    result, elapsed = cascade_sweep
    v = result.verdicts["time_avg_sobolev_2"]
    alpha = result.fits["time_avg_sobolev_2"].alpha
    means = [s.observables["time_avg_sobolev_2"].mean for s in result.summaries]
    ok = bool(v["means_strictly_increasing"]) and 0.0 < alpha <= 2.5
    report(
        7,
        ok,
        f"time-avg ||u||_2^2 means {['%.1f' % m for m in means]} increasing, alpha {alpha:.2f} in (0, 2.5]",
        elapsed,
        1800.0,
    )


def test_criterion_8_cm_trend(cascade_sweep):
    result, elapsed = cascade_sweep
    medians = [s.observables["sup_cm_2"].median for s in result.summaries]
    ok = all(b > a for a, b in zip(medians, medians[1:]))
    report(8, ok, f"sup C^2 medians {['%.1f' % m for m in medians]} strictly increasing", elapsed, 1800.0)


def test_criterion_9_sup_norm_uniformity(cascade_sweep):
    result, elapsed = cascade_sweep
    medians = [s.observables["sup_inf"].median for s in result.summaries]
    ratio = max(medians) / min(medians)
    per_nu = [f"nu={s.nu:g}: median {m:.2f}" for s, m in zip(result.summaries, medians)]
    ok = ratio < 3.0
    report(9, ok, f"sup-norm median ratio {ratio:.2f} < 3 ({'; '.join(per_nu)})", elapsed, 1800.0)


def test_criterion_9_exp_moment_flags(cascade_sweep):
    # companion check: E exp(0.1 x^2) over each trajectory's windowed sup maximum
    result, elapsed = cascade_sweep
    sup_inf = Observable("sup_inf")
    vals = []
    stable = True
    for nu, streams in zip(result.plan.nu_grid, result.streams):
        t0 = result.plan.window_t0_slow / nu
        maxima = [sup_inf.evaluate(records, t0, nu) for records in streams]
        rep = exp_moment(maxima, 0.1)
        stable = stable and rep.stable
        vals.append(f"nu={nu:g}: {rep.value:.3f} (half {rep.half_value:.3f}){'' if rep.stable else ' unstable'}")
    print(f"INFO criterion 9 exp-moment c=0.1 over {len(maxima)} maxima: {'; '.join(vals)}")
    assert stable, "; ".join(vals)


CRITERION_3_CONFIG = """
[grid]
n = 1
N = 64
D = 32

[noise]
profile = band:1,1,1

[sim]
nu = 0.5
dt = 0.05
T_slow = 250.0
record_every = 5
nonlinear = false

[ensemble]
M = 16
base_seed = 424242

[experiment]
kind = simulate
observables = sup_inf
"""


def test_criterion_10_determinism(tmp_path):
    # Re-running the criterion-3 configuration through the CLI must reproduce
    # byte-identical CSV streams.
    start = time.perf_counter()
    cfg = tmp_path / "balance.ini"
    cfg.write_text(CRITERION_3_CONFIG)
    dirs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = run_command(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        dirs.append(next(out.iterdir()))
    csvs = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*.csv"))
    assert len(csvs) == 16
    identical = all((dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes() for rel in csvs)
    elapsed = time.perf_counter() - start
    report(10, identical, f"{len(csvs)} trajectory CSVs byte-identical across reruns", elapsed, 600.0)
