#!/usr/bin/env python3
"""Viscosity sweep: growth of higher-norm observables as nu shrinks.

Uses the slow-time-coupled sweep (all entries share their driving noise) and
prints per-nu means/medians, the fitted power-law exponents, and the trend
verdicts.  Expect the time-averaged ||u||_2^2 and the C^2 sup to grow as nu
decreases while the lattice sup stays nu-uniform.
"""

import argparse

from cascade_lab import GridSpec, SweepPlan, nu_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu-grid", default="0.4,0.2,0.1,0.05,0.025")
    ap.add_argument("--ensemble", type=int, default=32)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--dt-slow", type=float, default=0.0005)
    ap.add_argument("--t-slow", type=float, default=2.0)
    args = ap.parse_args()

    plan = SweepPlan(
        grid=GridSpec(1, 64, 32),
        noise_profile="band:1,1,1",
        nu_grid=tuple(float(v) for v in args.nu_grid.split(",")),
        M=args.ensemble,
        base_seed=args.seed,
        dt_slow=args.dt_slow,
        t_slow_total=args.t_slow,
        window_t0_slow=args.t_slow - 1.0,
        record_every=20,
    )
    result = nu_sweep(plan)

    for summary in result.summaries:
        cells = ", ".join(
            f"{name}: {st.mean:.3g} (med {st.median:.3g})"
            for name, st in summary.observables.items()
        )
        print(f"nu = {summary.nu:<6g} {cells}")
    print()
    for name, fit in result.fits.items():
        if fit is not None:
            print(f"{name}: alpha = {fit.alpha:.3f}, r2 = {fit.r2:.3f}")
    print()
    for name, verdicts in result.verdicts.items():
        print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()))


if __name__ == "__main__":
    main()
