"""Sine-spectral Monte Carlo laboratory for the damped/driven cubic Schrodinger equation.

The model is u_t - nu*Lap(u) + i|u|^2 u = sqrt(nu)*eta on the cube [0, pi]^n
with Dirichlet walls and white-in-time, smooth-in-space forcing on the sine
basis.  The lab simulates trajectories with an exact-OU Strang splitting (or
an Euler-Maruyama oracle), measures norm statistics, and runs viscosity
sweeps against the balance identity, occupation-time bounds, and power-law
growth trends of higher Sobolev and C^m norms.
"""

__version__ = "0.1.0"

from .spectral import (
    GridSpec,
    SpectralField,
    PhysicalField,
    GridMismatchError,
    NonFiniteFieldError,
    basis_eval,
    to_physical,
    to_spectral,
    lattice_inner,
    sobolev_norm,
    sup_norm,
    cm_norm,
    field_to_bytes,
    field_from_bytes,
)
from .forcing import NoiseSpec, RngStream, ProfileError, bk_sum
from .integrators import (
    SimParams,
    State,
    TrajectoryAbortError,
    ou_exact_step,
    phase_rotation_step,
    strang_step,
    em_step,
    initial_state,
    continue_trajectory,
    zero_field,
    single_mode,
    smooth_random_field,
    constrained_profile,
    default_dt,
    linear_l2_mean,
    linear_stationary_mode_energy,
    save_checkpoint,
    load_checkpoint,
)
from .diagnostics import (
    DiagnosticsRecord,
    NormRecorder,
    Stream,
    OccupationReport,
    BalanceReport,
    occupation_check,
    stationary_check,
    balance_check,
    time_avg_sobolev,
    exp_moment,
)
from .experiments import (
    Observable,
    EnsembleSummary,
    ScalingFit,
    SweepPlan,
    SweepResult,
    ensemble_run,
    fit_exponent,
    nu_sweep,
    stationary_sweep,
    EnsembleAbortError,
)
from .cli_io import RunConfig, ConfigError, parse_config, emit_config, run_command

__all__ = [name for name in dir() if not name.startswith("_")]
