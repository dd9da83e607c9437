"""Wick-ordered nonlinear wave dynamics and Gibbs-measure verification on T^2."""

from .fields import (
    SpectralField,
    alias_free_grid,
    grid_from_half,
    half_from_grid,
    project,
    sobolev_norm,
)
from .free_field import (
    MuParams,
    chaos_second_moment,
    chaos_spectrum,
    covariance_field,
    point_variance,
    sample_free_field,
)
from .wick import (
    WickContext,
    hermite,
    hermite_values,
    wick_binomial,
    wick_power,
)
from .dynamics import (
    DynParams,
    IntegrationError,
    Trajectory,
    default_dt,
    evolve,
    records,
)
from .gibbs import (
    ChainOptions,
    importance_weights,
    single_mode_moment_quadrature,
)
from .experiments import (
    DEFAULT_OBSERVABLES,
    NONLINEARITIES,
    ChaosReport,
    InvarianceReport,
    Nonlinearity,
    UniversalityReport,
    chaos_convergence_study,
    counterterm_mass,
    evolve_scaled,
    hermite_moment_study,
    invariance_test,
    universality_experiment,
)

__version__ = "0.1.0"
