"""SDE laboratory: simulation, Gaussian approximation, and bound checks."""

from .bounds import (
    EscapeBounds,
    anti_concentration_bound,
    convergence_bound,
    escape_bounds,
    sigma0,
)
from .gaussian import (
    GaussianApprox,
    adam_generator,
    closed_form_covariance,
    gaussian_approx,
    integrate_covariance_ode,
)
from .noise import NoiseModel
from .objectives import Objective, double_well, isotropic_quadratic, quadratic, rosenbrock
from .randmat import RandomMatrixReport, bernstein_rhs, random_matrix_checks
from .simulate import (
    SdeConfig,
    SimulationDiverged,
    SimulationReport,
    StatSummary,
    path_rng,
    simulate,
    simulate_many,
)

__all__ = [
    "EscapeBounds",
    "GaussianApprox",
    "NoiseModel",
    "Objective",
    "RandomMatrixReport",
    "SdeConfig",
    "SimulationDiverged",
    "SimulationReport",
    "StatSummary",
    "adam_generator",
    "anti_concentration_bound",
    "bernstein_rhs",
    "closed_form_covariance",
    "convergence_bound",
    "double_well",
    "escape_bounds",
    "gaussian_approx",
    "integrate_covariance_ode",
    "isotropic_quadratic",
    "path_rng",
    "quadratic",
    "random_matrix_checks",
    "rosenbrock",
    "sigma0",
    "simulate",
    "simulate_many",
]
