"""collapse-lab: a numerical laboratory for collapsing torus-fibration flows."""

from .config import ConfigError, EXPERIMENTS, ExperimentConfig, load_config, \
    validate_config
from .experiments import REGISTRY, ExperimentReport, run_experiment, \
    write_report
from .flow import diagnostics_for, evolve, relaxation_potential
from .geometry import ddbar, fiber_diameter, riemann_norm
from .gke import GkeSolution, gke_residual, parabolic_gke, solve_gke, \
    twisted_einstein_residual
from .grids import GridSpec, PositivityError, ScalarField
from .models import (FiberFlowSpec, GkeTestbedSpec, ProductModelSpec,
                     SemiFlatSpec, density_F, fiber_constancy,
                     rescaling_check, semiflat_components,
                     semiflat_potential, weil_petersson)
from .rates import RateFit, rate_fit
from .timestep import StiffnessError, integrate_lawson

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EXPERIMENTS", "ExperimentConfig", "load_config",
    "validate_config", "REGISTRY", "ExperimentReport", "run_experiment",
    "write_report", "diagnostics_for", "evolve", "relaxation_potential",
    "ddbar", "fiber_diameter", "riemann_norm", "GkeSolution",
    "gke_residual", "parabolic_gke", "solve_gke",
    "twisted_einstein_residual", "GridSpec", "PositivityError",
    "ScalarField", "FiberFlowSpec", "GkeTestbedSpec", "ProductModelSpec",
    "SemiFlatSpec", "density_F", "fiber_constancy", "rescaling_check",
    "semiflat_components", "semiflat_potential", "weil_petersson",
    "RateFit", "rate_fit", "StiffnessError", "integrate_lawson",
]
