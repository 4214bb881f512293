"""Conformable fractional calculus, evolution operators, and null control.

The package follows one organizing idea: under the time substitution
``tau = t**alpha / alpha`` the fractional derivative becomes ``d/dtau`` and
the weighted integrals become flat, so every construction lives on a
uniform tau grid.  On top of that sit the evolution-operator tables
(spectral heat and dense matrix backends), a Picard solver for the
semilinear integral equation, and Gramian-based minimum-norm null-control
synthesis, all wired together by a scenario-driven CLI.
"""

from .errors import (CfcontrolError, ConfigError, ControllabilityError,
                     ConvergenceError, DomainError, InequalityFailed,
                     NullControlFailed, NumericError)
from .grids import FractionalOrder, TimeGrid
from .calculus import (chain_rule_residual, conformable_derivative,
                       conformable_integral, inverse_matrix_derivative_check,
                       leibniz_check)
from .special import (SpecfunParams, beta_via_k_reduction, conformable_beta,
                      conformable_gamma, gamma_limit_estimate, pochhammer)
from .evolution import (DenseMatrixFamily, DensePropagatorTable, KernelTable,
                        OperatorFamily, SpectralHeatFamily,
                        SpectralPropagatorTable, adjoint_residual,
                        build_kernel, build_propagator, conformable_residual,
                        kernel_residual, propagate_oracle)
from .mild import (ContractionReport, ControlProblem, PicardResult,
                   contraction_report, horizon_factor, picard_solve)
from .control import (GramianSolve, NullControlResult, VerifyResult,
                      build_gramian, exact_null_control_semilinear,
                      kernel_space_perturbation, synthesize_null_control,
                      verify_null_inequality)
from .config import ScenarioConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "CfcontrolError", "ConfigError", "ControllabilityError",
    "ConvergenceError", "DomainError", "InequalityFailed",
    "NullControlFailed", "NumericError",
    "FractionalOrder", "TimeGrid",
    "chain_rule_residual", "conformable_derivative", "conformable_integral",
    "inverse_matrix_derivative_check", "leibniz_check",
    "SpecfunParams", "beta_via_k_reduction", "conformable_beta",
    "conformable_gamma", "gamma_limit_estimate", "pochhammer",
    "DenseMatrixFamily", "DensePropagatorTable", "KernelTable",
    "OperatorFamily", "SpectralHeatFamily", "SpectralPropagatorTable",
    "adjoint_residual", "build_kernel", "build_propagator",
    "conformable_residual", "kernel_residual", "propagate_oracle",
    "ContractionReport", "ControlProblem", "PicardResult",
    "contraction_report", "horizon_factor", "picard_solve",
    "GramianSolve", "NullControlResult", "VerifyResult", "build_gramian",
    "exact_null_control_semilinear", "kernel_space_perturbation",
    "synthesize_null_control", "verify_null_inequality",
    "ScenarioConfig", "parse_config",
]
