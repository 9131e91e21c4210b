"""Constrained Hamiltonian mechanics toolkit.

Poisson and Dirac brackets over labelled phase-space charts, constraint
classification (First vs. Second Class), reduced-phase-space verification,
RK4 flows under either bracket, and circle-quantized evolution of the
built-in planar model. See the README for the CLI and scenario format.
"""

from .brackets import poisson_bracket
from .constraints import (ClassificationResult, ConstraintSet, SurfaceParametrization,
                          classify, constraint_matrix, dirac_bracket, dirac_tensor,
                          faddeev_popov_determinant, observable_check,
                          pair_jacobian_check, reduced_bracket_check)
from .dynamics import (DiracFlow, GaugeFlow, IntegratorConfig, NewtonProjection,
                       PoissonFlow, Trajectory, constraint_drift, evolve,
                       gauge_orbit_closed_form, multiplier_from_gauge)
from .errors import (ChartMismatchError, ConfigError, DegeneracyError,
                     DiracMechError, NumericDomainError, UsageError)
from .fields import (ScalarField, constant_field, coordinate_field,
                     gradient_consistency_check, polynomial_field)
from .phase import ChartSpec, PhaseSpacePoint

__version__ = "0.1.0"

__all__ = [
    "ChartSpec", "PhaseSpacePoint", "ScalarField",
    "coordinate_field", "constant_field", "polynomial_field",
    "poisson_bracket", "gradient_consistency_check",
    "ConstraintSet", "ClassificationResult", "SurfaceParametrization",
    "constraint_matrix", "classify", "dirac_bracket", "dirac_tensor", "observable_check",
    "reduced_bracket_check", "faddeev_popov_determinant", "pair_jacobian_check",
    "PoissonFlow", "DiracFlow", "GaugeFlow", "IntegratorConfig", "NewtonProjection",
    "Trajectory", "evolve", "constraint_drift", "gauge_orbit_closed_form",
    "multiplier_from_gauge",
    "DiracMechError", "UsageError", "ChartMismatchError", "ConfigError",
    "NumericDomainError", "DegeneracyError",
    "__version__",
]
