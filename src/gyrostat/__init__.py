"""Reduced dynamics of a rigid carrier with an internal rotor.

The package implements two Poisson-reduced models (a symmetric one on
so(3)* x R x R and a restoring-torque one on se(3)* x R x R), their
controlled equations of motion, bracket evaluators with an independent
finite-difference oracle, fixed-step integrators with conservation
diagnostics, steady-motion residual checks with exact lift solving, a
damped-Newton equilibrium finder, and a JSON/CSV command-line front end.
"""

from .algebra import ConfigurationPoint
from .audit import bracket_oracle_audit
from .dynamics import (
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    DiagnosticsSummary,
    FeedbackControl,
    IntegrationError,
    Trajectory,
    diagnostics,
    integrate,
    reduced_rhs_se3,
    reduced_rhs_so3,
    step_midpoint,
    step_rk4,
)
from .hj import (
    EquilibriumError,
    EquilibriumResult,
    FieldReport,
    GammaBarField,
    NewtonConvergenceError,
    SingularJacobianError,
    constant_field,
    find_equilibrium,
    hj_residual_se3,
    hj_residual_so3,
    residual_field_report,
    solve_lift,
)
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    hamiltonian_se3,
    hamiltonian_so3,
)
from .poisson import (
    BracketKind,
    ScalarField,
    bracket,
    coordinate_field,
    fd_gradient,
    hamiltonian_field_se3,
    hamiltonian_field_so3,
    hamiltonian_vector_field_via_bracket,
)
from .rng import SplitMix64
from .scenario import Scenario, ScenarioError, parse_scenario

__version__ = "0.1.0"
