"""The public names of the package and of each module's ``__all__``.

A refactor may not drop one silently: a name leaves this list only on
purpose, with the reason in the change log.
"""

import importlib
import types

import pytest

import gyrostat

PACKAGE = {
    "BracketKind", "ConfigurationPoint", "ConstantControl",
    "ControlLiftSe3", "ControlLiftSo3", "DiagnosticsSummary", "EquilibriumError",
    "EquilibriumResult", "FeedbackControl", "FieldReport", "GammaBarField",
    "GravityParams", "InertiaParams", "IntegrationError", "ModelKind",
    "NewtonConvergenceError", "ScalarField", "Scenario",
    "ScenarioError", "Se3RotorState", "SingularJacobianError", "So3RotorState",
    "SplitMix64", "Trajectory", "bracket", "bracket_oracle_audit",
    "casimirs", "constant_field", "coordinate_field", "diagnostics", "fd_gradient",
    "find_equilibrium", "hamiltonian_field_se3", "hamiltonian_field_so3",
    "hamiltonian_se3", "hamiltonian_so3", "hamiltonian_vector_field_via_bracket",
    "hj_residual_se3", "hj_residual_so3", "integrate", "parse_scenario",
    "reduced_rhs_se3", "reduced_rhs_so3", "residual_field_report", "solve_lift",
    "step_midpoint", "step_rk4",
}

MODULES = {
    "algebra": {"as_vec3", "ConfigurationPoint"},
    "audit": {"AUDIT_TOL", "SAMPLE_LOW", "SAMPLE_HIGH", "bracket_oracle_audit"},
    "dynamics": {
        "ControlLiftSo3", "ControlLiftSe3",
        "ConstantControl", "FeedbackControl", "IntegrationError", "reduced_rhs_so3",
        "reduced_rhs_se3", "so3_field_kernel", "se3_field_kernel", "step_rk4",
        "step_midpoint", "integrate", "Trajectory", "DriftStats",
        "DiagnosticsSummary", "diagnostics",
    },
    "hj": {
        "hj_residual_so3", "hj_residual_se3", "solve_lift", "GammaBarField",
        "constant_field", "FieldReport", "residual_field_report", "EquilibriumError",
        "NewtonConvergenceError", "SingularJacobianError", "EquilibriumResult",
        "find_equilibrium",
    },
    "model": {
        "ModelKind", "InertiaParams", "GravityParams", "So3RotorState",
        "Se3RotorState", "hamiltonian_so3", "hamiltonian_se3",
        "kinetic_energy", "casimirs",
    },
    "poisson": {
        "FD_SCALE", "BracketKind", "ScalarField", "coordinate_field", "fd_steps",
        "fd_gradient", "bracket", "hamiltonian_vector_field_via_bracket",
        "hamiltonian_field_so3", "hamiltonian_field_se3",
    },
    "rng": {"SplitMix64"},
    "scenario": {
        "ScenarioError", "Scenario", "parse_scenario", "parse_hj_check_config",
        "parse_equilibrium_config", "HjCheckConfig", "EquilibriumConfig",
        "trajectory_csv", "json_text",
    },
}

# Names added since the list above was recorded.
ADDED = {"model": {"ModelLayout", "model_layout"}}

# The command-line module has no __all__; these are what callers use.
CLI = {
    "main", "build_parser", "cmd_simulate", "cmd_bracket_audit", "cmd_hj_check",
    "cmd_equilibrium", "EXIT_OK", "EXIT_USAGE", "EXIT_TOLERANCE",
}


def test_package_names():
    # Submodules become package attributes as they are imported; leave them out.
    public = {
        name
        for name, value in vars(gyrostat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_all(name):
    module = importlib.import_module(f"gyrostat.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULES[name] | ADDED.get(name, set())
    for attr in module.__all__:
        assert hasattr(module, attr)


def test_cli_names():
    cli = importlib.import_module("gyrostat.cli")
    assert all(hasattr(cli, name) for name in CLI)
