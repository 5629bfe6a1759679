"""Acceptance gate: the end-to-end checks the package must satisfy.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) with the
measured figure next to its budget, then asserts.  Tolerances here are the
contract; the unit suites pin the much tighter levels the implementation
actually reaches.
"""

import json
import time

import numpy as np

from gyrostat.audit import bracket_oracle_audit
from gyrostat.cli import main
from gyrostat.dynamics import (
    ConstantControl,
    ControlLiftSe3,
    integrate,
    reduced_rhs_se3,
    reduced_rhs_so3,
)
from gyrostat.hj import (
    constant_field,
    find_equilibrium,
    hj_residual_se3,
    hj_residual_so3,
    residual_field_report,
    solve_lift,
)
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    model_layout,
)
from gyrostat.poisson import BracketKind, ScalarField, bracket
from gyrostat.rng import SplitMix64
from gyrostat.algebra import ConfigurationPoint

from helpers import QuadraticField, random_point

PARAMS = InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=1.0)
GRAV = GravityParams(mgh=2.0, chi=(0.0, 0.0, 1.0))


def _report(number, description, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: "
          f"{description} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_bracket_oracle_equivalence():
    started = time.perf_counter()
    so3 = bracket_oracle_audit(ModelKind.SO3, PARAMS, samples=1000, seed=42)
    se3 = bracket_oracle_audit(
        ModelKind.SE3, PARAMS, grav=GRAV, samples=1000, seed=42
    )
    elapsed = time.perf_counter() - started
    worst = max(so3["max_rel_discrepancy"], se3["max_rel_discrepancy"])
    _report(
        1,
        "bracket-reconstructed field matches analytic equations",
        worst < 1e-6 and elapsed < 5.0,
        f"max rel discrepancy {worst:.3e} < 1e-6 over 2x1000 states, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_2_so3_conservation():
    started = time.perf_counter()
    traj = integrate(
        ModelKind.SO3,
        PARAMS,
        So3RotorState(pi=(1.0, 2.0, 3.0), alpha=0.0, l=0.5),
        dt=1e-3,
        t_end=10.0,
    )
    elapsed = time.perf_counter() - started
    energy = _max_rel_drift(traj.energy)
    pi_norm = _max_rel_drift(traj.casimirs[:, 0])
    _report(
        2,
        "symmetric model conserves momentum norm and energy",
        pi_norm < 1e-10 and energy < 1e-8 and elapsed < 1.0,
        f"|Pi| drift {pi_norm:.3e} < 1e-10, energy drift {energy:.3e} < 1e-8, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_3_se3_conservation():
    started = time.perf_counter()
    traj = integrate(
        ModelKind.SE3,
        PARAMS,
        Se3RotorState(pi=(1.0, 2.0, 3.0), gamma=(0.6, 0.0, 0.8), alpha=0.0, l=0.5),
        grav=GRAV,
        dt=1e-3,
        t_end=10.0,
    )
    elapsed = time.perf_counter() - started
    energy = _max_rel_drift(traj.energy)
    pi_dot_gamma = _max_rel_drift(traj.casimirs[:, 0])
    gamma_norm = _max_rel_drift(traj.casimirs[:, 1])
    worst = max(energy, pi_dot_gamma, gamma_norm)
    _report(
        3,
        "restoring model conserves its orbit labels and energy",
        worst < 1e-8 and elapsed < 2.0,
        f"worst of Pi.Gamma/|Gamma|/energy drift {worst:.3e} < 1e-8, "
        f"{elapsed:.2f}s < 2s",
    )


def test_criterion_4_axisymmetric_closed_form():
    params = InertiaParams(i_bar=(2.0, 2.0, 1.0), j3=1.0)
    traj = integrate(
        ModelKind.SO3,
        params,
        So3RotorState(pi=(1.0, 0.0, 2.0), alpha=0.0, l=0.0),
        dt=1e-4,
        t_end=np.pi / 2,
    )
    # Transverse pair rotates at (Pi3 - l)/i3 - Pi3/i1 = 1; compare at the
    # trajectory's own final time (an exact step multiple).
    t = traj.times[-1]
    c, s = np.cos(t), np.sin(t)
    expect = np.array([c * 1.0 + s * 0.0, -s * 1.0 + c * 0.0])
    err = float(np.max(np.abs(traj.states[-1][:2] - expect)))
    pi3_err = abs(traj.states[-1][2] - 2.0)
    _report(
        4,
        "axisymmetric transverse momentum rotates at the derived rate",
        err < 1e-6 and pi3_err < 1e-12,
        f"pair error {err:.3e} < 1e-6 at t={t:.6f}, "
        f"axial drift {pi3_err:.1e}",
    )


def test_criterion_5_lift_identity():
    rng = SplitMix64(11)
    worst_solve = 0.0
    worst_match = 0.0
    for _ in range(1000):
        g5 = random_point(rng, 5)
        u5 = solve_lift(g5, PARAMS)
        worst_solve = max(
            worst_solve, float(np.max(np.abs(hj_residual_so3(g5, PARAMS, lift=u5))))
        )
        s5 = So3RotorState(pi=tuple(g5[:3]), alpha=g5[3], l=g5[4])
        worst_match = max(
            worst_match,
            float(np.max(np.abs(
                hj_residual_so3(g5, PARAMS) - reduced_rhs_so3(s5, PARAMS)
            ))),
        )
        g8 = random_point(rng, 8)
        u8 = solve_lift(g8, PARAMS, grav=GRAV)
        worst_solve = max(
            worst_solve,
            float(np.max(np.abs(hj_residual_se3(g8, PARAMS, GRAV, lift=u8)))),
        )
        s8 = Se3RotorState(
            pi=tuple(g8[:3]), gamma=tuple(g8[3:6]), alpha=g8[6], l=g8[7]
        )
        worst_match = max(
            worst_match,
            float(np.max(np.abs(
                hj_residual_se3(g8, PARAMS, GRAV) - reduced_rhs_se3(s8, PARAMS, GRAV)
            ))),
        )
    _report(
        5,
        "solved lifts annihilate residuals; zero lift reproduces the flow",
        worst_solve <= 1e-14 and worst_match <= 1e-13,
        f"solved-lift residual {worst_solve:.1e} <= 1e-14, "
        f"zero-lift mismatch {worst_match:.3e} <= 1e-13, 2x1000 samples",
    )


def _configs():
    return [
        ConfigurationPoint(rotation=np.eye(3)),
        ConfigurationPoint(rotation=np.eye(3), rotor_angle=1.0),
    ]


def test_criterion_6_equilibrium_solutions():
    # Symmetric model: perturbed principal-axis spin, no control.
    so3_params = InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=2.0)
    so3_res = find_equilibrium(
        ModelKind.SO3,
        so3_params,
        So3RotorState(pi=(2.0, 1e-3, 1e-3), alpha=0.0, l=0.0),
    )
    so3_rep = residual_field_report(
        constant_field(ModelKind.SO3, model_layout(ModelKind.SO3).to_vector(so3_res.state)),
        _configs(),
        so3_params,
    )

    # Restoring model: perturbed upright spin held steady by the rotor
    # torque (Pi3 - l)/i3 - l/j3 = 1.
    drive = np.zeros(8)
    drive[6] = 1.0
    eps = 1e-4
    se3_res = find_equilibrium(
        ModelKind.SE3,
        PARAMS,
        Se3RotorState(
            pi=(eps, -2 * eps, 3.0),
            gamma=(2 * eps, eps, 0.8),
            alpha=0.0,
            l=1.0,
        ),
        grav=GRAV,
        control=ConstantControl(ControlLiftSe3(u_alpha=1.0)),
    )
    se3_rep = residual_field_report(
        constant_field(ModelKind.SE3, model_layout(ModelKind.SE3).to_vector(se3_res.state)),
        _configs(),
        PARAMS,
        grav=GRAV,
        lift=drive,
    )
    _report(
        6,
        "Newton search lands on steady states certified by field reports",
        so3_res.residual_norm < 1e-12
        and se3_res.residual_norm < 1e-12
        and so3_rep.max_norm < 1e-10
        and se3_rep.max_norm < 1e-10,
        f"so3 residual {so3_res.residual_norm:.1e} < 1e-12 "
        f"(report {so3_rep.max_norm:.1e}), "
        f"se3 residual {se3_res.residual_norm:.1e} < 1e-12 "
        f"(report {se3_rep.max_norm:.1e}), both reports < 1e-10",
    )


def test_criterion_7_degeneration():
    zero_grav = GravityParams(mgh=0.0, chi=(0.0, 0.0, 1.0))
    so3 = integrate(
        ModelKind.SO3,
        PARAMS,
        So3RotorState(pi=(1.0, 2.0, 3.0), alpha=0.0, l=0.5),
        dt=1e-3,
        t_end=5.0,
    )
    se3 = integrate(
        ModelKind.SE3,
        PARAMS,
        Se3RotorState(pi=(1.0, 2.0, 3.0), gamma=(0.6, 0.0, 0.8), alpha=0.0, l=0.5),
        grav=zero_grav,
        dt=1e-3,
        t_end=5.0,
    )
    dev = float(np.max(np.abs(se3.states[:, :3] - so3.states[:, :3])))
    _report(
        7,
        "restoring model with the torque switched off reduces to the "
        "symmetric one",
        dev < 1e-10 and len(so3.times) == len(se3.times),
        f"max momentum deviation {dev:.1e} < 1e-10 over "
        f"{len(so3.times)} shared samples",
    )


def test_criterion_8_bracket_structure_suite():
    pi_sq = ScalarField(
        dim=5,
        value=lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2,
        grad=lambda x: np.array([2 * x[0], 2 * x[1], 2 * x[2], 0.0, 0.0]),
    )
    pi_dot_gamma = ScalarField(
        dim=8,
        value=lambda x: x[0] * x[3] + x[1] * x[4] + x[2] * x[5],
        grad=lambda x: np.array([x[3], x[4], x[5], x[0], x[1], x[2], 0.0, 0.0]),
    )
    gamma_sq = ScalarField(
        dim=8,
        value=lambda x: x[3] ** 2 + x[4] ** 2 + x[5] ** 2,
        grad=lambda x: np.array(
            [0.0, 0.0, 0.0, 2 * x[3], 2 * x[4], 2 * x[5], 0.0, 0.0]
        ),
    )
    kinds5 = (
        BracketKind.RIGID_BODY_SO3,
        BracketKind.CANONICAL_R,
        BracketKind.PRODUCT_SO3,
    )
    kinds8 = (BracketKind.HEAVY_TOP_SE3, BracketKind.PRODUCT_SE3)

    rng = SplitMix64(2024)
    worst_anti = 0.0
    worst_leib = 0.0
    worst_cas = 0.0
    for _ in range(200):
        for dim, kinds in ((5, kinds5), (8, kinds8)):
            f = QuadraticField(dim, rng)
            k = QuadraticField(dim, rng)
            g = QuadraticField(dim, rng)
            x = random_point(rng, dim)
            ff, kf, gf = f.field(), k.field(), g.field()
            for kind in kinds:
                worst_anti = max(
                    worst_anti,
                    abs(bracket(kind, ff, kf, x) + bracket(kind, kf, ff, x)),
                )
            kind = kinds[-1]  # the full product bracket of that space
            lhs = bracket(kind, f.times(k), gf, x)
            t1 = f.value(x) * bracket(kind, kf, gf, x)
            t2 = k.value(x) * bracket(kind, ff, gf, x)
            worst_leib = max(
                worst_leib,
                abs(lhs - t1 - t2) / max(1.0, abs(t1) + abs(t2)),
            )
            if dim == 5:
                worst_cas = max(
                    worst_cas,
                    abs(bracket(BracketKind.RIGID_BODY_SO3, pi_sq, ff, x)),
                )
            else:
                worst_cas = max(
                    worst_cas,
                    abs(bracket(BracketKind.HEAVY_TOP_SE3, pi_dot_gamma, ff, x)),
                    abs(bracket(BracketKind.HEAVY_TOP_SE3, gamma_sq, ff, x)),
                )
    _report(
        8,
        "antisymmetry, Leibniz rule, and Casimir annihilation hold",
        worst_anti <= 1e-9 and worst_leib <= 1e-6 and worst_cas <= 1e-8,
        f"antisymmetry {worst_anti:.1e} <= 1e-9, "
        f"Leibniz rel {worst_leib:.3e} <= 1e-6, "
        f"Casimir {worst_cas:.3e} <= 1e-8, 200 field/point draws",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    scenario = {
        "model": "se3",
        "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
        "initial": {"pi": [1.0, 2.0, 3.0], "gamma": [0.6, 0.0, 0.8], "l": 0.5},
        "integrator": {"dt": 1e-3, "t_end": 0.5},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario), encoding="utf-8")

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.json"
        code = main([
            "simulate", "--config", str(cfg),
            "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    csv_identical = outputs[0] == outputs[1]
    capsys.readouterr()  # drop the simulate status lines

    reports = []
    for _ in range(2):
        code = main(["bracket-audit", "--config", str(cfg), "--seed", "42"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    audit_identical = reports[0] == reports[1]

    _report(
        9,
        "repeated CLI runs emit byte-identical artifacts",
        csv_identical and audit_identical,
        f"csv identical: {csv_identical}, audit report identical: "
        f"{audit_identical}",
    )


def _max_rel_drift(series):
    ref = float(series[0])
    return float(np.max(np.abs(series - ref))) / max(1.0, abs(ref))
