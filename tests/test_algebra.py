import numpy as np
import pytest

from gyrostat.algebra import (
    ConfigurationPoint,
    as_vec3,
    cross,
    orthonormality_residual,
    rot_x,
    rot_y,
    rot_z,
)


def test_cross_known_values():
    assert np.array_equal(cross((1, 0, 0), (0, 1, 0)), [0.0, 0.0, 1.0])
    assert np.array_equal(cross((0, 1, 0), (0, 0, 1)), [1.0, 0.0, 0.0])
    assert np.array_equal(cross((1, 2, 3), (4, 5, 6)), [-3.0, 6.0, -3.0])


def test_cross_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
        assert np.allclose(cross(a, b), np.cross(a, b), rtol=0, atol=1e-14)


def test_cross_anticommutes_exactly():
    a, b = np.array([1.3, -2.7, 0.4]), np.array([-0.9, 3.1, 2.2])
    assert np.array_equal(cross(a, b), -cross(b, a))


def test_as_vec3():
    v = as_vec3([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vec3([1, 2])
    with pytest.raises(ValueError):
        as_vec3([[1, 2, 3]])


def test_orthonormality_residual_identity_is_zero():
    assert orthonormality_residual(np.eye(3)) == 0.0


def test_orthonormality_residual_scaled_diagonal():
    # Stretching one diagonal entry by 1e-6 perturbs R^T R by about 2e-6
    # and the determinant by 1e-6; the residual sums both parts.
    r = np.eye(3)
    r[0, 0] = 1.0 + 1e-6
    assert orthonormality_residual(r) == pytest.approx(3.000001e-6, rel=1e-6)


def test_orthonormality_residual_shear():
    r = np.eye(3)
    r[0, 1] = 2e-6  # unit determinant, so only the orthonormality part
    assert orthonormality_residual(r) == pytest.approx(2e-6, rel=1e-9)


def test_orthonormality_residual_rejects_bad_shape():
    with pytest.raises(ValueError):
        orthonormality_residual(np.eye(4))


def test_rotation_factories_are_proper():
    for factory in (rot_x, rot_y, rot_z):
        for angle in (0.0, 0.3, -1.2, np.pi):
            assert orthonormality_residual(factory(angle)) < 1e-15


def test_rot_z_quarter_turn():
    assert np.allclose(rot_z(np.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(rot_x(np.pi / 2) @ [0, 1, 0], [0, 0, 1], atol=1e-15)
    assert np.allclose(rot_y(np.pi / 2) @ [0, 0, 1], [1, 0, 0], atol=1e-15)


def test_configuration_point_accepts_rotations():
    cfg = ConfigurationPoint(rotation=rot_z(0.7), rotor_angle=1.1)
    assert cfg.rotor_angle == 1.1
    assert np.array_equal(cfg.translation, np.zeros(3))


def test_configuration_point_keeps_translation():
    cfg = ConfigurationPoint(rotation=np.eye(3), translation=[1.0, 2.0, 3.0])
    assert np.array_equal(cfg.translation, [1.0, 2.0, 3.0])


def test_configuration_point_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="orthonormal"):
        ConfigurationPoint(rotation=bad)


def test_configuration_point_rejects_reflection():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="determinant"):
        ConfigurationPoint(rotation=refl)


def test_configuration_point_rejects_bad_shape():
    with pytest.raises(ValueError, match="3x3"):
        ConfigurationPoint(rotation=np.eye(2))


def test_configuration_point_rejects_nan_rotation():
    # A NaN defect compares false against the tolerance.
    with pytest.raises(ValueError, match="orthonormal"):
        ConfigurationPoint(rotation=np.full((3, 3), np.nan))
