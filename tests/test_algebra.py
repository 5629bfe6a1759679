import numpy as np
import pytest

from gyrostat.algebra import ConfigurationPoint, as_vec3

from helpers import rot_z


def test_as_vec3():
    v = as_vec3([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vec3([1, 2])
    with pytest.raises(ValueError):
        as_vec3([[1, 2, 3]])


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
