import math

import numpy as np

from rotation_reference import rot_x, rot_y, rot_z
from tiltwing.rotations import euler_angles, euler_zyx, euler_zyx_to_matrix


def _angles(n: int, seed: int, pitch_max: float = math.pi):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(-math.pi, math.pi), rng.uniform(-pitch_max, pitch_max),
               rng.uniform(-math.pi, math.pi))


def test_euler_zyx_matches_the_product_of_axis_rotations():
    """The float closed form is R_z(yaw) R_y(pitch) R_x(roll) to 1e-15."""
    for roll, pitch, yaw in _angles(1000, 3):
        ref = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
        assert np.max(np.abs(np.array(euler_zyx(roll, pitch, yaw)) - ref.ravel())) <= 1e-15


def test_euler_angles_inverts_euler_zyx():
    """The angles come back for |pitch| < pi/2, roll and yaw in (-pi, pi]."""
    for angles in _angles(1000, 5, pitch_max=1.5):
        assert np.allclose(euler_angles(euler_zyx(*angles)), angles, rtol=0.0, atol=1e-13)


def test_euler_zyx_to_matrix_is_orthonormal():
    """The array front holds the float entries and is a proper rotation."""
    for angles in _angles(1000, 7):
        R = euler_zyx_to_matrix(*angles)
        assert R.shape == (3, 3) and R.ravel().tolist() == list(euler_zyx(*angles))
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-15
        assert abs(np.linalg.det(R) - 1.0) <= 1e-15
