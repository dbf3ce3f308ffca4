"""Rotation helpers shared by the aero model, dynamics, and controllers.

Convention: body frame is forward-right-down, inertial frame is NED.
R_IB maps body vectors into the inertial frame; Euler angles are
ZYX (yaw-pitch-roll).
"""
from __future__ import annotations

import numpy as np


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x such that skew(v) @ u == cross(v, u)."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its general-shape setup."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_zyx_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Body-to-inertial rotation from ZYX Euler angles."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def matrix_to_euler_zyx(R: np.ndarray) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a body-to-inertial rotation matrix."""
    pitch = np.arcsin(np.clip(-R[2, 0], -1.0, 1.0))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return float(roll), float(pitch), float(yaw)


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion [w, x, y, z] of a rotation matrix (w >= 0)."""
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                      (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                      0.25 * s, (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a unit quaternion with w >= 0."""
    w = np.clip(q[0], -1.0, 1.0)
    vec = q[1:]
    n = np.linalg.norm(vec)
    if n < 1e-12:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(n, w)
    return vec / n * angle


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(R)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out
