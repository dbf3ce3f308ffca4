"""Rotation helpers shared by the aero model, dynamics, and controllers.

Convention: body frame is forward-right-down, inertial frame is NED.
R_IB maps body vectors into the inertial frame; Euler angles are
ZYX (yaw-pitch-roll).
"""
from __future__ import annotations

import numpy as np


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


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(R)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out
